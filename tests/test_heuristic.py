"""List scheduler: validator-clean plans, and the MIP start they give a solve."""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import pipesched.heuristic as heuristic
from pipesched.batches import enumerate_batches
from pipesched.cli import main as cli_main
from pipesched.generator import PathExperimentParams, generate_oracle_instance, generate_path_instance
from pipesched.instance import load_instance, save_instance
from pipesched.lp_io import parse_solution, write_start
from pipesched.milpmodel import build_model
from pipesched.oracle import ORACLE_STATUS_OPTIMAL, brute_force_optimum
from pipesched.schedule import Schedule
from pipesched.solver import STATUS_OPTIMAL, SolverConfig, default_solver_command, solve
from pipesched.validator import check_schedule, evaluate_objective

SRC = Path(__file__).resolve().parents[1] / "src" / "pipesched"

# (generator parameters, optimum, whether the optimum extracts the whole nomination)
RUNGS = {
    "l4A": (dict(vertices=4, setting="A", cost_mode="SD"), Fraction(1440), True),
    "l6A": (dict(vertices=6, setting="A", cost_mode="SD"), Fraction(1440), True),
    "6B": (dict(vertices=6, setting="B", cost_mode="SDC"), Fraction(269937, 25), True),
    "l8C": (dict(vertices=8, setting="C", cost_mode="SDC"), Fraction("14394.105"), True),
    # the month: its tanks cannot take the whole nomination
    "month-l6": (
        dict(vertices=6, setting="C", cost_mode="SDC", nomination_batches=40, horizon=744),
        Fraction("26290.721"),
        False,
    ),
}
COLD = default_solver_command().replace(" --start {start}", "")


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_plan_is_clean_full_and_repeatable(rung):
    params, optimum, full = RUNGS[rung]
    inst = generate_path_instance(PathExperimentParams(**params))
    catalog = enumerate_batches(inst)
    start = heuristic.plan_start(inst, catalog)
    assert start.violations == [] and check_schedule(inst, catalog, start.schedule) == []
    components = evaluate_objective(inst, catalog, start.schedule)
    assert start.objective == components["total"]
    assert (components["extraction"] == sum(inst.nominations[0].limits.values())) == full
    assert optimum * (1 - Fraction(1, 1000)) <= start.objective <= optimum  # within the default gap
    assert heuristic.list_schedule(inst, catalog) == start.schedule


def test_plan_is_the_optimum_on_the_benchmark_instance():
    # both benchmark workloads solve 6B; a start at its optimum lets HiGHS stop at the root
    params, optimum, _full = RUNGS["6B"]
    inst = generate_path_instance(PathExperimentParams(**params))
    assert heuristic.plan_start(inst, enumerate_batches(inst)).objective == optimum


@pytest.mark.parametrize("seed", range(25))
def test_oracle_seed_plan_is_clean_or_absent_and_never_beats_the_optimum(seed):
    inst = generate_oracle_instance(seed)
    catalog = enumerate_batches(inst)
    start = heuristic.plan_start(inst, catalog)
    if start is None or start.schedule is None:
        assert start is None or start.violations
        return
    assert check_schedule(inst, catalog, start.schedule) == []
    exhaustive = brute_force_optimum(inst)
    assert exhaustive.status == ORACLE_STATUS_OPTIMAL and start.objective <= exhaustive.objective


def test_start_file_reads_back_as_its_plan(tmp_path):
    params, optimum, _full = RUNGS["6B"]
    model = build_model(generate_path_instance(PathExperimentParams(**params)))
    start = heuristic.plan_start(model.instance, model.catalog)
    text = Path(write_start(model, start.schedule, tmp_path / "m.start")).read_text(encoding="utf-8")
    assert text and all(re.fullmatch(r"v\d+ 1", line) for line in text.splitlines())
    parsed = parse_solution(text, model)
    assert parsed.schedule == start.schedule
    assert parsed.objective + float(model.objective_constant) == pytest.approx(float(optimum))
    assert write_start(model, None, tmp_path / "none.start") and (tmp_path / "none.start").read_text() == ""


def test_clashing_plan_is_dropped_unwritten_and_the_solve_stays_optimal(ref1_small, tmp_path, monkeypatch):
    # two flushes at once on the one edge: the validator rejects the plan, and HiGHS solves cold
    clash = Schedule.from_raw([("e1", "r1:flush:standard", 0), ("e1", "r1:flush:standard", 1)])
    monkeypatch.setattr(heuristic, "list_schedule", lambda inst, catalog: clash)
    res = solve(build_model(ref1_small), SolverConfig(gap=0.0, work_dir=tmp_path))
    assert (res.status, res.objective) == (STATUS_OPTIMAL, 144)
    assert res.start.schedule is None and {v.family for v in res.start.violations} >= {"packing"}
    assert (tmp_path / "model.start").read_text() == ""


def test_template_without_start_plans_nothing_and_writes_no_file(ref1_small, tmp_path, monkeypatch):
    monkeypatch.setattr(heuristic, "list_schedule", lambda inst, catalog: pytest.fail("planned without {start}"))
    config = SolverConfig(command=COLD, gap=0.0, work_dir=tmp_path)
    assert not config.names("start") and SolverConfig().names("start")
    assert config.argv("m.lp", "m.sol", "m.start")[2:] == [
        "m.lp", "m.sol", "--time-limit", "1800.0", "--gap", "0.0", "--threads", "1", "--seed", "0"
    ]
    res = solve(build_model(ref1_small), config)
    assert (res.status, res.objective, res.start) == (STATUS_OPTIMAL, 144, None)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.lp", "model.sol"]


@pytest.fixture(scope="module")
def l4a_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("l4a") / "l4a.json"
    save_instance(generate_path_instance(PathExperimentParams(**RUNGS["l4A"][0])), path)
    return path


def _manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def test_manifest_start_holds_the_plans_exact_objective(l4a_path, tmp_path):
    assert cli_main(["solve", "--instance", str(l4a_path), "--out-dir", str(tmp_path / "warm")]) == 0
    warm = _manifest(tmp_path / "warm")
    inst = load_instance(l4a_path)
    plan = heuristic.plan_start(inst, enumerate_batches(inst)).schedule
    assert warm["start"] == {"objective": 1440.0, "placements": len(plan)}
    assert warm["objective"] == 1440.0
    rc = cli_main(["solve", "--instance", str(l4a_path), "--out-dir", str(tmp_path / "cold"), "--solver-cmd", COLD])
    cold = _manifest(tmp_path / "cold")
    assert rc == 0 and (cold["start"], cold["objective"]) == (None, 1440.0)


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_manifest_bound_is_on_the_objectives_side_at_node_zero(rung, tmp_path):
    # every rung maximises; a proof whose LP bound lands a float's noise below the start is clamped to it
    params, optimum, _full = RUNGS[rung]
    save_instance(generate_path_instance(PathExperimentParams(**params)), tmp_path / "inst.json")
    assert cli_main(["solve", "--instance", str(tmp_path / "inst.json"), "--out-dir", str(tmp_path / "run")]) == 0
    manifest = _manifest(tmp_path / "run")
    assert (manifest["status"], manifest["objective"]) == ("optimal", float(optimum))
    assert manifest["bound"] >= manifest["objective"] and manifest["solver"]["nodes"] == 0


def test_manifest_counts_nodes_of_a_cold_solve(ref1_small, tmp_path):
    save_instance(ref1_small, tmp_path / "inst.json")
    args = ["solve", "--instance", str(tmp_path / "inst.json"), "--out-dir", str(tmp_path / "run"), "--solver-cmd", COLD]
    assert cli_main(args) == 0
    solver = _manifest(tmp_path / "run")["solver"]
    assert type(solver["nodes"]) is int and type(solver["simplex_iterations"]) is int


def test_manifest_start_says_why_a_plan_was_dropped(ref1_small, tmp_path, monkeypatch):
    clash = Schedule.from_raw([("e1", "r1:flush:standard", 0), ("e1", "r1:flush:standard", 1)])
    monkeypatch.setattr(heuristic, "list_schedule", lambda inst, catalog: clash)
    save_instance(ref1_small, tmp_path / "inst.json")
    assert cli_main(["solve", "--instance", str(tmp_path / "inst.json"), "--out-dir", str(tmp_path / "run")]) == 0
    dropped = _manifest(tmp_path / "run")["start"]["dropped"]
    count, families = dropped.split(" violations ")
    assert int(count) > 0 and "packing" in families.strip("()").split(", ")


def test_empty_plan_is_no_start(ref1_small, monkeypatch):
    monkeypatch.setattr(heuristic, "list_schedule", lambda inst, catalog: Schedule(frozenset()))
    assert heuristic.plan_start(ref1_small, enumerate_batches(ref1_small)) is None


def test_heuristic_imports_nothing_from_the_model_side():
    # like the oracle, the scheduler is a client of the validator: no builder, LP writer or solver
    tree = ast.parse((SRC / "heuristic.py").read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert relative == {"batches", "instance", "schedule", "validator"}
