"""Subprocess solver driver and the lazy capacity-constraint loop."""

from __future__ import annotations

import dataclasses

import pytest

from pipesched.batches import enumerate_batches
from pipesched.lp_io import ParsedSolution
from pipesched.milpmodel import BuildOptions, build_model
from pipesched.schedule import Schedule
from pipesched.solver import (
    STATUS_ERROR,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    SolverConfig,
    _finalize,
    _RawSolve,
    default_solver_command,
    solve,
    solve_lazy_capacity,
)
from tests.conftest import single_edge_instance, with_capacity


@pytest.fixture(scope="module")
def small_result(ref1_small, quick_cfg):
    return solve(build_model(ref1_small), quick_cfg)


def test_small_fixture_reaches_known_optimum(small_result):
    assert small_result.status == STATUS_OPTIMAL
    assert small_result.objective == 144  # one flush + one stain fully extracted
    assert small_result.violations == []


def test_driver_reports_exact_components(small_result):
    comps = small_result.components
    assert comps["extraction"] == 144
    assert comps["total"] == 144


def test_long_horizon_extracts_full_nomination(ref1_long, quick_cfg):
    res = solve(build_model(ref1_long), quick_cfg)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 1440
    assert len(res.schedule.placements) == 20  # 10 flush + 10 stain dispatches
    assert res.violations == []


def test_lazy_loop_activates_bounds_and_matches_monolithic(quick_cfg):
    inst = single_edge_instance(horizon=24, cmax=150)
    lazy_model = build_model(inst, BuildOptions(capacity_lazy=True))
    lazy = solve_lazy_capacity(lazy_model, quick_cfg)
    mono = solve(build_model(inst), quick_cfg)
    assert lazy.status == STATUS_OPTIMAL and mono.status == STATUS_OPTIMAL
    assert lazy.objective == mono.objective
    assert len(lazy.iterations) >= 2  # at least one violated round plus the clean one
    assert sum(it.added_rows for it in lazy.iterations) >= 1
    assert lazy.violations == []


def test_lazy_loop_without_lazy_rows_is_single_round(ref1_small, quick_cfg):
    model = build_model(ref1_small)  # bounds shipped eagerly
    res = solve_lazy_capacity(model, quick_cfg)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 144
    assert len(res.iterations) == 1


def test_forced_placement_against_tight_tank_is_infeasible(quick_cfg):
    inst = single_edge_instance(horizon=24, cmax=150)
    weights = dataclasses.replace(
        inst.weights,
        previous_plan=(("e1", "r1:flush:standard", 0),),
        executed=(("e1", "r1:flush:standard", 0),),
    )
    inst = dataclasses.replace(inst, weights=weights)
    res = solve(build_model(inst), quick_cfg)
    assert res.status == STATUS_INFEASIBLE
    assert res.schedule is None
    assert res.objective is None


def test_lazy_loop_proves_infeasibility(quick_cfg):
    inst = single_edge_instance(horizon=24, cmax=150)
    weights = dataclasses.replace(
        inst.weights,
        previous_plan=(("e1", "r1:flush:standard", 0),),
        executed=(("e1", "r1:flush:standard", 0),),
    )
    inst = dataclasses.replace(inst, weights=weights)
    res = solve_lazy_capacity(build_model(inst, BuildOptions(capacity_lazy=True)), quick_cfg)
    assert res.status == STATUS_INFEASIBLE


def test_env_var_selects_solver_command(ref1_small, monkeypatch, quick_cfg):
    import sys

    monkeypatch.setenv(
        "PIPESCHED_SOLVER_CMD",
        f"{sys.executable} -m pipesched.solver_shim {{model}} {{solution}} "
        "--time-limit {time_limit} --gap {gap}",
    )
    cfg = dataclasses.replace(quick_cfg, command=None)
    res = solve(build_model(ref1_small), cfg)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 144


def test_unrunnable_command_becomes_error_status(ref1_small):
    cfg = SolverConfig(command="/nonexistent/solver {model} {solution}", time_limit=10)
    res = solve(build_model(ref1_small), cfg)
    assert res.status == STATUS_ERROR
    assert res.schedule is None
    assert res.message


def test_command_that_writes_no_solution_becomes_error(ref1_small, tmp_path):
    cfg = SolverConfig(command="true {model} {solution}", time_limit=10)
    res = solve(build_model(ref1_small), cfg)
    assert res.status == STATUS_ERROR


def test_work_dir_keeps_artifacts(ref1_small, tmp_path, quick_cfg):
    cfg = dataclasses.replace(quick_cfg, work_dir=tmp_path, keep_files=True)
    res = solve(build_model(ref1_small), cfg)
    assert res.status == STATUS_OPTIMAL
    assert (tmp_path / "model.lp").exists()
    assert any(p.suffix == ".sol" for p in tmp_path.iterdir())


def test_default_command_runs_without_the_package_on_the_path(tmp_path):
    import os
    import shlex
    import subprocess

    from tests.test_solver_shim import TINY_LP

    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "m.sol"
    model_path.write_text(TINY_LP)
    argv = [
        tok.format(model=model_path, solution=sol_path, time_limit=60, gap=0)
        for tok in shlex.split(default_solver_command())
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "# Status = optimal" in sol_path.read_text()


def test_finalize_keeps_status_and_message_per_outcome(ref1_small):
    model = build_model(ref1_small)
    flush = ("e1", "r1:flush:standard", 0)
    overlapping = Schedule.from_raw([flush, ("e1", "r1:stain:standard", 2)])

    def raw(status, schedule, objective, message=""):
        parsed = ParsedSolution(schedule, objective, objective, None, None)
        return _RawSolve(status, parsed, objective, None, None, 1.0, message, {})

    clean = _finalize(model, raw(STATUS_OPTIMAL, Schedule.from_raw([flush]), 100.0), [], 2.0)
    assert (clean.status, clean.objective, clean.violations, clean.message) == (STATUS_OPTIMAL, 100, [], "")
    assert clean.components["total"] == 100 and clean.wall_time == 2.0

    drift = _finalize(model, raw(STATUS_OPTIMAL, Schedule.from_raw([flush]), 90.0), [], 2.0)
    assert drift.status == STATUS_ERROR and drift.objective == 100 and drift.schedule is not None
    assert drift.message == "solver objective 90.0 drifts 10.0 from exact re-evaluation 100.0"

    broken = _finalize(model, raw(STATUS_OPTIMAL, overlapping, 144.0), [], 2.0)
    assert broken.status == STATUS_ERROR and broken.violations and broken.objective == 144
    assert broken.message == f"solver returned a schedule violating {len(broken.violations)} rule(s)"

    failed = _finalize(model, raw(STATUS_ERROR, Schedule.from_raw([flush]), None, "boom"), [], 2.0)
    assert (failed.status, failed.schedule, failed.objective, failed.message) == (STATUS_ERROR, None, None, "boom")
