"""End-to-end checks of the command line interface.

Each test drives ``pipesched.cli.main`` in-process with a real argument
vector and asserts on exit codes, console output, and the files it writes,
mirroring how the tool is used from a shell.  Solves use tiny single-edge
instances so the whole module stays fast.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pipesched
import pipesched.lp_io as lp_io
from pipesched.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_INVALID, EXIT_LIMIT, EXIT_OK, build_parser, main
from pipesched.generator import PathExperimentParams, generate_path_instance
from pipesched.instance import instance_to_dict, load_instance, save_instance
from pipesched.milpmodel import PLACEMENT, build_model, column_letters
from pipesched.schedule import Schedule
from pipesched.solver import _template_literal

from tests.conftest import single_edge_instance, with_capacity

FAST_SOLVE = ["--gap", "0", "--time-limit", "120"]


@pytest.fixture(scope="module")
def tiny_path(tmp_path_factory):
    """A one-batch, twelve-slot instance written to disk."""
    path = tmp_path_factory.mktemp("cli") / "tiny.json"
    save_instance(single_edge_instance(horizon=12, batches=1), path)
    return path


@pytest.fixture(scope="module")
def infeasible_path(tmp_path_factory):
    """The tiny instance with an already-executed dispatch that busts a tank."""
    inst = with_capacity(single_edge_instance(horizon=12, batches=1), 150)
    weights = dataclasses.replace(
        inst.weights,
        previous_plan=(("e1", "r1:flush:standard", 0),),
        executed=(("e1", "r1:flush:standard", 0),),
    )
    inst = dataclasses.replace(inst, weights=weights)
    path = tmp_path_factory.mktemp("cli-inf") / "stuck.json"
    save_instance(inst, path)
    return path


@pytest.fixture(scope="module")
def solved_dir(tiny_path, tmp_path_factory):
    """Artifacts of one successful `solve` run, shared across tests."""
    out_dir = tmp_path_factory.mktemp("cli-solved")
    rc = main(
        ["solve", "--instance", str(tiny_path), "--out-dir", str(out_dir), "--keep-files"]
        + FAST_SOLVE
    )
    assert rc == EXIT_OK
    return out_dir


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_loadable_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    rc = main(
        ["generate", "--out", str(out), "--vertices", "2", "--setting", "A",
         "--horizon", "12", "--nomination-batches", "1"]
    )
    assert rc == EXIT_OK
    assert f"wrote {out}" in capsys.readouterr().out
    inst = load_instance(out)
    assert inst.grid.horizon_len == 12
    assert {e.id for e in inst.edges} == {"e1"}


def test_generate_warns_when_defaults_cannot_be_met(tmp_path, capsys):
    out = tmp_path / "l8b.json"
    rc = main(["generate", "--out", str(out), "--vertices", "8", "--setting", "B"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK  # the file is still written for inspection
    assert out.exists()
    assert "warning:" in captured.err
    assert "cannot be feasible" in captured.err


def test_generate_oracle_seed_draws_micro_instance(tmp_path):
    out = tmp_path / "micro.json"
    assert main(["generate", "--out", str(out), "--oracle-seed", "3"]) == EXIT_OK
    inst = load_instance(out)
    assert inst.name == "oracle-3"
    assert inst.grid.horizon_len <= 24
    assert len(inst.edges) <= 2


# ---------------------------------------------------------------------------
# catalog and build


def test_catalog_prints_csv(tiny_path, capsys):
    assert main(["catalog", "--instance", str(tiny_path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "edge,batch,regime,product,volume,length,classification"
    assert any(line.startswith("e1,r1:flush:standard,") for line in lines[1:])


def test_catalog_writes_file(tiny_path, tmp_path):
    out = tmp_path / "catalog.csv"
    assert main(["catalog", "--instance", str(tiny_path), "--out", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8").startswith("edge,batch,")


def test_build_writes_lp_and_reports_sizes(tiny_path, tmp_path, capsys):
    out = tmp_path / "model.lp"
    assert main(["build", "--instance", str(tiny_path), "--out", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert "Maximize" in text and "Binary" in text
    stdout = capsys.readouterr().out
    model = build_model(load_instance(tiny_path))
    assert f"\nvariables: {len(model.variables)} ({model.metadata['binaries']} binary)\n" in stdout
    assert f"\nrows: {len(model.constraints)}\n" in stdout


def test_build_that_fails_to_write_its_lp_leaves_no_file(tiny_path, tmp_path, capsys, monkeypatch):
    real = lp_io._row_chunks

    def one_chunk_then_fail(*args):
        yield next(real(*args))
        raise lp_io.LPWriteError("constraint throughput_0 has no terms and cannot hold (0 <= -1)")

    monkeypatch.setattr(lp_io, "_row_chunks", one_chunk_then_fail)
    out = tmp_path / "m.lp"
    assert main(["build", "--instance", str(tiny_path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: cannot write {out}: constraint throughput_0 has no terms and cannot hold (0 <= -1)\n"
    assert not out.exists() and not (tmp_path / "m.lp.part").exists()


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_manifest_and_schedule(solved_dir, tiny_path):
    manifest = json.loads((solved_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "optimal"
    assert manifest["objective"] == pytest.approx(144.0)
    assert manifest["instance_hash"]
    assert manifest["warnings"] == []
    schedule = Schedule.load(solved_dir / "schedule.json")
    assert len(schedule) == manifest["placements"] > 0


def test_solve_keep_files_retains_solver_artifacts(solved_dir):
    assert list(solved_dir.glob("*.lp")), "LP file should be kept"
    assert list(solved_dir.glob("*.sol")), "solution file should be kept"


def test_solve_without_a_time_limit(tiny_path, tmp_path):
    out_dir = tmp_path / "run"
    rc = main(["solve", "--instance", str(tiny_path), "--out-dir", str(out_dir), "--time-limit", "inf"])
    assert rc == EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "optimal" and manifest["solver"]["time_limit"] is None


def test_solve_stopped_before_the_start_is_reported_writes_the_start(tmp_path):
    # a limit far below the child's first LP: the shim stops with status time_limit and no values, and
    # the driver reports its clean plan as the incumbent, validator-checked and exactly scored, with no bound
    path = tmp_path / "l4.json"
    save_instance(generate_path_instance(PathExperimentParams(vertices=4, setting="A")), path)
    out_dir = tmp_path / "run"
    rc = main(["solve", "--instance", str(path), "--out-dir", str(out_dir), "--time-limit", "1e-6"])
    assert rc == EXIT_LIMIT
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "time_limit" and manifest["bound"] is None and manifest["gap"] is None
    assert manifest["objective"] == manifest["start"]["objective"] == 1440
    assert manifest["placements"] == manifest["start"]["placements"]
    assert main(["validate", "--instance", str(path), "--schedule", str(out_dir / "schedule.json")]) == EXIT_OK


def test_solve_records_the_seed_only_a_template_passes(tiny_path, tmp_path):
    # the default template passes {seed}; a template without it records none
    for name, argv, seed in (("default", [], 0), ("no seed", ["--solver-cmd", "true {model}"], None)):
        out_dir = tmp_path / name
        main(["solve", "--instance", str(tiny_path), "--out-dir", str(out_dir), *argv])
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["solver"]["seed"] == seed
    assert manifest["status"] == "error"


def test_solve_reports_proven_infeasibility(infeasible_path, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(
        ["solve", "--instance", str(infeasible_path), "--out-dir", str(out_dir)] + FAST_SOLVE
    )
    assert rc == EXIT_INFEASIBLE
    assert "status: infeasible" in capsys.readouterr().out
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "infeasible"
    assert not (out_dir / "schedule.json").exists()


def canned_solver(tmp_path, solution: bytes) -> str:
    """A `--solver-cmd` template for a stand-in solver that writes `solution` as its solution file."""
    canned = tmp_path / "canned.sol"
    canned.write_bytes(solution)
    script = tmp_path / "copy_solver.py"
    script.write_text("import shutil, sys\nshutil.copyfile(sys.argv[1], sys.argv[2])\n")
    return " ".join(_template_literal(str(word)) for word in (sys.executable, script, canned)) + " {solution}"


def test_solve_does_not_write_a_rejected_schedule(tiny_path, tmp_path, capsys):
    # a stand-in solver "finds" flush at 0 and stain at 2, which overlap in the one pipe
    model = build_model(load_instance(tiny_path))
    overlap = [("e1", "r1:flush:standard", 0), ("e1", "r1:stain:standard", 2)]
    letters = column_letters(model)
    vids = [model.variables.vid(PLACEMENT, placement) for placement in overlap]
    names = [f"{letters[vid]}{vid}" for vid in vids]
    command = canned_solver(tmp_path, ("# Status = optimal\n" + "".join(f"{name} 1\n" for name in names)).encode())
    out_dir = tmp_path / "run"
    rc = main(["solve", "--instance", str(tiny_path), "--out-dir", str(out_dir), "--solver-cmd", command])
    assert rc == EXIT_INVALID
    stdout = capsys.readouterr().out
    assert "status: error" in stdout and "violating" in stdout
    assert "schedule:" not in stdout
    assert json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["status"] == "error"
    assert not (out_dir / "schedule.json").exists()


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "solution, message",
    [
        (b"# Status = optimal\n# Objective value = none\n", "solution line 2 reports 'none', not a finite number"),
        (b"# Status = optimal\n# Objective value = -\n", "solution line 2 reports '-', not a finite number"),
        (b"Optimal - objective value e\n", "solution line 1 reports 'e', not a finite number"),
        (b"# Status = optimal\n# Objective value = nan\n", "solution line 2 reports 'nan', not a finite number"),
        (
            b"# Status = optimal\n# Objective value = 0\n# Best bound = inf\n",
            "solution line 3 reports 'inf', not a finite number",
        ),
        (b"# Status = optimal\n# Message = caf\xe9\n", "solution file is not UTF-8 text: invalid continuation byte"),
        (b"# Status = optimal\nv0 1e400\n", "solution line 2 reports '1e400', not a finite number"),
    ],
    ids=["none", "dash", "cbc e", "nan objective", "inf bound", "not UTF-8", "inf binary"],
)
def test_malformed_solution_file_is_a_solver_error_with_a_manifest(tiny_path, tmp_path, capsys, solution, message):
    out_dir = tmp_path / "run"
    command = canned_solver(tmp_path, solution)
    rc = main(["solve", "--instance", str(tiny_path), "--out-dir", str(out_dir), "--solver-cmd", command])
    assert rc == EXIT_INVALID
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"), parse_constant=_no_constant)
    assert (manifest["status"], manifest["message"], manifest["bound"]) == ("error", message, None)
    assert not (out_dir / "schedule.json").exists()


def test_solve_without_a_schedule_removes_an_earlier_one(solved_dir, tiny_path, tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "schedule.json").write_bytes((solved_dir / "schedule.json").read_bytes())
    rc = main(["solve", "--instance", str(tiny_path), "--out-dir", str(out_dir), "--solver-cmd", "false"])
    assert rc == EXIT_INVALID
    assert "schedule:" not in capsys.readouterr().out
    assert json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["status"] == "error"
    assert not (out_dir / "schedule.json").exists()


@pytest.mark.parametrize("command", ["false", "true {model}"])
def test_silent_solver_without_solution_quotes_no_output(tiny_path, tmp_path, capsys, command):
    out_dir = tmp_path / "run"
    rc = main(["solve", "--instance", str(tiny_path), "--out-dir", str(out_dir), "--solver-cmd", command])
    assert rc == EXIT_INVALID
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note: ")]
    message = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["message"]
    code = 1 if command == "false" else 0
    assert notes == [f"note: {message}"]
    assert message == f"solver exited with code {code} and wrote no solution file"


NO_FLUSH_WARNING = (
    "staining batch r1:stain:standard on edge e1 has no flushing batch large enough to push it through"
)


@pytest.fixture(scope="module")
def no_flush_path(tmp_path_factory):
    """The tiny instance with a regime that cannot pump the flushing product."""
    inst = single_edge_instance(horizon=12, batches=1)
    [regime] = inst.regimes
    regime = dataclasses.replace(
        regime, flow_rate={"stain": regime.flow_rate["stain"]}, cost_per_batch={"r1:stain:standard": 3}
    )
    path = tmp_path_factory.mktemp("cli-no-flush") / "no-flush.json"
    save_instance(dataclasses.replace(inst, regimes=(regime,)), path)
    return path


def test_solve_reports_build_warnings(no_flush_path, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["solve", "--instance", str(no_flush_path), "--out-dir", str(out_dir)] + FAST_SOLVE)
    assert rc == EXIT_OK
    assert capsys.readouterr().err == f"warning: {NO_FLUSH_WARNING}\n"
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["warnings"] == [NO_FLUSH_WARNING]
    assert (manifest["status"], manifest["placements"]) == ("optimal", 0)


def test_build_reports_build_warnings(no_flush_path, tmp_path, capsys):
    assert main(["build", "--instance", str(no_flush_path), "--out", str(tmp_path / "m.lp")]) == EXIT_OK
    assert capsys.readouterr().err == f"warning: {NO_FLUSH_WARNING}\n"


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_solver_schedule(solved_dir, tiny_path, capsys):
    rc = main(
        ["validate", "--instance", str(tiny_path), "--schedule", str(solved_dir / "schedule.json")]
    )
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "valid: all rule families satisfied" in stdout
    assert "total: 144.000000" in stdout


def test_validate_writes_occupancy_csv(solved_dir, tiny_path, tmp_path):
    occ = tmp_path / "occupancy.csv"
    rc = main(
        ["validate", "--instance", str(tiny_path),
         "--schedule", str(solved_dir / "schedule.json"), "--occupancy", str(occ)]
    )
    assert rc == EXIT_OK
    lines = occ.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "site,product,t,lower,upper"
    assert len(lines) == 1 + 2 * 12  # two products over twelve slots


def test_validate_flags_broken_schedule(solved_dir, tiny_path, tmp_path, capsys):
    overlapping = tmp_path / "bad.json"
    Schedule.from_raw(
        [("e1", "r1:flush:standard", 0), ("e1", "r1:stain:standard", 2)]
    ).save(overlapping)
    rc = main(["validate", "--instance", str(tiny_path), "--schedule", str(overlapping)])
    assert rc == EXIT_INVALID
    stdout = capsys.readouterr().out
    assert "INVALID" in stdout
    assert "packing" in stdout


def test_validate_rejects_foreign_schedule(tiny_path, tmp_path, capsys):
    foreign = tmp_path / "foreign.json"
    Schedule.from_raw([("e9", "no:such:batch", 0)]).save(foreign)
    rc = main(["validate", "--instance", str(tiny_path), "--schedule", str(foreign)])
    assert rc == EXIT_CONFIG
    assert "does not match the instance" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle and gantt


def test_oracle_finds_optimum_and_writes_schedule(tiny_path, tmp_path, capsys):
    out = tmp_path / "best.json"
    rc = main(["oracle", "--instance", str(tiny_path), "--out", str(out)])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "status: optimal" in stdout
    assert "objective: 144.000000" in stdout
    assert main(["validate", "--instance", str(tiny_path), "--schedule", str(out)]) == EXIT_OK


def test_oracle_respects_node_budget(tiny_path, capsys):
    rc = main(["oracle", "--instance", str(tiny_path), "--node-budget", "1"])
    assert rc == EXIT_LIMIT
    assert "status: budget_exceeded" in capsys.readouterr().out


def test_oracle_detects_infeasibility(infeasible_path, capsys):
    rc = main(["oracle", "--instance", str(infeasible_path)])
    assert rc == EXIT_INFEASIBLE
    assert "status: infeasible" in capsys.readouterr().out


def test_oracle_beyond_its_limits_is_config_error(tmp_path, capsys):
    path = tmp_path / "l4.json"
    save_instance(generate_path_instance(PathExperimentParams(vertices=4)), path)
    rc = main(["oracle", "--instance", str(path)])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert captured.err == "error: too large for the oracle: instance has 3 edges, oracle limit is 2\n"
    assert "status:" not in captured.out


def test_gantt_lists_each_placement(solved_dir, tiny_path, capsys):
    rc = main(
        ["gantt", "--instance", str(tiny_path), "--schedule", str(solved_dir / "schedule.json")]
    )
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "edge,batch,product,start,end,volume"
    schedule = Schedule.load(solved_dir / "schedule.json")
    assert len(lines) == 1 + len(schedule)
    for line in lines[1:]:
        edge, batch, product, start, end, volume = line.split(",")
        assert (edge, batch, int(start)) in schedule.placements
        assert int(end) > int(start)


@pytest.fixture(scope="module")
def awkward_path(tmp_path_factory):
    """The tiny instance with a comma in its site id and a quote in its edge id."""
    text = json.dumps(instance_to_dict(single_edge_instance(horizon=12, batches=1)))
    path = tmp_path_factory.mktemp("cli-awkward") / "awkward.json"
    path.write_text(text.replace('"s1"', json.dumps("s,1")).replace('"e1"', json.dumps('e"1')), encoding="utf-8")
    return path


@pytest.mark.parametrize("name, written", [("june\nMinimize", r"june\nMinimize"), ("x\r\nEnd", r"x\r\nEnd")])
def test_line_breaks_in_the_instance_name_stay_in_the_lp_comment(tiny_path, tmp_path, name, written):
    path = tmp_path / "named.json"
    save_instance(dataclasses.replace(load_instance(tiny_path), name=name), path)
    out_dir = tmp_path / "run"
    rc = main(["solve", "--instance", str(path), "--out-dir", str(out_dir), "--keep-files"] + FAST_SOLVE)
    assert rc == EXIT_OK
    assert json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["objective"] == pytest.approx(144.0)
    text = next(out_dir.glob("*.lp")).read_bytes().decode("ascii")
    header = text.split("\n", 1)[0]
    assert header.startswith(f"\\ pipesched model {written} hash=")


def test_csv_outputs_quote_ids(awkward_path, tmp_path):
    # every row reads back with the header's field count and the ids as written
    run, catalog, occupancy, gantt = (tmp_path / name for name in ("run", "c.csv", "o.csv", "g.csv"))
    assert main(["solve", "--instance", str(awkward_path), "--out-dir", str(run)] + FAST_SOLVE) == EXIT_OK
    given = ["--instance", str(awkward_path)]
    with_schedule = given + ["--schedule", str(run / "schedule.json")]
    assert main(["catalog", *given, "--out", str(catalog)]) == EXIT_OK
    assert main(["validate", *with_schedule, "--occupancy", str(occupancy)]) == EXIT_OK
    assert main(["gantt", *with_schedule, "--out", str(gantt)]) == EXIT_OK
    for path, first_id in ((catalog, 'e"1'), (occupancy, "s,1"), (gantt, 'e"1')):
        with open(path, newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert rows and all(len(row) == len(header) for row in rows), path.name
        assert {row[0] for row in rows} == {first_id}, path.name


# ---------------------------------------------------------------------------
# experiment suite


def _summary(out_dir) -> dict:
    return json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))


def test_experiment_sd_suite_writes_summary(tmp_path):
    out_dir = tmp_path / "suite"
    rc = main(["experiment", "--suite", "SD", "--out-dir", str(out_dir)] + FAST_SOLVE)
    assert rc == EXIT_OK
    summary = _summary(out_dir)
    assert summary["suite"] == "SD"
    assert summary["runs"][0]["status"] == "optimal"
    assert summary["runs"][0]["objective"] == pytest.approx(1440.0)
    assert (out_dir / "sd-A-l4.json").exists()
    assert json.loads((out_dir / "sd-A-l4.manifest.json").read_text(encoding="utf-8"))["warnings"] == []
    assert (out_dir / "sd-A-l4.schedule.json").exists()


def test_experiment_runs_the_suite_once_per_length(tmp_path):
    out_dir = tmp_path / "suite"
    rc = main(["experiment", "--suite", "SD", "--vertices", "2", "3", "--out-dir", str(out_dir)] + FAST_SOLVE)
    assert rc == EXIT_OK
    summary = _summary(out_dir)
    assert set(summary) == {"suite", "outtake_policy", "runs", "comparisons"}
    assert summary["outtake_policy"] == "daily" and summary["comparisons"] == []
    assert [(run["tag"], run["vertices"]) for run in summary["runs"]] == [("sd-A-l2", 2), ("sd-A-l3", 3)]
    for run in summary["runs"]:
        assert run["status"] == "optimal" and run["setting"] == "A" and run["cost_mode"] == "SD"
        assert run["horizon"] == 480 and run["wall_time"] > 0
        assert run["objective"] == run["components"]["total"] > 0
        for suffix in ("json", "manifest.json", "schedule.json"):
            assert (out_dir / f"{run['tag']}.{suffix}").exists()


def test_experiment_sdc_suite_compares_pumping_cost(tmp_path, capsys):
    out_dir = tmp_path / "suite"
    rc = main(["experiment", "--suite", "SDC", "--vertices", "3", "--setting", "B", "--out-dir", str(out_dir)])
    assert rc == EXIT_OK
    summary = _summary(out_dir)
    sd, sdc = summary["runs"]
    assert (sd["tag"], sd["cost_mode"], sdc["tag"], sdc["cost_mode"]) == ("sd-B-l3", "SD", "sdc-B-l3", "SDC")
    [comparison] = summary["comparisons"]
    assert (comparison["vertices"], comparison["setting"]) == (3, "B")
    assert comparison["pumping_cost_sd"] == -sd["components"]["pumping_cost"]
    assert comparison["pumping_cost_sdc"] == -sdc["components"]["pumping_cost"]
    assert comparison["pumping_cost_sdc"] <= comparison["pumping_cost_sd"]
    assert comparison["extraction_sd"] == comparison["extraction_sdc"] == sd["objective"]
    improvement = comparison["cost_improvement"]
    assert improvement == pytest.approx(1 - comparison["pumping_cost_sdc"] / comparison["pumping_cost_sd"])
    assert f"({improvement:.1%} lower)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "suite, tags",
    [("SDC", ["sd-A-l2", "sdc-A-l2"]), ("large", ["large-C-l2"])],
)
def test_experiment_exits_with_the_worst_run_code(tmp_path, suite, tags):
    out_dir = tmp_path / "suite"
    rc = main(["experiment", "--suite", suite, "--vertices", "2", "--out-dir", str(out_dir), "--solver-cmd", "false"])
    assert rc == EXIT_INVALID
    summary = _summary(out_dir)
    assert [run["tag"] for run in summary["runs"]] == tags
    assert {run["status"] for run in summary["runs"]} == {"error"}
    assert summary["comparisons"] == []
    if suite == "large":
        assert (summary["runs"][0]["horizon"], summary["runs"][0]["cost_mode"]) == (744, "SDC")


def test_experiment_rejects_a_setting_its_suite_overrides(tmp_path, capsys):
    out_dir = tmp_path / "suite"
    rc = main(["experiment", "--suite", "large", "--vertices", "2", "--setting", "B", "--out-dir", str(out_dir)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "error: suite large runs setting C, not --setting B\n"
    assert not out_dir.exists()


def test_experiment_checks_every_length_before_solving(tmp_path, capsys):
    out_dir = tmp_path / "suite"
    rc = main(["experiment", "--suite", "SD", "--vertices", "3", "1", "--out-dir", str(out_dir)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot generate an instance: ")
    assert "[sd-" not in captured.out
    assert not list(tmp_path.rglob("*manifest.json"))


def test_experiment_model_build_error_is_config_error(tmp_path, capsys, monkeypatch):
    from pipesched import cli
    from pipesched.milpmodel import ModelBuildError

    def refuse(inst):
        raise ModelBuildError("no batch fits")

    monkeypatch.setattr(cli, "build_model", refuse)
    rc = main(["experiment", "--suite", "SD", "--out-dir", str(tmp_path / "suite")] + FAST_SOLVE)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "error: no batch fits\n"


# ---------------------------------------------------------------------------
# configuration errors


def test_missing_instance_file_is_config_error(tmp_path, capsys):
    rc = main(["catalog", "--instance", str(tmp_path / "nope.json")])
    assert rc == EXIT_CONFIG
    assert "instance file not found" in capsys.readouterr().err


def test_corrupt_instance_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    rc = main(["catalog", "--instance", str(bad)])
    assert rc == EXIT_CONFIG
    assert "could not parse instance" in capsys.readouterr().err


def test_incomplete_instance_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text("{}", encoding="utf-8")
    rc = main(["catalog", "--instance", str(bad)])
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "solve"])
def test_volume_beyond_the_model_rows_is_config_error(tiny_path, tmp_path, capsys, command):
    # a stock of 2**70 does not fit the model's 64-bit rows: refused before anything is written
    data = json.loads(tiny_path.read_text(encoding="utf-8"))
    next(s for s in data["sites"] if s["id"] == "s1")["capacity"]["flush"].update(initial=2**70, max=2**71)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data), encoding="utf-8")
    out = ["--out", str(tmp_path / "m.lp")] if command == "build" else ["--out-dir", str(tmp_path / "run")]
    assert main([command, "--instance", str(huge), *out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "volume_out_of_range" in err
    assert list(tmp_path.iterdir()) == [huge]


@pytest.mark.parametrize("kind", ["instance", "schedule"])
def test_directory_as_input_file_is_config_error(tiny_path, tmp_path, capsys, kind):
    # open() on a directory raises IsADirectoryError, an OSError other than FileNotFoundError
    instance = tmp_path if kind == "instance" else tiny_path
    rc = main(["validate", "--instance", str(instance), "--schedule", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: could not read {kind} {tmp_path}: ")


def test_missing_schedule_file_is_config_error(tiny_path, tmp_path, capsys):
    rc = main(
        ["validate", "--instance", str(tiny_path), "--schedule", str(tmp_path / "none.json")]
    )
    assert rc == EXIT_CONFIG
    assert "schedule file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, reason",
    [
        (["generate", "--vertices", "1"], "at least a refinery and one storage site"),
        (["experiment", "--suite", "SD", "--vertices", "1"], "at least a refinery and one storage site"),
        (["generate", "--horizon", "0"], "nonpositive_horizon"),
        (["generate", "--nomination-batches", "-3"], "nomination_negative_limit"),
    ],
    ids=["generate one vertex", "experiment one vertex", "zero horizon", "negative nomination"],
)
def test_bad_generator_parameters_are_config_errors(tmp_path, capsys, args, reason):
    out = ["--out-dir", str(tmp_path / "suite")] if args[0] == "experiment" else ["--out", str(tmp_path / "inst.json")]
    rc = main(args + out)
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error: cannot generate an instance: ")
    assert reason in err
    assert not (tmp_path / "inst.json").exists()


@pytest.mark.parametrize("command", ["generate", "build", "catalog", "gantt", "oracle", "validate"])
def test_output_into_missing_directory_is_config_error(solved_dir, tiny_path, tmp_path, capsys, command):
    target = tmp_path / "nodir" / "out"
    schedule = str(solved_dir / "schedule.json")
    args = {
        "generate": ["--out", str(target), "--vertices", "2", "--horizon", "12", "--nomination-batches", "1"],
        "build": ["--instance", str(tiny_path), "--out", str(target)],
        "catalog": ["--instance", str(tiny_path), "--out", str(target)],
        "gantt": ["--instance", str(tiny_path), "--schedule", schedule, "--out", str(target)],
        "oracle": ["--instance", str(tiny_path), "--out", str(target)],
        "validate": ["--instance", str(tiny_path), "--schedule", schedule, "--occupancy", str(target)],
    }[command]
    rc = main([command] + args)
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error: ") and str(target) in err


MALFORMED_INSTANCES = {
    "horizon length abc": lambda d: d["horizon"].update(length="abc"),
    "products 5": lambda d: d.update(products=5),
    "flow rate x": lambda d: d["regimes"][0].update(flow_rate="x"),
    "pipe volume [1]": lambda d: d["edges"][0].update(pipe_volume=[1]),
    "pipe volume 2.5": lambda d: d["edges"][0].update(pipe_volume=2.5),
    "edge id null": lambda d: d["edges"][0].update(id=None),
    "regime edges a string": lambda d: d["regimes"][0].update(edges="e1"),
    "nominations {}": lambda d: d.update(nominations={}),
}


@pytest.mark.parametrize("spoil", MALFORMED_INSTANCES.values(), ids=MALFORMED_INSTANCES.keys())
def test_malformed_instance_values_are_config_errors(solved_dir, tmp_path, capsys, spoil):
    data = instance_to_dict(single_edge_instance(horizon=12, batches=1))
    spoil(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["validate", "--instance", str(bad), "--schedule", str(solved_dir / "schedule.json")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: could not parse instance {bad}: ")


@pytest.mark.parametrize(
    "command, text",
    [
        ("gantt", '{"placements": [["e1"]]}'),
        ("gantt", "{ not json"),
        ("validate", '{"placements": 5}'),
        ("gantt", '{"placements": 5}'),
        ("validate", "[1, 2]"),
        ("gantt", "[1, 2]"),
        ("validate", '{"placements": [["e1", "r1:flush:standard", 1.7]]}'),
        ("gantt", '{"placements": [["e1", "r1:flush:standard", true]]}'),
        ("validate", '{"placements": [["e1", null, 0]]}'),
    ],
    ids=["gantt short placement", "gantt not json", "validate placements 5", "gantt placements 5",
         "validate list", "gantt list", "validate float start", "gantt boolean start", "validate null batch"],
)
def test_malformed_schedule_files_are_config_errors(tiny_path, tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    rc = main([command, "--instance", str(tiny_path), "--schedule", str(bad)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: could not parse schedule {bad}: ")


SOLVE_X = ["solve", "--instance", "x.json", "--out-dir", "o"]


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--instance", "x.json"],
        SOLVE_X + ["--gap", "abc"],
        [],
        SOLVE_X + ["--time-limit", "-5"],
        SOLVE_X + ["--time-limit", "0"],
        SOLVE_X + ["--gap", "-1"],
        SOLVE_X + ["--gap", "nan"],
        SOLVE_X + ["--threads", "-3"],
        ["experiment", "--suite", "SD", "--out-dir", "o", "--time-limit", "-5"],
        ["experiment", "--suite", "SD", "--out-dir", "o", "--vertices"],
        SOLVE_X + ["--solver-cmd", "mysolver {model} {solution} {foo}"],
        SOLVE_X + ["--solver-cmd", "mysolver 'open {model} {solution}"],
        ["experiment", "--suite", "SD", "--out-dir", "o", "--solver-cmd", "x {model} {nope}"],
        ["validate", "--instance", "x.json", "--schedule", "s.json", "--max-violations", "-1"],
        ["oracle", "--instance", "x.json", "--node-budget", "0"],
        SOLVE_X + ["--lazy"],
        ["experiment", "--suite", "SD", "--out-dir", "o", "--monolithic"],
    ],
    ids=["missing out dir", "gap not a number", "no command", "negative time limit", "zero time limit",
         "negative gap", "gap nan", "negative threads", "experiment negative time limit", "experiment no vertices",
         "unknown template placeholder", "unclosed template quote", "experiment unknown placeholder",
         "negative max violations", "zero node budget", "solve lazy", "experiment monolithic"],
)
def test_usage_errors_exit_with_config_code(capsys, args):
    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_solver_flags_accept_their_bounds():
    args = build_parser().parse_args(SOLVE_X + ["--gap", "0", "--threads", "0", "--time-limit", "0.5"])
    assert (args.gap, args.threads, args.time_limit) == (0.0, 0, 0.5)


@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"], ["--version"]])
def test_help_and_version_exit_zero(args):
    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == EXIT_OK


# ---------------------------------------------------------------------------
# a closed standard output


def _cli_subprocess(args, cwd, stdout, unbuffered: str, **kwargs):
    """`python -m pipesched.cli ARGS` with the given stdout, each print written at once or only at exit."""
    env = {**os.environ, "PYTHONPATH": str(Path(pipesched.__file__).parents[1]), "PYTHONUNBUFFERED": unbuffered}
    return subprocess.run(
        [sys.executable, "-m", "pipesched.cli", *args], cwd=cwd, stdout=stdout, stderr=subprocess.PIPE, text=True,
        timeout=120, env=env, **kwargs,
    )


BUFFERING = pytest.mark.parametrize("unbuffered", ["1", ""], ids=["every print writes", "the exit flush writes"])


@BUFFERING
@pytest.mark.parametrize(
    "command, code",
    [
        (["catalog"], EXIT_OK),
        (["build", "--out", "m.lp"], EXIT_OK),
        (["solve", "--out-dir", "run", "--solver-cmd", "false"], EXIT_INVALID),
    ],
    ids=["catalog", "build", "failing solve"],
)
def test_closed_stdout_keeps_the_exit_code(tiny_path, tmp_path, command, code, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has left before the command prints anything
    try:
        args = [command[0], "--instance", str(tiny_path), *command[1:]]
        proc = _cli_subprocess(args, tmp_path, write_end, unbuffered)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")
    if command[0] == "build":
        assert "Maximize" in (tmp_path / "m.lp").read_text(encoding="utf-8")


@BUFFERING
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_an_unwritable_output(tiny_path, tmp_path, unbuffered):
    with open("/dev/full", "w") as full:
        proc = _cli_subprocess(["catalog", "--instance", str(tiny_path)], tmp_path, full, unbuffered)
    assert (proc.returncode, proc.stderr) == (EXIT_CONFIG, "error: [Errno 28] No space left on device\n")


def test_no_stdout_at_all_prints_nothing(tiny_path, tmp_path):
    # file descriptor 1 closed before the interpreter starts, so sys.stdout is None
    args = ["catalog", "--instance", str(tiny_path)]
    proc = _cli_subprocess(args, tmp_path, None, "", preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
