"""End-to-end checks of the command line interface.

Each test drives ``pipesched.cli.main`` in-process with a real argument
vector and asserts on exit codes, console output, and the files it writes,
mirroring how the tool is used from a shell.  Solves use tiny single-edge
instances so the whole module stays fast.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from pipesched.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_INVALID, EXIT_LIMIT, EXIT_OK, main
from pipesched.instance import instance_to_dict, load_instance, save_instance
from pipesched.schedule import Schedule

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
    assert "variables:" in stdout and "rows:" in stdout
    assert "(0 lazily activated)" in stdout


def test_build_lazy_marks_capacity_rows(tiny_path, tmp_path, capsys):
    out = tmp_path / "model.lp"
    rc = main(["build", "--instance", str(tiny_path), "--out", str(out), "--lazy"])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    lazily = int(stdout.split("(")[-1].split(" lazily")[0])
    assert lazily > 0


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_manifest_and_schedule(solved_dir, tiny_path):
    manifest = json.loads((solved_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "optimal"
    assert manifest["objective"] == pytest.approx(144.0)
    assert manifest["instance_hash"]
    assert manifest["lazy_iterations"] == []
    schedule = Schedule.load(solved_dir / "schedule.json")
    assert len(schedule) == manifest["placements"] > 0


def test_solve_keep_files_retains_solver_artifacts(solved_dir):
    assert list(solved_dir.glob("*.lp")), "LP file should be kept"
    assert list(solved_dir.glob("*.sol")), "solution file should be kept"


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


def test_solve_lazy_records_iterations(tiny_path, tmp_path):
    out_dir = tmp_path / "lazy"
    rc = main(
        ["solve", "--instance", str(tiny_path), "--out-dir", str(out_dir), "--lazy"] + FAST_SOLVE
    )
    assert rc == EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["objective"] == pytest.approx(144.0)
    assert len(manifest["lazy_iterations"]) >= 1


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


# ---------------------------------------------------------------------------
# experiment suite


def test_experiment_sd_suite_writes_summary(tmp_path):
    out_dir = tmp_path / "suite"
    rc = main(["experiment", "--suite", "SD", "--out-dir", str(out_dir)] + FAST_SOLVE)
    assert rc == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["suite"] == "SD"
    assert summary["status"] == "optimal"
    assert summary["objective"] == pytest.approx(1440.0)
    assert (out_dir / "sd-A-l4.json").exists()
    assert (out_dir / "sd-A-l4.manifest.json").exists()
    assert (out_dir / "sd-A-l4.schedule.json").exists()


def test_experiment_model_build_error_is_config_error(tmp_path, capsys, monkeypatch):
    from pipesched import cli
    from pipesched.milpmodel import ModelBuildError

    def refuse(inst, options):
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


MALFORMED_INSTANCES = {
    "horizon length abc": lambda d: d["horizon"].update(length="abc"),
    "products 5": lambda d: d.update(products=5),
    "flow rate x": lambda d: d["regimes"][0].update(flow_rate="x"),
    "pipe volume [1]": lambda d: d["edges"][0].update(pipe_volume=[1]),
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
    ],
    ids=["gantt short placement", "gantt not json", "validate placements 5", "gantt placements 5",
         "validate list", "gantt list"],
)
def test_malformed_schedule_files_are_config_errors(tiny_path, tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    rc = main([command, "--instance", str(tiny_path), "--schedule", str(bad)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: could not parse schedule {bad}: ")


@pytest.mark.parametrize(
    "args",
    [["solve", "--instance", "x.json"], ["solve", "--instance", "x.json", "--out-dir", "o", "--gap", "abc"], []],
    ids=["missing out dir", "gap not a number", "no command"],
)
def test_usage_errors_exit_with_config_code(capsys, args):
    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"], ["--version"]])
def test_help_and_version_exit_zero(args):
    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == EXIT_OK
