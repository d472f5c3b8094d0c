"""Subprocess solver driver and the lazy capacity-constraint loop."""

from __future__ import annotations

import dataclasses
import gc
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest

from pipesched.batches import enumerate_batches
from pipesched.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_LIMIT, EXIT_OK
from pipesched.milpmodel import BuildOptions, build_model
from pipesched.schedule import Schedule
from pipesched.solver import (
    COMMAND_ENV_VAR,
    STATUS_ERROR,
    STATUS_GAP,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    SolveResult,
    SolverConfig,
    _finalize,
    _template_literal,
    default_solver_command,
    solve,
    solve_lazy_capacity,
)
from tests.conftest import TINY_LP, single_edge_instance, with_capacity


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
    assert res.message.startswith("solver run failed: ") and "No such file or directory: '/nonexistent/solver'" in res.message


def test_solver_timeout_becomes_error_status(ref1_small, monkeypatch):
    # the real subprocess timeout is at least 60 s, so the expiry is simulated
    seen = {}

    def expire(argv, **kwargs):
        seen["timeout"] = kwargs["timeout"]
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr("pipesched.solver.subprocess.run", expire)
    res = solve(build_model(ref1_small), SolverConfig(time_limit=1))
    assert seen == {"timeout": 122}  # twice the time limit plus two minutes
    assert res.status == STATUS_ERROR and res.schedule is None
    assert res.message.startswith("solver run failed: ") and res.message.endswith("timed out after 122 seconds")


@pytest.mark.parametrize("time_limit", [float("inf"), 1e7])
def test_time_limit_beyond_the_watchdog_range_runs_without_one(ref1_small, monkeypatch, time_limit):
    seen = {}

    def refuse(argv, **kwargs):
        seen["timeout"] = kwargs["timeout"]
        raise OSError("not started")

    monkeypatch.setattr("pipesched.solver.subprocess.run", refuse)
    res = solve(build_model(ref1_small), SolverConfig(time_limit=time_limit))
    assert seen == {"timeout": None}
    assert res.status == STATUS_ERROR and res.message == "solver run failed: not started"


@pytest.mark.parametrize(
    "template, problem",
    [("mysolver {model} {solution} {foo}", "unknown placeholder ('foo')"), ("mysolver 'open", "No closing quotation")],
)
def test_bad_command_template_becomes_error_status(ref1_small, tmp_path, template, problem):
    res = solve(build_model(ref1_small), SolverConfig(command=template, work_dir=tmp_path))
    assert res.status == STATUS_ERROR and res.schedule is None
    assert res.message.startswith(f"solver command {template!r}") and problem in res.message
    assert list(tmp_path.iterdir()) == []


def test_shim_without_the_highs_core_is_an_error(ref1_small, tmp_path, monkeypatch):
    # an empty `scipy` package first on the child's path hides the real one
    (tmp_path / "fake" / "scipy").mkdir(parents=True)
    (tmp_path / "fake" / "scipy" / "__init__.py").write_text("")
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(tmp_path / "fake"), inherited])))
    monkeypatch.delenv(COMMAND_ENV_VAR, raising=False)
    res = solve(build_model(ref1_small), SolverConfig(time_limit=60, work_dir=tmp_path / "work"))
    assert res.status == STATUS_ERROR and res.schedule is None
    assert res.message.startswith("solver exit 1: ") and "scipy>=1.15" in res.message
    solution = (tmp_path / "work" / "model.sol").read_text()
    assert solution.startswith("# Status = error\n# Message = ImportError: ") and "scipy>=1.15" in solution


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


def test_solve_without_work_dir_removes_its_files(ref1_small, tmp_path, quick_cfg, monkeypatch):
    # keep_files is accepted and ignored: without a work dir the files go with their temp dir, which
    # the solve removes itself rather than leaving it to a finalizer's ResourceWarning
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = solve(build_model(ref1_small), dataclasses.replace(quick_cfg, keep_files=True))
        gc.collect()
    assert res.status == STATUS_OPTIMAL
    assert list(tmp_path.iterdir()) == []
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_default_command_runs_without_the_package_on_the_path(tmp_path):
    import os
    import shlex
    import subprocess

    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "m.sol"
    model_path.write_text(TINY_LP)
    argv = [
        tok.format(model=model_path, solution=sol_path, time_limit=60, gap=0, threads=1)
        for tok in shlex.split(default_solver_command())
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "# Status = optimal" in sol_path.read_text()


def test_default_command_passes_threads(ref1_small, monkeypatch, quick_cfg):
    import types

    import pipesched.solver as solver_module

    argvs = []

    def run(argv, **kwargs):
        argvs.append(argv)
        return subprocess.run(argv, **kwargs)

    monkeypatch.setattr(solver_module, "subprocess", types.SimpleNamespace(run=run, TimeoutExpired=subprocess.TimeoutExpired))
    monkeypatch.delenv(COMMAND_ENV_VAR, raising=False)
    res = solve(build_model(ref1_small), dataclasses.replace(quick_cfg, threads=2))
    assert (res.status, res.objective) == (STATUS_OPTIMAL, 144)
    assert argvs[0][-2:] == ["--threads", "2"]


def test_finalize_keeps_status_and_message_per_outcome(ref1_small):
    model = build_model(ref1_small)
    flush = ("e1", "r1:flush:standard", 0)
    overlapping = Schedule.from_raw([flush, ("e1", "r1:stain:standard", 2)])

    def raw(status, schedule, objective, message=""):
        return SolveResult(status, schedule, objective_float=objective, wall_time=1.0, message=message)

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


FAKE_SOLVER = """
import os, signal, sys
mode, model, solution = sys.argv[1:4]
if mode == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
from pipesched.solver_shim import main
main([model, solution, "--time-limit", "60", "--gap", "0"])
text = open(solution).read()
first_value = text.index("\\n", text.rindex("# ")) + 1
cut = {
    "after first value line": text.index("\\n", first_value) + 1,
    "inside a name": text.index("\\n", first_value) + 2,
    "after a name": text.index(" ", first_value),
}[mode]
with open(solution, "w") as fh:
    fh.write(text[:cut])
"""


def _fake_solver_config(tmp_path, mode: str) -> SolverConfig:
    """The shim, then a cut of its solution file at `mode`; or, for "kill", death before writing."""
    script = tmp_path / "fake_solver.py"
    script.write_text(FAKE_SOLVER)
    command = " ".join(_template_literal(word) for word in (sys.executable, str(script), mode))
    return SolverConfig(command=command + " {model} {solution}", time_limit=60, gap=0.0, work_dir=tmp_path / "work")


@pytest.mark.parametrize("mode", ["after first value line", "inside a name", "after a name"])
def test_solution_cut_inside_its_values_is_an_error(ref1_small, tmp_path, mode):
    res = solve(build_model(ref1_small), _fake_solver_config(tmp_path, mode))
    assert res.status == STATUS_ERROR
    mismatch = r"unparseable solution line|objective .* disagrees with recomputed|drifts .* from exact re-evaluation"
    assert re.search(mismatch, res.message), res.message


COPY_SOLVER = """
import shutil, sys
source, code, solution = sys.argv[1:4]
shutil.copyfile(source, solution)
print("copied", file=sys.stderr)
sys.exit(int(code))
"""

# v0 is the flush dispatch (e1, r1:flush:standard, 0), worth 100 on ref1_small
FLUSH_ONLY = "# Objective value = 100\nv0 1\n"


@pytest.mark.parametrize(
    "text, exit_code, status, message, cli_code",
    [
        ("# Status = optimal\n# Best bound = 100\n" + FLUSH_ONLY, 0, STATUS_OPTIMAL, "", EXIT_OK),
        ("# Status = optimal\n# Best bound = 144\n" + FLUSH_ONLY, 0, STATUS_GAP, "", EXIT_OK),
        ("# Status = time_limit\n" + FLUSH_ONLY, 0, STATUS_TIME_LIMIT, "", EXIT_LIMIT),
        ("# Status = time_limit\n", 0, STATUS_TIME_LIMIT, "", EXIT_LIMIT),
        ("# Status = infeasible\n", 0, STATUS_INFEASIBLE, "", EXIT_INFEASIBLE),
        ("# Status = unbounded\n", 0, STATUS_ERROR, "model reported unbounded", EXIT_INVALID),
        ("# Status = error\n" + FLUSH_ONLY, 0, STATUS_ERROR, "", EXIT_INVALID),
        ("# Status = error\n", 0, STATUS_ERROR, "", EXIT_INVALID),
        ("# Status = error\n# Message = boom\n", 1, STATUS_ERROR, "solver exit 1: copied", EXIT_INVALID),
    ],
    ids=[
        "optimal", "gap with bound", "time limit with values", "time limit without values", "infeasible",
        "unbounded", "error with values", "error without values", "nonzero exit",
    ],
)
def test_solution_file_status_maps_to_result_and_exit_code(
    ref1_small, tmp_path, text, exit_code, status, message, cli_code
):
    from pipesched.cli import _solve_exit_code

    script, source = tmp_path / "copy_solver.py", tmp_path / "canned.sol"
    script.write_text(COPY_SOLVER)
    source.write_text(text)
    words = " ".join(_template_literal(str(word)) for word in (sys.executable, script, source, exit_code))
    res = solve(build_model(ref1_small), SolverConfig(command=words + " {solution}", time_limit=10))
    assert res.status == status
    assert res.message.startswith(message) and bool(res.message) == bool(message), res.message
    assert (res.schedule is not None) == (status in (STATUS_OPTIMAL, STATUS_GAP, STATUS_TIME_LIMIT) and "v0" in text)
    assert _solve_exit_code(res) == cli_code


def test_solution_file_with_byte_order_mark_parses(ref1_small, tmp_path):
    script, source = tmp_path / "copy_solver.py", tmp_path / "canned.sol"
    script.write_text(COPY_SOLVER)
    source.write_text("\ufeff# Status = optimal\n# Best bound = 100\n" + FLUSH_ONLY, encoding="utf-8")
    words = " ".join(_template_literal(str(word)) for word in (sys.executable, script, source, 0))
    res = solve(build_model(ref1_small), SolverConfig(command=words + " {solution}", time_limit=10))
    assert res.status == STATUS_OPTIMAL, res.message
    assert res.objective == 100
    assert res.schedule.placements == {("e1", "r1:flush:standard", 0)}


def test_shim_status_words_normalize_to_themselves():
    import ast
    import inspect

    from pipesched import solver_shim
    from pipesched.lp_io import _normalize_status

    tree = ast.parse(inspect.getsource(solver_shim._status_of))
    words = {
        node.value
        for ret in ast.walk(tree)
        if isinstance(ret, ast.Return)
        for node in ast.walk(ret)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert words == {"optimal", "gap_reached", "time_limit", "infeasible", "unbounded", "error"}
    assert {word: _normalize_status(word) for word in words} == {word: word for word in words}


def test_solver_killed_before_writing_is_an_error(ref1_small, tmp_path):
    cfg = _fake_solver_config(tmp_path, "kill")
    (tmp_path / "work").mkdir()
    (tmp_path / "work" / "model.sol").write_text("# Status = optimal\n# Objective value = 0\n")  # an earlier run's
    res = solve(build_model(ref1_small), cfg)
    assert res.status == STATUS_ERROR
    assert "wrote no solution file" in res.message
