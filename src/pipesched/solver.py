"""Subprocess solver driver and the lazy capacity-constraint loop.

The driver knows nothing about any particular solver: it writes an LP file,
runs a command built from a template with {model}, {solution}, {time_limit},
{gap} and {threads} placeholders, and parses the solution file back.  The
template comes from SolverConfig.command, the PIPESCHED_SOLVER_CMD
environment variable, or falls back to the bundled scipy/HiGHS shim.

`solve` ships the full model.  `solve_lazy_capacity` starts from the model
without its occupancy bound rows, simulates stock levels of each incumbent
and re-solves with exactly the violated bounds activated until the incumbent
is capacity-clean; since only relaxations are solved, a clean optimum is
optimal for the full model, and relaxation infeasibility proves the full
model infeasible.

Every returned schedule is re-checked by the independent validator and
re-scored exactly; the driver refuses to report a schedule that fails its
own rules.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .lp_io import ParsedSolution, SolutionFormatError, parse_solution, write_lp
from .milpmodel import MILPModel
from .schedule import Schedule
from .validator import (
    Violation,
    capacity_bound_violations,
    check_schedule,
    evaluate_objective,
    simulate_occupancy,
)

STATUS_OPTIMAL = "optimal"
STATUS_GAP = "gap_reached"
STATUS_TIME_LIMIT = "time_limit"
STATUS_INFEASIBLE = "infeasible"
STATUS_ERROR = "error"

COMMAND_ENV_VAR = "PIPESCHED_SOLVER_CMD"
DEFAULT_MAX_LAZY_ROUNDS = 50


def _template_literal(text: str) -> str:
    """`text` as one shell word that survives the template's str.format."""
    return shlex.quote(text).replace("{", "{{").replace("}", "}}")


def default_solver_command() -> str:
    """The bundled shim, started by file path: it imports nothing from this package,
    so the child runs whether or not `pipesched` is importable there."""
    shim = Path(__file__).resolve().with_name("solver_shim.py")
    return (
        f"{_template_literal(sys.executable)} {_template_literal(str(shim))} "
        "{model} {solution} --time-limit {time_limit} --gap {gap}"
    )


@dataclass
class SolverConfig:
    command: Optional[str] = None  # template; falls back to env var, then the shim
    time_limit: float = 1800.0  # seconds, per subprocess call
    gap: float = 1e-3  # relative MIP gap target
    threads: int = 1
    work_dir: Optional[Union[str, Path]] = None  # default: fresh temp dir
    keep_files: bool = False  # keep LP/solution files when using a temp dir
    max_lazy_rounds: int = DEFAULT_MAX_LAZY_ROUNDS

    def resolved_command(self) -> str:
        return self.command or os.environ.get(COMMAND_ENV_VAR) or default_solver_command()


@dataclass
class LazyIteration:
    index: int
    added_rows: int
    objective: Optional[float]
    status: str


@dataclass
class SolveResult:
    status: str
    schedule: Optional[Schedule]
    objective: Optional[Fraction]  # exact, validator-evaluated
    objective_float: Optional[float]
    bound: Optional[float]
    gap: Optional[float]
    components: Optional[dict]
    wall_time: float
    iterations: list[LazyIteration] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    message: str = ""
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OPTIMAL, STATUS_GAP) and self.schedule is not None


@dataclass
class _RawSolve:
    status: str
    parsed: Optional[ParsedSolution]
    objective_total: Optional[float]  # includes the model's objective constant
    bound_total: Optional[float]
    gap: Optional[float]
    wall_time: float
    message: str
    artifacts: dict[str, str]


def _relative_gap(objective: Optional[float], bound: Optional[float]) -> Optional[float]:
    if objective is None or bound is None:
        return None
    return abs(objective - bound) / max(1.0, abs(objective))


def _run_once(model: MILPModel, config: SolverConfig, activated: Optional[set[int]], workdir: Path, tag: str) -> _RawSolve:
    lp_path = workdir / f"{tag}.lp"
    sol_path = workdir / f"{tag}.sol"
    lp_path.write_text(write_lp(model, activated), encoding="utf-8")

    argv = [
        tok.format(
            model=str(lp_path),
            solution=str(sol_path),
            time_limit=config.time_limit,
            gap=config.gap,
            threads=config.threads,
        )
        for tok in shlex.split(config.resolved_command())
    ]
    artifacts = {f"{tag}_model": str(lp_path), f"{tag}_solution": str(sol_path)}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=max(60.0, config.time_limit * 2 + 120)
        )
    except (subprocess.TimeoutExpired, OSError) as exc:
        return _RawSolve(STATUS_ERROR, None, None, None, None, time.monotonic() - t0, f"solver run failed: {exc}", artifacts)
    wall = time.monotonic() - t0

    if not sol_path.exists():
        tail = (proc.stderr or proc.stdout or "").strip()[-400:]
        return _RawSolve(
            STATUS_ERROR, None, None, None, None, wall,
            f"solver exited with code {proc.returncode} and wrote no solution file: {tail}", artifacts,
        )
    try:
        parsed = parse_solution(sol_path.read_text(encoding="utf-8"), model)
    except SolutionFormatError as exc:
        return _RawSolve(STATUS_ERROR, None, None, None, None, wall, str(exc), artifacts)

    constant = float(model.objective_constant)
    objective_total = None if parsed.objective is None else parsed.objective + constant
    bound_total = None if parsed.bound is None else parsed.bound + constant
    gap = _relative_gap(objective_total, bound_total)

    hint = parsed.status_hint
    if hint == "infeasible":
        status = STATUS_INFEASIBLE
    elif hint == "unbounded":
        return _RawSolve(STATUS_ERROR, parsed, objective_total, bound_total, gap, wall, "model reported unbounded", artifacts)
    elif parsed.schedule is None:
        status = STATUS_TIME_LIMIT if hint == "time_limit" else STATUS_ERROR
    elif hint in (STATUS_TIME_LIMIT, "error"):
        status = STATUS_TIME_LIMIT if hint == STATUS_TIME_LIMIT else STATUS_ERROR
    elif gap is not None and gap > 1e-9:
        status = STATUS_GAP
    else:
        status = "optimal" if hint in (None, STATUS_OPTIMAL) else hint
    if status == STATUS_ERROR and proc.returncode != 0:
        tail = (proc.stderr or "").strip()[-400:]
        return _RawSolve(status, parsed, objective_total, bound_total, gap, wall, f"solver exit {proc.returncode}: {tail}", artifacts)
    return _RawSolve(status, parsed, objective_total, bound_total, gap, wall, "", artifacts)


def _finalize(model: MILPModel, raw: _RawSolve, iterations: list[LazyIteration], total_wall: float) -> SolveResult:
    schedule = raw.parsed.schedule if raw.parsed is not None else None
    status, message = raw.status, raw.message
    exact_total = components = None
    violations: list[Violation] = []
    if schedule is None or status in (STATUS_INFEASIBLE, STATUS_ERROR):
        schedule = None
    else:
        violations = check_schedule(model.instance, model.catalog, schedule, model.options)
        components = evaluate_objective(model.instance, model.catalog, schedule)
        exact_total = components["total"]
        drift = None if raw.objective_total is None else abs(float(exact_total) - raw.objective_total)
        if drift is not None and drift > 1e-5 * max(1.0, abs(float(exact_total))):
            status = STATUS_ERROR
            message = f"solver objective {raw.objective_total} drifts {drift} from exact re-evaluation {float(exact_total)}"
        elif violations:
            status = STATUS_ERROR
            message = f"solver returned a schedule violating {len(violations)} rule(s)"
    return SolveResult(
        status=status,
        schedule=schedule,
        objective=exact_total,
        objective_float=raw.objective_total,
        bound=raw.bound_total,
        gap=raw.gap,
        components=components,
        wall_time=total_wall,
        iterations=iterations,
        violations=violations,
        message=message,
        artifacts=raw.artifacts,
    )


class _WorkDir:
    def __init__(self, config: SolverConfig):
        self.config = config
        self.temp: Optional[tempfile.TemporaryDirectory] = None

    def __enter__(self) -> Path:
        if self.config.work_dir is not None:
            path = Path(self.config.work_dir)
            path.mkdir(parents=True, exist_ok=True)
            return path
        self.temp = tempfile.TemporaryDirectory(prefix="pipesched_")
        return Path(self.temp.name)

    def __exit__(self, *exc) -> None:
        if self.temp is not None and not self.config.keep_files:
            self.temp.cleanup()


def solve(model: MILPModel, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Single monolithic solve with every row (lazy rows included)."""
    t0 = time.monotonic()
    with _WorkDir(config) as workdir:
        raw = _run_once(model, config, None, workdir, "model")
        return _finalize(model, raw, [], time.monotonic() - t0)


def solve_lazy_capacity(model: MILPModel, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Row-generation loop over the occupancy bound rows.

    Build the model with BuildOptions(capacity_lazy=True) for the bounds to
    start deactivated; definitional occupancy rows always ship.  A model
    without lazy rows degenerates to a single solve.
    """
    t0 = time.monotonic()
    activated: set[int] = set()
    iterations: list[LazyIteration] = []
    with _WorkDir(config) as workdir:
        raw: Optional[_RawSolve] = None
        for round_idx in range(max(1, config.max_lazy_rounds)):
            raw = _run_once(model, config, activated, workdir, f"iter{round_idx}")
            if raw.status in (STATUS_INFEASIBLE, STATUS_ERROR) or raw.parsed is None or raw.parsed.schedule is None:
                iterations.append(LazyIteration(round_idx, 0, raw.objective_total, raw.status))
                return _finalize(model, raw, iterations, time.monotonic() - t0)
            occupancy = simulate_occupancy(model.instance, model.catalog, raw.parsed.schedule)
            violated = capacity_bound_violations(model.instance, occupancy)
            new_rows: set[int] = set()
            for v in violated:
                key = (v.family, *v.coordinate)
                row = model.lazy_bounds.get(key)
                if row is not None and row not in activated:
                    new_rows.add(row)
            iterations.append(LazyIteration(round_idx, len(new_rows), raw.objective_total, raw.status))
            if not new_rows:
                return _finalize(model, raw, iterations, time.monotonic() - t0)
            activated |= new_rows
        assert raw is not None
        result = _finalize(model, raw, iterations, time.monotonic() - t0)
        result.status = STATUS_ERROR
        result.message = f"lazy capacity loop did not converge within {config.max_lazy_rounds} rounds"
        return result
