"""Subprocess solver driver and the lazy capacity-constraint loop.

The driver knows nothing about any particular solver: it writes an LP file,
runs a command built from a template with {model}, {solution}, {time_limit},
{gap} and {threads} placeholders, and parses the solution file back.  The
template comes from SolverConfig.command, the PIPESCHED_SOLVER_CMD
environment variable, or falls back to the bundled scipy/HiGHS shim.  A time
limit of inf means no limit: the child then runs without a watchdog.

`solve` ships the full model.  `solve_lazy_capacity` starts from the model
without its occupancy bound rows, simulates stock levels of each incumbent
and re-solves with exactly the violated bounds activated until the incumbent
is capacity-clean; since only relaxations are solved, a clean optimum is
optimal for the full model, and relaxation infeasibility proves the full
model infeasible.  The command line uses `solve` only.

Every returned schedule is re-checked by the independent validator and
re-scored exactly; the driver refuses to report a schedule that fails its
own rules.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Union

from .lp_io import STATUS_ERROR, STATUS_GAP, STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_TIME_LIMIT, STATUS_UNBOUNDED
from .lp_io import SolutionFormatError, parse_solution, write_lp
from .milpmodel import FAM_CAP_LOWER, FAM_CAP_UPPER, OCC_LOWER, OCC_UPPER, MILPModel
from .schedule import Schedule
from .validator import (
    Violation,
    capacity_bound_violations,
    check_schedule,
    evaluate_objective,
    simulate_occupancy,
)

COMMAND_ENV_VAR = "PIPESCHED_SOLVER_CMD"
# subprocess.run waits with poll(), whose timeout is an int of milliseconds; a longer wait overflows it
_MAX_WATCHDOG_S = (2**31 - 1) / 1000
# a capacity bound row's family -> the kind of the occupancy column that is its one term
_BOUND_KIND = {FAM_CAP_UPPER: OCC_UPPER, FAM_CAP_LOWER: OCC_LOWER}


def _template_literal(text: str) -> str:
    """`text` as one shell word that survives the template's str.format."""
    return shlex.quote(text).replace("{", "{{").replace("}", "}}")


def default_solver_command() -> str:
    """The bundled shim, started by file path: it imports nothing from this package,
    so the child runs whether or not `pipesched` is importable there."""
    shim = Path(__file__).resolve().with_name("solver_shim.py")
    return (
        f"{_template_literal(sys.executable)} {_template_literal(str(shim))} "
        "{model} {solution} --time-limit {time_limit} --gap {gap} --threads {threads}"
    )


@dataclass
class SolverConfig:
    command: Optional[str] = None  # template; falls back to env var, then the shim
    time_limit: float = 1800.0  # seconds, per subprocess call
    gap: float = 1e-3  # relative MIP gap target
    threads: int = 1
    work_dir: Optional[Union[str, Path]] = None  # keeps the LP and solution files; default: a temp dir, removed
    keep_files: bool = False  # accepted and ignored: set `work_dir` to keep the files

    def resolved_command(self) -> str:
        return self.command or os.environ.get(COMMAND_ENV_VAR) or default_solver_command()

    def argv(self, model: Union[str, Path], solution: Union[str, Path]) -> list[str]:
        """The resolved template split into shell words with their placeholders filled in;
        raises ValueError for a template that does not split or names an unknown placeholder."""
        template = self.resolved_command()
        fields = dict(
            model=str(model), solution=str(solution), time_limit=self.time_limit, gap=self.gap, threads=self.threads
        )
        try:
            return [tok.format(**fields) for tok in shlex.split(template)]
        except (LookupError, AttributeError) as exc:  # {foo}, {0}, {model.x}
            raise ValueError(f"solver command {template!r} has an unknown placeholder ({exc})") from None
        except ValueError as exc:  # an unclosed quote or a lone brace
            raise ValueError(f"solver command {template!r}: {exc}") from None


@dataclass
class LazyIteration:
    index: int
    added_rows: int
    objective: Optional[float]
    status: str


@dataclass
class SolveResult:
    status: str
    schedule: Optional[Schedule] = None
    objective: Optional[Fraction] = None  # exact, validator-evaluated
    objective_float: Optional[float] = None  # the solver's, with the model's constant added
    bound: Optional[float] = None
    gap: Optional[float] = None
    components: Optional[dict] = None
    wall_time: float = 0.0
    iterations: list[LazyIteration] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OPTIMAL, STATUS_GAP) and self.schedule is not None


def _quote_output(message: str, output: Optional[str]) -> str:
    """`message`, followed by the tail of the child's `output` when it printed any."""
    tail = (output or "").strip()[-400:]
    return f"{message}: {tail}" if tail else message


def _run_once(model: MILPModel, config: SolverConfig, activated: Optional[set[int]], workdir: Path, tag: str) -> SolveResult:
    """One solver call, reported as the solution file says; `_finalize` checks it."""
    lp_path = workdir / f"{tag}.lp"
    sol_path = workdir / f"{tag}.sol"
    try:
        argv = config.argv(lp_path, sol_path)
    except ValueError as exc:
        return SolveResult(STATUS_ERROR, message=str(exc))
    write_lp(model, lp_path, activated)
    sol_path.unlink(missing_ok=True)  # a kept work dir may hold an earlier run's solution

    watchdog = max(60.0, config.time_limit * 2 + 120)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=watchdog if watchdog <= _MAX_WATCHDOG_S else None
        )
    except (subprocess.TimeoutExpired, OSError) as exc:
        return SolveResult(STATUS_ERROR, wall_time=time.monotonic() - t0, message=f"solver run failed: {exc}")
    wall = time.monotonic() - t0

    if not sol_path.exists():
        message = f"solver exited with code {proc.returncode} and wrote no solution file"
        message = _quote_output(message, proc.stderr or proc.stdout)
        return SolveResult(STATUS_ERROR, wall_time=wall, message=message)
    try:
        with open(sol_path, encoding="utf-8-sig") as solution:  # a leading byte-order mark is not content
            parsed = parse_solution(solution, model)
    except SolutionFormatError as exc:
        return SolveResult(STATUS_ERROR, wall_time=wall, message=str(exc))

    constant = float(model.objective_constant)
    objective = None if parsed.objective is None else parsed.objective + constant
    bound = None if parsed.bound is None else parsed.bound + constant
    gap = None if objective is None or bound is None else abs(objective - bound) / max(1.0, abs(objective))
    status, message = parsed.status_hint, ""
    if status == STATUS_UNBOUNDED:
        status, message = STATUS_ERROR, "model reported unbounded"
    elif status == STATUS_ERROR and proc.returncode != 0:
        message = _quote_output(f"solver exit {proc.returncode}", proc.stderr)
    elif status not in (STATUS_INFEASIBLE, STATUS_TIME_LIMIT, STATUS_ERROR):
        status = STATUS_GAP if gap is not None and gap > 1e-9 else status or STATUS_OPTIMAL
    return SolveResult(status, parsed.schedule, None, objective, bound, gap, wall_time=wall, message=message)


def _finalize(model: MILPModel, found: SolveResult, iterations: list[LazyIteration], wall_time: float) -> SolveResult:
    """`found` with its schedule checked by the validator and rescored exactly."""
    found = replace(found, iterations=iterations, wall_time=wall_time)
    if found.schedule is None or found.status in (STATUS_INFEASIBLE, STATUS_ERROR):
        return replace(found, schedule=None)
    violations = check_schedule(model.instance, model.catalog, found.schedule)
    components = evaluate_objective(model.instance, model.catalog, found.schedule)
    exact = components["total"]
    status, message = found.status, found.message
    drift = None if found.objective_float is None else abs(float(exact) - found.objective_float)
    if drift is not None and drift > 1e-5 * max(1.0, abs(float(exact))):
        status = STATUS_ERROR
        message = f"solver objective {found.objective_float} drifts {drift} from exact re-evaluation {float(exact)}"
    elif violations:
        status = STATUS_ERROR
        message = f"solver returned a schedule violating {len(violations)} rule(s)"
    return replace(
        found, status=status, objective=exact, components=components, violations=violations, message=message
    )


@contextlib.contextmanager
def _work_dir(config: SolverConfig) -> Iterator[Path]:
    """The directory of the solver's files: `config.work_dir`, created if missing and kept,
    or else a fresh temp directory, removed when the context exits."""
    if config.work_dir is not None:
        path = Path(config.work_dir)
        path.mkdir(parents=True, exist_ok=True)
        yield path
        return
    with tempfile.TemporaryDirectory(prefix="pipesched_") as temp:
        yield Path(temp)


def solve(model: MILPModel, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Single monolithic solve with every row (lazy rows included)."""
    t0 = time.monotonic()
    with _work_dir(config) as workdir:
        found = _run_once(model, config, None, workdir, "model")
        return _finalize(model, found, [], time.monotonic() - t0)


def solve_lazy_capacity(model: MILPModel, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Row-generation loop over the occupancy bound rows.

    Build the model with BuildOptions(capacity_lazy=True) for the bounds to
    start deactivated; definitional occupancy rows always ship.  A model
    without lazy rows degenerates to a single solve.

    A violated bound is found through its one term, the occupancy column of
    its (site, product, slot), and activated by that column's id.  The loop
    ends after at most one round more than the model has bound rows: a round
    that does not return activates at least one row not yet active, and
    every activated row is one of the finitely many bound rows.
    """
    t0 = time.monotonic()
    activated: set[int] = set()  # occupancy columns whose bound rows ship
    iterations: list[LazyIteration] = []
    with _work_dir(config) as workdir:
        for round_idx in itertools.count():
            found = _run_once(model, config, activated, workdir, f"iter{round_idx}")
            if found.status in (STATUS_INFEASIBLE, STATUS_ERROR) or found.schedule is None:
                iterations.append(LazyIteration(round_idx, 0, found.objective_float, found.status))
                return _finalize(model, found, iterations, time.monotonic() - t0)
            occupancy = simulate_occupancy(model.instance, model.catalog, found.schedule)
            violated = capacity_bound_violations(model.instance, occupancy)
            new_cols: set[int] = set()
            for v in violated:
                vid = model.variables.vid(_BOUND_KIND[v.family], v.coordinate)
                if vid is not None and vid not in activated:  # None: a coordinate with no column
                    new_cols.add(vid)
            iterations.append(LazyIteration(round_idx, len(new_cols), found.objective_float, found.status))
            if not new_cols:
                return _finalize(model, found, iterations, time.monotonic() - t0)
            activated |= new_cols
