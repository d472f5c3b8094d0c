"""Subprocess solver driver.

The driver knows nothing about any particular solver: it writes an LP file,
runs a command built from a template with {model}, {solution}, {start},
{time_limit}, {gap}, {threads} and {seed} placeholders, and parses the solution file
back.  The template comes from SolverConfig.command, the PIPESCHED_SOLVER_CMD
environment variable, or falls back to the bundled scipy/HiGHS shim.  A time
limit of inf means no limit: the child then runs without a watchdog.

A template that names {start} gets a MIP start: the list scheduler
(`heuristic.plan_start`) plans, the validator judges the plan, and a clean
plan is written to `<tag>.start` next to the LP file (`lp_io.write_start`);
a dropped plan, or none, leaves the file empty.  A template without {start}
gets neither the planning nor the file.  A solver that stops at its time
limit without a schedule, given a clean plan, reports the plan as its
incumbent, with no bound: a limit shorter than the child's first LP leaves
it no time to report the start itself.

`solve` ships the full model, every tank limit that can bind included, in one solver call.
`solve_lazy_capacity`, `LazyIteration` and `SolveResult.iterations` are
stand-ins kept for the benchmark (`perfbench/op.py`), which calls them: the
bound-generation loop they named is gone, and `solve_lazy_capacity` is
`solve` writing its files under the names of a first round.

Every returned schedule is re-checked by the independent validator and
re-scored exactly; the driver refuses to report a schedule that fails its
own rules.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import subprocess
import string
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Union

from .lp_io import STATUS_ERROR, STATUS_GAP, STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_TIME_LIMIT, STATUS_UNBOUNDED
from .heuristic import Start, plan_start
from .lp_io import SolutionFormatError, parse_solution, write_lp, write_start
from .milpmodel import MILPModel
from .schedule import Schedule
from .validator import Violation, capacity_bound_violations, check_schedule, evaluate_objective, simulate_occupancy

# the last two are not called here: `perfbench/op.py::instrument` wraps `solver.<name>` through
# getattr, so every traced benchmark run and `perfbench/selftest.py` fail without them
__all__ = ["COMMAND_ENV_VAR", "LazyIteration", "SolveResult", "SolverConfig", "default_solver_command", "solve",
           "solve_lazy_capacity", "capacity_bound_violations", "simulate_occupancy"]

COMMAND_ENV_VAR = "PIPESCHED_SOLVER_CMD"
# subprocess.run waits with poll(), whose timeout is an int of milliseconds; a longer wait overflows it
_MAX_WATCHDOG_S = (2**31 - 1) / 1000


def _template_literal(text: str) -> str:
    """`text` as one shell word that survives the template's str.format."""
    return shlex.quote(text).replace("{", "{{").replace("}", "}}")


def default_solver_command() -> str:
    """The bundled shim, started by file path: it imports nothing from this package,
    so the child runs whether or not `pipesched` is importable there."""
    shim = Path(__file__).resolve().with_name("solver_shim.py")
    return (
        f"{_template_literal(sys.executable)} {_template_literal(str(shim))} "
        "{model} {solution} --start {start} --time-limit {time_limit} --gap {gap} --threads {threads} --seed {seed}"
    )


@dataclass
class SolverConfig:
    command: Optional[str] = None  # template; falls back to env var, then the shim
    time_limit: float = 1800.0  # seconds, per subprocess call
    gap: float = 1e-3  # relative MIP gap target
    threads: int = 1
    seed: int = 0  # the solver's random seed, for a template with {seed}; the shim passes it to HiGHS
    work_dir: Optional[Union[str, Path]] = None  # keeps the LP and solution files; default: a temp dir, removed
    keep_files: bool = False  # accepted and ignored: set `work_dir` to keep the files

    def resolved_command(self) -> str:
        return self.command or os.environ.get(COMMAND_ENV_VAR) or default_solver_command()

    def argv(self, model: Union[str, Path], solution: Union[str, Path], start: Union[str, Path] = "") -> list[str]:
        """The resolved template split into shell words with their placeholders filled in;
        raises ValueError for a template that does not split or names an unknown placeholder."""
        template = self.resolved_command()
        fields = dict(
            model=str(model),
            solution=str(solution),
            start=str(start),
            time_limit=self.time_limit,
            gap=self.gap,
            threads=self.threads,
            seed=self.seed,
        )
        try:
            return [tok.format(**fields) for tok in shlex.split(template)]
        except (LookupError, AttributeError) as exc:  # {foo}, {0}, {model.x}
            raise ValueError(f"solver command {template!r} has an unknown placeholder ({exc})") from None
        except ValueError as exc:  # an unclosed quote or a lone brace
            raise ValueError(f"solver command {template!r}: {exc}") from None

    def names(self, placeholder: str) -> bool:
        """True when the resolved template has the placeholder; a template that does not split names none."""
        parse = string.Formatter().parse
        try:
            return any(name == placeholder for word in shlex.split(self.resolved_command()) for _, name, _, _ in parse(word))
        except ValueError:  # an unclosed quote or a lone brace, which `argv` reports
            return False


@dataclass
class LazyIteration:
    """One solver call as the benchmark reads it; `solve_lazy_capacity` reports one, adding nothing."""

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
    iterations: list[LazyIteration] = field(default_factory=list)  # filled by `solve_lazy_capacity` only
    violations: list[Violation] = field(default_factory=list)
    message: str = ""
    start: Optional[Start] = None  # the judged plan handed to the solver; None without {start} or a plan
    # the solution file's `# MIP nodes` and `# Simplex iterations`, informational; None where it has none
    nodes: Optional[int] = None
    simplex_iterations: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OPTIMAL, STATUS_GAP) and self.schedule is not None


def _quote_output(message: str, output: Optional[str]) -> str:
    """`message`, followed by the tail of the child's `output` when it printed any."""
    tail = (output or "").strip()[-400:]
    return f"{message}: {tail}" if tail else message


def _run_once(model: MILPModel, config: SolverConfig, workdir: Path, tag: str) -> SolveResult:
    """One solver call, reported as the solution file says, with the start it was given; `_finalize` checks it."""
    lp_path, sol_path, start_path = (workdir / f"{tag}.{suffix}" for suffix in ("lp", "sol", "start"))
    try:
        argv = config.argv(lp_path, sol_path, start_path)
    except ValueError as exc:
        return SolveResult(STATUS_ERROR, message=str(exc))
    write_lp(model, lp_path)
    start = None
    if config.names("start"):
        start = plan_start(model.instance, model.catalog)
        write_start(model, None if start is None else start.schedule, start_path)
    sol_path.unlink(missing_ok=True)  # a kept work dir may hold an earlier run's solution
    found = _call(model, config, argv, sol_path)
    cut_short = found.status == STATUS_TIME_LIMIT and found.schedule is None
    if cut_short and start is not None and start.schedule is not None:
        # stopped before it reported even the start: the clean plan is the incumbent, without a bound
        found = replace(found, schedule=start.schedule, message="the solver stopped before it reported the start")
    return replace(found, start=start)


def _call(model: MILPModel, config: SolverConfig, argv: list[str], sol_path: Path) -> SolveResult:
    """Run the solver command `argv` and read the solution file it writes at `sol_path`."""
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
    return SolveResult(
        status, parsed.schedule, None, objective, bound, gap, wall_time=wall, message=message,
        nodes=parsed.nodes, simplex_iterations=parsed.simplex_iterations,
    )


def _finalize(model: MILPModel, found: SolveResult, wall_time: float) -> SolveResult:
    """`found` with its schedule checked by the validator and rescored exactly."""
    found = replace(found, wall_time=wall_time)
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
    bound, gap = found.bound, found.gap
    if status == STATUS_OPTIMAL and bound is not None:
        # a closed gap: a float bound a rounding below the exact objective goes to its side, for any
        # solver; `max` because every model maximizes (`MILPModel.objective`)
        bound = max(bound, float(exact))
        gap = abs(float(exact) - bound) / max(1.0, abs(float(exact)))
    return replace(
        found, status=status, objective=exact, bound=bound, gap=gap, components=components,
        violations=violations, message=message,
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


def _solve(model: MILPModel, config: SolverConfig, tag: str) -> SolveResult:
    """One solver call on the full model, its files named `<tag>.lp`, `<tag>.sol` and `<tag>.start`."""
    t0 = time.monotonic()
    with _work_dir(config) as workdir:
        found = _run_once(model, config, workdir, tag)
        return _finalize(model, found, time.monotonic() - t0)


def solve(model: MILPModel, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Single monolithic solve with every row and every tank limit that can bind."""
    return _solve(model, config, "model")


def solve_lazy_capacity(model: MILPModel, config: SolverConfig = SolverConfig()) -> SolveResult:
    """`solve`, kept under this name for the benchmark: files `iter0.lp` and `iter0.sol`, which its
    trace replay reads (and `iter0.start` under a template with {start}), and `iterations` holding
    that one call."""
    result = _solve(model, config, "iter0")
    return replace(result, iterations=[LazyIteration(0, 0, result.objective_float, result.status)])
