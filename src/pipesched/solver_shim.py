"""Standalone MILP solver CLI: reads an LP file, writes a solution file.

This is the default subprocess backend.  It keeps the driver <-> solver
boundary an honest file-based protocol (any CPLEX-LP-capable solver can be
substituted via the command template) while needing nothing beyond scipy.
It imports nothing from `pipesched`, so the driver starts it by file path:

    python .../pipesched/solver_shim.py model.lp model.sol --start model.start --time-limit 600 --gap 1e-3 --threads 1 --seed 0

`python -m pipesched.solver_shim` works too where the package is importable.

`main` hands the file to HiGHS's own CPLEX-LP reader and solves it with
HiGHS, both from the HiGHS extension module that scipy bundles
(`scipy/optimize/_highspy/_core`, scipy>=1.15).  That module is loaded on
its own, without running `scipy.optimize`'s package start-up.  The reader
accepts `<=`, `>=` and `=` rows, spaced or glued signs, implicit unit
coefficients and rows wrapped over lines; it rejects `<`, `=<`, `>`, `=>`
and ranged rows, and a constant in the objective is kept as an offset.  It
misreads a constant on a row's left-hand side, so `main` refuses such rows
before HiGHS sees the file.

HiGHS runs with presolve's probing off (`_PROBING_OFF`).  On the six-vertex
setting-B model as built before, presolve took about 2 s of a 2.4 s run,
most of it in the probing pass that took 6,209 rows to 3,570.  The builder
now writes reductions of its own: packing rows on trunk edges only, tank
limits on the volume lattice, and occupancy chains only at the limits that
can bind.  The file then holds 3,515 rows (14,968 with every occupancy
chain), and presolve without probing ends at 3,485 rows either way.  With
those reductions and probing off, the cold MIP got faster on every rung
of the ladder and on the month, at HiGHS seeds 0-2; probing off alone, on
that model, was faster on every rung but the eight-vertex setting-C path,
which moved the other way inside its seed spread.  On the model before
the first two reductions, probing off slowed the six-vertex setting-A
path, so it is off only together with them.  CHANGES.md has the tables.

`--seed N` sets HiGHS's `random_seed`.  Its default, 0, is HiGHS's own, so
a run at seed 0 writes what a run without the flag writes.

`--start FILE` gives the solve a MIP start.  The file holds `name value`
lines, one column each (the driver writes `v<vid> 1` for the dispatches its
list scheduler planned); names map through the model's column names.  Every
integer column the file does not list starts at 0, and every continuous
column it does not list is left undefined (infinite), to be completed.  An
empty file gives a cold solve.  A file naming an unknown column, or holding
a value that is not a finite number, or a binary other than 0 or 1, exits 1
like any other error, before any LP runs.  A binary is an integer column
boxed inside [0, 1], so a dispatch column that an outage or a fixed start
narrowed to [0, 0], [1, 1] or the empty [1, 0] is one too.

With a start, `main` first tries to prove it optimal with two LP runs, and
runs the MIP only where that proof fails (`_solve_from_start`).  The first
LP fixes every integer column at its start value; its solution completes
the start's continuous columns, as HiGHS's own start completion does.  The
second, with the bounds restored, is the LP relaxation
(`solve_relaxation`).  Both run with presolve off, and the MIP with it on:
the builder writes presolve's reductions itself, so on the six-vertex
setting-B model presolve only takes 3,515 rows to 3,485, and the dual
simplex solves the unreduced relaxation in 620 iterations against 830.
There the fixed LP took 6 ms against 14 ms and the relaxation 39 ms against
66 ms (in process, best of three, 2-core VM).  The start is proven when the
two objectives meet by HiGHS's own MIP stopping rule, the `mip_abs_gap` or the
`mip_rel_gap` read back from HiGHS; without the absolute gap every solve at
gap 0 fell back to the MIP on float noise.  The solution file then holds the
fixed LP's values, `# MIP nodes = 0`, the simplex iterations of both runs,
and the relaxation's bound kept on the incumbent's side, as HiGHS's MIP
keeps it when it closes the gap; the status is `optimal` at a relative gap
of at most 1e-9, else `gap_reached`.  In every other case (an integer
column's start value that is fractional or out of bounds, either LP ending
anything but optimal, or the gap still open) the bounds are restored and the
MIP runs from the start, completed by the fixed LP where that LP was
optimal.  It gets what is left of `--time-limit`: HiGHS applies
`time_limit` to each run, while its run clock adds up over runs.  The fixed
LP runs first so that a proof cut short by the limit still hands the MIP a
complete start, which HiGHS reports as its incumbent at once.  A limit
below the child's own set-up and the LP read is overrun and may end
`time_limit` with no incumbent: on the eight-vertex month at `--time-limit
0.01` the child's `# Wall time` was 0.26 s (three runs; 0.35 s with the
proof's presolve on), of which the MIP's start-up after the cut took 0.03 s,
and it wrote no values; the driver then reports its own checked start.
Each LP starts without a basis: on the six-vertex
setting-B model, warm-started from the fixed LP's basis, the relaxation
took 0.57-0.82 s against 0.14-0.21 s (with presolve, three runs in
process, 2-core VM).

The start reaches HiGHS without pybind importing numpy into the child.  It
goes to the MIP as one dense
`HighsSolution`: the sparse `setSolution` overload took 0.12 s and 8.9 MB
of peak memory on the six-vertex setting-B model against 0.04 s and 1.2 MB
(in process, 2-core VM).  The fixed LP's bounds, and then the restored
ones, reach HiGHS in one model pass each: they are set as Python lists on
the `HighsLp` that `getLp()` returned, which goes back whole through
`passModel` (`_pass_bounds`), and the pass also drops the last basis.  On
that model the bound lists and both passes took 3 ms against 11 ms for
11,450 `changeColBounds` calls and two `clearSolver` (in process, best of
three); `changeColsBounds` would import numpy too, and with it the child's
solve time there rose from 0.21 to 0.33 s (median of five).

The driver's start meets the LP bound on every rung of the ladder and on
the month, so none of them runs the MIP any more; each ends `optimal` at
the same optimum and with the same values as the MIP wrote, also at gap 0,
in less child time than the MIP from the start took (CHANGES.md has the
per-rung times, and those of presolve off and the model passes).

Every HiGHS run, the cold solve, both LPs of the proof, the MIP after a
failed proof and `solve_lp`'s, goes through `_run`, which sets what is left
of the time limit, runs, and reports a `HighsResult`; the proof reads a
run's objective only where that run ended `optimal`.  HiGHS's run clock
reads 0 before the first run, so a cold solve gets the whole limit.

`parse_lp` and `solve_lp` are the same two steps for an in-process caller:
`parse_lp` reads LP text through a temporary file exactly as `main` reads
its input, and `solve_lp` sets the gap and solves through `_run`.

The solution file holds `name value` rows for nonzero variables after
comment metadata (`# Status`, `# Objective value`, `# Best bound`, then
`# Wall time`, `# MIP nodes`, `# Simplex iterations`, `# Read time` and
`# Solve time`) in the style most solver exports follow.  The simplex
iteration count sums every run the child made; at a fixed seed it repeats
exactly, so it fingerprints HiGHS's path.  It is written to a temporary
file and renamed into place, so a killed solver leaves no partial solution.
A solution path in a directory that does not exist exits 1 with one
`solver shim error:` line before the model is read.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import math
import os
import re
import sys
import tempfile
import time
from typing import NamedTuple

_CORE = "scipy.optimize._highspy._core"
# the `presolve_rule_off` bit of HiGHS's probing reduction; why it is off, with the measurements, is
# in the module docstring
_PROBING_OFF = 1 << 15


def _highs_core():
    """scipy's bundled HiGHS bindings, without running `scipy.optimize/__init__`.

    The extension is loaded under its real module name and registered in
    `sys.modules`, so a later `import scipy.optimize` reuses it; a copy that
    is already loaded is returned as is.
    """
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    scipy_spec = importlib.util.find_spec("scipy")
    folders = scipy_spec.submodule_search_locations if scipy_spec is not None else None
    for folder in folders or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
            if not os.path.exists(path):
                continue
            spec = importlib.util.spec_from_file_location(_CORE, path)
            core = importlib.util.module_from_spec(spec)
            sys.modules[_CORE] = core
            try:
                spec.loader.exec_module(core)
            except BaseException:
                del sys.modules[_CORE]
                raise
            return core
    raise ImportError("the solver shim needs scipy>=1.15, whose HiGHS bindings live in scipy/optimize/_highspy/_core")


def _check(status, message: str) -> None:
    """Raise `message` when a HiGHS call returned an error status."""
    if status == _highs_core().HighsStatus.kError:
        raise RuntimeError(message)


def _set_options(highs, **options) -> None:
    for key, value in options.items():
        _check(highs.setOptionValue(key, value), f"HiGHS rejected option {key}={value!r}")


def _configured_highs(time_limit: float, gap: float, threads: int = 1, seed: int = 0):
    """A HiGHS instance with the options every solve uses, probing off (`_PROBING_OFF`), and
    `seed` as HiGHS's `random_seed` (its default is 0).

    HiGHS keeps one thread pool per process, sized at the first run; it is
    reset first, so a run may ask for another `threads` than the last one.
    """
    core = _highs_core()
    core._Highs.resetGlobalScheduler(True)
    highs = core._Highs()
    _set_options(
        highs,
        output_flag=False,
        time_limit=float(time_limit),
        mip_rel_gap=float(gap),
        threads=int(threads),
        presolve_rule_off=_PROBING_OFF,
        random_seed=int(seed),
    )
    return highs


class HighsResult(NamedTuple):
    status: str  # optimal, gap_reached, time_limit, infeasible, unbounded or error
    objective: float | None  # in the model's own sense; None without a feasible solution
    bound: float | None  # MIP dual bound, or the relaxation's for a proven start; with a feasible solution
    x: list[float] | None  # column values in column order, with a feasible solution
    mip_node_count: int  # 0 for a proven start
    simplex_iterations: int


def _status_of(highs) -> tuple[str, float | None, float | None]:
    """HiGHS's model status as a file-protocol status, with objective and bound."""
    core = _highs_core()
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    done = core.HighsModelStatus.kOptimal
    limits = (core.HighsModelStatus.kTimeLimit, core.HighsModelStatus.kIterationLimit)
    if model_status == core.HighsModelStatus.kInfeasible:
        return "infeasible", None, None
    if model_status == core.HighsModelStatus.kUnbounded:
        return "unbounded", None, None
    if model_status != done and model_status not in limits:
        return "error", None, None
    objective = bound = None
    if info.primal_solution_status == core.kSolutionStatusFeasible:
        objective = info.objective_function_value
        if info.mip_node_count >= 0:  # -1 when no MIP search ran: a pure LP has no MIP bound
            bound = info.mip_dual_bound
    if model_status != done:
        return "time_limit", objective, bound
    if objective is not None and bound is not None:
        return _closed(objective, bound), objective, bound
    return "optimal", objective, bound


def _closed(objective: float, bound: float) -> str:
    """The status of a finished MIP: `optimal` where its objective meets its bound within a relative
    gap of 1e-9, else `gap_reached`."""
    return "optimal" if abs(objective - bound) / max(1.0, abs(objective)) <= 1e-9 else "gap_reached"


def _run(highs, time_limit: float) -> HighsResult:
    """Solve the loaded model within what is left of `time_limit` and report it in file-protocol terms.

    HiGHS applies its `time_limit` option to each run, while its run clock adds up over runs and a
    model pass does not reset it; before the first run the clock reads 0, so that run gets the whole
    limit."""
    _set_options(highs, time_limit=max(0.0, time_limit - highs.getRunTime()))
    highs.run()  # a failed run leaves a model status that `_status_of` reports as an error
    status, objective, bound = _status_of(highs)
    x = list(highs.getSolution().col_value) if objective is not None else None
    info = highs.getInfo()
    return HighsResult(status, objective, bound, x, max(info.mip_node_count, 0), max(info.simplex_iteration_count, 0))


def _class_table() -> bytes:
    """Byte translation to one character per LP token class: `9` number
    characters, `e` the exponent letter, `+` signs, `<` comparison characters,
    `:` and ` ` whitespace; every other byte is a name character `a`."""
    table = bytearray(b"a" * 256)
    for chars, cls in ((b"0123456789.", b"9"), (b"eE", b"e"), (b"+-", b"+"), (b"<>=", b"<"), (b":", b":"), (b" \t\r\n\f\v", b" ")):
        for c in chars:
            table[c] = cls[0]
    return bytes(table)


_CLASSES = _class_table()
# in class text: a number token (not inside a name) that no name follows
_CONSTANT_CLASS_RE = re.compile(rb"(?<![9ae])9+(?:e\+?9+)?(?![9e])(?! *[ae])")
_RHS_CLASS_RE = re.compile(rb"< *9+(?:e9+)?")
_ROWS_START_RE = re.compile(rb"\n[ \t]*[sS](?i:ubject[ \t]+to|uch[ \t]+that|\.t\.|t)(?=\s|\Z)")
_ROWS_END_RE = re.compile(rb"\n[ \t]*[bBgGsSeE](?i:ounds?|inar(?:y|ies)|in|enerals?|en|emi-continuous|emis?|os|nd)(?=\s|\Z)")
_COMMENT_RE = re.compile(rb"\\[^\n]*")


def _lhs_constant_row(text: bytes) -> str | None:
    """The first row with a constant on its left-hand side, named for a message, or None.

    Works on the rows section translated to token classes.  A constant is a
    number token that no name follows and that is not a right-hand side.
    A fast screen checks each distinct sign-separated piece once (about a
    hundred on a writer-made file); only a file it flags is scanned token by
    token, which confirms the constant and locates its row.
    """
    start = _ROWS_START_RE.search(text)
    if start is None:
        return None
    end = _ROWS_END_RE.search(text, start.end())
    rows = text[start.end() : end.start() if end else len(text)]
    if b"\\" in rows:
        rows = _COMMENT_RE.sub(b"", rows)
    classes = rows.translate(_CLASSES)
    pieces = set(classes.split(b"+"))
    if not any(_CONSTANT_CLASS_RE.search(_RHS_CLASS_RE.sub(b"<", piece)) for piece in pieces):
        return None
    for m in _CONSTANT_CLASS_RE.finditer(classes):
        before = classes[max(0, m.start() - 64) : m.start()].rstrip(b" ").rstrip(b"+").rstrip(b" ")
        if before.endswith(b"<"):
            continue  # a right-hand side
        colon = rows.rfind(b":", 0, m.start())
        if colon < 0 or b"<" in classes[colon : m.start()]:
            return "(unnamed)"
        return rows[:colon].split()[-1].decode("utf-8", "replace")
    return None


def _read_model(path: str, time_limit: float, gap: float, threads: int = 1, seed: int = 0):
    """A configured HiGHS holding the LP file at `path`, read by HiGHS's own reader."""
    highs = _configured_highs(time_limit, gap, threads, seed)
    with open(path, "rb") as fh:
        row = _lhs_constant_row(fh.read())
    if row is not None:
        raise ValueError(f"row {row} has a constant on its left-hand side, which HiGHS's LP reader misreads")
    _check(highs.readModel(path), f"HiGHS's LP reader rejected {path} (the dialect it reads is in the shim's docstring)")
    return highs


def _read_start(lp, path: str) -> tuple[list[float], list[bool]] | None:
    """The start in the file at `path` as one value per column of `lp`, with whether each column is
    an integer column, or None for an empty file (its format is in the module docstring)."""
    with open(path, encoding="utf-8") as fh:
        entries = [(lineno, line.split()) for lineno, line in enumerate(fh, start=1) if line.strip()]
    if not entries:
        return None
    column = {name: i for i, name in enumerate(lp.col_names_)}
    continuous = _highs_core().HighsVarType.kContinuous
    integer = [kind != continuous for kind in lp.integrality_] or [False] * lp.num_col_
    # a binary whose box a fixing narrowed, [0, 0], [1, 1] or the empty [1, 0], still takes only 0 or 1
    binary = [kind and lo >= 0 and hi <= 1 for kind, lo, hi in zip(integer, lp.col_lower_, lp.col_upper_)]
    values = [0.0 if is_integer else math.inf for is_integer in integer]
    for lineno, words in entries:
        if len(words) != 2:
            raise ValueError(f"start file line {lineno} is not 'name value'")
        name, text = words
        i = column.get(name)
        if i is None:
            raise ValueError(f"start file line {lineno} names {name!r}, which is no column of the model")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"start file line {lineno} gives {name} the value {text!r}, not a finite number")
        if binary[i] and value not in (0.0, 1.0):
            raise ValueError(f"start file line {lineno} gives the binary {name} the value {text!r}, not 0 or 1")
        values[i] = value
    return values, integer


def _set_start(highs, values: list[float]) -> None:
    """Hand HiGHS the start `values` as one dense `HighsSolution` (the sparse overload imports numpy)."""
    solution = _highs_core().HighsSolution()
    solution.col_value = values
    _check(highs.setSolution(solution), "HiGHS rejected the start")


def _pass_bounds(highs, lp, lower: list[float], upper: list[float]) -> None:
    """Give the model `lp` the column bounds `lower` and `upper` and pass it to HiGHS whole, which
    drops the solver's last basis (`changeColsBounds` would make pybind import numpy)."""
    lp.col_lower_, lp.col_upper_ = lower, upper
    _check(highs.passModel(lp), "HiGHS rejected the model with changed column bounds")


def _solve_from_start(highs, lp, start: list[float], integer: list[bool], time_limit: float) -> HighsResult:
    """Solve the model `lp` loaded in `highs` from `start` (`integer` flags its integer columns): prove
    the start optimal with two LP runs, or else run the MIP from it (the module docstring tells why and
    what it saves)."""
    lower, upper = lp.col_lower_, lp.col_upper_
    iterations = 0
    # the fixed LP's solution is a MIP solution only if each integer column is fixed at an integer within its bounds
    if all(v == round(v) and lo <= v <= hi for v, kind, lo, hi in zip(start, integer, lower, upper) if kind):
        _set_options(highs, solve_relaxation=True, presolve="off")
        fixed_lower = [v if kind else lo for v, kind, lo in zip(start, integer, lower)]
        fixed_upper = [v if kind else hi for v, kind, hi in zip(start, integer, upper)]
        _pass_bounds(highs, lp, fixed_lower, fixed_upper)
        fixed = _run(highs, time_limit)
        iterations = fixed.simplex_iterations
        if fixed.status == "optimal":
            start = fixed.x  # complete, so a MIP cut short still reports it
        _pass_bounds(highs, lp, lower, upper)
        if fixed.status == "optimal":
            relaxation = _run(highs, time_limit)
            iterations += relaxation.simplex_iterations
            if relaxation.status == "optimal":
                proven = _proof(highs, lp, relaxation.objective, fixed.objective)
                if proven is not None:
                    return HighsResult(*proven, start, 0, iterations)
        _set_options(highs, solve_relaxation=False, presolve="choose")
        highs.clearSolver()
    _set_start(highs, start)
    res = _run(highs, time_limit)
    return res._replace(simplex_iterations=res.simplex_iterations + iterations)


def _proof(highs, lp, relaxation: float, incumbent: float) -> tuple[str, float, float] | None:
    """Status, objective and bound of an incumbent that meets the relaxation's bound by HiGHS's own MIP
    stopping rule (its absolute or its relative gap, as set in `highs`), else None.  The bound is kept
    on the incumbent's side, as HiGHS's MIP keeps it when it closes the gap."""
    distance = abs(incumbent - relaxation)
    abs_gap, rel_gap = (highs.getOptionValue(key)[1] for key in ("mip_abs_gap", "mip_rel_gap"))
    if distance > abs_gap and distance / max(1.0, abs(incumbent)) > rel_gap:
        return None
    maximize = lp.sense_ == _highs_core().ObjSense.kMaximize
    bound = max(relaxation, incumbent) if maximize else min(relaxation, incumbent)
    return _closed(incumbent, bound), incumbent, bound


def parse_lp(text: str):
    """A configured HiGHS holding the CPLEX-LP `text`, read the way `main` reads its file."""
    with tempfile.TemporaryDirectory(prefix="pipesched_shim_") as folder:
        path = os.path.join(folder, "model.lp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return _read_model(path, 1e30, 0.0)  # `main`'s defaults; `solve_lp` sets both


def solve_lp(highs, time_limit: float, gap: float) -> tuple[HighsResult, list[str]]:
    """Solve a model from `parse_lp` as `main` does; returns the result and the column names."""
    _set_options(highs, mip_rel_gap=float(gap))
    return _run(highs, float(time_limit)), list(highs.getLp().col_names_)


def _write_atomically(path: str, text: str) -> None:
    """Write `text` to `path` through a temporary file and a rename."""
    part = f"{path}.part"
    with open(part, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(part, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pipesched-shim", description=__doc__.splitlines()[0])
    parser.add_argument("model", help="input LP file")
    parser.add_argument("solution", help="output solution file")
    parser.add_argument("--start", help="MIP start file of 'name value' lines; empty for a cold solve")
    parser.add_argument("--time-limit", type=float, default=1e30)
    parser.add_argument("--gap", type=float, default=0.0)
    parser.add_argument("--threads", type=int, default=1, help="HiGHS threads; 0 lets HiGHS choose")
    parser.add_argument("--seed", type=int, default=0, help="HiGHS's random_seed (default 0, HiGHS's own)")
    args = parser.parse_args(argv)
    folder = os.path.dirname(args.solution) or "."
    if not os.path.isdir(folder):  # fail before the read and the solve, not at the write after them
        print(f"solver shim error: no directory {folder} for the solution file {args.solution}", file=sys.stderr)
        return 1

    t0 = time.monotonic()
    try:
        highs = _read_model(args.model, args.time_limit, args.gap, args.threads, args.seed)
        lp = highs.getLp()
        start = None if args.start is None else _read_start(lp, args.start)
        t_read = time.monotonic()
        res = _run(highs, args.time_limit) if start is None else _solve_from_start(highs, lp, *start, args.time_limit)
        t_solve = time.monotonic()
    except Exception as exc:  # report through the file protocol, then fail
        _write_atomically(args.solution, f"# Status = error\n# Message = {type(exc).__name__}: {exc}\n")
        print(f"solver shim error: {exc}", file=sys.stderr)
        return 1

    lines = [f"# Status = {res.status}"]
    if res.objective is not None:
        lines.append(f"# Objective value = {res.objective!r}")
    if res.bound is not None and math.isfinite(res.bound):  # no bound yet is left out, not written as inf
        lines.append(f"# Best bound = {res.bound!r}")
    lines.append(f"# Wall time = {time.monotonic() - t0:.3f}")
    lines.append(f"# MIP nodes = {res.mip_node_count}")
    lines.append(f"# Simplex iterations = {res.simplex_iterations}")
    lines.append(f"# Read time = {t_read - t0:.3f}")
    lines.append(f"# Solve time = {t_solve - t_read:.3f}")
    if res.x is not None:
        for name, val in zip(lp.col_names_, res.x):
            if abs(val) > 1e-11:
                lines.append(f"{name} {val!r}")
    _write_atomically(args.solution, "\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
