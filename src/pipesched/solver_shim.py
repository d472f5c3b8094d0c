"""Standalone MILP solver CLI: reads an LP file, writes a solution file.

This is the default subprocess backend.  It keeps the driver <-> solver
boundary an honest file-based protocol (any CPLEX-LP-capable solver can be
substituted via the command template) while needing nothing beyond scipy.
It imports nothing from `pipesched`, so the driver starts it by file path:

    python .../pipesched/solver_shim.py model.lp model.sol --time-limit 600 --gap 1e-3 --threads 1

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

`parse_lp` and `solve_lp` are the reference path: a Python reader for the
wider dialect (all senses, left-hand-side constants), whose `ParsedLP` goes
to the same HiGHS core through `passModel` with the same options.

The solution file holds `name value` rows for nonzero variables after
comment metadata (`# Status`, `# Objective value`, `# Best bound`, then
`# Wall time`, `# MIP nodes`, `# Read time` and `# Solve time`) in the
style most solver exports follow.  It is written to a temporary file and
renamed into place, so a killed solver leaves no partial solution.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import os
import re
import sys
import time
from dataclasses import dataclass, field

_SENSES = {"<=": "<=", "=<": "<=", "<": "<=", ">=": ">=", "=>": ">=", ">": ">=", "=": "="}
_SECTION_WORDS = {
    "maximize": "objective_max",
    "max": "objective_max",
    "minimize": "objective_min",
    "min": "objective_min",
    "subject": "rows",
    "st": "rows",
    "s.t.": "rows",
    "such": "rows",
    "bounds": "bounds",
    "bound": "bounds",
    "binary": "binary",
    "binaries": "binary",
    "bin": "binary",
    "general": "general",
    "generals": "general",
    "gen": "general",
    "end": "end",
}
# one way to match each number, so a failed match inside a repeat backtracks in linear time
_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_NUM_RE = re.compile(rf"^[+-]?{_NUM}$")
# an expression token: a sign, a number that ends where a sign or a space does, or a name
_TOKEN_RE = re.compile(rf"[+-]|{_NUM}(?![^\s+-])|[^\s+-]+")
# a row ends at its comparison operator and right-hand side token
_ROW_END_RE = re.compile(r"(<=|=<|>=|=>|<|>|=)\s*(\S*)")
_NAME_RE = re.compile(r"\s*(\S+?)\s*:(?=\s|$)")
# the shape lp_io writes: whitespace-separated `+c name` pairs, sign glued to c
_PAIRS_RE = re.compile(rf"(?:\s*[+-]{_NUM}\s+[A-Za-z_][^\s:+-]*(?=\s|$))*\s*")


@dataclass
class ParsedLP:
    maximize: bool = False
    objective: dict[str, float] = field(default_factory=dict)
    offset: float = 0.0  # objective constant
    rows: list[tuple[str, dict[str, float], str, float]] = field(default_factory=list)
    lower: dict[str, float] = field(default_factory=dict)
    upper: dict[str, float] = field(default_factory=dict)
    integers: set[str] = field(default_factory=set)
    order: list[str] = field(default_factory=list)
    _seen: set[str] = field(default_factory=set)

    def touch(self, name: str) -> None:
        if name not in self._seen:
            self._seen.add(name)
            self.order.append(name)


def _is_number(token: str) -> bool:
    return bool(_NUM_RE.match(token))


def _parse_expr(expr: str, lp: ParsedLP) -> dict[str, float]:
    """Linear expression of signs, coefficients and names, spaced or glued.

    Accepts `+2 x`, `- 2 x`, `x+y` (implicit 1), `- -1` (signs multiply) and
    bare constants (returned under the empty-name key for the caller to fold
    into the rhs or the objective offset).
    """
    coefs: dict[str, float] = {}
    sign = 1.0
    pending: float | None = None
    for tok in _TOKEN_RE.findall(expr):
        if tok in ("+", "-") or _is_number(tok):  # numbers come unsigned
            if pending is not None:  # a number no name followed is a constant
                coefs[""] = coefs.get("", 0.0) + sign * pending
                sign, pending = 1.0, None
            if tok == "-":
                sign = -sign
            elif tok != "+":
                pending = float(tok)
            continue
        # variable name
        coef = sign * (pending if pending is not None else 1.0)
        coefs[tok] = coefs.get(tok, 0.0) + coef
        lp.touch(tok)
        sign = 1.0
        pending = None
    if pending is not None:
        coefs[""] = coefs.get("", 0.0) + sign * pending
    return coefs


def _parse_terms(expr: str, lp: ParsedLP) -> dict[str, float]:
    """`_parse_expr` over one expression, with a fast path for `+c name` pairs."""
    if not _PAIRS_RE.fullmatch(expr):
        return _parse_expr(expr, lp)
    tokens = expr.split()
    names = tokens[1::2]
    coefs = dict(zip(names, map(float, tokens[::2])))
    if len(coefs) < len(names):  # a name repeats: sum its coefficients
        coefs = {}
        for coef, name in zip(tokens[::2], names):
            coefs[name] = coefs.get(name, 0.0) + float(coef)
    seen = lp._seen
    if not seen.issuperset(names):
        for name in names:
            if name not in seen:
                seen.add(name)
                lp.order.append(name)
    return coefs


def _parse_rows(text: str, lp: ParsedLP) -> None:
    """Rows `NAME: expr SENSE rhs`, split at each comparison operator."""
    parts = _ROW_END_RE.split(text)
    for k in range(0, len(parts) - 1, 3):
        body, sense, rhs_token = parts[k : k + 3]
        m = _NAME_RE.match(body)
        name = m.group(1) if m else None
        expr = body[m.end() :] if m else body
        if ":" in expr:  # a row name inside the expression: the previous row had no operator
            raise ValueError(f"constraint {name or len(lp.rows)} has no comparison operator")
        if not _is_number(rhs_token):
            raise ValueError(f"constraint {name or len(lp.rows)} has no numeric right-hand side")
        coefs = _parse_terms(expr, lp)
        rhs = float(rhs_token) - coefs.pop("", 0.0)
        lp.rows.append((name or f"r{len(lp.rows)}", coefs, _SENSES[sense], rhs))
    tail = parts[-1]
    if tail.strip():
        m = _NAME_RE.match(tail)
        raise ValueError(f"constraint {m.group(1) if m else len(lp.rows)} has no comparison operator")


def parse_lp(text: str) -> ParsedLP:
    """CPLEX-LP text to a ParsedLP.

    Rows may wrap over lines, senses may be `<=`, `=<`, `<`, `>=`, `=>`, `>`
    or `=`, coefficients may be implicit or have a spaced sign, terms may be
    glued (`x+y`), a constant on the left-hand side moves into the
    right-hand side and one in the objective becomes its offset.
    """
    lp = ParsedLP()
    lines = []
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if line:
            lines.append(line)

    section = None
    obj_lines: list[str] = []
    row_lines: list[str] = []
    bounds_lines: list[str] = []
    names_lines: list[tuple[str, list[str]]] = []

    i = 0
    while i < len(lines):
        stripped = lines[i]
        first = stripped.split(None, 1)[0].lower().rstrip(":")
        if first in _SECTION_WORDS and not (section == "rows" and stripped.endswith(":")):
            kind = _SECTION_WORDS[first]
            if kind == "objective_max":
                lp.maximize = True
                section = "objective"
            elif kind == "objective_min":
                lp.maximize = False
                section = "objective"
            elif kind == "end":
                break
            else:
                section = kind
            rest = stripped.split(None, 2)
            if kind == "rows" and len(rest) >= 2 and rest[0].lower() in ("subject", "such"):
                rest = rest[2:] if len(rest) > 2 else []
            else:
                rest = rest[1:]
            if rest:
                lines.insert(i + 1, " ".join(rest))
            i += 1
            continue
        if section == "objective":
            obj_lines.append(stripped)
        elif section == "rows":
            row_lines.append(stripped)
        elif section == "bounds":
            bounds_lines.append(stripped)
        elif section in ("binary", "general"):
            names_lines.append((section, stripped.split()))
        i += 1

    objective = " ".join(obj_lines)
    m = _NAME_RE.match(objective)
    obj = _parse_terms(objective[m.end() :] if m else objective, lp)
    lp.offset = obj.pop("", 0.0)
    lp.objective = obj

    _parse_rows(" ".join(row_lines), lp)

    for line in bounds_lines:
        tokens = line.split()
        low = [t.lower() for t in tokens]
        if len(tokens) == 2 and low[1] == "free":
            lp.lower[tokens[0]] = float("-inf")
            lp.upper[tokens[0]] = float("inf")
            lp.touch(tokens[0])
        elif len(tokens) == 3 and tokens[1] in ("<=", "<", ">=", ">", "="):
            name, val = tokens[0], float(tokens[2])
            if _is_number(tokens[0]):  # "0 <= x" without upper part
                name, val = tokens[2], float(tokens[0])
                tokens[1] = {"<=": ">=", "<": ">", ">=": "<=", ">": "<"}[tokens[1]]
            lp.touch(name)
            if tokens[1] in ("<=", "<"):
                lp.upper[name] = val
            elif tokens[1] in (">=", ">"):
                lp.lower[name] = val
            else:
                lp.lower[name] = lp.upper[name] = val
        elif len(tokens) == 5 and tokens[1] in ("<=", "<") and tokens[3] in ("<=", "<"):
            lp.lower[tokens[2]] = float(tokens[0])
            lp.upper[tokens[2]] = float(tokens[4])
            lp.touch(tokens[2])
        else:
            raise ValueError(f"cannot parse bounds line: {line!r}")

    for kind, names in names_lines:
        for name in names:
            lp.touch(name)
            lp.integers.add(name)
            if kind == "binary":
                lp.lower.setdefault(name, 0.0)
                lp.upper.setdefault(name, 1.0)
    return lp


_CORE = "scipy.optimize._highspy._core"
_INF = float("inf")


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


def _configured_highs(time_limit: float, gap: float, threads: int = 1):
    """A HiGHS instance with the options both solve paths use.

    HiGHS sizes one thread pool per process at its first run, and a later
    run that asks for another size fails; the child solves once, and
    in-process callers keep the default.
    """
    highs = _highs_core()._Highs()
    options = {"output_flag": False, "time_limit": float(time_limit), "mip_rel_gap": float(gap), "threads": int(threads)}
    for key, value in options.items():
        _check(highs.setOptionValue(key, value), f"HiGHS rejected option {key}={value!r}")
    return highs


@dataclass
class HighsResult:
    status: str  # optimal, gap_reached, time_limit, infeasible, unbounded or error
    objective: float | None  # in the model's own sense; None without a feasible solution
    bound: float | None  # MIP dual bound, reported with a feasible MIP solution
    x: list[float] | None  # column values in column order, with a feasible solution
    mip_node_count: int


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
        rel = abs(objective - bound) / max(1.0, abs(objective))
        return ("optimal" if rel <= 1e-9 else "gap_reached"), objective, bound
    return "optimal", objective, bound


def _run(highs) -> HighsResult:
    """Solve the loaded model; the one step both solve paths share after loading."""
    highs.run()  # a failed run leaves a model status that `_status_of` reports as an error
    status, objective, bound = _status_of(highs)
    x = list(highs.getSolution().col_value) if objective is not None else None
    return HighsResult(status, objective, bound, x, max(highs.getInfo().mip_node_count, 0))


def _pass_model(lp: ParsedLP, time_limit: float, gap: float):
    """A configured HiGHS holding `lp` through `passModel`, and each variable's column.

    The model is the one HiGHS's reader builds from the same text: columns
    in order of first appearance, the objective in its own sense, and the
    matrix by column with rows ascending.
    """
    import numpy as np

    core = _highs_core()
    cols = {name: j for j, name in enumerate(lp.order)}
    nrow = len(lp.rows)
    row_of: list[int] = []
    col_of: list[int] = []
    value: list[float] = []
    row_lower = [-_INF] * nrow
    row_upper = [_INF] * nrow
    for r, (_name, coefs, sense, rhs) in enumerate(lp.rows):
        row_of.extend([r] * len(coefs))
        col_of.extend(map(cols.__getitem__, coefs))
        value.extend(coefs.values())
        if sense != "<=":
            row_lower[r] = rhs
        if sense != ">=":
            row_upper[r] = rhs
    col_index = np.array(col_of, dtype=np.int64)
    by_col = np.argsort(col_index, kind="stable")  # rows stay ascending within a column

    model = core.HighsLp()
    model.num_col_ = len(lp.order)
    model.num_row_ = nrow
    model.sense_ = core.ObjSense.kMaximize if lp.maximize else core.ObjSense.kMinimize
    model.offset_ = lp.offset
    model.col_cost_ = [lp.objective.get(name, 0.0) for name in lp.order]
    model.col_lower_ = [lp.lower.get(name, 0.0) for name in lp.order]
    model.col_upper_ = [lp.upper.get(name, _INF) for name in lp.order]
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    model.col_names_ = lp.order
    if lp.integers:
        integer, continuous = core.HighsVarType.kInteger, core.HighsVarType.kContinuous
        model.integrality_ = [integer if name in lp.integers else continuous for name in lp.order]
    matrix = model.a_matrix_
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.num_col_ = len(lp.order)
    matrix.num_row_ = nrow
    matrix.start_ = np.concatenate(([0], np.cumsum(np.bincount(col_index, minlength=len(lp.order)))))
    matrix.index_ = np.array(row_of, dtype=np.int64)[by_col]
    matrix.value_ = np.array(value, dtype=np.float64)[by_col]

    highs = _configured_highs(time_limit, gap)
    _check(highs.passModel(model), "HiGHS rejected the model passed to passModel")
    return highs, cols


def solve_lp(lp: ParsedLP, time_limit: float, gap: float) -> tuple[HighsResult, dict[str, int]]:
    """Solve a ParsedLP with the HiGHS core and options `main` uses; returns the result and each variable's column."""
    highs, cols = _pass_model(lp, time_limit, gap)
    return _run(highs), cols


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


def _read_model(path: str, time_limit: float, gap: float, threads: int = 1):
    """A configured HiGHS holding the LP file at `path`, read by HiGHS's own reader."""
    highs = _configured_highs(time_limit, gap, threads)
    with open(path, "rb") as fh:
        row = _lhs_constant_row(fh.read())
    if row is not None:
        raise ValueError(f"row {row} has a constant on its left-hand side, which HiGHS's LP reader misreads")
    _check(highs.readModel(path), f"HiGHS's LP reader rejected {path} (the dialect it reads is in the shim's docstring)")
    return highs


def _write_atomically(path: str, text: str) -> None:
    """Write `text` to `path` through a temporary file and a rename."""
    part = f"{path}.part"
    with open(part, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(part, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pipesched-shim", description=__doc__)
    parser.add_argument("model", help="input LP file")
    parser.add_argument("solution", help="output solution file")
    parser.add_argument("--time-limit", type=float, default=1e30)
    parser.add_argument("--gap", type=float, default=0.0)
    parser.add_argument("--threads", type=int, default=1, help="HiGHS threads; 0 lets HiGHS choose")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    try:
        highs = _read_model(args.model, args.time_limit, args.gap, args.threads)
        t_read = time.monotonic()
        res = _run(highs)
        t_solve = time.monotonic()
    except Exception as exc:  # report through the file protocol, then fail
        _write_atomically(args.solution, f"# Status = error\n# Message = {type(exc).__name__}: {exc}\n")
        print(f"solver shim error: {exc}", file=sys.stderr)
        return 1

    lines = [f"# Status = {res.status}"]
    if res.objective is not None:
        lines.append(f"# Objective value = {res.objective!r}")
    if res.bound is not None:
        lines.append(f"# Best bound = {res.bound!r}")
    lines.append(f"# Wall time = {time.monotonic() - t0:.3f}")
    lines.append(f"# MIP nodes = {res.mip_node_count}")
    lines.append(f"# Read time = {t_read - t0:.3f}")
    lines.append(f"# Solve time = {t_solve - t_read:.3f}")
    if res.x is not None:
        for name, val in zip(highs.getLp().col_names_, res.x):
            if abs(val) > 1e-11:
                lines.append(f"{name} {val!r}")
    _write_atomically(args.solution, "\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
