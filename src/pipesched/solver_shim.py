"""Standalone MILP solver CLI: reads an LP file, writes a solution file.

This is the default subprocess backend.  It keeps the driver <-> solver
boundary an honest file-based protocol (any CPLEX-LP-capable solver can be
substituted via the command template) while needing nothing beyond scipy,
whose `milp` wraps HiGHS.  It imports nothing from `pipesched`, so the
driver starts it by file path:

    python .../pipesched/solver_shim.py model.lp model.sol --time-limit 600 --gap 1e-3

`python -m pipesched.solver_shim` works too where the package is importable.

The solution file uses `name value` rows for nonzero variables plus comment
metadata (`# Status`, `# Objective value`, `# Best bound`) in the style most
solver exports follow.  Maximization problems are solved by negation; the
reported objective is always in the original sense.
"""

from __future__ import annotations

import argparse
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
# a row ends at its comparison operator and right-hand side token
_ROW_END_RE = re.compile(r"(<=|=<|>=|=>|<|>|=)\s*(\S*)")
_NAME_RE = re.compile(r"\s*(\S+?)\s*:(?=\s|$)")
# the shape lp_io writes: whitespace-separated `+c name` pairs, sign glued to c
_PAIRS_RE = re.compile(rf"(?:\s*[+-]{_NUM}\s+[A-Za-z_][^\s:]*(?=\s|$))*\s*")


@dataclass
class ParsedLP:
    maximize: bool = False
    objective: dict[str, float] = field(default_factory=dict)
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


def _parse_expr(tokens: list[str], lp: ParsedLP) -> dict[str, float]:
    """Linear expression over `sign-glued coefficient, name` token pairs.

    Accepts `+2 x`, `- 2 x`, `x` (implicit 1) and bare constants (returned
    under the empty-name key for the caller to fold into the rhs).
    """
    coefs: dict[str, float] = {}
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        if tok == "+":
            if pending is not None:
                coefs[""] = coefs.get("", 0.0) + sign * pending
                pending = None
            sign = 1.0
            continue
        if tok == "-":
            if pending is not None:
                coefs[""] = coefs.get("", 0.0) + sign * pending
                pending = None
            sign = -1.0
            continue
        if _is_number(tok):
            if pending is not None:
                coefs[""] = coefs.get("", 0.0) + sign * pending
            if tok[0] in "+-":
                sign = 1.0 if tok[0] == "+" else -1.0
                pending = abs(float(tok))
            else:
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
        return _parse_expr(expr.split(), lp)
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
    or `=`, coefficients may be implicit or have a spaced sign, and a
    constant on the left-hand side moves into the right-hand side.
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
    obj.pop("", None)
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


def solve_lp(lp: ParsedLP, time_limit: float, gap: float):
    import numpy as np
    from scipy import optimize, sparse

    cols = {name: j for j, name in enumerate(lp.order)}
    nvar = len(lp.order)
    c = np.zeros(nvar)
    for name, coef in lp.objective.items():
        c[cols[name]] = -coef if lp.maximize else coef

    data, ri, ci = [], [], []
    row_lb = np.empty(len(lp.rows))
    row_ub = np.empty(len(lp.rows))
    for r, (_name, coefs, sense, rhs) in enumerate(lp.rows):
        for name, coef in coefs.items():
            ri.append(r)
            ci.append(cols[name])
            data.append(coef)
        row_lb[r] = rhs if sense in (">=", "=") else -np.inf
        row_ub[r] = rhs if sense in ("<=", "=") else np.inf

    lb = np.zeros(nvar)
    ub = np.full(nvar, np.inf)
    for name, val in lp.lower.items():
        lb[cols[name]] = val
    for name, val in lp.upper.items():
        ub[cols[name]] = val
    integrality = np.zeros(nvar)
    for name in lp.integers:
        integrality[cols[name]] = 1

    constraints = None
    if lp.rows:
        A = sparse.csc_matrix((data, (ri, ci)), shape=(len(lp.rows), nvar))
        constraints = optimize.LinearConstraint(A, row_lb, row_ub)

    res = optimize.milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=optimize.Bounds(lb, ub),
        options={"time_limit": time_limit, "mip_rel_gap": gap, "disp": False},
    )
    return res, cols


def _status_of(res, maximize: bool, gap_tol: float) -> tuple[str, float | None, float | None]:
    objective = None
    bound = None
    if res.x is not None and res.fun is not None:
        objective = -res.fun if maximize else res.fun
    raw_bound = getattr(res, "mip_dual_bound", None)
    if raw_bound is not None:
        bound = -raw_bound if maximize else raw_bound
    if res.status == 2:
        return "infeasible", None, None
    if res.status == 3:
        return "unbounded", objective, bound
    if res.status == 1:
        return "time_limit", objective, bound
    if res.status != 0:
        return "error", objective, bound
    if objective is not None and bound is not None:
        rel = abs(objective - bound) / max(1.0, abs(objective))
        return ("optimal" if rel <= 1e-9 else "gap_reached"), objective, bound
    return "optimal", objective, bound


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pipesched-shim", description=__doc__)
    parser.add_argument("model", help="input LP file")
    parser.add_argument("solution", help="output solution file")
    parser.add_argument("--time-limit", type=float, default=1e30)
    parser.add_argument("--gap", type=float, default=0.0)
    parser.add_argument("--threads", type=int, default=1)  # accepted for template compat
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            lp = parse_lp(fh.read())
        res, cols = solve_lp(lp, args.time_limit, args.gap)
        status, objective, bound = _status_of(res, lp.maximize, args.gap)
    except Exception as exc:  # report through the file protocol, then fail
        with open(args.solution, "w", encoding="utf-8") as fh:
            fh.write("# Status = error\n")
            fh.write(f"# Message = {type(exc).__name__}: {exc}\n")
        print(f"solver shim error: {exc}", file=sys.stderr)
        return 1

    lines = [f"# Status = {status}"]
    if objective is not None:
        lines.append(f"# Objective value = {objective!r}")
    if bound is not None:
        lines.append(f"# Best bound = {bound!r}")
    lines.append(f"# Wall time = {time.monotonic() - t0:.3f}")
    if res.x is not None:
        order = sorted(cols.items(), key=lambda kv: kv[1])
        for name, j in order:
            val = float(res.x[j])
            if abs(val) > 1e-11:
                lines.append(f"{name} {val!r}")
    with open(args.solution, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
