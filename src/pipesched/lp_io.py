"""LP-format serialization and solver solution parsing.

`write_lp` emits CPLEX-dialect LP text deterministically: identical models
produce byte-identical files, so file hashes can anchor regression tests.
Variable names are kind-prefixed dense ids (v=placement, w=endpoint,
u=blocked stock, l=on-stock, d=deviation).  The objective constant is never
written into the file; callers add it back to reported values.

`parse_solution` accepts the common solution-file shapes: `name value`
pairs, `#`-comment metadata (objective/bound/status), `objective value:` /
`solution status:` headers, report lines `<idx> name value reduced-cost`,
and trailing `(obj: ...)` annotations.  Binary values are checked for
integrality and the objective is recomputed from the model and cross-checked
against the reported value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .milpmodel import EQ, GE, LE, LinearConstraint, MILPModel, PLACEMENT
from .schedule import Schedule

INTEGRALITY_TOL = 1e-5
OBJECTIVE_CHECK_TOL = 1e-6

_TERMS_PER_LINE = 8


class LPWriteError(ValueError):
    pass


class SolutionFormatError(ValueError):
    pass


def _num(x: int | Fraction) -> str:
    if type(x) is int:
        return str(x)
    if x.denominator == 1:
        return str(x.numerator)
    return repr(float(x))


def _terms_text(terms: Iterable[tuple[int, int | Fraction]], names: list[str]) -> list[str]:
    chunks = [
        f"+{_num(coef)} {names[vid]}" if coef >= 0 else f"-{_num(-coef)} {names[vid]}" for vid, coef in terms
    ]
    lines = []
    for i in range(0, len(chunks), _TERMS_PER_LINE):
        lines.append(" ".join(chunks[i : i + _TERMS_PER_LINE]))
    return lines or [""]


_SENSE_TEXT = {LE: "<=", GE: ">=", EQ: "="}


def _row_text(c: LinearConstraint, names: list[str]) -> str:
    """LP lines of one row; '' for a row without terms, which holds vacuously."""
    if not c.terms:
        holds = (
            (c.sense == LE and 0 <= c.rhs)
            or (c.sense == GE and 0 >= c.rhs)
            or (c.sense == EQ and c.rhs == 0)
        )
        if not holds:
            raise LPWriteError(f"constraint {c.name} has no terms and cannot hold (0 {c.sense} {c.rhs})")
        return ""
    lines = _terms_text(c.terms, names)
    lines[0] = f" {c.name}: {lines[0]}"
    for i in range(1, len(lines)):
        lines[i] = "   " + lines[i]
    lines[-1] += f" {_SENSE_TEXT[c.sense]} {_num(c.rhs)}"
    return "\n".join(lines)


def _row_texts(model: MILPModel) -> list[str]:
    """Row text is the same in every lazy round, so it is formatted once per model."""
    if model.lp_rows is None:
        names = [v.lp_name for v in model.variables]
        model.lp_rows = [_row_text(c, names) for c in model.constraints]
    return model.lp_rows


def write_lp(model: MILPModel, activated_lazy: Optional[set[int]] = None) -> str:
    """Serialize the model; `activated_lazy` restricts which lazy rows appear.

    With `activated_lazy=None` every row is written (monolithic model); with
    a set only non-lazy rows plus the activated lazy row indices appear.
    Rows with an empty left-hand side cannot be expressed in LP format; they
    are skipped after checking they hold vacuously (on the first call, for
    every row of the model).
    """
    names = [v.lp_name for v in model.variables]
    out: list[str] = []
    meta = model.metadata or {}
    out.append(f"\\ pipesched model {meta.get('instance', '?')} hash={str(meta.get('instance_hash', ''))[:12]}")
    out.append("Maximize")
    if model.objective:
        obj_lines = _terms_text(model.objective, names)
    else:
        obj_lines = [f"+0 {names[0]}"] if names else ["+0 x0"]
    out.append(" obj: " + obj_lines[0])
    out.extend("   " + line for line in obj_lines[1:])

    out.append("Subject To")
    out.extend(
        text
        for idx, (text, c) in enumerate(zip(_row_texts(model), model.constraints))
        if text and (not c.lazy or activated_lazy is None or idx in activated_lazy)
    )

    out.append("Bounds")
    for v in model.variables:
        if v.binary:
            continue
        if v.lb is None and v.ub is None:
            out.append(f" {names[v.vid]} free")
        elif v.lb == 0 and v.ub is None:
            pass  # LP default
        elif v.lb == 0 and v.ub is not None:
            out.append(f" {names[v.vid]} <= {_num(v.ub)}")
        elif v.ub is None:
            out.append(f" {names[v.vid]} >= {_num(v.lb)}")
        else:
            out.append(f" {_num(v.lb)} <= {names[v.vid]} <= {_num(v.ub)}")

    binaries = [names[v.vid] for v in model.variables if v.binary]
    if binaries:
        out.append("Binary")
        for i in range(0, len(binaries), _TERMS_PER_LINE):
            out.append(" " + " ".join(binaries[i : i + _TERMS_PER_LINE]))
    out.append("End")
    return "\n".join(out) + "\n"


@dataclass
class ParsedSolution:
    """Solution-file content resolved against a model."""

    schedule: Optional[Schedule]
    objective: Optional[float]  # linear part recomputed from the model
    reported_objective: Optional[float]
    bound: Optional[float]
    status_hint: Optional[str]
    values: dict[int, float] = field(default_factory=dict)


_META_RE = re.compile(
    r"^#\s*(objective value|best bound|status|message|wall time)\s*[=:]\s*(.*)$", re.IGNORECASE
)
_HEADER_RE = re.compile(r"^(solution status|objective value)\s*:\s*(.*)$", re.IGNORECASE)
_CBC_RE = re.compile(
    r"^(optimal|infeasible|integer infeasible|unbounded|stopped|continuous)\b.*?"
    r"(?:objective(?:\s+value)?\s+(-?[0-9.eE+-]+))?\s*$",
    re.IGNORECASE,
)
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _normalize_status(text: str) -> Optional[str]:
    low = text.lower()
    if "gap" in low:
        return "gap_reached"
    if "optimal" in low:
        return "optimal"
    if "infeasible" in low:
        return "infeasible"
    if "unbounded" in low:
        return "unbounded"
    if "time" in low or "stopped" in low or "interrupt" in low:
        return "time_limit"
    if "error" in low:
        return "error"
    return None


def parse_solution(text: str, model: MILPModel) -> ParsedSolution:
    name_to_vid = model.name_index
    values: dict[int, float] = {}
    reported: Optional[float] = None
    bound: Optional[float] = None
    status_hint: Optional[str] = None
    saw_values_section = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#") or line.startswith("//"):
            m = _META_RE.match(line.replace("//", "#", 1))
            if m:
                key = m.group(1).lower()
                val = m.group(2).strip()
                if key == "objective value":
                    reported = float(val)
                elif key == "best bound":
                    bound = float(val)
                elif key == "status":
                    status_hint = _normalize_status(val) or status_hint
            continue
        m = _HEADER_RE.match(line)
        if m:
            if m.group(1).lower() == "solution status":
                status_hint = _normalize_status(m.group(2)) or status_hint
            else:
                try:
                    reported = float(m.group(2).split()[0])
                except (ValueError, IndexError):
                    pass
            continue
        if not saw_values_section:
            m = _CBC_RE.match(line)
            if m and line.split()[0].lower() not in name_to_vid:
                status_hint = _normalize_status(m.group(1)) or status_hint
                if m.group(2) is not None:
                    reported = float(m.group(2))
                continue

        tokens = line.split()
        name = value_token = None
        if tokens[0] in name_to_vid and len(tokens) >= 2:
            name, value_token = tokens[0], tokens[1]
        elif len(tokens) >= 3 and _NUM_RE.match(tokens[0]) and tokens[1] in name_to_vid:
            name, value_token = tokens[1], tokens[2]  # "<row#> name value [rcost]"
        if name is None or not _NUM_RE.match(value_token):
            excerpt = line if len(line) <= 120 else line[:117] + "..."
            raise SolutionFormatError(f"unparseable solution line {lineno}: {excerpt!r}")
        saw_values_section = True
        values[name_to_vid[name]] = float(value_token)

    if status_hint == "infeasible" or (not saw_values_section and status_hint in ("unbounded", "error")):
        return ParsedSolution(None, None, reported, bound, status_hint, values)
    if not saw_values_section and reported is None and status_hint is None:
        raise SolutionFormatError("solution file contains neither values nor a recognizable status")
    if not saw_values_section and status_hint == "time_limit":
        return ParsedSolution(None, None, reported, bound, status_hint, values)

    placements = []
    rounded = dict(values)
    for var in model.variables:
        val = values.get(var.vid, 0.0)
        if var.binary:
            if abs(val - round(val)) > INTEGRALITY_TOL:
                raise SolutionFormatError(
                    f"binary variable {var.lp_name} has fractional value {val!r}"
                )
            rounded[var.vid] = float(round(val))
            if round(val) == 1 and var.kind == PLACEMENT:
                placements.append(var.key)

    # recompute over the rounded binaries: that is the solution actually used
    linear = sum(float(coef) * rounded.get(vid, 0.0) for vid, coef in model.objective)
    if reported is not None:
        tol = OBJECTIVE_CHECK_TOL + 1e-9 * abs(linear)
        if abs(linear - reported) > tol:
            raise SolutionFormatError(
                f"solver-reported objective {reported!r} disagrees with recomputed {linear!r}"
            )
    return ParsedSolution(Schedule.from_raw(placements), linear, reported, bound, status_hint, values)
