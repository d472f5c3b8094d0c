"""LP-format serialization and solver solution parsing.

`write_lp` emits CPLEX-dialect LP text deterministically: identical models
produce byte-identical files, so file hashes can anchor regression tests.
It formats rows from the model's row store a chunk at a time and joins the
chunks once, caching nothing on the model; `write_text_file` writes the text
out without encoding all of it at once.
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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Union

from .milpmodel import GE, LE, PLACEMENT, SENSES, MILPModel, RowStore, row_name
from .schedule import Schedule

INTEGRALITY_TOL = 1e-5
OBJECTIVE_CHECK_TOL = 1e-6

_TERMS_PER_LINE = 8
_CHUNK_TERMS = 8192  # terms formatted at a time by `write_lp`
_WRITE_SLICE = 1 << 18  # characters encoded at a time by `write_text_file`: at most 1 MiB of UTF-8


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


def _wrap(words: list[str], indent: str) -> str:
    """`words` joined by spaces, `_TERMS_PER_LINE` to a line; each further line starts with `indent`."""
    return f"\n{indent}".join(" ".join(words[i : i + _TERMS_PER_LINE]) for i in range(0, len(words), _TERMS_PER_LINE))


def _row_chunks(rows: RowStore, names: list[str], activated_lazy: Optional[set[int]]) -> Iterator[str]:
    """The shipped rows' LP lines, one string per run of rows holding about `_CHUNK_TERMS` terms;
    every row without terms, shipped or not, is checked to hold vacuously and left out."""
    start = rows.start
    signed = {c: f"+{c} " if c >= 0 else f"-{-c} " for c in set(rows.coef)}
    r0 = 0
    while r0 < len(rows):
        r1 = max(r0 + 1, bisect_right(start, start[r0] + _CHUNK_TERMS, r0) - 1)
        s0, s1 = start[r0], start[r1]
        coefs, cols = rows.coef[s0:s1], rows.col[s0:s1]
        terms = list(map(str.__add__, map(signed.__getitem__, coefs), map(names.__getitem__, cols)))
        lines = []
        for r, s, e, family, rank, sense, rhs, lazy in zip(
            range(r0, r1), start[r0:r1], start[r0 + 1 : r1 + 1], rows.family[r0:r1],
            rows.rank[r0:r1], rows.sense[r0:r1], rows.rhs[r0:r1], rows.lazy[r0:r1],
        ):
            name, sense = row_name(family, rank), SENSES[sense]
            if s == e:
                if not (0 <= rhs if sense == LE else 0 >= rhs if sense == GE else rhs == 0):
                    raise LPWriteError(f"constraint {name} has no terms and cannot hold (0 {sense} {rhs})")
            elif not lazy or activated_lazy is None or r in activated_lazy:
                lhs = terms[s - s0 : e - s0]
                lhs = " ".join(lhs) if len(lhs) <= _TERMS_PER_LINE else _wrap(lhs, "   ")
                lines.append(f" {name}: {lhs} {sense} {rhs}")
        if lines:
            yield "\n".join(lines)
        r0 = r1


def _bound_affixes(lb: int | None, ub: int | None) -> tuple[str, str] | None:
    """Text before and after a column's name in its Bounds line; None for the LP default [0, inf)."""
    if lb is None and ub is None:
        return "", " free"
    if lb == 0 and ub is None:
        return None
    if lb == 0:
        return "", f" <= {_num(ub)}"
    if ub is None:
        return "", f" >= {_num(lb)}"
    return f"{_num(lb)} <= ", f" <= {_num(ub)}"


def write_lp(model: MILPModel, activated_lazy: Optional[set[int]] = None) -> str:
    """Serialize the model; `activated_lazy` restricts which lazy rows appear.

    With `activated_lazy=None` every row is written (monolithic model); with
    a set only non-lazy rows plus the activated lazy row indices appear.
    A row without terms is left out after checking that it holds vacuously.
    """
    names = model.lp_names
    meta = model.metadata or {}
    objective = [f"+{_num(c)} {names[vid]}" if c >= 0 else f"-{_num(-c)} {names[vid]}" for vid, c in model.objective]
    objective = _wrap(objective or [f"+0 {names[0]}" if names else "+0 x0"], "   ")  # the terms are freed here
    pieces = [
        f"\\ pipesched model {meta.get('instance', '?')} hash={str(meta.get('instance_hash', ''))[:12]}",
        "Maximize",
        f" obj: {objective}",
        "Subject To",
        *_row_chunks(model.constraints, names, activated_lazy),
        "Bounds",
    ]
    binaries: list[str] = []
    for block in model.variables.blocks:
        binary, lb, ub = block.bounds
        block_names = names[block.start : block.start + block.count]
        if binary:
            binaries.extend(block_names)
        elif block_names and (affixes := _bound_affixes(lb, ub)) is not None:
            pieces.append("\n".join(f" {affixes[0]}{name}{affixes[1]}" for name in block_names))

    if binaries:
        pieces += ["Binary", " " + _wrap(binaries, " ")]
    pieces.append("End\n")
    return "\n".join(pieces)


def write_text_file(path: Union[str, Path], text: str) -> None:
    """Write `text` to `path` as UTF-8, encoding at most 1 MiB at a time rather than a copy of all of it."""
    with open(path, "w", encoding="utf-8") as f:
        for i in range(0, len(text), _WRITE_SLICE):
            f.write(text[i : i + _WRITE_SLICE])


@dataclass
class ParsedSolution:
    """Solution-file content resolved against a model."""

    schedule: Optional[Schedule]
    objective: Optional[float]  # linear part recomputed from the model
    bound: Optional[float]
    status_hint: Optional[str]  # one of the STATUS_* words, or None


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


# the file protocol's status words: what `_normalize_status` reads from a solution file
STATUS_OPTIMAL = "optimal"
STATUS_GAP = "gap_reached"
STATUS_TIME_LIMIT = "time_limit"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ERROR = "error"


def _normalize_status(text: str) -> Optional[str]:
    low = text.lower()
    if "gap" in low:
        return STATUS_GAP
    if "optimal" in low:
        return STATUS_OPTIMAL
    if "infeasible" in low:
        return STATUS_INFEASIBLE
    if "unbounded" in low:
        return STATUS_UNBOUNDED
    if "time" in low or "stopped" in low or "interrupt" in low:
        return STATUS_TIME_LIMIT
    if "error" in low:
        return STATUS_ERROR
    return None


def _name_vid(name: str, names: list[str]) -> Optional[int]:
    """The column an LP name denotes: its kind prefix, then its vid in ASCII digits; None for any other token."""
    digits = name[1:]
    if not (digits.isascii() and digits.isdigit()) or len(digits) > len(str(len(names))):
        return None
    vid = int(digits)
    return vid if vid < len(names) and names[vid] == name else None


def parse_solution(text: str, model: MILPModel) -> ParsedSolution:
    names = model.lp_names
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
            m = _CBC_RE.match(line)  # no column name (a letter, then digits) starts with a status word
            if m:
                status_hint = _normalize_status(m.group(1)) or status_hint
                if m.group(2) is not None:
                    reported = float(m.group(2))
                continue

        tokens = line.split()
        vid = value_token = None
        if len(tokens) >= 2 and (vid := _name_vid(tokens[0], names)) is not None:
            value_token = tokens[1]
        elif len(tokens) >= 3 and _NUM_RE.match(tokens[0]) and (vid := _name_vid(tokens[1], names)) is not None:
            value_token = tokens[2]  # "<row#> name value [rcost]"
        if vid is None or not _NUM_RE.match(value_token):
            excerpt = line if len(line) <= 120 else line[:117] + "..."
            raise SolutionFormatError(f"unparseable solution line {lineno}: {excerpt!r}")
        saw_values_section = True
        values[vid] = float(value_token)

    no_values = (STATUS_UNBOUNDED, STATUS_ERROR, STATUS_TIME_LIMIT)  # words that may come without a schedule
    if status_hint == STATUS_INFEASIBLE or (not saw_values_section and status_hint in no_values):
        return ParsedSolution(None, None, bound, status_hint)
    if not saw_values_section and reported is None and status_hint is None:
        raise SolutionFormatError("solution file contains neither values nor a recognizable status")

    placements = []
    rounded = dict(values)
    for block in model.variables.blocks:
        if not block.bounds[0]:
            continue
        for vid in range(block.start, block.start + block.count):
            val = values.get(vid)
            if val is None:
                continue  # an unlisted column is 0
            if abs(val - round(val)) > INTEGRALITY_TOL:
                raise SolutionFormatError(
                    f"binary variable {model.lp_names[vid]} has fractional value {val!r}"
                )
            rounded[vid] = float(round(val))
            if round(val) == 1 and block.kind == PLACEMENT:
                placements.append((*block.prefix, block.first + vid - block.start))

    # recompute over the rounded binaries: that is the solution actually used
    linear = sum(float(coef) * rounded.get(vid, 0.0) for vid, coef in model.objective)
    if reported is not None:
        tol = OBJECTIVE_CHECK_TOL + 1e-9 * abs(linear)
        if abs(linear - reported) > tol:
            raise SolutionFormatError(
                f"solver-reported objective {reported!r} disagrees with recomputed {linear!r}"
            )
    return ParsedSolution(Schedule.from_raw(placements), linear, bound, status_hint)
