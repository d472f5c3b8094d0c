"""LP-format serialization and solver solution parsing.

`write_lp` writes CPLEX-dialect LP files deterministically: identical models
produce byte-identical files, so file hashes can anchor regression tests.
It formats the objective, the rows (straight from the model's row store) and
the Binary section a chunk at a time and writes each chunk to the file as it
is made, so it never holds the whole text and caches nothing on the model.
A row's sense comes from its family, and its name from its family and its
rank, which the writer counts per family as it walks the rows.  The tank
limits are written in the Bounds section, `-inf <= u <= capacity` and
`l >= minimum`, and an occupancy column without a limit is written `free`.
The model holds occupancy columns and recurrences only at the slots whose
limit can bind (`milpmodel.kept_limits`); the writer and `parse_solution`
walk whatever blocks and rows it holds.  A dispatch column that a transport
outage forbids or a fixed start forces is written with its box in the Bounds
section too, `0 <= v <= 0` or `1 <= v <= 1` (`1 <= v <= 0` where both apply),
and stays in the Binary section.
Variable names are kind-prefixed dense ids (v=dispatch, u=blocked stock,
l=on-stock, d=deviation), formed as they are written from `column_letters`;
no list of names is kept.  The header comment writes the
instance name with backslash escapes, so it stays on one line and the file
is ASCII.  The objective constant is never written into the file; callers
add it back to reported values.

`parse_solution` accepts the common solution-file shapes: `name value`
pairs, `#`-comment metadata (objective/bound/status, and the node and
simplex-iteration counts, kept for the record only), `objective value:` /
`solution status:` headers, report lines `<idx> name value reduced-cost`,
and trailing `(obj: ...)` annotations.  A name is read back from its digits
and accepted only if the writer spells that column the same way.  Binary
values are checked to be integral and 0 or 1, the dispatches set to 1 are
expanded along their paths (`Schedule.from_initial`), and the objective is
recomputed from the model and cross-checked against the reported value.

`write_start` writes a schedule as a start file in the shape
`parse_solution` reads back: one `v<vid> 1` line per dispatch column the
schedule sets, in column order, and nothing else.  Every other binary is 0
by omission; the blocked-stock, on-stock and deviation columns are left for
the solver to complete.
"""

from __future__ import annotations

import math
import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .milpmodel import FAMILIES, FAMILY_SENSE, GE, LE, MILPModel, RowStore, column_letters, row_name
from .schedule import Schedule

INTEGRALITY_TOL = 1e-5
OBJECTIVE_CHECK_TOL = 1e-6

_TERMS_PER_LINE = 8
_CHUNK_TERMS = 2048  # terms or names formatted at a time by `write_lp`; a multiple of _TERMS_PER_LINE


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


def _row_chunks(rows: RowStore, letters: str) -> Iterator[str]:
    """The rows' LP lines, one string per run of rows holding about `_CHUNK_TERMS` terms;
    every row without terms is checked to hold vacuously and left out."""
    start = rows.start
    signed = {c: f"+{c} " if c >= 0 else f"-{-c} " for c in set(rows.coef)}
    senses = [FAMILY_SENSE[f] for f in FAMILIES]
    ranks = [0] * len(FAMILIES)  # rows of each family written or skipped so far
    r0, n = 0, len(rows.rhs)
    while r0 < n:
        r1 = max(r0 + 1, bisect_right(start, start[r0] + _CHUNK_TERMS, r0) - 1)
        s0, s1 = start[r0], start[r1]
        coefs, cols = rows.coef[s0:s1], rows.col[s0:s1]
        terms = [f"{signed[c]}{letters[vid]}{vid}" for c, vid in zip(coefs, cols)]  # no Python call per term
        lines = []
        for s, e, family, rhs in zip(start[r0:r1], start[r0 + 1 : r1 + 1], rows.family[r0:r1], rows.rhs[r0:r1]):
            name, sense = row_name(family, ranks[family]), senses[family]
            ranks[family] += 1
            if s == e:
                if not (0 <= rhs if sense == LE else 0 >= rhs if sense == GE else rhs == 0):
                    raise LPWriteError(f"constraint {name} has no terms and cannot hold (0 {sense} {rhs})")
            else:
                lhs = terms[s - s0 : e - s0]
                lhs = " ".join(lhs) if len(lhs) <= _TERMS_PER_LINE else _wrap(lhs, "   ")
                lines.append(f" {name}: {lhs} {sense} {rhs}")
        if lines:
            yield "\n".join(lines)
        r0 = r1


def _wrapped(words: Iterable[str], head: str, indent: str) -> Iterator[str]:
    """`head + _wrap(words, indent)`, formed `_CHUNK_TERMS` words at a time: each piece holds whole
    lines, so the pieces joined by line breaks are the text formed at once."""
    words = iter(words)
    while chunk := list(islice(words, _CHUNK_TERMS)):
        yield head + _wrap(chunk, indent)
        head = indent


def _objective_terms(objective: tuple[tuple[int, Fraction], ...], letters: str) -> Iterator[str]:
    """The `obj:` line's terms; an empty objective is written as zero times the first column.

    A model holds a few distinct coefficients over thousands of terms, so each is formatted once,
    keyed on its numerator and denominator: hashing a `Fraction` costs more than formatting it."""
    if not objective:
        yield f"+0 {letters[0]}0" if letters else "+0 x0"
        return
    signed = {}
    for vid, c in objective:
        key = c.numerator, c.denominator
        text = signed.get(key)
        if text is None:
            text = signed[key] = f"+{_num(c)} " if c >= 0 else f"-{_num(-c)} "
        yield f"{text}{letters[vid]}{vid}"


def _bound_affixes(lb: int | None, ub: int | None, binary: bool) -> tuple[str, str] | None:
    """Text before and after a column's name in its Bounds line; None for the LP default, [0, 1] for a
    column in the Binary section and [0, inf) for any other."""
    if lb == 0 and ub == (1 if binary else None):
        return None
    if ub is None:
        return ("", " free") if lb is None else ("", f" >= {_num(lb)}")
    return ("-inf" if lb is None else _num(lb)) + " <= ", f" <= {_num(ub)}"


def write_lp(model: MILPModel, path: Union[str, Path]) -> str:
    """Write the model to the LP file `path` and return `path` as a string.

    Every row is written, every tank limit the model keeps as its occupancy column's bound, and every
    fixed dispatch column's box.
    A row without terms is left out after checking that it holds vacuously.
    The file is written a piece at a time to `<path>.part` and renamed to
    `path` once complete; a write that fails removes the part file and
    leaves `path` as it was.
    """
    path = str(path)
    part = f"{path}.part"
    try:
        with open(part, "w", encoding="utf-8") as f:
            for piece in _lp_pieces(model):
                f.write(piece)
                f.write("\n")
        os.replace(part, path)
    except BaseException:
        Path(part).unlink(missing_ok=True)
        raise
    return path


def _lp_pieces(model: MILPModel) -> Iterator[str]:
    """The LP file's text in order, a line or a run of lines at a time, each without its final line break."""
    letters = column_letters(model)
    instance = model.instance.name.encode("unicode_escape").decode("ascii")  # on one line, in ASCII
    yield f"\\ pipesched model {instance} hash={model.metadata['instance_hash'][:12]}"
    yield "Maximize"
    yield from _wrapped(_objective_terms(model.objective, letters), " obj: ", "   ")
    yield "Subject To"
    yield from _row_chunks(model.constraints, letters)
    yield "Bounds"
    binaries = []
    for block in model.variables.blocks:
        if not block.count:
            continue
        vids = range(block.start, block.start + block.count)
        binary = block.bounds[0]
        if binary:
            binaries.append(vids)
            if block.limits is None:  # no start of the batch is fixed
                continue
        lines = []
        for i, vid in enumerate(vids):
            _binary, lb, ub = block.column_bounds(i)
            if (affixes := _bound_affixes(lb, ub, binary)) is not None:
                lines.append(f" {affixes[0]}{letters[vid]}{vid}{affixes[1]}")
        if lines:
            yield "\n".join(lines)
    if binaries:
        yield "Binary"
        yield from _wrapped((f"{letters[vid]}{vid}" for vid in chain.from_iterable(binaries)), " ", " ")
    yield "End"


def write_start(model: MILPModel, schedule: Optional[Schedule], path: Union[str, Path]) -> str:
    """Write the dispatch columns `schedule` sets to the start file `path`, an empty file for no
    schedule, and return `path` as a string.  A placement off its batch's dispatch edge names no column."""
    letters = column_letters(model)
    vids = []
    if schedule is not None:
        dispatch = {block.prefix: block for block in model.variables.blocks if block.bounds[0]}
        for e, b, t in schedule.placements:
            block = dispatch.get((e, b))
            if block is not None and 0 <= t - block.first < block.count:
                vids.append(block.start + t - block.first)
    path = str(path)
    Path(path).write_text("".join(f"{letters[vid]}{vid} 1\n" for vid in sorted(vids)), encoding="utf-8")
    return path


@dataclass
class ParsedSolution:
    """Solution-file content resolved against a model."""

    schedule: Optional[Schedule]
    objective: Optional[float]  # linear part recomputed from the model
    bound: Optional[float]
    status_hint: Optional[str]  # one of the STATUS_* words, or None
    # informational `# MIP nodes` and `# Simplex iterations` lines; None when absent or not a whole number
    nodes: Optional[int]
    simplex_iterations: Optional[int]


_META_RE = re.compile(
    r"^#\s*(objective value|best bound|status|message|wall time|mip nodes|simplex iterations)\s*[=:]\s*(.*)$",
    re.IGNORECASE,
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


def _name_vid(name: str, letters: str) -> Optional[int]:
    """The column an LP name denotes: its kind letter, then its vid in ASCII digits as `str(vid)` spells it;
    None for any other token."""
    digits = name[1:]
    if not (digits.isascii() and digits.isdigit()) or len(digits) > len(str(len(letters))):
        return None
    vid = int(digits)
    return vid if vid < len(letters) and letters[vid] == name[0] and str(vid) == digits else None


def _reported(text: str, lineno: int) -> float:
    """A reported objective, bound or kept column value, which must be a finite decimal number."""
    if not (_NUM_RE.match(text) and math.isfinite(value := float(text))):
        raise SolutionFormatError(f"solution line {lineno} reports {text!r}, not a finite number")
    return value


def _count(text: str) -> Optional[int]:
    """An informational count: a whole decimal number of up to 18 digits, else None."""
    return int(text) if text.isascii() and text.isdigit() and len(text) <= 18 else None


def parse_solution(text: Union[str, Iterable[str]], model: MILPModel) -> ParsedSolution:
    """Read a solution file's content, given as one string or as lines (an open text file).

    A malformed file raises SolutionFormatError: an unreadable line, a reported objective or
    bound, or a value of a binary or objective column, that is no finite number, an open file
    that is not UTF-8, or values the model rejects.
    """
    letters = column_letters(model)
    # only binaries and objective columns are read again below: every other value is checked, then dropped
    binary_letters = {letters[b.start] for b in model.variables.blocks if b.bounds[0] and b.count}
    kept = {vid for vid, _coef in model.objective if letters[vid] not in binary_letters}
    values: dict[int, float] = {}
    reported: Optional[float] = None
    bound: Optional[float] = None
    status_hint: Optional[str] = None
    nodes: Optional[int] = None
    simplex_iterations: Optional[int] = None
    saw_values_section = False

    lines = text.splitlines() if isinstance(text, str) else text
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#") or line.startswith("//"):
                m = _META_RE.match(line.replace("//", "#", 1))
                if m:
                    key = m.group(1).lower()
                    val = m.group(2).strip()
                    if key == "objective value":
                        reported = _reported(val, lineno)
                    elif key == "best bound":
                        bound = _reported(val, lineno)
                    elif key == "status":
                        status_hint = _normalize_status(val) or status_hint
                    elif key == "mip nodes":
                        nodes = _count(val)
                    elif key == "simplex iterations":
                        simplex_iterations = _count(val)
                continue
            m = _HEADER_RE.match(line)
            if m:
                if m.group(1).lower() == "solution status":
                    status_hint = _normalize_status(m.group(2)) or status_hint
                else:
                    reported = _reported((m.group(2).split() or [""])[0], lineno)
                continue
            if not saw_values_section:
                m = _CBC_RE.match(line)  # no column name (a letter, then digits) starts with a status word
                if m:
                    status_hint = _normalize_status(m.group(1)) or status_hint
                    if m.group(2) is not None:
                        reported = _reported(m.group(2), lineno)
                    continue

            tokens = line.split()
            vid = value_token = None
            if len(tokens) >= 2 and (vid := _name_vid(tokens[0], letters)) is not None:
                value_token = tokens[1]
            elif len(tokens) >= 3 and _NUM_RE.match(tokens[0]) and (vid := _name_vid(tokens[1], letters)) is not None:
                value_token = tokens[2]  # "<row#> name value [rcost]"
            if vid is None or not _NUM_RE.match(value_token):
                excerpt = line if len(line) <= 120 else line[:117] + "..."
                raise SolutionFormatError(f"unparseable solution line {lineno}: {excerpt!r}")
            saw_values_section = True
            if letters[vid] in binary_letters or vid in kept:
                values[vid] = _reported(value_token, lineno)  # 1e400 reads as inf, which no column takes
    except UnicodeDecodeError as exc:  # raised by an open file as it is read
        raise SolutionFormatError(f"solution file is not UTF-8 text: {exc.reason}") from None

    no_values = (STATUS_UNBOUNDED, STATUS_ERROR, STATUS_TIME_LIMIT)  # words that may come without a schedule
    if status_hint == STATUS_INFEASIBLE or (not saw_values_section and status_hint in no_values):
        return ParsedSolution(None, None, bound, status_hint, nodes, simplex_iterations)
    if not saw_values_section and reported is None and status_hint is None:
        raise SolutionFormatError("solution file contains neither values nor a recognizable status")

    placements = []
    for block in model.variables.blocks:
        if not block.bounds[0]:
            continue
        for vid in range(block.start, block.start + block.count):
            val = values.get(vid)
            if val is None:
                continue  # an unlisted column is 0
            if abs(val - round(val)) > INTEGRALITY_TOL:
                raise SolutionFormatError(f"binary variable {letters[vid]}{vid} has fractional value {val!r}")
            if round(val) not in (0, 1):
                raise SolutionFormatError(f"binary variable {letters[vid]}{vid} has value {val!r} outside [0, 1]")
            values[vid] = float(round(val))
            if round(val) == 1:  # a dispatch: dispatch columns are the only binaries
                placements.append((*block.prefix, block.first + vid - block.start))

    # recompute over the rounded binaries: that is the solution actually used
    linear = sum(float(coef) * values.get(vid, 0.0) for vid, coef in model.objective)
    if not math.isfinite(linear):  # finite values whose products overflow
        raise SolutionFormatError(f"the solution's values give the objective {linear!r}, not a finite number")
    if reported is not None:
        tol = OBJECTIVE_CHECK_TOL + 1e-9 * abs(linear)
        if abs(linear - reported) > tol:
            raise SolutionFormatError(
                f"solver-reported objective {reported!r} disagrees with recomputed {linear!r}"
            )
    schedule = Schedule.from_initial(model.catalog, placements)
    return ParsedSolution(schedule, linear, bound, status_hint, nodes, simplex_iterations)
