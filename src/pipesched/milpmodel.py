"""Space-indexed MILP assembly for pipeline transport scheduling.

Scheduling is treated as interval packing on every edge.  A batch moves
along its whole path at once, so one binary per batch start suffices (the
time-indexed form of Sousa & Wolsey 1992): v(b, t), keyed (e0, b, t) by the
batch's dispatch edge e0, says b blocks every edge of its path during
[t, t+L(b)).  `lp_io.parse_solution` expands the dispatches along their
paths (`Schedule.from_initial`), so schedules keep the per-pipe reading.
Constraint families:

  packing             at most one batch per trunk edge and slot
  flushing_enforce    a completed stain is followed immediately by itself
                      (re-dispatch) or by a sufficiently large flushing batch
  exclusion           regime groups that may not pump in overlapping windows
  capacity_def_*      blocked / on-stock occupancy recurrences (equalities)
                      between the slots whose tank limit can bind
  throughput          volume started inside a time window is bounded
  nomination          extracted volume per refinery and product is bounded
  distribution        deviation linearization rows for final-stock targets

`FAMILIES` lists seven more that keep 0 rows (`FAMILY_SENSE` says why):
routes, flushing_link, flushing_exclusion, capacity_upper, capacity_lower,
outage and fixed.

Packing rows go only to the trunk edges, those whose batch set no other
edge's strictly contains (`trunk_edges`): a dispatch column blocks every edge
of its path over the same window, so another edge's row is, term for term,
part of a trunk's row at the same slot.  On a path every regime leaves
through the first edge, so only it has packing rows.

While a stain sits in a pipe no other staining product may enter it, and
no row says so: packing and flush enforcement imply it, in the LP and not
only at integer points.  Take a stain s on its dispatch edge e, completing
at slot te.  The batches that may start at te on e are s itself
(re-dispatched), its flush candidates c (its own regime, so its own path)
and the other stains o on e, and all of them cross the trunk edge that
covers e.  That trunk's packing row at te gives v(s, te) + sum v(c, te) +
sum v(o, te) <= 1, and the enforcement row at te gives v(s, te - L) <=
v(s, te) + sum v(c, te); their sum is v(s, te - L) + sum v(o, te) <= 1,
the exclusion row.  The validator keeps its own check of the rule.

Transport outages and fixed starts are bounds on the dispatch columns, not
rows (`dispatch_fixings`): a start an outage forbids is boxed to [0, 0], and
a fixed transport or an executed placement to [1, 1].  A fixed start that
an outage forbids gets [1, 0], which the LP writer writes as `1 <= v <= 0`;
HiGHS's reader keeps that box on a binary column and proves the model
infeasible.

Tank limits are column bounds, not rows: blocked stock u is bounded above
by the outage-reduced capacity and on-stock l below by the minimum stock
(`ColumnBlock.limits`).  Each limit lies on its series' volume lattice
(`lattice_limits`): only dispatch binaries times batch volumes enter a
recurrence, so x_t - base_t is a multiple of the gcd g_t of the volumes
counted by slot t, and a limit rounded to the nearest such point on its
feasible side cuts off fractional points only (integer rounding for fixed
batch sizes, Pochet & Wolsey 2006).  A (site, product) whose rounded minimum
exceeds its rounded capacity at some slot is infeasible before any solve and
gets a build warning, read from every slot's limit (`occupancy_series`,
which computes each series' base, counted moves and limits once).

Only the limits that can bind are written (`kept_limits`).  With each
dispatch binary boxed to [0, 1], a series' change from slot to slot lies
between known bounds (`occupancy_steps`), and a limit that the previous
limit plus the most the series can rise, or the next limit minus the least
it can rise, already implies is dropped; the series is swept until no limit
drops, so the LP polytope is the one with every limit.  A series gets an
occupancy column at each kept slot only, plus the final slot of an on-stock
series with a distribution target, and one recurrence per column that links
it to the series' previous column: the slot-to-slot recurrences in between
summed, their occupancy columns substituted out (implied-free column
substitution, Andersen & Andersen 1995).  On the six-vertex setting-B path
67 of 11,520 limits stay, and the model has 3,515 rows instead of 14,968.
The validator, the judge, keeps the per-edge packing rule and every
unrounded limit; at integer points both agree with these rows and bounds.

The objective maximizes weighted extraction minus distribution deviation,
plan-change and pumping-cost penalties; its coefficients are exact
rationals.  Every row coefficient, right-hand side and variable bound is a
volume or a count, so rows and bounds hold plain integers.

`build_model` raises `ModelBuildError` only for an instance that
`validate_instance` rejects; its `options` (`BuildOptions`) are accepted and
ignored, kept for the benchmark's callers.

Window form.  Every slot-indexed row is a signed sum, at slot t, of the
columns whose slot key lies in a window around t: the window form of
time-indexed scheduling models.  `_window_rows` builds a family's rows from
runs (block, lo, hi, coef): the row at t adds `coef` times each column of
the block whose key k has t+lo <= k < t+hi.  Packing sums each batch on the
trunk edge over [t-L+1, t] and exclusion each member dispatch over
[t, t+L].  The flushing rows take, at a stain's completion instant te, the
stain's start te-L and the starts at te: windows one key wide.  The capacity
recurrences span the uneven gaps between kept slots and are built by
`emit_capacity` itself.

Storage.  Columns come in blocks (`ColumnBlock`) of one kind whose keys
differ only in their last, consecutive component.  Dispatch columns are
contiguous in t for each batch: v(b, t) is the block's first column plus t.
The occupancy columns of a (site, product) sit at its kept slots, listed in
its block's `slots`.  Rows live in
one integer row store (`RowStore`), in stdlib `array`s: CSR row starts,
column ids and coefficients, plus per row its right-hand side and family.
A family's sense is stated once, in `FAMILY_SENSE`.  The emitters append
whole runs of rows to it and build no per-term or per-row objects, and
every reader (the LP writer, `violated_rows`, the tests) reads rows from
these arrays and columns from the blocks.  Names are formed when they are
written, not stored: a row is named by `row_name` from its family and its
rank, which a reader counts as it walks the rows, and column `vid` by its
kind letter, `column_letters(model)[vid]`, then `vid` in decimal.
Iterating `MILPModel.variables` (a `Columns`) or
`MILPModel.constraints` (the `RowStore`) builds one `Variable` or
`LinearConstraint` at a time; these two views and their `len()` remain only
for the benchmark's model counts (`perfbench/op.py::model_counts`) until its
next revision reads the arrays.
Column ids and row starts are signed 32-bit integers, so a model with
more than 2**31 - 1 columns or terms raises OverflowError while it is built.
Coefficients and right-hand sides are signed 64-bit integers;
`validate_instance` refuses an instance whose batch volumes, stock changes
or limits do not fit them (`volume_out_of_range`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from operator import add
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Optional

from .batches import (
    BatchCatalog,
    BatchSpec,
    STANDARD,
    batch_cost,
    batch_id,
    enumerate_batches,
)
from .instance import Instance, TankOutage, instance_hash, validate_instance
from .schedule import Schedule
from .validator import nomination_shortfalls, simulate_occupancy

# variable kinds
PLACEMENT = "placement"
OCC_UPPER = "occ_upper"
OCC_LOWER = "occ_lower"
DEVIATION = "deviation"

_NAME_PREFIX = {PLACEMENT: "v", OCC_UPPER: "u", OCC_LOWER: "l", DEVIATION: "d"}
# kind -> (binary, lower bound, upper bound); placements are the only binaries.  A tank limit in
# an occupancy block's `limits` replaces its kind's upper (u) or lower (l) bound, and a fixing in a
# dispatch block's `limits` replaces both
_KIND_BOUNDS = {
    PLACEMENT: (True, 0, 1),
    OCC_UPPER: (False, None, None),
    OCC_LOWER: (False, None, None),
    DEVIATION: (False, 0, None),
}

# constraint families
FAM_PACKING = "packing"
FAM_ROUTES = "routes"
FAM_FLUSH_LINK = "flushing_link"
FAM_FLUSH_EXCL = "flushing_exclusion"
FAM_FLUSH_ENFORCE = "flushing_enforce"
FAM_EXCLUSION = "exclusion"
FAM_CAP_DEF_UPPER = "capacity_def_upper"
FAM_CAP_DEF_LOWER = "capacity_def_lower"
FAM_CAP_UPPER = "capacity_upper"
FAM_CAP_LOWER = "capacity_lower"
FAM_OUTAGE = "outage"
FAM_THROUGHPUT = "throughput"
FAM_NOMINATION = "nomination"
FAM_FIXED = "fixed"
FAM_DISTRIBUTION = "distribution"

LE = "<="
GE = ">="
EQ = "="

# every row of a family has the family's sense; FAMILIES lists the families in this order.
# routes, flushing_link, flushing_exclusion, capacity_upper, capacity_lower, outage and fixed keep
# 0 rows (the other rows or the column bounds state their rules): BENCHMARK.json lists
# `milpmodel.rows.<family>`, and `perfbench/run.py --trace 1` fails when a metric is missing
FAMILY_SENSE = {
    FAM_PACKING: LE,
    FAM_ROUTES: EQ,
    FAM_FLUSH_LINK: EQ,
    FAM_FLUSH_EXCL: LE,
    FAM_FLUSH_ENFORCE: LE,
    FAM_EXCLUSION: LE,
    FAM_CAP_DEF_UPPER: EQ,
    FAM_CAP_DEF_LOWER: EQ,
    FAM_CAP_UPPER: LE,
    FAM_CAP_LOWER: GE,
    FAM_OUTAGE: EQ,
    FAM_THROUGHPUT: LE,
    FAM_NOMINATION: LE,
    FAM_FIXED: EQ,
    FAM_DISTRIBUTION: GE,
}
FAMILIES = tuple(FAMILY_SENSE)
_FAMILY_ID = {f: i for i, f in enumerate(FAMILIES)}


class ModelBuildError(ValueError):
    pass


# the items of the two iteration views, kept for `perfbench/op.py::model_counts`
class Variable(NamedTuple):
    vid: int
    kind: str
    key: tuple
    binary: bool
    lb: Optional[int]
    ub: Optional[int]


class LinearConstraint(NamedTuple):
    name: str
    family: str
    terms: tuple[tuple[int, int], ...]  # (vid, coefficient)
    sense: str
    rhs: int
    lazy: bool = False  # always False: no row is held back from the LP file


def row_name(family: int, rank: int) -> str:
    """Name of the family's `rank`-th row (`family` indexes FAMILIES), as the LP file writes it."""
    return f"{FAMILIES[family]}_{rank}"


class ColumnBlock(NamedTuple):
    """Columns of one kind; column `start + i` has key `(*prefix, first + i)`, or `(*prefix, slots[i])`
    in a block whose columns sit at given slots (`slots`, ascending), and, in an occupancy block,
    tank limit `limits[i]`, or in a dispatch block the (lower, upper) of a fixed start `limits[i]`
    (None where there is none)."""

    kind: str
    prefix: tuple
    first: int
    start: int
    count: int
    limits: Optional[tuple[Optional[int], ...]] = None
    slots: Optional[tuple[int, ...]] = None

    @property
    def bounds(self) -> tuple[bool, Optional[int], Optional[int]]:
        """(binary, lower bound, upper bound) of the block's kind, before any tank limit."""
        return _KIND_BOUNDS[self.kind]

    def key(self, i: int) -> tuple:
        """The key of column `start + i`."""
        return (*self.prefix, self.first + i if self.slots is None else self.slots[i])

    def index(self, last: int) -> Optional[int]:
        """The i of the column whose key ends in `last`, or None where the block has none."""
        if self.slots is None:
            i = last - self.first
            return i if 0 <= i < self.count else None
        i = bisect_left(self.slots, last)
        return i if i < self.count and self.slots[i] == last else None

    def column_bounds(self, i: int) -> tuple[bool, Optional[int], Optional[int]]:
        """(binary, lower bound, upper bound) of column `start + i`, its tank limit or fixing included."""
        binary, lb, ub = _KIND_BOUNDS[self.kind]
        limit = None if self.limits is None else self.limits[i]
        if limit is None:
            return binary, lb, ub
        if self.kind == PLACEMENT:
            return (binary, *limit)
        return (binary, lb, limit) if self.kind == OCC_UPPER else (binary, limit, ub)


class Columns:
    """The model's columns as blocks; iterating builds `Variable`s."""

    def __init__(self) -> None:
        self.blocks: list[ColumnBlock] = []
        self._by_prefix: dict[tuple, list[ColumnBlock]] = {}
        self._size = 0

    def add(
        self,
        kind: str,
        prefix: tuple,
        first: int,
        count: int,
        limits: Optional[Sequence] = None,
        slots: Optional[Sequence[int]] = None,
    ) -> ColumnBlock:
        """A block of `count` columns keyed from `first` on, or by `slots`, one slot per column."""
        block = ColumnBlock(
            kind,
            prefix,
            first,
            self._size,
            max(0, count),
            None if limits is None else tuple(limits),
            None if slots is None else tuple(slots),
        )
        self.blocks.append(block)
        self._by_prefix.setdefault((kind, prefix), []).append(block)
        self._size += block.count
        return block

    def of_kind(self, kind: str) -> dict[tuple, ColumnBlock]:
        """Prefix -> block, for a kind whose prefixes are unique."""
        return {b.prefix: b for b in self.blocks if b.kind == kind}

    def vid(self, kind: str, key: tuple) -> Optional[int]:
        for block in self._by_prefix.get((kind, key[:-1]), ()):
            i = block.index(key[-1])
            if i is not None:
                return block.start + i
        return None

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for block in self.blocks:
            for i in range(block.count):
                yield Variable(block.start + i, block.kind, block.key(i), *block.column_bounds(i))


class RowStore:
    """Every row of the model in CSR form; iterating builds `LinearConstraint`s.

    Row r holds columns `col[start[r]:start[r+1]]` with coefficients `coef`
    at the same positions and right-hand side `rhs[r]`; `family[r]` indexes
    FAMILIES, and the family gives the row's sense (`FAMILY_SENSE`).  A
    row's rank, the count of its family's earlier rows, names it; readers
    count it as they walk the rows.
    """

    def __init__(self) -> None:
        self.start = array("i", [0])
        self.col = array("i")
        self.coef = array("q")
        self.rhs = array("q")
        self.family = array("b")

    def add(
        self,
        family: str,
        cols: Iterable[int],
        coefs: Iterable[int],
        sizes: Iterable[int],
        rhs: Sequence[int],
    ) -> None:
        """Append `len(rhs)` rows of one family; row i takes the next `sizes[i]` terms."""
        n = len(rhs)
        fid = _FAMILY_ID[family]
        self.col.extend(cols)
        self.coef.extend(coefs)
        self.start.extend(islice(accumulate(sizes, initial=self.start[-1]), 1, None))
        self.rhs.extend(rhs)
        self.family.extend(array("b", [fid]) * n)
        if self.start[-1] != len(self.col) or len(self.coef) != len(self.col) or len(self.start) != len(self.rhs) + 1:
            raise ModelBuildError(f"{family} rows do not match their term counts")

    def __len__(self) -> int:
        return len(self.rhs)

    def __iter__(self):
        ranks = [0] * len(FAMILIES)
        ends = islice(self.start, 1, None)
        for s, e, family, rhs in zip(self.start, ends, self.family, self.rhs):
            terms = tuple(zip(self.col[s:e], self.coef[s:e]))
            name = FAMILIES[family]
            yield LinearConstraint(row_name(family, ranks[family]), name, terms, FAMILY_SENSE[name], rhs)
            ranks[family] += 1


@dataclass
class MILPModel:
    variables: Columns
    constraints: RowStore
    objective: tuple[tuple[int, Fraction], ...]  # maximize
    objective_constant: Fraction
    instance: Instance
    catalog: BatchCatalog
    metadata: dict = field(default_factory=dict)

    def family_counts(self) -> dict[str, int]:
        return {f: self.constraints.family.count(i) for i, f in enumerate(FAMILIES)}


def column_letters(model: MILPModel) -> str:
    """The kind letter of every column, by vid; column `vid` is named `letters[vid] + str(vid)`.

    Built on each call from the blocks, one character per column, and never cached.
    """
    return "".join(_NAME_PREFIX[b.kind] * b.count for b in model.variables.blocks)


def _window_rows(
    rows: RowStore,
    family: str,
    slots: Iterable[int],
    runs: Iterable[tuple[ColumnBlock, int, int, int]],
    rhs: Sequence[int],
) -> None:
    """One row per slot t: for each run (block, lo, hi, coef) in order, `coef` times every column
    of `block` whose key k has t + lo <= k < t + hi, keys ascending."""
    # per run: whether its window is wider than one key, the column of key 0, the block's keys
    # [first, end), the window, its coefficient and the coefficients of a whole window
    spans = [
        (hi - lo > 1, b.start - b.first, b.first, b.first + b.count, lo, hi, coef, [coef] * (hi - lo))
        for b, lo, hi, coef in runs
    ]
    cols: list[int] = []
    coefs: list[int] = []
    sizes: list[int] = []
    for t in slots:
        before = len(cols)
        for wide, base, first, end, lo, hi, coef, whole in spans:
            if not wide:
                if first <= t + lo < end:
                    cols.append(base + t + lo)
                    coefs.append(coef)
                continue
            k0 = t + lo if t + lo > first else first  # not max() and min(): a call each, per row and run
            k1 = t + hi if t + hi < end else end
            if k0 < k1:
                cols.extend(range(base + k0, base + k1))
                coefs.extend(whole if k1 - k0 == hi - lo else whole[: k1 - k0])
        sizes.append(len(cols) - before)
    rows.add(family, cols, coefs, sizes, rhs)


def stock_moves(inst: Instance, catalog: BatchCatalog) -> dict[tuple[str, str], list[tuple[BatchSpec, int]]]:
    """(site, product) -> the moves that change its stock: (spec, -1) inbound, then (spec, +1) outbound."""
    moves: dict[tuple[str, str], list[tuple[BatchSpec, int]]] = {}
    for eid, spec in catalog.deliveries():
        moves.setdefault((inst.edge(eid).destination, spec.product), []).append((spec, -1))
    for eid, spec in catalog.dispatches():
        moves.setdefault((inst.edge(eid).origin, spec.product), []).append((spec, 1))
    return moves


# (occupancy kind, recurrence family, the side a move counts on at its completion: -1 inbound, +1 outbound);
# blocked stock takes a move at completion when it leaves, on-stock when it arrives
_SERIES = ((OCC_UPPER, FAM_CAP_DEF_UPPER, 1), (OCC_LOWER, FAM_CAP_DEF_LOWER, -1))


class Run(NamedTuple):
    """A batch's move as one series counts it: the dispatch of start t0 = 0..last changes the stock
    by `change` from slot t0 + shift on."""

    batch: str  # the batch id, whose dispatch block holds the binaries
    shift: int
    last: int
    change: int


class Series(NamedTuple):
    """An occupancy series of one (site, product): blocked stock (OCC_UPPER) or on-stock (OCC_LOWER)."""

    kind: str
    family: str  # its recurrence rows
    base: list[int]  # the stock at each slot with no batch moved
    runs: list[Run]  # the moves counted inside the horizon
    limits: list[Optional[int]]  # the tank limit at each slot, rounded onto the volume lattice


def counted_runs(moves: Iterable[tuple[BatchSpec, int]], delayed: int, H: int) -> list[Run]:
    """The moves of a series that count inside the horizon.  A move counts at slot t0 + L of a
    start t0 when its series takes it at completion (`delayed`), else at t0, for the starts
    t0 = 0..H - L; an inbound move raises the stock and an outbound one lowers it."""
    runs = []
    for spec, sign in moves:
        shift = spec.length if sign == delayed else 0
        if spec.length <= H and shift < H:  # else no start fits, or it counts after the horizon
            runs.append(Run(spec.id, shift, H - spec.length, -sign * spec.volume))
    return runs


def lattice_limits(
    limits: Sequence[Optional[int]], base: Sequence[int], runs: Iterable[Run], round_up: bool
) -> list[Optional[int]]:
    """`limits` rounded onto the lattice the series' occupancy lives on.

    At every integer schedule x_t - base_t is a multiple of g_t, the gcd of
    the volumes of the moves counted by t (`runs`), so a capacity becomes
    base_t + g_t * floor((cap_t - base_t) / g_t) and a minimum (`round_up`)
    base_t + g_t * ceil((min_t - base_t) / g_t).  Where no move counts yet,
    or there is no limit, the limit stays as it is.
    """
    H = len(limits)
    counted: dict[int, list[int]] = {}  # slot -> volumes of the moves that start to count there
    for run in runs:
        counted.setdefault(run.shift, []).append(abs(run.change))
    out = list(limits)
    g = 0
    slots = sorted(counted)
    for lo, hi in zip(slots, [*slots[1:], H]):
        g = gcd(g, *counted[lo])
        for t in range(lo, hi):
            if out[t] is not None:
                room = out[t] - base[t]
                out[t] = base[t] + g * (-(-room // g) if round_up else room // g)
    return out


def occupancy_series(inst: Instance, moves: Mapping[tuple[str, str], list]) -> dict[tuple[str, tuple], Series]:
    """(occupancy kind, (site, product)) -> its series, kind by kind: the base profile, the counted
    moves (`counted_runs`) and the tank limit at every slot, capacity for blocked stock and the
    minimum for on-stock, rounded onto the volume lattice (`lattice_limits`)."""
    H = inst.grid.horizon_len
    bases = {}
    out = {}
    for kind, family, delayed in _SERIES:
        for site in inst.storage_sites():
            for product in inst.products:
                key = (site.id, product.id)
                profile = site.profile(product.id)
                if key not in bases:
                    bases[key] = profile.base_profile(H)
                base = bases[key]
                runs = counted_runs(moves.get(key, ()), delayed, H)
                raw = inst.capacity_max_profile(*key) if kind == OCC_UPPER else profile.min_profile(H)
                out[kind, key] = Series(kind, family, base, runs, lattice_limits(raw, base, runs, kind == OCC_LOWER))
    return out


def occupancy_steps(base: Sequence[int], runs: Iterable[Run]) -> list[tuple[int, int]]:
    """(least, most) of x_t - x_{t-1} at each slot t of a series, x_{-1} = 0, with every dispatch
    binary boxed to [0, 1]: the base change plus the negative, or the positive, volume terms of the
    moves counted at t (`runs`)."""
    H = len(base)
    change = [b - a for a, b in zip([0, *base], base)]
    least, most = [0] * (H + 1), [0] * (H + 1)  # difference arrays of the volume terms
    for run in runs:
        side = most if run.change > 0 else least
        side[run.shift] += run.change
        side[min(H, run.last + run.shift + 1)] -= run.change
    return list(zip(map(add, change, accumulate(least)), map(add, change, accumulate(most))))


def kept_limits(limits: Sequence[Optional[int]], steps: Sequence[tuple[int, int]], upper: bool) -> list[int]:
    """The slots whose limit can bind: every other limit of the series is implied by those kept.

    `limits[t]` bounds x_t from above (`upper`) or below, None where there is
    none, and `steps[t]` is the (least, most) of x_t - x_{t-1}
    (`occupancy_steps`).  A capacity U_t goes when the previous limit still
    present, U_p (or x_{-1} = 0), plus the most the series can rise over
    (p, t] is at most U_t, or when the next one, U_n, minus the least it can
    rise over (t, n] is; a minimum goes by the mirror rule.  Each drop is
    implied by limits present when it is made, and the series is swept until
    none drops, so the kept limits admit exactly the points the full set
    admits (implied-free column substitution, Andersen & Andersen 1995).
    """
    # in the upper form y <= bound, y = x for a capacity and y = -x for a minimum; lo[i] and hi[i]
    # are the least and the most y can rise over slots 0..i-1
    sign = 1 if upper else -1
    lo = list(accumulate((sign * (least if upper else most) for least, most in steps), initial=0))
    hi = list(accumulate((sign * (most if upper else least) for least, most in steps), initial=0))
    alive = [t for t, limit in enumerate(limits) if limit is not None]
    while True:
        kept: list[int] = []
        p, bound_p = 0, 0  # the previous limit present, as a prefix index, and its bound; x_{-1} = 0
        for j, t in enumerate(alive):
            bound, i = sign * limits[t], t + 1
            if bound_p + hi[i] - hi[p] <= bound:
                continue
            if j + 1 < len(alive):
                n = alive[j + 1]
                if sign * limits[n] - (lo[n + 1] - lo[i]) <= bound:
                    continue
            kept.append(t)
            p, bound_p = i, bound
        if len(kept) == len(alive):
            return kept
        alive = kept


def dispatch_fixings(inst: Instance, catalog: BatchCatalog) -> dict[tuple[str, str], dict[int, tuple[int, int]]]:
    """(dispatch edge, batch) -> {start: (lower, upper)} for each start a transport outage forbids,
    (0, 0), or a fixed transport or an executed placement forces, (1, 1); a start both forbid and force
    gets (1, 0), which no value meets.  An outage on any edge of a batch's path forbids its start there;
    a start past the batch's last fitting one names no column and is left out by the caller."""
    forbidden = {
        ((catalog.initial_edge(bid), bid), t)
        for outage in inst.outages
        if not isinstance(outage, TankOutage)  # tank outages act through the capacity profile
        for _eid, bid in outage.batches
        for t in outage.times
    }
    fixed = [batch_id(fx.regime, fx.product, STANDARD) for fx in inst.fixed_transports]
    forced = {((catalog.initial_edge(bid), bid), fx.start) for bid, fx in zip(fixed, inst.fixed_transports)}
    forced |= {((catalog.initial_edge(bid), bid), t) for _eid, bid, t in inst.weights.executed}
    fixings: dict[tuple[str, str], dict[int, tuple[int, int]]] = {}
    for prefix, t in forbidden | forced:
        fixings.setdefault(prefix, {})[t] = (int((prefix, t) in forced), int((prefix, t) not in forbidden))
    return fixings


def build_variables(inst: Instance, catalog: BatchCatalog, series: Mapping[tuple[str, tuple], Series]) -> Columns:
    """Create all decision variables in canonical order.

    Dispatch variables exist for every batch on the first edge of its path,
    for starts t with t + L(b) <= horizon, each fixed start bounded as
    `dispatch_fixings` says.  A series' occupancy columns sit
    at the slots whose tank limit can bind (`kept_limits`), each carrying
    that limit as its bound, plus, for an on-stock series with a
    distribution target, the final slot.
    """
    H = inst.grid.horizon_len
    columns = Columns()
    fixings = dispatch_fixings(inst, catalog)
    for eid, spec in catalog.dispatches():
        count = H - spec.length + 1
        fixed = fixings.get((eid, spec.id))
        limits = None if fixed is None else [fixed.get(t) for t in range(count)]
        columns.add(PLACEMENT, (eid, spec.id), 0, count, limits)

    targeted = {(tgt.site, tgt.product) for tgt in inst.weights.distribution_targets}
    for (kind, key), ser in series.items():
        full = ser.limits
        kept = kept_limits(full, occupancy_steps(ser.base, ser.runs), kind == OCC_UPPER)
        slots = sorted({*kept, inst.grid.t_max}) if kind == OCC_LOWER and key in targeted else kept
        bound = set(kept)
        columns.add(kind, key, 0, len(slots), [full[t] if t in bound else None for t in slots], slots)

    for ti, tgt in enumerate(inst.weights.distribution_targets):
        if tgt.target is not None:
            columns.add(DEVIATION, (tgt.site, tgt.product), ti, 1)

    return columns


def empty_band_warnings(series: Mapping[tuple[str, tuple], Series]) -> list[str]:
    """A warning for each (site, product) whose rounded minimum exceeds its rounded capacity at some
    slot, read from every slot's limit (`occupancy_series`).  Blocked stock never falls below
    on-stock, so no schedule meets both limits there."""
    warnings = []
    for (kind, key), ser in series.items():
        if kind != OCC_LOWER:
            continue
        upper = series[OCC_UPPER, key].limits
        empty = [t for t, (lo, hi) in enumerate(zip(ser.limits, upper)) if hi is not None and lo > hi]
        if empty:
            warnings.append(
                f"site {key[0]} product {key[1]}: the minimum stock exceeds the capacity at {len(empty)} slots "
                f"from slot {empty[0]} on, once both are rounded to the batch volumes; no schedule is feasible"
            )
    return warnings


def _dispatch_blocks(columns: Columns) -> dict[str, ColumnBlock]:
    """Batch id -> its dispatch block, the columns v(b, t) a row about the batch on any edge takes."""
    return {bid: block for (_eid, bid), block in columns.of_kind(PLACEMENT).items()}


def _dispatch_vid(catalog: BatchCatalog, columns: Columns, placement: tuple[str, str, int]) -> Optional[int]:
    """The dispatch column that places batch b on edge e at start t, for `placement` (e, b, t);
    None where no schedule holds that placement."""
    eid, bid, t = placement
    chain = catalog.chains.get(bid, ())
    return columns.vid(PLACEMENT, (chain[0], bid, t)) if eid in chain else None


def trunk_edges(inst: Instance, catalog: BatchCatalog) -> list[str]:
    """The edges whose batch set no other edge's strictly contains, the first of equal sets only."""
    sets = {edge.id: frozenset(catalog.batches_by_edge[edge.id]) for edge in inst.edges}
    trunks: list[str] = []
    for eid, bids in sets.items():
        if not any(bids < other for other in sets.values()) and all(bids != sets[t] for t in trunks):
            trunks.append(eid)
    return trunks


def emit_packing(inst, catalog, columns, rows) -> None:
    """At most one batch occupies an edge in any slot; a start at t0 blocks [t0, t0+L).

    Rows go only to the trunk edges (`trunk_edges`).  A dispatch column blocks
    every edge of its path over the same window, so the row of an edge whose
    batch set a trunk's holds is, term for term, part of the trunk's row at
    the same slot, and implied by it.
    """
    H = inst.grid.horizon_len
    dispatch = _dispatch_blocks(columns)
    for eid in trunk_edges(inst, catalog):
        runs = [(dispatch[bid], 1 - catalog.spec_by_id[bid].length, 1, 1) for bid in catalog.batches_by_edge[eid]]
        _window_rows(rows, FAM_PACKING, range(H), runs, [1] * H)


def emit_flushing(inst, catalog, columns, rows) -> list[str]:
    """Stain containment: flush enforcement, whose rows with packing's also exclude other stains.

    The rows anchor at stain completion instants te = t + L on the initial
    edge, where the stain's own start is v(b, te - L), and cover te up to the
    horizon fence.  Where no follow-up fits inside the horizon a row reads
    v(b, te - L) <= 0, so a stain that cannot be flushed in time is banned.
    No other stain may start at te; the module docstring shows why that
    needs no row of its own.  Returns the build warnings.
    """
    H = inst.grid.horizon_len
    dispatch = _dispatch_blocks(columns)
    warnings: list[str] = []
    for eid, spec in catalog.dispatches():
        if inst.product(spec.product).is_flushing:
            continue
        candidates = catalog.flush_candidates[spec.id]
        if not candidates:
            warnings.append(
                f"staining batch {spec.id} on edge {eid} has no flushing batch large enough to push it through"
            )
        # the stain's start te - L minus the follow-ups starting at te: the stain itself, then the flushes
        runs = [(dispatch[spec.id], -spec.length, 1 - spec.length, 1)]
        runs += [(dispatch[bid], 0, 1, -1) for bid in (spec.id, *candidates)]
        _window_rows(rows, FAM_FLUSH_ENFORCE, range(spec.length, H + 1), runs, [0] * (H + 1 - spec.length))

    return warnings


def emit_regime_exclusions(inst, catalog, columns, rows) -> None:
    # per group and anchor slot t, at most one member batch may start inside
    # the batch's own window [t, t + L(b)]
    H = inst.grid.horizon_len
    place = columns.of_kind(PLACEMENT)
    for group in inst.exclusion_groups:
        members = set(group.members)
        dispatched = [(eid, spec) for eid, spec in catalog.dispatches() if spec.regime in members]
        runs = [(place[(eid, spec.id)], 0, spec.length + 1, 1) for eid, spec in dispatched]
        _window_rows(rows, FAM_EXCLUSION, range(H), runs, [1] * H)


def emit_capacity(inst, catalog, columns, rows, series) -> None:
    """Occupancy recurrences between a series' columns; the tank limits are their bounds.

    Blocked stock counts an inbound batch from its start and releases an
    outbound batch at its completion; on-stock counts inbound at completion
    and outbound from the start.  A series' columns sit at its kept slots
    k_0 < k_1 < ... (`build_variables`), and the row of column k_j reads
    x_{k_j} - x_{k_{j-1}} plus the moves counted over (k_{j-1}, k_j] equals
    base_{k_j} - base_{k_{j-1}}, with x_{-1} = base_{-1} = 0: the sum of the
    slot-to-slot recurrences in between, whose occupancy columns are
    substituted out.  Moves counted after the last kept slot are written
    nowhere.  A dispatch column appears at most once per row: a batch whose
    path returns to its origin counts its two moves there with opposite
    signs, and where both fall in one row they cancel.  Only dispatch
    binaries and the series' own occupancy columns enter a recurrence, which
    is what lets `lattice_limits` round the limits.
    """
    dispatch = _dispatch_blocks(columns)
    occupancy = {kind: columns.of_kind(kind) for kind in (OCC_UPPER, OCC_LOWER)}
    for key in dict.fromkeys(key for _kind, key in series):  # site by site, each series' rows together
        for kind, _family, _delayed in _SERIES:
            ser = series[kind, key]
            occ = occupancy[kind][key]
            runs = [(dispatch[run.batch].start, run.shift, run.last, -run.change) for run in ser.runs]
            merge = len({start for start, *_ in runs}) < len(runs)
            cols: list[int] = []
            coefs: list[int] = []
            sizes: list[int] = []
            rhs: list[int] = []
            prev = -1
            for i, t in enumerate(occ.slots):
                row_cols = [occ.start + i, occ.start + i - 1] if i else [occ.start]
                row_coefs = [1, -1] if i else [1]
                for start, shift, last, coef in runs:
                    lo, hi = max(prev + 1 - shift, 0), min(t - shift, last)
                    if lo <= hi:
                        row_cols.extend(range(start + lo, start + hi + 1))
                        row_coefs.extend([coef] * (hi - lo + 1))
                if merge:
                    row_cols, row_coefs = _merged(row_cols, row_coefs)
                cols += row_cols
                coefs += row_coefs
                sizes.append(len(row_cols))
                rhs.append(ser.base[t] - (ser.base[prev] if i else 0))
                prev = t
            rows.add(ser.family, cols, coefs, sizes, rhs)


def _merged(cols: list[int], coefs: list[int]) -> tuple[list[int], list[int]]:
    """A row's terms with each column's coefficients summed, in order of first appearance, zeros left out."""
    total: dict[int, int] = {}
    for col, coef in zip(cols, coefs):
        total[col] = total.get(col, 0) + coef
    return [col for col, coef in total.items() if coef], [coef for coef in total.values() if coef]


def emit_throughput_limits(inst, catalog, columns, rows) -> None:
    # volume started inside the window is bounded; a batch counts once, on its
    # dispatch edge, and a slot or edge the window lists twice counts once
    for lim in inst.throughput_limits:
        cols: list[int] = []
        coefs: list[int] = []
        for eid in dict.fromkeys(lim.edges):
            for dispatch_edge, spec in catalog.dispatches():
                if dispatch_edge != eid or spec.product != lim.product:
                    continue
                for t in dict.fromkeys(lim.times):
                    vid = columns.vid(PLACEMENT, (eid, spec.id, t))
                    if vid is not None:
                        cols.append(vid)
                        coefs.append(spec.volume)
        rows.add(FAM_THROUGHPUT, cols, coefs, [len(cols)], [lim.limit])


def _initial_blocks(inst, catalog, columns, origin: str, product: str):
    """(spec, placement block) of every batch of `product` dispatched from `origin`."""
    place = columns.of_kind(PLACEMENT)
    for eid, spec in catalog.dispatches():
        if inst.edge(eid).origin == origin and spec.product == product:
            yield spec, place[(eid, spec.id)]


def emit_nominations(inst, catalog, columns, rows) -> None:
    # total extracted volume per refinery and product may not exceed the nomination
    for nom in inst.nominations:
        for pid, volume_cap in nom.limits.items():
            cols: list[int] = []
            coefs: list[int] = []
            for spec, block in _initial_blocks(inst, catalog, columns, nom.refinery, pid):
                cols.extend(range(block.start, block.start + block.count))
                coefs.extend([spec.volume] * block.count)
            rows.add(FAM_NOMINATION, cols, coefs, [len(cols)], [volume_cap])


def emit_objective(inst, catalog, columns, rows) -> tuple[dict[int, Fraction], Fraction]:
    """Objective terms (maximize) plus deviation linearization rows.

    Components: alpha * nominated extraction volume (reward-weighted),
    beta * final-stock shaping, gamma * agreement with the previous plan
    (each missed previous placement costs gamma), theta * pumping costs.
    Extraction and pumping cost are the same for every start of a batch, so
    they are summed per placement block first.
    """
    w = inst.weights
    constant = Fraction(0)
    per_block: dict[ColumnBlock, Fraction] = {}

    def add(acc: dict, key, coef: Fraction) -> None:
        acc[key] = acc[key] + coef if key in acc else coef

    if w.alpha != 0:
        for nom in inst.nominations:
            for pid in nom.limits:
                coef_unit = w.alpha * w.eta_for(pid)
                for spec, block in _initial_blocks(inst, catalog, columns, nom.refinery, pid):
                    add(per_block, block, coef_unit * spec.volume)

    if w.theta != 0:
        place = columns.of_kind(PLACEMENT)
        for eid, spec in catalog.dispatches():
            cost = batch_cost(inst, spec)
            if cost != 0:
                add(per_block, place[(eid, spec.id)], -w.theta * cost)

    obj: dict[int, Fraction] = {}
    for block, coef in per_block.items():
        obj.update(dict.fromkeys(range(block.start, block.start + block.count), coef))

    if w.beta != 0:
        t_final = inst.grid.t_max
        for ti, tgt in enumerate(w.distribution_targets):
            l_vid = columns.vid(OCC_LOWER, (tgt.site, tgt.product, t_final))
            if tgt.target is None:
                add(obj, l_vid, w.beta * tgt.weight)
                continue
            d_vid = columns.vid(DEVIATION, (tgt.site, tgt.product, ti))
            # d >= |final on-stock - target| via two one-sided rows
            cols = (d_vid, l_vid, d_vid, l_vid)
            rows.add(FAM_DISTRIBUTION, cols, (1, -1, 1, 1), (2, 2), (-tgt.target, tgt.target))
            add(obj, d_vid, -w.beta * tgt.weight)

    if w.gamma != 0:
        for placement in w.previous_plan:
            vid = _dispatch_vid(catalog, columns, placement)
            constant -= w.gamma  # each previous placement is a missed one until kept
            if vid is not None:
                add(obj, vid, w.gamma)

    return obj, constant


@dataclass(frozen=True)
class BuildOptions:
    capacity_lazy: bool = False  # accepted and ignored: every model ships every tank limit that can bind


def build_model(inst: Instance, options: BuildOptions = BuildOptions()) -> MILPModel:
    issues = validate_instance(inst)
    if issues:
        raise ModelBuildError("invalid instance: " + "; ".join(str(i) for i in issues))

    catalog = enumerate_batches(inst)
    series = occupancy_series(inst, stock_moves(inst, catalog))
    columns = build_variables(inst, catalog, series)
    rows = RowStore()

    # emitted in the order the rows are written
    emit_packing(inst, catalog, columns, rows)
    warnings = emit_flushing(inst, catalog, columns, rows)
    warnings += empty_band_warnings(series) + nomination_shortfalls(inst, catalog)
    emit_regime_exclusions(inst, catalog, columns, rows)
    emit_capacity(inst, catalog, columns, rows, series)
    emit_throughput_limits(inst, catalog, columns, rows)
    emit_nominations(inst, catalog, columns, rows)
    obj, constant = emit_objective(inst, catalog, columns, rows)

    model = MILPModel(
        variables=columns,
        constraints=rows,
        objective=tuple(sorted(obj.items())),
        objective_constant=constant,
        instance=inst,
        catalog=catalog,
    )

    model.metadata = {
        "instance_hash": instance_hash(inst),
        "binaries": sum(b.count for b in columns.blocks if b.bounds[0]),
        "warnings": warnings,
    }
    return model


# ---------------------------------------------------------------------------
# assignment helpers: a schedule as values of the model's variables, for tests that check rows and bounds


def extend_placement_assignment(model: MILPModel, placements: Iterable[tuple[str, str, int]]) -> dict[int, int]:
    """Complete a placement set to values for every model variable.

    The set must be route-synchronized, as `Schedule.from_initial` expands
    dispatches: a set whose pipes disagree is no point of the model, which
    reads only the dispatches.  Each occupancy column takes the validator's
    simulated stock at its slot and deviations take their minimal feasible value, so the extension
    satisfies every row and bound outside the dispatch families that can be
    satisfied at all.
    """
    inst, columns = model.instance, model.variables
    schedule = Schedule.from_raw(placements)
    values: dict[int, int] = {}
    for block in columns.of_kind(PLACEMENT).values():
        for i in range(block.count):
            values[block.start + i] = 1 if (*block.prefix, i) in schedule.placements else 0

    occupancy = simulate_occupancy(inst, model.catalog, schedule)
    for kind, series in ((OCC_UPPER, occupancy.upper), (OCC_LOWER, occupancy.lower)):
        blocks = columns.of_kind(kind)
        for key, levels in series.items():
            block = blocks[key]
            for i, t in enumerate(block.slots):
                values[block.start + i] = levels[t]

    t_final = inst.grid.t_max
    for ti, tgt in enumerate(inst.weights.distribution_targets):
        if tgt.target is None:
            continue
        d_vid = columns.vid(DEVIATION, (tgt.site, tgt.product, ti))
        if d_vid is None:
            continue
        l_val = values[columns.vid(OCC_LOWER, (tgt.site, tgt.product, t_final))]
        values[d_vid] = abs(l_val - tgt.target)
    return values


def violated_rows(model: MILPModel, values: Mapping[int, int]) -> list[int]:
    """Indices of the rows that `values` (vid -> value, every column present) violates."""
    rows = model.constraints
    senses = [FAMILY_SENSE[f] for f in FAMILIES]
    ends = islice(rows.start, 1, None)
    out = []
    for r, (s, e, family, rhs) in enumerate(zip(rows.start, ends, rows.family, rows.rhs)):
        lhs = sum(coef * values[vid] for vid, coef in zip(rows.col[s:e], rows.coef[s:e]))
        sense = senses[family]
        if not (lhs <= rhs if sense == LE else lhs >= rhs if sense == GE else lhs == rhs):
            out.append(r)
    return out


def violated_bounds(model: MILPModel, values: Mapping[int, int]) -> list[int]:
    """Ids of the columns whose value in `values` lies outside their bounds, tank limits included."""
    return [
        v.vid
        for v in model.variables
        if (v.lb is not None and values[v.vid] < v.lb) or (v.ub is not None and values[v.vid] > v.ub)
    ]


def objective_value(model: MILPModel, values: Mapping[int, int]) -> Fraction:
    return sum((coef * values[vid] for vid, coef in model.objective), model.objective_constant)
