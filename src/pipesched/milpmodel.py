"""Space-indexed MILP assembly for pipeline transport scheduling.

Scheduling is treated as interval packing on every edge: a binary placement
variable v(e, b, t) says batch b blocks edge e during slots [t, t+L(b)).
Constraint families:

  packing             at most one batch per edge and slot
  routes              a batch moves on all edges of its regime simultaneously
  flushing_link       endpoint marker w(e, b, t+L) mirrors v(e, b, t)
  flushing_exclusion  while a stain sits in the pipe no other staining
                      product may enter (checked at completion instants)
  flushing_enforce    a completed stain is followed immediately by itself
                      (re-dispatch) or by a sufficiently large flushing batch
  exclusion           regime groups that may not pump in overlapping windows
  capacity_def_*      blocked / on-stock occupancy recurrences (equalities)
  capacity_upper      blocked stock <= tank capacity (outage-reduced)
  capacity_lower      on-stock level >= minimum stock
  outage              forbidden starts fixed to zero
  throughput          volume started inside a time window is bounded
  nomination          extracted volume per refinery and product is bounded
  fixed               operator-imposed transports forced to one
  distribution        deviation linearization rows for final-stock targets

Occupancy bounds can be marked lazy; the definitional equalities never are.
The objective maximizes weighted extraction minus distribution deviation,
plan-change and pumping-cost penalties; its coefficients are exact rationals.
Every row coefficient, right-hand side and variable bound is a volume or a
count, so rows and bounds hold plain integers.

`build_model` raises `ModelBuildError` only for an instance that
`validate_instance` rejects.  A fixed start that an outage forbids gets both
rows, v = 1 and v = 0, and the solver proves the model infeasible.

Window form.  Every slot-indexed row is a signed sum, at slot t, of the
columns whose slot key lies in a window around t: the window form of
time-indexed scheduling models (Sousa & Wolsey 1992).  `_window_rows`
builds a family's rows from runs (block, lo, hi, coef): the row at t adds
`coef` times each column of the block whose key k has t+lo <= k < t+hi.
Packing sums each batch on the edge over [t-L+1, t] and exclusion each
member dispatch over [t, t+L].  The flushing rows take the starts at a
stain's completion instant te, and the capacity recurrences take x_t, then
-x_{t-1}, then each move at its start or at its completion: windows one
key wide.  `routes` and `flushing_link` pair two blocks column by column
(`_mirror_rows`).

Storage.  Columns come in blocks (`ColumnBlock`) of one kind whose keys
differ only in their last, consecutive component.  Placement columns are
contiguous in t for each (edge, batch): v(e, b, t) is the block's first
column plus t.  Endpoint markers of a staining (edge, batch) are contiguous
in the completion instant, occupancy columns of a (site, product) in t.
Rows live in one integer row store (`RowStore`), in stdlib `array`s: CSR
row starts, column ids and coefficients, plus per row its right-hand side
and family.  What the family fixes is stated once per family: its sense in
`FAMILY_SENSE`, its lazy flag in the store.  The emitters append whole runs
of rows to it and build no per-term or per-row objects, and every reader
(the LP writer, `violated_rows`, the tests) reads rows from these arrays and
columns from the blocks.  Names are formed when they are written, not
stored: a row is named by `row_name` from its family and its rank, which a
reader counts as it walks the rows, and column `vid` by its kind letter,
`column_letters(model)[vid]`, then `vid` in decimal.  An occupancy bound
row holds one term, the occupancy column it bounds, so the lazy loop finds
a violated bound through `Columns.vid` and activates that column; the
model keeps no index from a bound's (site, product, slot) to its row.
Iterating `MILPModel.variables` (a `Columns`) or
`MILPModel.constraints` (the `RowStore`) builds one `Variable` or
`LinearConstraint` at a time; these two views and their `len()` remain only
for the benchmark's model counts (`perfbench/op.py::model_counts`) until its
next revision reads the arrays.
Column ids and row starts are signed 32-bit integers, so a model with
more than 2**31 - 1 columns or terms raises OverflowError while it is built;
coefficients and right-hand sides are signed 64-bit integers, and a larger
volume raises OverflowError too.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
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
from .validator import simulate_occupancy

# variable kinds
PLACEMENT = "placement"
ENDPOINT = "endpoint"
OCC_UPPER = "occ_upper"
OCC_LOWER = "occ_lower"
DEVIATION = "deviation"

_NAME_PREFIX = {PLACEMENT: "v", ENDPOINT: "w", OCC_UPPER: "u", OCC_LOWER: "l", DEVIATION: "d"}
# kind -> (binary, lower bound, upper bound); placements are the only binaries
_KIND_BOUNDS = {
    PLACEMENT: (True, 0, 1),
    ENDPOINT: (False, 0, 1),
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

# every row of a family has the family's sense; FAMILIES lists the families in this order
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
    lazy: bool = False


def row_name(family: int, rank: int) -> str:
    """Name of the family's `rank`-th row (`family` indexes FAMILIES), as the LP file writes it."""
    return f"{FAMILIES[family]}_{rank}"


class ColumnBlock(NamedTuple):
    """Consecutive columns of one kind; column `start + i` has key `(*prefix, first + i)`."""

    kind: str
    prefix: tuple
    first: int
    start: int
    count: int

    @property
    def bounds(self) -> tuple[bool, Optional[int], Optional[int]]:
        """(binary, lower bound, upper bound) of every column in the block."""
        return _KIND_BOUNDS[self.kind]


class Columns:
    """The model's columns as blocks; iterating builds `Variable`s."""

    def __init__(self) -> None:
        self.blocks: list[ColumnBlock] = []
        self._by_prefix: dict[tuple, list[ColumnBlock]] = {}
        self._size = 0

    def add(self, kind: str, prefix: tuple, first: int, count: int) -> ColumnBlock:
        block = ColumnBlock(kind, prefix, first, self._size, max(0, count))
        self.blocks.append(block)
        self._by_prefix.setdefault((kind, prefix), []).append(block)
        self._size += block.count
        return block

    def of_kind(self, kind: str) -> dict[tuple, ColumnBlock]:
        """Prefix -> block, for a kind whose prefixes are unique."""
        return {b.prefix: b for b in self.blocks if b.kind == kind}

    def vid(self, kind: str, key: tuple) -> Optional[int]:
        for block in self._by_prefix.get((kind, key[:-1]), ()):
            i = key[-1] - block.first
            if 0 <= i < block.count:
                return block.start + i
        return None

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for kind, prefix, first, start, count in self.blocks:
            bounds = _KIND_BOUNDS[kind]
            for i in range(count):
                yield Variable(start + i, kind, (*prefix, first + i), *bounds)


class RowStore:
    """Every row of the model in CSR form; iterating builds `LinearConstraint`s.

    Row r holds columns `col[start[r]:start[r+1]]` with coefficients `coef`
    at the same positions and right-hand side `rhs[r]`; `family[r]` indexes
    FAMILIES, and the family gives the row's sense (`FAMILY_SENSE`).  A
    row's rank, the count of its family's earlier rows, names it; readers
    count it as they walk the rows.  `lazy[f]` says whether family f's rows
    are lazy; only the single-term occupancy bound rows ever are.
    """

    def __init__(self) -> None:
        self.start = array("i", [0])
        self.col = array("i")
        self.coef = array("q")
        self.rhs = array("q")
        self.family = array("b")
        self.lazy = [False] * len(FAMILIES)

    def add(
        self,
        family: str,
        cols: Iterable[int],
        coefs: Iterable[int],
        sizes: Iterable[int],
        rhs: Sequence[int],
        lazy: bool = False,
    ) -> None:
        """Append `len(rhs)` rows of one family; row i takes the next `sizes[i]` terms."""
        n = len(rhs)
        fid = _FAMILY_ID[family]
        if lazy != self.lazy[fid] and fid in self.family:
            raise ModelBuildError(f"{family} rows cannot be both lazy and not lazy")
        self.lazy[fid] = lazy
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
            name, lazy = FAMILIES[family], self.lazy[family]
            yield LinearConstraint(row_name(family, ranks[family]), name, terms, FAMILY_SENSE[name], rhs, lazy)
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


def _mirror_rows(rows: RowStore, family: str, a: ColumnBlock, b: ColumnBlock) -> None:
    """Rows x[a.start + i] - x[b.start + i] = 0, one per column of `a`."""
    n = a.count
    cols = [0] * (2 * n)
    cols[0::2] = range(a.start, a.start + n)
    cols[1::2] = range(b.start, b.start + n)
    rows.add(family, cols, [1, -1] * n, [2] * n, [0] * n)


def build_variables(inst: Instance, catalog: BatchCatalog) -> Columns:
    """Create all decision variables in canonical order.

    Placements exist for starts t with t + L(b) <= horizon.  Endpoint markers
    exist for staining batches on their initial edge, indexed by the
    completion instant t + L on the fence grid [L, horizon]; they are
    continuous in [0, 1] because the linkage equality makes them integral.
    """
    H = inst.grid.horizon_len
    columns = Columns()
    for edge in inst.edges:
        for bid in catalog.batches_by_edge[edge.id]:
            columns.add(PLACEMENT, (edge.id, bid), 0, H - catalog.spec_by_id[bid].length + 1)

    for eid, spec in catalog.dispatches():
        if not inst.product(spec.product).is_flushing:
            columns.add(ENDPOINT, (eid, spec.id), spec.length, H - spec.length + 1)

    for kind in (OCC_UPPER, OCC_LOWER):
        for site in inst.storage_sites():
            for product in inst.products:
                columns.add(kind, (site.id, product.id), 0, H)

    for ti, tgt in enumerate(inst.weights.distribution_targets):
        if tgt.target is not None:
            columns.add(DEVIATION, (tgt.site, tgt.product), ti, 1)

    return columns


def emit_packing(inst, catalog, columns, rows) -> None:
    # at most one batch occupies an edge in any slot; a start at t0 blocks [t0, t0+L)
    H = inst.grid.horizon_len
    place = columns.of_kind(PLACEMENT)
    for edge in inst.edges:
        bids = catalog.batches_by_edge[edge.id]
        runs = [(place[(edge.id, bid)], 1 - catalog.spec_by_id[bid].length, 1, 1) for bid in bids]
        _window_rows(rows, FAM_PACKING, range(H), runs, [1] * H)


def emit_routes(inst, catalog, columns, rows) -> None:
    # a batch advances along its whole path at once: placements on consecutive
    # edges of the regime are pairwise equal at every start
    place = columns.of_kind(PLACEMENT)
    for spec in catalog.specs:
        chain = catalog.chains[spec.id]
        for e_a, e_b in zip(chain, chain[1:]):
            _mirror_rows(rows, FAM_ROUTES, place[(e_a, spec.id)], place[(e_b, spec.id)])


def emit_flushing(inst, catalog, columns, rows) -> list[str]:
    """Stain containment: linkage, cross-stain exclusion and flush enforcement.

    All rows anchor at stain completion instants te = t + L on the initial
    edge.  Exclusion rows only exist where another staining product could
    actually enter (te <= horizon - 1); enforcement rows cover te up to the
    horizon fence.  Where no follow-up fits inside the horizon a row reads
    w <= 0, so a stain that cannot be flushed in time is banned.
    Returns the build warnings.
    """
    H = inst.grid.horizon_len
    place = columns.of_kind(PLACEMENT)
    endpoint = columns.of_kind(ENDPOINT)
    warnings: list[str] = []

    # endpoint markers exist exactly for the staining batches on their initial edge
    stains = [(eid, catalog.spec_by_id[bid]) for eid, bid in endpoint]

    for eid, spec in stains:
        _mirror_rows(rows, FAM_FLUSH_LINK, place[(eid, spec.id)], endpoint[(eid, spec.id)])

    # a row at te holds the other stains starting at te, then w(e, b, te)
    for eid, spec in stains:
        others = catalog.stain_exclusions.get((eid, spec.product), ())
        if others:
            runs = [(place[(eid, bid)], 0, 1, 1) for bid in others]
            runs.append((endpoint[(eid, spec.id)], 0, 1, 1))
            _window_rows(rows, FAM_FLUSH_EXCL, range(spec.length, H), runs, [1] * (H - spec.length))

    for eid, spec in stains:
        candidates = catalog.flush_candidates[spec.id]
        if not candidates:
            warnings.append(
                f"staining batch {spec.id} on edge {eid} has no flushing batch large enough to push it through"
            )
        # w(e, b, te) minus the follow-ups starting at te: the stain itself, then the flushes
        runs = [(endpoint[(eid, spec.id)], 0, 1, 1)]
        runs += [(place[(eid, bid)], 0, 1, -1) for bid in (spec.id, *candidates)]
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


def _fix_rows(rows: RowStore, family: str, vids: Iterable[int], value: int) -> None:
    """Rows v = `value`, one per placement column in `vids`, in order of first appearance."""
    fixed = dict.fromkeys(vids)
    rows.add(family, fixed, [1] * len(fixed), [1] * len(fixed), [value] * len(fixed))


def emit_outages(inst, catalog, columns, rows) -> None:
    """Forbidden starts become v = 0 rows (tank outages act through the capacity profile)."""
    vids = []
    for outage in inst.outages:
        if isinstance(outage, TankOutage):
            continue
        for eid, bid in outage.batches:
            for t in outage.times:
                vid = columns.vid(PLACEMENT, (eid, bid, t))
                if vid is not None:  # else no start is possible there anyway
                    vids.append(vid)
    _fix_rows(rows, FAM_OUTAGE, vids, 0)


def emit_capacity(inst, catalog, columns, rows, options: BuildOptions) -> None:
    """Occupancy recurrences plus bound rows.

    Blocked stock counts an inbound batch from its start and releases an
    outbound batch at its completion; on-stock counts inbound at completion
    and outbound from the start.  Both are emitted as slot-to-slot
    recurrences anchored at t = 0, which keeps the row sparsity linear while
    defining exactly the cumulative sums.  Blocked stock is bounded by the
    instance's outage-reduced tank capacity, on-stock by the minimum stock.
    A move's placement column appears at most once per row, because edges
    never loop on a site.  A bound row's single term is the occupancy column
    it bounds, which is how the lazy loop and the LP writer find it again.
    """
    H = inst.grid.horizon_len
    place = columns.of_kind(PLACEMENT)
    occupancy = {kind: columns.of_kind(kind) for kind in (OCC_UPPER, OCC_LOWER)}
    # (site, product) -> the moves that change its stock, (edge, spec, -1) inbound, then (edge, spec, +1) outbound
    moves: dict[tuple[str, str], list[tuple[str, BatchSpec, int]]] = {}
    for eid, spec in catalog.deliveries():
        moves.setdefault((inst.edge(eid).destination, spec.product), []).append((eid, spec, -1))
    for eid, spec in catalog.dispatches():
        moves.setdefault((inst.edge(eid).origin, spec.product), []).append((eid, spec, 1))

    # (occupancy kind, row family, the side counted at completion: -1 inbound, +1 outbound)
    series = ((OCC_UPPER, FAM_CAP_DEF_UPPER, 1), (OCC_LOWER, FAM_CAP_DEF_LOWER, -1))
    for site in inst.storage_sites():
        for product in inst.products:
            key = (site.id, product.id)
            base = site.profile(product.id).base_profile(H)
            rhs = [base[0]] + [b - a for a, b in zip(base, base[1:])]
            for kind, family, delayed in series:
                occ = occupancy[kind][key]
                # x_t - x_{t-1}, then each move at its start, or shifted by its length when delayed
                runs = [(occ, 0, 1, 1), (occ, -1, 0, -1)]
                for eid, spec, sign in moves.get(key, ()):
                    shift = spec.length if sign == delayed else 0
                    runs.append((place[(eid, spec.id)], -shift, 1 - shift, sign * spec.volume))
                _window_rows(rows, family, range(H), runs, rhs)

    for site in inst.storage_sites():
        for product in inst.products:
            key = (site.id, product.id)
            limits = (
                (OCC_UPPER, FAM_CAP_UPPER, inst.capacity_max_profile(site.id, product.id)),
                (OCC_LOWER, FAM_CAP_LOWER, site.profile(product.id).min_profile(H)),
            )
            for kind, family, limit in limits:
                occ = occupancy[kind][key].start
                slots = [t for t in range(H) if limit[t] is not None]
                ones = [1] * len(slots)
                rhs = [limit[t] for t in slots]
                rows.add(family, [occ + t for t in slots], ones, ones, rhs, options.capacity_lazy)


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


def emit_fixed_transport(inst, catalog, columns, rows) -> None:
    keys = []
    for fx in inst.fixed_transports:
        bid = batch_id(fx.regime, fx.product, STANDARD)
        keys.append((catalog.initial_edge(bid), bid, fx.start))
    _fix_rows(rows, FAM_FIXED, [columns.vid(PLACEMENT, key) for key in (*keys, *inst.weights.executed)], 1)


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
        for eid, bid, t in w.previous_plan:
            vid = columns.vid(PLACEMENT, (eid, bid, t))
            constant -= w.gamma  # each previous placement is a missed one until kept
            if vid is not None:
                add(obj, vid, w.gamma)

    return obj, constant


@dataclass(frozen=True)
class BuildOptions:
    capacity_lazy: bool = False  # mark occupancy bound rows lazy


def build_model(inst: Instance, options: BuildOptions = BuildOptions()) -> MILPModel:
    issues = validate_instance(inst)
    if issues:
        raise ModelBuildError("invalid instance: " + "; ".join(str(i) for i in issues))

    catalog = enumerate_batches(inst)
    columns = build_variables(inst, catalog)
    rows = RowStore()

    # emitted in the order the rows are written
    emit_packing(inst, catalog, columns, rows)
    emit_routes(inst, catalog, columns, rows)
    warnings = emit_flushing(inst, catalog, columns, rows)
    emit_regime_exclusions(inst, catalog, columns, rows)
    emit_capacity(inst, catalog, columns, rows, options)
    emit_outages(inst, catalog, columns, rows)
    emit_throughput_limits(inst, catalog, columns, rows)
    emit_nominations(inst, catalog, columns, rows)
    emit_fixed_transport(inst, catalog, columns, rows)
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
# assignment helpers: a schedule as values of the model's variables, for tests that check rows


def extend_placement_assignment(model: MILPModel, placements: Iterable[tuple[str, str, int]]) -> dict[int, int]:
    """Complete a raw placement set to values for every model variable.

    Endpoints follow the linkage, occupancy is the validator's simulated
    stock and deviations take their minimal feasible value, so the extension
    satisfies every non-placement-family row that can be satisfied at all.
    """
    inst, columns = model.instance, model.variables
    schedule = Schedule.from_raw(placements)
    values: dict[int, int] = {}
    place = columns.of_kind(PLACEMENT)
    for block in place.values():
        for i in range(block.count):
            values[block.start + i] = 1 if (*block.prefix, i) in schedule.placements else 0
    for prefix, block in columns.of_kind(ENDPOINT).items():
        first = place[prefix].start  # w(e, b, t + L) mirrors v(e, b, t)
        for i in range(block.count):
            values[block.start + i] = values[first + i]

    occupancy = simulate_occupancy(inst, model.catalog, schedule)
    for kind, series in ((OCC_UPPER, occupancy.upper), (OCC_LOWER, occupancy.lower)):
        blocks = columns.of_kind(kind)
        for key, levels in series.items():
            start = blocks[key].start
            for t, level in enumerate(levels):
                values[start + t] = level

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


def objective_value(model: MILPModel, values: Mapping[int, int]) -> Fraction:
    return sum((coef * values[vid] for vid, coef in model.objective), model.objective_constant)
