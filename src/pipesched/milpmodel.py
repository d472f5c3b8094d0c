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

Storage.  Columns come in blocks (`ColumnBlock`) of one kind whose keys
differ only in their last, consecutive component.  Placement columns are
contiguous in t for each (edge, batch): v(e, b, t) is the block's first
column plus t.  Endpoint markers of a staining (edge, batch) are contiguous
in the completion instant, occupancy columns of a (site, product) in t.
Rows live in one integer row store (`RowStore`), in stdlib `array`s: CSR
row starts, column ids and coefficients, plus per row its sense, right-hand
side, family, rank within the family (which names it) and lazy flag.  The
emitters append whole runs of rows to it and build no per-term or per-row
objects.  `MILPModel.variables` (a `Columns`) and `MILPModel.constraints`
(the `RowStore`) are read-only sequences that build a `Variable` or a
`LinearConstraint` only when one is read.  Coefficients and right-hand
sides are signed 64-bit integers; a larger volume raises OverflowError.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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

FAMILIES = (
    FAM_PACKING,
    FAM_ROUTES,
    FAM_FLUSH_LINK,
    FAM_FLUSH_EXCL,
    FAM_FLUSH_ENFORCE,
    FAM_EXCLUSION,
    FAM_CAP_DEF_UPPER,
    FAM_CAP_DEF_LOWER,
    FAM_CAP_UPPER,
    FAM_CAP_LOWER,
    FAM_OUTAGE,
    FAM_THROUGHPUT,
    FAM_NOMINATION,
    FAM_FIXED,
    FAM_DISTRIBUTION,
)
_FAMILY_ID = {f: i for i, f in enumerate(FAMILIES)}

LE = "<="
GE = ">="
EQ = "="
SENSES = (LE, GE, EQ)
_SENSE_ID = {s: i for i, s in enumerate(SENSES)}


class ModelBuildError(ValueError):
    pass


class Variable(NamedTuple):
    vid: int
    kind: str
    key: tuple
    binary: bool
    lb: Optional[int]
    ub: Optional[int]

    @property
    def lp_name(self) -> str:
        return f"{_NAME_PREFIX[self.kind]}{self.vid}"


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


class Columns(Sequence):
    """The model's columns as blocks; indexing or iterating builds `Variable`s."""

    def __init__(self) -> None:
        self.blocks: list[ColumnBlock] = []
        self._starts: list[int] = []
        self._by_prefix: dict[tuple, list[ColumnBlock]] = {}
        self._size = 0

    def add(self, kind: str, prefix: tuple, first: int, count: int) -> ColumnBlock:
        block = ColumnBlock(kind, prefix, first, self._size, max(0, count))
        self.blocks.append(block)
        self._starts.append(block.start)
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

    def __getitem__(self, vid: int) -> Variable:
        if vid < 0:
            vid += self._size
        if not 0 <= vid < self._size:
            raise IndexError(f"column {vid} out of range")
        kind, prefix, first, start, _count = self.blocks[bisect_right(self._starts, vid) - 1]
        return Variable(vid, kind, (*prefix, first + vid - start), *_KIND_BOUNDS[kind])

    def __iter__(self):
        for kind, prefix, first, start, count in self.blocks:
            bounds = _KIND_BOUNDS[kind]
            for i in range(count):
                yield Variable(start + i, kind, (*prefix, first + i), *bounds)


class RowStore(Sequence):
    """Every row of the model in CSR form; indexing or iterating builds `LinearConstraint`s.

    Row r holds columns `col[start[r]:start[r+1]]` with coefficients `coef`
    at the same positions; `sense[r]` indexes SENSES and `family[r]`
    FAMILIES; `rank[r]` counts the family's earlier rows and names the row.
    """

    def __init__(self) -> None:
        self.start = array("q", [0])
        self.col = array("q")
        self.coef = array("q")
        self.sense = array("b")
        self.rhs = array("q")
        self.family = array("b")
        self.rank = array("q")
        self.lazy = array("b")
        self.family_sizes = [0] * len(FAMILIES)

    def add(
        self,
        family: str,
        sense: str,
        cols: Iterable[int],
        coefs: Iterable[int],
        sizes: Iterable[int],
        rhs: Sequence[int],
        lazy: bool = False,
    ) -> None:
        """Append `len(rhs)` rows of one family and sense; row i takes the next `sizes[i]` terms."""
        n = len(rhs)
        fid = _FAMILY_ID[family]
        self.col.extend(cols)
        self.coef.extend(coefs)
        self.start.extend(islice(accumulate(sizes, initial=self.start[-1]), 1, None))
        self.rhs.extend(rhs)
        self.sense.extend(array("b", [_SENSE_ID[sense]]) * n)
        self.family.extend(array("b", [fid]) * n)
        self.lazy.extend(array("b", [lazy]) * n)
        self.rank.extend(range(self.family_sizes[fid], self.family_sizes[fid] + n))
        self.family_sizes[fid] += n
        if self.start[-1] != len(self.col) or len(self.coef) != len(self.col) or len(self.start) != len(self.rhs) + 1:
            raise ModelBuildError(f"{family} rows do not match their term counts")

    def __len__(self) -> int:
        return len(self.rhs)

    def __getitem__(self, r: int) -> LinearConstraint:
        if r < 0:
            r += len(self)
        if not 0 <= r < len(self):
            raise IndexError(f"row {r} out of range")
        s, e = self.start[r], self.start[r + 1]
        return LinearConstraint(
            row_name(self.family[r], self.rank[r]),
            FAMILIES[self.family[r]],
            tuple(zip(self.col[s:e], self.coef[s:e])),
            SENSES[self.sense[r]],
            self.rhs[r],
            bool(self.lazy[r]),
        )

    def __iter__(self):
        pairs = list(zip(self.col, self.coef))
        ends = islice(self.start, 1, None)
        for s, e, family, rank, sense, rhs, lazy in zip(
            self.start, ends, self.family, self.rank, self.sense, self.rhs, self.lazy
        ):
            terms = tuple(pairs[s:e])
            yield LinearConstraint(row_name(family, rank), FAMILIES[family], terms, SENSES[sense], rhs, bool(lazy))


@dataclass
class MILPModel:
    variables: Columns
    constraints: RowStore
    objective: tuple[tuple[int, Fraction], ...]  # maximize
    objective_constant: Fraction
    lazy_bounds: dict[tuple[str, str, str, int], int]  # (family, site, product, t) -> row idx
    instance: Instance
    catalog: BatchCatalog
    metadata: dict = field(default_factory=dict)

    @cached_property
    def lp_names(self) -> list[str]:
        """LP name of every column, by vid: its kind's one-letter prefix, then the vid in decimal."""
        blocks = self.variables.blocks
        return [f"{_NAME_PREFIX[b.kind]}{vid}" for b in blocks for vid in range(b.start, b.start + b.count)]

    def vid(self, kind: str, key: tuple) -> Optional[int]:
        return self.variables.vid(kind, key)

    def family_counts(self) -> dict[str, int]:
        return dict(zip(FAMILIES, self.constraints.family_sizes))


def _mirror_rows(rows: RowStore, family: str, a: ColumnBlock, b: ColumnBlock) -> None:
    """Rows x[a.start + i] - x[b.start + i] = 0, one per column of `a`."""
    n = a.count
    cols = [0] * (2 * n)
    cols[0::2] = range(a.start, a.start + n)
    cols[1::2] = range(b.start, b.start + n)
    rows.add(family, EQ, cols, [1, -1] * n, [2] * n, [0] * n)


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
        for ref in catalog.refs(edge.id):
            columns.add(PLACEMENT, (edge.id, ref.batch), 0, H - catalog.spec_by_id[ref.batch].length + 1)

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
        blocks = [
            (place[(edge.id, ref.batch)], catalog.spec_by_id[ref.batch].length) for ref in catalog.refs(edge.id)
        ]
        cols: list[int] = []
        sizes: list[int] = []
        for t in range(H):
            before = len(cols)
            for block, L in blocks:
                lo = max(0, t - L + 1)
                hi = min(t + 1, block.count)
                if lo < hi:
                    cols.extend(range(block.start + lo, block.start + hi))
            sizes.append(len(cols) - before)
        rows.add(FAM_PACKING, LE, cols, [1] * len(cols), sizes, [1] * H)


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

    def starts_at(eid: str, bids: Iterable[str], te: int) -> list[int]:
        """Placement columns of `bids` on `eid` that start at te."""
        out = []
        for bid in bids:
            block = place[(eid, bid)]
            if te < block.count:
                out.append(block.start + te)
        return out

    # endpoint markers exist exactly for the staining batches on their initial edge
    stain_refs = [(eid, catalog.spec_by_id[bid]) for eid, bid in endpoint]

    for eid, spec in stain_refs:
        _mirror_rows(rows, FAM_FLUSH_LINK, place[(eid, spec.id)], endpoint[(eid, spec.id)])

    for eid, spec in stain_refs:
        others = catalog.stain_exclusions.get((eid, spec.product), ())
        if not others:
            continue
        w0 = endpoint[(eid, spec.id)].start - spec.length  # w(e, b, te) is column w0 + te
        cols: list[int] = []
        sizes: list[int] = []
        for te in range(spec.length, H):
            terms = starts_at(eid, others, te)
            terms.append(w0 + te)
            cols.extend(terms)
            sizes.append(len(terms))
        rows.add(FAM_FLUSH_EXCL, LE, cols, [1] * len(cols), sizes, [1] * len(sizes))

    for eid, spec in stain_refs:
        candidates = catalog.flush_candidates.get((eid, spec.id), ())
        if not candidates:
            warnings.append(
                f"staining batch {spec.id} on edge {eid} has no flushing batch large enough to push it through"
            )
        w0 = endpoint[(eid, spec.id)].start - spec.length
        cols = []
        coefs: list[int] = []
        sizes = []
        for te in range(spec.length, H + 1):
            follow = starts_at(eid, (spec.id, *candidates), te)
            cols.append(w0 + te)
            cols.extend(follow)
            coefs.append(1)
            coefs.extend([-1] * len(follow))
            sizes.append(1 + len(follow))
        rows.add(FAM_FLUSH_ENFORCE, LE, cols, coefs, sizes, [0] * len(sizes))

    return warnings


def emit_regime_exclusions(inst, catalog, columns, rows) -> None:
    # per group and anchor slot t, at most one member batch may start inside
    # the batch's own window [t, t + L(b)]
    H = inst.grid.horizon_len
    place = columns.of_kind(PLACEMENT)
    for group in inst.exclusion_groups:
        members = set(group.members)
        entries = [(place[(eid, spec.id)], spec.length) for eid, spec in catalog.dispatches() if spec.regime in members]
        cols: list[int] = []
        sizes: list[int] = []
        for t in range(H):
            before = len(cols)
            for block, L in entries:
                hi = min(t + L + 1, block.count)
                if t < hi:
                    cols.extend(range(block.start + t, block.start + hi))
            sizes.append(len(cols) - before)
        rows.add(FAM_EXCLUSION, LE, cols, [1] * len(cols), sizes, [1] * H)


def emit_outages(inst, catalog, columns, rows, fixings: dict[int, int]) -> None:
    """Forbidden starts become v = 0 rows (tank outages act through the capacity profile)."""
    fixed: dict[int, None] = {}  # vids in order of first appearance
    for outage in inst.outages:
        if isinstance(outage, TankOutage):
            continue
        for eid, bid in outage.batches:
            if not any(r.batch == bid for r in catalog.refs(eid)):
                raise ModelBuildError(f"transport outage references unknown batch coordinate ({eid!r}, {bid!r})")
            for t in outage.times:
                vid = columns.vid(PLACEMENT, (eid, bid, t))
                if vid is None:
                    continue  # no start possible there anyway
                if fixings.get(vid, 0) == 1:
                    raise ModelBuildError(f"contradictory fixings for placement ({eid!r}, {bid!r}, {t})")
                fixings[vid] = 0
                fixed[vid] = None
    rows.add(FAM_OUTAGE, EQ, fixed, [1] * len(fixed), [1] * len(fixed), [0] * len(fixed))


def capacity_event_lists(inst: Instance, catalog: BatchCatalog):
    """(site, product) -> inbound/outbound (edge, spec) pairs affecting stock."""
    inbound: dict[tuple[str, str], list[tuple[str, BatchSpec]]] = {}
    outbound: dict[tuple[str, str], list[tuple[str, BatchSpec]]] = {}
    for eid, spec in catalog.deliveries():
        site = inst.edge(eid).destination
        if inst.site(site).is_storage:
            inbound.setdefault((site, spec.product), []).append((eid, spec))
    for eid, spec in catalog.dispatches():
        site = inst.edge(eid).origin
        if inst.site(site).is_storage:
            outbound.setdefault((site, spec.product), []).append((eid, spec))
    return inbound, outbound


def emit_capacity(
    inst, catalog, columns, rows, options: BuildOptions
) -> dict[tuple[str, str, str, int], int]:
    """Occupancy recurrences plus bound rows; returns (family, site, product, t) -> bound row.

    Blocked stock counts an inbound batch from its start and releases an
    outbound batch at its completion; on-stock counts inbound at completion
    and outbound from the start.  Both are emitted as slot-to-slot
    recurrences anchored at t = 0, which keeps the row sparsity linear while
    defining exactly the cumulative sums.  Blocked stock is bounded by the
    instance's outage-reduced tank capacity, on-stock by the minimum stock.
    A move's placement column appears at most once per row, because edges
    never loop on a site.
    """
    H = inst.grid.horizon_len
    place = columns.of_kind(PLACEMENT)
    occupancy = {kind: columns.of_kind(kind) for kind in (OCC_UPPER, OCC_LOWER)}
    inbound, outbound = capacity_event_lists(inst, catalog)
    lazy_map: dict[tuple[str, str, str, int], int] = {}

    # (occupancy kind, row family, the side counted at completion: -1 inbound, +1 outbound)
    series = ((OCC_UPPER, FAM_CAP_DEF_UPPER, 1), (OCC_LOWER, FAM_CAP_DEF_LOWER, -1))
    for site in inst.storage_sites():
        for product in inst.products:
            key = (site.id, product.id)
            base = site.profile(product.id).base_profile(H)
            rhs = [base[0]] + [b - a for a, b in zip(base, base[1:])]
            moves = [(eid, spec, -1) for eid, spec in inbound.get(key, ())]
            moves += [(eid, spec, 1) for eid, spec in outbound.get(key, ())]
            for kind, family, delayed in series:
                occ = occupancy[kind][key].start
                # (first column, count, slots between the start and the row, coefficient)
                shifted = []
                for eid, spec, sign in moves:
                    block = place[(eid, spec.id)]
                    shift = spec.length if sign == delayed else 0
                    shifted.append((block.start, block.count, shift, sign * spec.volume))
                cols: list[int] = []
                coefs: list[int] = []
                sizes: list[int] = []
                for t in range(H):
                    before = len(cols)
                    cols.append(occ + t)
                    coefs.append(1)
                    if t:
                        cols.append(occ + t - 1)
                        coefs.append(-1)
                    for first, count, shift, coef in shifted:
                        s = t - shift
                        if 0 <= s < count:
                            cols.append(first + s)
                            coefs.append(coef)
                    sizes.append(len(cols) - before)
                rows.add(family, EQ, cols, coefs, sizes, rhs)

    for site in inst.storage_sites():
        for product in inst.products:
            key = (site.id, product.id)
            limits = (
                (OCC_UPPER, FAM_CAP_UPPER, LE, inst.capacity_max_profile(site.id, product.id)),
                (OCC_LOWER, FAM_CAP_LOWER, GE, site.profile(product.id).min_profile(H)),
            )
            for kind, family, sense, limit in limits:
                occ = occupancy[kind][key].start
                slots = [t for t in range(H) if limit[t] is not None]
                first_row = len(rows)
                for i, t in enumerate(slots):
                    lazy_map[(family, site.id, product.id, t)] = first_row + i
                ones = [1] * len(slots)
                rhs = [limit[t] for t in slots]
                rows.add(family, sense, [occ + t for t in slots], ones, ones, rhs, options.capacity_lazy)

    return lazy_map


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
        rows.add(FAM_THROUGHPUT, LE, cols, coefs, [len(cols)], [lim.limit])


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
            rows.add(FAM_NOMINATION, LE, cols, coefs, [len(cols)], [volume_cap])


def emit_fixed_transport(inst, catalog, columns, rows, fixings: dict[int, int]) -> None:
    forced: list[int] = []
    for fx in inst.fixed_transports:
        bid = batch_id(fx.regime, fx.product, STANDARD)
        if bid not in catalog.spec_by_id:
            raise ModelBuildError(f"fixed transport references unknown batch {bid!r}")
        e0 = catalog.initial_edge(bid)
        vid = columns.vid(PLACEMENT, (e0, bid, fx.start))
        if vid is None:
            raise ModelBuildError(f"fixed transport {bid!r} at {fx.start} does not fit the horizon")
        forced.append(vid)
    for eid, bid, t in inst.weights.executed:
        vid = columns.vid(PLACEMENT, (eid, bid, t))
        if vid is None:
            raise ModelBuildError(f"executed placement ({eid!r}, {bid!r}, {t}) has no variable")
        forced.append(vid)
    emitted: dict[int, None] = {}  # vids in order of first appearance
    for vid in forced:
        if fixings.get(vid, 1) == 0:
            raise ModelBuildError(f"contradictory fixings for placement {columns[vid].key}")
        fixings[vid] = 1
        emitted[vid] = None
    rows.add(FAM_FIXED, EQ, emitted, [1] * len(emitted), [1] * len(emitted), [1] * len(emitted))


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
            if l_vid is None:
                raise ModelBuildError(f"distribution target on non-storage site {tgt.site!r}")
            if tgt.target is None:
                add(obj, l_vid, w.beta * tgt.weight)
                continue
            d_vid = columns.vid(DEVIATION, (tgt.site, tgt.product, ti))
            # d >= |final on-stock - target| via two one-sided rows
            cols = (d_vid, l_vid, d_vid, l_vid)
            rows.add(FAM_DISTRIBUTION, GE, cols, (1, -1, 1, 1), (2, 2), (-tgt.target, tgt.target))
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
    fixings: dict[int, int] = {}

    # emitted in the order the rows are written
    emit_packing(inst, catalog, columns, rows)
    emit_routes(inst, catalog, columns, rows)
    warnings = emit_flushing(inst, catalog, columns, rows)
    emit_regime_exclusions(inst, catalog, columns, rows)
    lazy_bounds = emit_capacity(inst, catalog, columns, rows, options)
    emit_outages(inst, catalog, columns, rows, fixings)
    emit_throughput_limits(inst, catalog, columns, rows)
    emit_nominations(inst, catalog, columns, rows)
    emit_fixed_transport(inst, catalog, columns, rows, fixings)
    obj, constant = emit_objective(inst, catalog, columns, rows)

    model = MILPModel(
        variables=columns,
        constraints=rows,
        objective=tuple(sorted(obj.items())),
        objective_constant=constant,
        lazy_bounds=lazy_bounds,
        instance=inst,
        catalog=catalog,
    )

    model.metadata = {
        "instance": inst.name,
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


def violated_rows(
    model: MILPModel, values: Mapping[int, int], include_lazy: bool = True
) -> list[LinearConstraint]:
    out = []
    for c in model.constraints:
        if c.lazy and not include_lazy:
            continue
        lhs = sum(coef * values[vid] for vid, coef in c.terms)
        ok = lhs <= c.rhs if c.sense == LE else lhs >= c.rhs if c.sense == GE else lhs == c.rhs
        if not ok:
            out.append(c)
    return out


def objective_value(model: MILPModel, values: Mapping[int, int]) -> Fraction:
    return sum((coef * values[vid] for vid, coef in model.objective), model.objective_constant)
