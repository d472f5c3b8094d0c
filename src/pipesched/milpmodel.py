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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .batches import (
    BatchCatalog,
    BatchSpec,
    STANDARD,
    batch_cost,
    batch_id,
    enumerate_batches,
)
from .instance import (
    Instance,
    InstanceIssue,
    TankOutage,
    TransportOutage,
    instance_hash,
    validate_instance,
)

# variable kinds
PLACEMENT = "placement"
ENDPOINT = "endpoint"
OCC_UPPER = "occ_upper"
OCC_LOWER = "occ_lower"
DEVIATION = "deviation"

_NAME_PREFIX = {PLACEMENT: "v", ENDPOINT: "w", OCC_UPPER: "u", OCC_LOWER: "l", DEVIATION: "d"}

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

LE = "<="
GE = ">="
EQ = "="


class ModelBuildError(ValueError):
    pass


@dataclass(frozen=True)
class BuildOptions:
    capacity_lazy: bool = False  # mark occupancy bound rows lazy
    relax_terminal_flush: bool = False  # drop enforcement rows with no possible follow-up
    throughput_per_edge: bool = False  # count every listed edge instead of initial edges only


@dataclass(frozen=True)
class Variable:
    vid: int
    kind: str
    key: tuple
    binary: bool
    lb: Optional[int]
    ub: Optional[int]

    @property
    def lp_name(self) -> str:
        return f"{_NAME_PREFIX[self.kind]}{self.vid}"


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    family: str
    terms: tuple[tuple[int, int], ...]  # (vid, coefficient)
    sense: str
    rhs: int
    lazy: bool = False


@dataclass
class MILPModel:
    variables: tuple[Variable, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[tuple[int, Fraction], ...]  # maximize
    objective_constant: Fraction
    var_index: dict[tuple[str, tuple], int]
    lazy_bounds: dict[tuple[str, str, str, int], int]  # (family, site, product, t) -> row idx
    instance: Instance
    catalog: BatchCatalog
    options: BuildOptions
    metadata: dict = field(default_factory=dict)
    # LP text of each row, formatted by lp_io.write_lp on its first call
    lp_rows: Optional[list[str]] = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def name_index(self) -> dict[str, int]:
        """LP name -> vid."""
        return {v.lp_name: v.vid for v in self.variables}

    def vid(self, kind: str, key: tuple) -> Optional[int]:
        return self.var_index.get((kind, key))

    def placement_vid(self, edge: str, batch: str, t: int) -> Optional[int]:
        return self.var_index.get((PLACEMENT, (edge, batch, t)))

    def lp_name(self, vid: int) -> str:
        return self.variables[vid].lp_name

    def family_counts(self) -> dict[str, int]:
        counts = {f: 0 for f in FAMILIES}
        for c in self.constraints:
            counts[c.family] += 1
        return counts


def _accumulate(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for vid, coef in pairs:
        acc[vid] = acc.get(vid, 0) + coef
    return tuple((vid, coef) for vid, coef in acc.items() if coef != 0)


class _Namer:
    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def __call__(self, family: str) -> str:
        k = self.counters.get(family, 0)
        self.counters[family] = k + 1
        return f"{family}_{k}"


def build_variables(
    inst: Instance, catalog: BatchCatalog
) -> tuple[tuple[Variable, ...], dict[tuple[str, tuple], int]]:
    """Create all decision variables in canonical order.

    Placements exist for starts t with t + L(b) <= horizon.  Endpoint markers
    exist for staining batches on their initial edge, indexed by the
    completion instant t + L on the fence grid [L, horizon]; they are
    continuous in [0, 1] because the linkage equality makes them integral.
    """
    H = inst.grid.horizon_len
    variables: list[Variable] = []
    index: dict[tuple[str, tuple], int] = {}

    def add(kind: str, key: tuple, binary: bool, lb, ub) -> None:
        vid = len(variables)
        variables.append(Variable(vid, kind, key, binary, lb, ub))
        index[(kind, key)] = vid

    for edge in inst.edges:
        for ref in catalog.refs(edge.id):
            L = catalog.spec_by_id[ref.batch].length
            for t in range(H - L + 1):
                add(PLACEMENT, (edge.id, ref.batch, t), True, 0, 1)

    for edge in inst.edges:
        for ref in catalog.refs(edge.id):
            spec = catalog.spec_by_id[ref.batch]
            if not ref.is_initial or inst.product(spec.product).is_flushing:
                continue
            for t in range(H - spec.length + 1):
                add(ENDPOINT, (edge.id, ref.batch, t + spec.length), False, 0, 1)

    for site in inst.storage_sites():
        for product in inst.products:
            for t in range(H):
                add(OCC_UPPER, (site.id, product.id, t), False, None, None)
    for site in inst.storage_sites():
        for product in inst.products:
            for t in range(H):
                add(OCC_LOWER, (site.id, product.id, t), False, None, None)

    for ti, tgt in enumerate(inst.weights.distribution_targets):
        if tgt.target is not None:
            add(DEVIATION, (tgt.site, tgt.product, ti), False, 0, None)

    return tuple(variables), index


def emit_packing(inst, catalog, index, namer) -> list[LinearConstraint]:
    # at most one batch occupies an edge in any slot; a start at t blocks [t, t+L)
    H = inst.grid.horizon_len
    rows: list[LinearConstraint] = []
    for edge in inst.edges:
        covering: list[list[tuple[int, int]]] = [[] for _ in range(H)]
        for ref in catalog.refs(edge.id):
            L = catalog.spec_by_id[ref.batch].length
            for t0 in range(H - L + 1):
                term = (index[(PLACEMENT, (edge.id, ref.batch, t0))], 1)
                for t in range(t0, t0 + L):
                    covering[t].append(term)
        for t in range(H):
            rows.append(LinearConstraint(namer(FAM_PACKING), FAM_PACKING, tuple(covering[t]), LE, 1))
    return rows


def emit_routes(inst, catalog, index, namer) -> list[LinearConstraint]:
    # a batch advances along its whole path at once: placements on consecutive
    # edges of the regime are pairwise equal at every start
    H = inst.grid.horizon_len
    rows: list[LinearConstraint] = []
    for spec in catalog.specs:
        chain = catalog.chains[spec.id]
        if len(chain) < 2:
            continue
        for e_a, e_b in zip(chain, chain[1:]):
            for t in range(H - spec.length + 1):
                va = index[(PLACEMENT, (e_a, spec.id, t))]
                vb = index[(PLACEMENT, (e_b, spec.id, t))]
                rows.append(LinearConstraint(namer(FAM_ROUTES), FAM_ROUTES, ((va, 1), (vb, -1)), EQ, 0))
    return rows


def emit_flushing(
    inst, catalog, index, namer, options: BuildOptions
) -> tuple[list[LinearConstraint], list[str]]:
    """Stain containment: linkage, cross-stain exclusion and flush enforcement.

    All rows anchor at stain completion instants te = t + L on the initial
    edge.  Exclusion rows only exist where another staining product could
    actually enter (te <= horizon - 1); enforcement rows cover te up to the
    horizon fence, where they degenerate to banning unflushable stains unless
    `relax_terminal_flush` drops rows with no possible follow-up variable.
    """
    H = inst.grid.horizon_len
    link: list[LinearConstraint] = []
    excl: list[LinearConstraint] = []
    enforce: list[LinearConstraint] = []
    warnings: list[str] = []

    stain_refs = []
    for edge in inst.edges:
        for ref in catalog.refs(edge.id):
            spec = catalog.spec_by_id[ref.batch]
            if ref.is_initial and not inst.product(spec.product).is_flushing:
                stain_refs.append((edge.id, spec))

    for eid, spec in stain_refs:
        L = spec.length
        for t in range(H - L + 1):
            v = index[(PLACEMENT, (eid, spec.id, t))]
            w = index[(ENDPOINT, (eid, spec.id, t + L))]
            link.append(LinearConstraint(namer(FAM_FLUSH_LINK), FAM_FLUSH_LINK, ((v, 1), (w, -1)), EQ, 0))

    for eid, spec in stain_refs:
        others = catalog.stain_exclusions.get((eid, spec.product), ())
        if not others:
            continue
        L = spec.length
        for te in range(L, H):
            terms: list[tuple[int, int]] = []
            for other in others:
                v = index.get((PLACEMENT, (eid, other, te)))
                if v is not None:
                    terms.append((v, 1))
            w = index[(ENDPOINT, (eid, spec.id, te))]
            terms.append((w, 1))
            excl.append(LinearConstraint(namer(FAM_FLUSH_EXCL), FAM_FLUSH_EXCL, tuple(terms), LE, 1))

    for eid, spec in stain_refs:
        candidates = catalog.flush_candidates.get((eid, spec.id), ())
        if not candidates:
            warnings.append(
                f"staining batch {spec.id} on edge {eid} has no flushing batch large enough to push it through"
            )
        L = spec.length
        for te in range(L, H + 1):
            terms: list[tuple[int, int]] = [(index[(ENDPOINT, (eid, spec.id, te))], 1)]
            for follow in (spec.id, *candidates):
                v = index.get((PLACEMENT, (eid, follow, te)))
                if v is not None:
                    terms.append((v, -1))
            if len(terms) == 1 and options.relax_terminal_flush:
                continue
            enforce.append(LinearConstraint(namer(FAM_FLUSH_ENFORCE), FAM_FLUSH_ENFORCE, tuple(terms), LE, 0))

    return link + excl + enforce, warnings


def emit_regime_exclusions(inst, catalog, index, namer) -> list[LinearConstraint]:
    # per group and anchor slot t, at most one member batch may start inside
    # the batch's own window [t, t + L(b)]
    H = inst.grid.horizon_len
    rows: list[LinearConstraint] = []
    for group in inst.exclusion_groups:
        members = set(group.members)
        entries: list[tuple[int, dict[int, int]]] = []
        for edge in inst.edges:
            for ref in catalog.refs(edge.id):
                spec = catalog.spec_by_id[ref.batch]
                if not ref.is_initial or spec.regime not in members:
                    continue
                starts = {t: index[(PLACEMENT, (edge.id, spec.id, t))] for t in range(H - spec.length + 1)}
                entries.append((spec.length, starts))
        for t in range(H):
            terms: list[tuple[int, int]] = []
            for L, starts in entries:
                for t0 in range(t, t + L + 1):
                    vid = starts.get(t0)
                    if vid is not None:
                        terms.append((vid, 1))
            rows.append(LinearConstraint(namer(FAM_EXCLUSION), FAM_EXCLUSION, tuple(terms), LE, 1))
    return rows


def emit_outages(
    inst, catalog, index, namer, fixings: dict[int, int]
) -> tuple[list[LinearConstraint], dict[tuple[str, str, int], int]]:
    """Forbidden starts become v = 0 rows; tank outages reduce upper bounds."""
    rows: list[LinearConstraint] = []
    reductions: dict[tuple[str, str, int], int] = {}
    fixed_rows: set[int] = set()
    for outage in inst.outages:
        if isinstance(outage, TankOutage):
            for t in outage.times:
                key = (outage.site, outage.product, t)
                reductions[key] = reductions.get(key, 0) + outage.reduction
            continue
        for eid, bid in outage.batches:
            if not any(r.batch == bid for r in catalog.refs(eid)):
                raise ModelBuildError(f"transport outage references unknown batch coordinate ({eid!r}, {bid!r})")
            for t in outage.times:
                vid = index.get((PLACEMENT, (eid, bid, t)))
                if vid is None:
                    continue  # no start possible there anyway
                if fixings.get(vid, 0) == 1:
                    raise ModelBuildError(f"contradictory fixings for placement ({eid!r}, {bid!r}, {t})")
                fixings[vid] = 0
                if vid not in fixed_rows:
                    fixed_rows.add(vid)
                    rows.append(LinearConstraint(namer(FAM_OUTAGE), FAM_OUTAGE, ((vid, 1),), EQ, 0))
    return rows, reductions


def capacity_event_lists(inst: Instance, catalog: BatchCatalog):
    """(site, product) -> inbound/outbound (edge, spec) pairs affecting stock."""
    inbound: dict[tuple[str, str], list[tuple[str, BatchSpec]]] = {}
    outbound: dict[tuple[str, str], list[tuple[str, BatchSpec]]] = {}
    for edge in inst.edges:
        for ref in catalog.refs(edge.id):
            spec = catalog.spec_by_id[ref.batch]
            if ref.is_final and inst.site(edge.destination).is_storage:
                inbound.setdefault((edge.destination, spec.product), []).append((edge.id, spec))
            if ref.is_initial and inst.site(edge.origin).is_storage:
                outbound.setdefault((edge.origin, spec.product), []).append((edge.id, spec))
    return inbound, outbound


def effective_capacity_max(
    profile_max: Sequence[Optional[int]], reductions: Mapping[tuple[str, str, int], int], site: str, product: str, t: int
) -> Optional[int]:
    cap = profile_max[t]
    if cap is None:
        return None
    return cap - reductions.get((site, product, t), 0)


def emit_capacity(
    inst, catalog, index, namer, reductions, options: BuildOptions
) -> tuple[list[LinearConstraint], list[LinearConstraint], dict[tuple[str, str, str, int], int]]:
    """Occupancy recurrences plus bound rows.

    Blocked stock counts an inbound batch from its start and releases an
    outbound batch at its completion; on-stock counts inbound at completion
    and outbound from the start.  Both are emitted as slot-to-slot
    recurrences anchored at t = 0, which keeps the row sparsity linear while
    defining exactly the cumulative sums.
    """
    H = inst.grid.horizon_len
    inbound, outbound = capacity_event_lists(inst, catalog)
    defs: list[LinearConstraint] = []
    bounds: list[LinearConstraint] = []
    lazy_keys: list[tuple[tuple[str, str, str, int], int]] = []

    for site in inst.storage_sites():
        for product in inst.products:
            key = (site.id, product.id)
            base = site.profile(product.id).base_profile(H)
            ins = inbound.get(key, ())
            outs = outbound.get(key, ())
            for t in range(H):
                u_t = index[(OCC_UPPER, (site.id, product.id, t))]
                terms: list[tuple[int, int]] = [(u_t, 1)]
                rhs = base[t]
                if t >= 1:
                    terms.append((index[(OCC_UPPER, (site.id, product.id, t - 1))], -1))
                    rhs -= base[t - 1]
                for eid, spec in ins:
                    vid = index.get((PLACEMENT, (eid, spec.id, t)))
                    if vid is not None:
                        terms.append((vid, -spec.volume))
                for eid, spec in outs:
                    vid = index.get((PLACEMENT, (eid, spec.id, t - spec.length)))
                    if vid is not None and t - spec.length >= 0:
                        terms.append((vid, spec.volume))
                defs.append(
                    LinearConstraint(namer(FAM_CAP_DEF_UPPER), FAM_CAP_DEF_UPPER, _accumulate(terms), EQ, rhs)
                )
            for t in range(H):
                l_t = index[(OCC_LOWER, (site.id, product.id, t))]
                terms = [(l_t, 1)]
                rhs = base[t]
                if t >= 1:
                    terms.append((index[(OCC_LOWER, (site.id, product.id, t - 1))], -1))
                    rhs -= base[t - 1]
                for eid, spec in ins:
                    vid = index.get((PLACEMENT, (eid, spec.id, t - spec.length)))
                    if vid is not None and t - spec.length >= 0:
                        terms.append((vid, -spec.volume))
                for eid, spec in outs:
                    vid = index.get((PLACEMENT, (eid, spec.id, t)))
                    if vid is not None:
                        terms.append((vid, spec.volume))
                defs.append(
                    LinearConstraint(namer(FAM_CAP_DEF_LOWER), FAM_CAP_DEF_LOWER, _accumulate(terms), EQ, rhs)
                )

    for site in inst.storage_sites():
        for product in inst.products:
            prof = site.profile(product.id)
            maxp = prof.max_profile(H)
            minp = prof.min_profile(H)
            for t in range(H):
                cap = effective_capacity_max(maxp, reductions, site.id, product.id, t)
                if cap is None:
                    continue
                u_t = index[(OCC_UPPER, (site.id, product.id, t))]
                lazy_keys.append(((FAM_CAP_UPPER, site.id, product.id, t), len(bounds)))
                bounds.append(
                    LinearConstraint(
                        namer(FAM_CAP_UPPER),
                        FAM_CAP_UPPER,
                        ((u_t, 1),),
                        LE,
                        cap,
                        lazy=options.capacity_lazy,
                    )
                )
            for t in range(H):
                l_t = index[(OCC_LOWER, (site.id, product.id, t))]
                lazy_keys.append(((FAM_CAP_LOWER, site.id, product.id, t), len(bounds)))
                bounds.append(
                    LinearConstraint(
                        namer(FAM_CAP_LOWER),
                        FAM_CAP_LOWER,
                        ((l_t, 1),),
                        GE,
                        minp[t],
                        lazy=options.capacity_lazy,
                    )
                )

    lazy_map = {key: offset for key, offset in lazy_keys}
    return defs, bounds, lazy_map


def emit_throughput_limits(inst, catalog, index, namer, options: BuildOptions) -> list[LinearConstraint]:
    # volume started inside the window is bounded; a batch counts once at its
    # initial edge unless per-edge counting is requested
    rows: list[LinearConstraint] = []
    for lim in inst.throughput_limits:
        terms: list[tuple[int, int]] = []
        for eid in lim.edges:
            for ref in catalog.refs(eid):
                spec = catalog.spec_by_id[ref.batch]
                if spec.product != lim.product:
                    continue
                if not options.throughput_per_edge and not ref.is_initial:
                    continue
                for t in lim.times:
                    vid = index.get((PLACEMENT, (eid, spec.id, t)))
                    if vid is not None:
                        terms.append((vid, spec.volume))
        rows.append(LinearConstraint(namer(FAM_THROUGHPUT), FAM_THROUGHPUT, _accumulate(terms), LE, lim.limit))
    return rows


def emit_nominations(inst, catalog, index, namer) -> list[LinearConstraint]:
    # total extracted volume per refinery and product may not exceed the nomination
    H = inst.grid.horizon_len
    rows: list[LinearConstraint] = []
    for nom in inst.nominations:
        for pid, volume_cap in nom.limits.items():
            terms: list[tuple[int, int]] = []
            for edge in inst.edges:
                if edge.origin != nom.refinery:
                    continue
                for ref in catalog.refs(edge.id):
                    spec = catalog.spec_by_id[ref.batch]
                    if not ref.is_initial or spec.product != pid:
                        continue
                    for t in range(H - spec.length + 1):
                        terms.append((index[(PLACEMENT, (edge.id, spec.id, t))], spec.volume))
            rows.append(LinearConstraint(namer(FAM_NOMINATION), FAM_NOMINATION, tuple(terms), LE, volume_cap))
    return rows


def emit_fixed_transport(inst, catalog, index, namer, fixings: dict[int, int]) -> list[LinearConstraint]:
    rows: list[LinearConstraint] = []
    forced: list[int] = []
    for fx in inst.fixed_transports:
        bid = batch_id(fx.regime, fx.product, STANDARD)
        if bid not in catalog.spec_by_id:
            raise ModelBuildError(f"fixed transport references unknown batch {bid!r}")
        e0 = catalog.initial_edge(bid)
        vid = index.get((PLACEMENT, (e0, bid, fx.start)))
        if vid is None:
            raise ModelBuildError(f"fixed transport {bid!r} at {fx.start} does not fit the horizon")
        forced.append(vid)
    for eid, bid, t in inst.weights.executed:
        vid = index.get((PLACEMENT, (eid, bid, t)))
        if vid is None:
            raise ModelBuildError(f"executed placement ({eid!r}, {bid!r}, {t}) has no variable")
        forced.append(vid)
    emitted: set[int] = set()
    for vid in forced:
        if fixings.get(vid, 1) == 0:
            var = None
            for (kind, key), idx in index.items():
                if idx == vid:
                    var = key
                    break
            raise ModelBuildError(f"contradictory fixings for placement {var}")
        fixings[vid] = 1
        if vid not in emitted:
            emitted.add(vid)
            rows.append(LinearConstraint(namer(FAM_FIXED), FAM_FIXED, ((vid, 1),), EQ, 1))
    return rows


def emit_objective(
    inst, catalog, index, namer
) -> tuple[dict[int, Fraction], Fraction, list[LinearConstraint]]:
    """Objective terms (maximize) plus deviation linearization rows.

    Components: alpha * nominated extraction volume (reward-weighted),
    beta * final-stock shaping, gamma * agreement with the previous plan
    (each missed previous placement costs gamma), theta * pumping costs.
    """
    H = inst.grid.horizon_len
    w = inst.weights
    obj: dict[int, Fraction] = {}
    constant = Fraction(0)
    rows: list[LinearConstraint] = []

    def add(vid: int, coef: Fraction) -> None:
        obj[vid] = obj[vid] + coef if vid in obj else coef

    if w.alpha != 0:
        for nom in inst.nominations:
            for pid in nom.limits:
                coef_unit = w.alpha * w.eta_for(pid)
                for edge in inst.edges:
                    if edge.origin != nom.refinery:
                        continue
                    for ref in catalog.refs(edge.id):
                        spec = catalog.spec_by_id[ref.batch]
                        if not ref.is_initial or spec.product != pid:
                            continue
                        coef = coef_unit * spec.volume
                        for t in range(H - spec.length + 1):
                            add(index[(PLACEMENT, (edge.id, spec.id, t))], coef)

    if w.beta != 0:
        t_final = inst.grid.t_max
        for ti, tgt in enumerate(w.distribution_targets):
            l_vid = index.get((OCC_LOWER, (tgt.site, tgt.product, t_final)))
            if l_vid is None:
                raise ModelBuildError(f"distribution target on non-storage site {tgt.site!r}")
            if tgt.target is None:
                add(l_vid, w.beta * tgt.weight)
                continue
            d_vid = index[(DEVIATION, (tgt.site, tgt.product, ti))]
            # d >= |final on-stock - target| via two one-sided rows
            rows.append(
                LinearConstraint(
                    namer(FAM_DISTRIBUTION),
                    FAM_DISTRIBUTION,
                    ((d_vid, 1), (l_vid, -1)),
                    GE,
                    -tgt.target,
                )
            )
            rows.append(
                LinearConstraint(
                    namer(FAM_DISTRIBUTION),
                    FAM_DISTRIBUTION,
                    ((d_vid, 1), (l_vid, 1)),
                    GE,
                    tgt.target,
                )
            )
            add(d_vid, -w.beta * tgt.weight)

    if w.gamma != 0:
        for eid, bid, t in w.previous_plan:
            vid = index.get((PLACEMENT, (eid, bid, t)))
            constant -= w.gamma  # each previous placement is a missed one until kept
            if vid is not None:
                add(vid, w.gamma)

    if w.theta != 0:
        for edge in inst.edges:
            for ref in catalog.refs(edge.id):
                if not ref.is_initial:
                    continue
                spec = catalog.spec_by_id[ref.batch]
                cost = batch_cost(inst, spec)
                if cost == 0:
                    continue
                coef = -w.theta * cost
                for t in range(H - spec.length + 1):
                    add(index[(PLACEMENT, (edge.id, spec.id, t))], coef)

    return obj, constant, rows


def build_model(inst: Instance, options: BuildOptions = BuildOptions()) -> MILPModel:
    issues = validate_instance(inst)
    if issues:
        raise ModelBuildError("invalid instance: " + "; ".join(str(i) for i in issues))

    catalog = enumerate_batches(inst)
    variables, index = build_variables(inst, catalog)
    namer = _Namer()
    fixings: dict[int, int] = {}

    outage_rows, reductions = emit_outages(inst, catalog, index, namer, fixings)
    packing = emit_packing(inst, catalog, index, namer)
    routes = emit_routes(inst, catalog, index, namer)
    flushing, warnings = emit_flushing(inst, catalog, index, namer, options)
    exclusion = emit_regime_exclusions(inst, catalog, index, namer)
    cap_defs, cap_bounds, lazy_offsets = emit_capacity(inst, catalog, index, namer, reductions, options)
    throughput = emit_throughput_limits(inst, catalog, index, namer, options)
    nomination = emit_nominations(inst, catalog, index, namer)
    fixed = emit_fixed_transport(inst, catalog, index, namer, fixings)
    obj, constant, distribution = emit_objective(inst, catalog, index, namer)

    constraints: list[LinearConstraint] = []
    constraints.extend(packing)
    constraints.extend(routes)
    constraints.extend(flushing)
    constraints.extend(exclusion)
    constraints.extend(cap_defs)
    bounds_start = len(constraints)
    constraints.extend(cap_bounds)
    lazy_bounds = {key: bounds_start + off for key, off in lazy_offsets.items()}
    constraints.extend(outage_rows)
    constraints.extend(throughput)
    constraints.extend(nomination)
    constraints.extend(fixed)
    constraints.extend(distribution)

    model = MILPModel(
        variables=variables,
        constraints=tuple(constraints),
        objective=tuple(sorted(obj.items())),
        objective_constant=constant,
        var_index=index,
        lazy_bounds=lazy_bounds,
        instance=inst,
        catalog=catalog,
        options=options,
    )

    n_binary = sum(1 for v in variables if v.binary)
    var_counts: dict[str, int] = {}
    for v in variables:
        var_counts[v.kind] = var_counts.get(v.kind, 0) + 1
    # worst-case stock counting error per site: the in-transit volume of the
    # largest regime touching it (blocked/on-stock bracket the true level by it)
    error_bounds = {}
    for site in inst.storage_sites():
        touching = [
            sum(inst.edge(e).pipe_volume for e in r.edges)
            for r in inst.regimes
            if inst.regime_origin(r) == site.id or inst.regime_destination(r) == site.id
        ]
        error_bounds[site.id] = max(touching, default=0)
    model.metadata = {
        "instance": inst.name,
        "instance_hash": instance_hash(inst),
        "horizon": inst.grid.horizon_len,
        "variables": var_counts,
        "binaries": n_binary,
        "constraints": model.family_counts(),
        "lazy_rows": sum(1 for c in constraints if c.lazy),
        "options": {
            "capacity_lazy": options.capacity_lazy,
            "relax_terminal_flush": options.relax_terminal_flush,
            "throughput_per_edge": options.throughput_per_edge,
        },
        "warnings": warnings,
        "stock_counting_error_bound": error_bounds,
    }
    return model


# ---------------------------------------------------------------------------
# assignment helpers (used by tests and the lazy loop for diagnostics)


def extend_placement_assignment(model: MILPModel, placements: Iterable[tuple[str, str, int]]) -> dict[int, int]:
    """Complete a raw placement set to values for every model variable.

    Endpoints follow the linkage, occupancy follows the recurrences and
    deviations take their minimal feasible value, so the extension satisfies
    every non-placement-family row that can be satisfied at all.
    """
    inst, catalog = model.instance, model.catalog
    H = inst.grid.horizon_len
    chosen = {(str(e), str(b), int(t)) for e, b, t in placements}
    values: dict[int, int] = {}
    for var in model.variables:
        if var.kind == PLACEMENT:
            values[var.vid] = 1 if var.key in chosen else 0
    for var in model.variables:
        if var.kind == ENDPOINT:
            eid, bid, te = var.key
            L = catalog.spec_by_id[bid].length
            values[var.vid] = values[model.var_index[(PLACEMENT, (eid, bid, te - L))]]

    inbound, outbound = capacity_event_lists(inst, catalog)
    for site in inst.storage_sites():
        for product in inst.products:
            base = site.profile(product.id).base_profile(H)
            upper = list(base)
            lower = list(base)
            for eid, spec in inbound.get((site.id, product.id), ()):
                for t in range(H - spec.length + 1):
                    if (eid, spec.id, t) in chosen:
                        for u in range(t, H):
                            upper[u] += spec.volume
                        for u in range(t + spec.length, H):
                            lower[u] += spec.volume
            for eid, spec in outbound.get((site.id, product.id), ()):
                for t in range(H - spec.length + 1):
                    if (eid, spec.id, t) in chosen:
                        for u in range(t + spec.length, H):
                            upper[u] -= spec.volume
                        for u in range(t, H):
                            lower[u] -= spec.volume
            for t in range(H):
                values[model.var_index[(OCC_UPPER, (site.id, product.id, t))]] = upper[t]
                values[model.var_index[(OCC_LOWER, (site.id, product.id, t))]] = lower[t]

    t_final = inst.grid.t_max
    for ti, tgt in enumerate(inst.weights.distribution_targets):
        if tgt.target is None:
            continue
        d_vid = model.var_index.get((DEVIATION, (tgt.site, tgt.product, ti)))
        if d_vid is None:
            continue
        l_val = values[model.var_index[(OCC_LOWER, (tgt.site, tgt.product, t_final))]]
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
