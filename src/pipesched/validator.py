"""Independent schedule checking and scoring.

This module re-derives every feasibility rule and the objective directly
from the instance and the batch catalog, deliberately not sharing any logic
with the MILP emitters, and imports nothing from the builder, the LP writer
or the solver.  Agreement between a solver solution and this module is
therefore meaningful evidence that the model encodes the intended rules.
Its functions take an instance that `validate_instance` accepts.

The stock rule has its home here: `stock_events` says when and by how much
one placement moves a tank, and `simulate_occupancy` turns the events of a
schedule into per-slot stock by a prefix sum.  The model's assignment
helper reads stock through `simulate_occupancy`; the oracle prunes with
`check_schedule`'s verdicts and reads from `stock_events` only which tanks
some placement can drain or fill.  Tank capacity comes from
`Instance.capacity_max_profile`, the profile the builder reads.

Violation families: packing, routes, flushing, exclusion, capacity_upper,
capacity_lower, outage, throughput, nomination, fixed.  The rules have no
switches: a stain completion with no immediate follow-up is a violation even
where no follow-up fits inside the horizon, and a throughput window counts a
batch once, on its dispatch edge, at a start the window lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add
from typing import NamedTuple

from .batches import BatchCatalog, BatchSpec, batch_cost, batch_id, csv_text, STANDARD
from .instance import Instance, TransportOutage
from .schedule import Schedule


@dataclass(frozen=True)
class Violation:
    family: str
    coordinate: tuple
    measured: object
    bound: object
    message: str


@dataclass
class OccupancySeries:
    """Per (site, product) stock trajectories, exact integers per slot."""

    upper: dict[tuple[str, str], list[int]]  # blocked: inbound from start, outbound at completion
    lower: dict[tuple[str, str], list[int]]  # on-stock: inbound at completion, outbound from start

    def to_csv(self) -> str:
        rows = [("site", "product", "t", "lower", "upper")]
        for key in sorted(self.upper):
            rows.extend((*key, t, lo, up) for t, (lo, up) in enumerate(zip(self.lower[key], self.upper[key])))
        return csv_text(rows)


def _check_placements(inst: Instance, catalog: BatchCatalog, schedule: Schedule) -> None:
    H = inst.grid.horizon_len
    for e, b, t in schedule.placements:
        spec = catalog.spec_by_id.get(b)
        if spec is None:
            raise ValueError(f"placement references unknown batch {b!r}")
        if e not in catalog.chains[b]:
            raise ValueError(f"batch {b!r} does not travel edge {e!r}")
        if t < 0 or t + spec.length > H:
            raise ValueError(f"placement ({e!r}, {b!r}, {t}) does not fit the horizon")


class StockEvent(NamedTuple):
    """One placement's move of one tank: `volume` (inbound positive) counts in
    blocked stock from slot `blocked_from` and on stock from `on_stock_from`."""

    key: tuple[str, str]  # (site, product)
    blocked_from: int
    on_stock_from: int
    volume: int


def stock_events(inst: Instance, catalog: BatchCatalog, edge_id: str, batch: str, start: int) -> list[StockEvent]:
    """The stock rule for one placement.

    On the last edge of its chain a batch fills the destination tank: it
    counts in blocked stock from its start and on stock from its arrival.
    On the first edge it drains the origin tank, the reverse: on stock from
    its start, blocked stock from its arrival.  Only storage sites hold stock.
    """
    spec = catalog.spec_by_id[batch]
    chain = catalog.chains[batch]
    edge = inst.edge(edge_id)
    arrival = start + spec.length
    events = []
    if edge_id == chain[-1] and inst.site(edge.destination).is_storage:
        events.append(StockEvent((edge.destination, spec.product), start, arrival, spec.volume))
    if edge_id == chain[0] and inst.site(edge.origin).is_storage:
        events.append(StockEvent((edge.origin, spec.product), arrival, start, -spec.volume))
    return events


def simulate_occupancy(inst: Instance, catalog: BatchCatalog, schedule: Schedule) -> OccupancySeries:
    """Stock trajectories for every storage site and product.

    Each trajectory is the exogenous base profile plus the prefix sum of a
    difference array holding the schedule's stock events.
    """
    _check_placements(inst, catalog, schedule)
    H = inst.grid.horizon_len
    keys = [(site.id, product.id) for site in inst.storage_sites() for product in inst.products]
    # one spare slot: an arrival at the horizon fence changes no slot
    blocked = {key: [0] * (H + 1) for key in keys}
    on_stock = {key: [0] * (H + 1) for key in keys}
    for e, b, t in schedule.placements:
        for event in stock_events(inst, catalog, e, b, t):
            blocked[event.key][event.blocked_from] += event.volume
            on_stock[event.key][event.on_stock_from] += event.volume
    upper: dict[tuple[str, str], list[int]] = {}
    lower: dict[tuple[str, str], list[int]] = {}
    for key in keys:
        base = inst.site(key[0]).profile(key[1]).base_profile(H)
        upper[key] = list(map(add, base, accumulate(blocked[key])))
        lower[key] = list(map(add, base, accumulate(on_stock[key])))
    return OccupancySeries(upper=upper, lower=lower)


def capacity_bound_violations(inst: Instance, occupancy: OccupancySeries) -> list[Violation]:
    out: list[Violation] = []
    H = inst.grid.horizon_len
    for site in inst.storage_sites():
        for product in inst.products:
            key = (site.id, product.id)
            caps = inst.capacity_max_profile(site.id, product.id)
            minp = site.profile(product.id).min_profile(H)
            up = occupancy.upper[key]
            lo = occupancy.lower[key]
            for t in range(H):
                cap = caps[t]
                if cap is not None and up[t] > cap:
                    out.append(
                        Violation(
                            "capacity_upper",
                            (site.id, product.id, t),
                            up[t],
                            cap,
                            f"blocked stock {up[t]} exceeds capacity {cap} at {site.id}/{product.id} slot {t}",
                        )
                    )
                if lo[t] < minp[t]:
                    out.append(
                        Violation(
                            "capacity_lower",
                            (site.id, product.id, t),
                            lo[t],
                            minp[t],
                            f"on-stock level {lo[t]} below minimum {minp[t]} at {site.id}/{product.id} slot {t}",
                        )
                    )
    return out


def nomination_shortfalls(inst: Instance, catalog: BatchCatalog) -> list[str]:
    """Warnings for the products whose nominations cannot lift every storage site to its minimum.

    A screen, not a rule: it decides nothing and never raises a false alarm.  Site s falls `short`
    at most below its minimum on the empty schedule; if no batch reaches s, that alone is a finding.
    If nothing leaves s, its inbound volume covers `short` in multiples of g, the gcd of the volumes
    delivered there.  If something does, inbound less outbound covers the last slot's gap, which is
    negative where s has stock to send on.  Transfers between sites cancel in the sum, so refineries
    dispatch at least the sum of these needs.  A product some refinery dispatches unnominated is skipped.
    """
    H = inst.grid.horizon_len
    limits = {(nom.refinery, pid): cap for nom in inst.nominations for pid, cap in nom.limits.items()}
    origins = {(inst.edge(e).origin, spec.product) for e, spec in catalog.dispatches()}
    inbound: dict[tuple[str, str], list[int]] = {}  # (site, product) -> the volumes delivered there
    for e, spec in catalog.deliveries():
        inbound.setdefault((inst.edge(e).destination, spec.product), []).append(spec.volume)
    warnings = []
    for pid in (p.id for p in inst.products):
        needs = []
        for site in inst.storage_sites():
            prof = site.profile(pid)
            gaps = [lo - on for lo, on in zip(prof.min_profile(H), prof.base_profile(H))]
            short, g, sends = max(0, *gaps), gcd(*inbound.get((site.id, pid), ())), (site.id, pid) in origins
            if short and not g:
                warnings.append(f"{pid}: {site.id} is {short} short and no batch reaches it; the instance cannot be feasible")
            elif short or sends:
                needs.append((site.id, short, gaps[-1] if sends else -(-short // g) * g))
        refineries = [r for r, p in origins if p == pid and not inst.site(r).is_storage]
        need, supply = sum(n for *_, n in needs), sum(limits.get((r, pid), 0) for r in refineries)
        if need > supply and all((r, pid) in limits for r in refineries):
            detail = ", ".join(f"{s}: short {short} -> {n}" for s, short, n in needs if n)
            warnings.append(f"{pid}: storage sites need at least {need} units but the nominations allow {supply} "
                            f"({detail}); the instance cannot be feasible")
    return warnings


def _dispatches(catalog: BatchCatalog, placements: frozenset) -> list[tuple[str, BatchSpec, int]]:
    """(edge, spec, start) of every placement on the first edge of its batch's path, where the
    batch is dispatched and counts once; in (edge, batch, start) order."""
    return [(e, catalog.spec_by_id[b], t) for e, b, t in sorted(placements) if catalog.chains[b][0] == e]


def _extracted(inst: Instance, dispatches: list[tuple[str, BatchSpec, int]]) -> dict[tuple[str, str], int]:
    """Volume dispatched per nominated (refinery, product)."""
    out = {(nom.refinery, pid): 0 for nom in inst.nominations for pid in nom.limits}
    for e, spec, _t in dispatches:
        key = (inst.edge(e).origin, spec.product)
        if key in out:
            out[key] += spec.volume
    return out


def check_schedule(
    inst: Instance,
    catalog: BatchCatalog,
    schedule: Schedule,
    options=None,  # ignored: the rules have no switches; kept while callers still pass build options
) -> list[Violation]:
    """All rule families on the raw placement set; empty list = feasible."""
    _check_placements(inst, catalog, schedule)
    H = inst.grid.horizon_len
    placements = schedule.placements
    dispatches = _dispatches(catalog, placements)
    out: list[Violation] = []

    # packing: one batch per edge and slot
    for edge in inst.edges:
        load = [0] * H
        for e, b, t in placements:
            if e != edge.id:
                continue
            for u in range(t, t + catalog.spec_by_id[b].length):
                load[u] += 1
        for t in range(H):
            if load[t] > 1:
                out.append(
                    Violation("packing", (edge.id, t), load[t], 1, f"edge {edge.id} holds {load[t]} batches at slot {t}")
                )

    # routes: all-or-none along each batch's chain
    by_batch_start: dict[tuple[str, int], set[str]] = {}
    for e, b, t in placements:
        by_batch_start.setdefault((b, t), set()).add(e)
    for (b, t), edges_present in sorted(by_batch_start.items()):
        chain = set(catalog.chains[b])
        if edges_present != chain:
            out.append(
                Violation(
                    "routes",
                    (b, t),
                    sorted(edges_present),
                    sorted(chain),
                    f"batch {b} at {t} travels {sorted(edges_present)} instead of its full path",
                )
            )

    # flushing: stain completions must be followed up and exclude other stains
    for e, spec, t in dispatches:
        if inst.product(spec.product).is_flushing:
            continue
        b, te = spec.id, t + spec.length
        allowed = (b, *catalog.flush_candidates[b])
        followed = any((e, c, te) in placements for c in allowed)
        if not followed:
            out.append(
                Violation(
                    "flushing",
                    (e, b, te),
                    "unflushed",
                    "follow-up",
                    f"stain {b} completing at {te} on {e} has no immediate follow-up",
                )
            )
        for other in catalog.stain_exclusions.get((e, spec.product), ()):
            if (e, other, te) in placements:
                out.append(
                    Violation(
                        "flushing",
                        (e, b, te, other),
                        other,
                        "no other stain",
                        f"stain {other} enters {e} at {te} while {b} sits unflushed",
                    )
                )

    # exclusion groups: no two member starts within each other's windows
    for gi, group in enumerate(inst.exclusion_groups):
        members = set(group.members)
        starts = [(t, spec.length) for _e, spec, t in dispatches if spec.regime in members]
        for anchor in range(H):
            count = sum(1 for t, L in starts if anchor <= t <= anchor + L)
            if count > 1:
                out.append(
                    Violation(
                        "exclusion",
                        (gi, anchor),
                        count,
                        1,
                        f"exclusion group {gi} has {count} member starts in window at {anchor}",
                    )
                )

    out.extend(capacity_bound_violations(inst, simulate_occupancy(inst, catalog, schedule)))

    # transport outages: forbidden starts
    for oi, outage in enumerate(inst.outages):
        if not isinstance(outage, TransportOutage):
            continue
        for e, b in outage.batches:
            for t in outage.times:
                if (e, b, t) in placements:
                    out.append(
                        Violation("outage", (oi, e, b, t), 1, 0, f"placement ({e}, {b}, {t}) hits a transport outage")
                    )

    # throughput: volume started inside the window
    for li, lim in enumerate(inst.throughput_limits):
        window = set(lim.times)
        total = sum(
            spec.volume for e, spec, t in dispatches if e in lim.edges and t in window and spec.product == lim.product
        )
        if total > lim.limit:
            out.append(
                Violation("throughput", (li,), total, lim.limit, f"throughput window {li} moves {total} > {lim.limit}")
            )

    # nominations: extracted volume per refinery and product
    extracted = _extracted(inst, dispatches)
    for nom in inst.nominations:
        for pid, cap in nom.limits.items():
            volume = extracted[(nom.refinery, pid)]
            if volume > cap:
                out.append(
                    Violation(
                        "nomination",
                        (nom.refinery, pid),
                        volume,
                        cap,
                        f"extraction of {pid} from {nom.refinery} is {volume} > {cap}",
                    )
                )

    # fixed transports and already-executed placements must be present
    for fx in inst.fixed_transports:
        bid = batch_id(fx.regime, fx.product, STANDARD)
        if (catalog.initial_edge(bid), bid, fx.start) not in placements:
            out.append(
                Violation(
                    "fixed",
                    (fx.regime, fx.product, fx.start),
                    "missing",
                    "present",
                    f"fixed transport {bid} at {fx.start} is not scheduled",
                )
            )
    for coord in inst.weights.executed:
        if coord not in placements:
            out.append(
                Violation("fixed", coord, "missing", "present", f"executed placement {coord} is not kept")
            )

    return out


def evaluate_objective(inst: Instance, catalog: BatchCatalog, schedule: Schedule) -> dict:
    """Exact objective components and weighted total for a schedule.

    Components are unweighted: extraction (reward-weighted nominated volume),
    distribution (final-stock shaping), plan_change (minus the number of
    dropped previous placements) and pumping_cost (minus total batch costs).
    """
    w = inst.weights
    placements = schedule.placements
    dispatches = _dispatches(catalog, placements)

    extraction = sum(
        (w.eta_for(pid) * volume for (_refinery, pid), volume in _extracted(inst, dispatches).items()), Fraction(0)
    )

    distribution = Fraction(0)
    if w.distribution_targets:
        occ = simulate_occupancy(inst, catalog, schedule)
        t_final = inst.grid.t_max
        for tgt in w.distribution_targets:
            final_level = occ.lower[(tgt.site, tgt.product)][t_final]
            if tgt.target is None:
                distribution += tgt.weight * final_level
            else:
                distribution -= tgt.weight * abs(Fraction(final_level) - tgt.target)

    plan_change = Fraction(-sum(1 for coord in w.previous_plan if coord not in placements))

    pumping_cost = -sum((batch_cost(inst, spec) for _e, spec, _t in dispatches), Fraction(0))

    total = w.alpha * extraction + w.beta * distribution + w.gamma * plan_change + w.theta * pumping_cost
    return {
        "extraction": extraction,
        "distribution": distribution,
        "plan_change": plan_change,
        "pumping_cost": pumping_cost,
        "total": total,
    }
