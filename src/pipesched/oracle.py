"""Exhaustive reference optimizer for tiny instances.

Enumerates every subset of initial-edge placements in canonical (edge,
batch, start) order with monotone feasibility pruning, checks each complete
assignment with the independent validator and keeps the exactly-best
objective.  On ties the lexicographically smallest placement set wins, so
results are deterministic.  This is the ground truth the MILP path is tested
against; it must never be fast at the expense of being right, so every prune
only cuts branches whose violations cannot be repaired by further additions.
The prunes follow the validator's fixed rules: a stain with no in-horizon
follow-up start is never included, and a throughput window counts a
candidate's volume only when it lists the candidate's dispatch edge.

The running stock levels behind the capacity prunes apply the validator's
`stock_events` rule incrementally and compare against the instance's
`capacity_max_profile`; like the validator, this module imports nothing
from the builder, the LP writer or the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .batches import BatchCatalog, enumerate_batches, batch_id, STANDARD
from .instance import Instance, TransportOutage, validate_instance
from .schedule import Schedule
from .validator import check_schedule, evaluate_objective, simulate_occupancy, stock_events

ORACLE_STATUS_OPTIMAL = "optimal"
ORACLE_STATUS_INFEASIBLE = "infeasible"
ORACLE_STATUS_BUDGET = "budget_exceeded"

MAX_EDGES, MAX_HORIZON, MAX_CANDIDATES = 2, 24, 200  # beyond these `brute_force_optimum` raises ValueError


@dataclass(frozen=True)
class OracleLimits:
    node_budget: int = 200_000


@dataclass
class OracleResult:
    status: str
    objective: Optional[Fraction]
    schedule: Optional[Schedule]
    components: Optional[dict]
    nodes: int
    leaves: int


class _BudgetExceeded(Exception):
    pass


@dataclass
class _Candidate:
    index: int
    edge: str
    batch: str
    start: int
    volume: int
    length: int
    product: str
    regime: str
    staining: bool
    chain: tuple[str, ...]
    forced: bool = False


def _candidates(inst: Instance, catalog: BatchCatalog) -> list[_Candidate]:
    H = inst.grid.horizon_len
    out: list[_Candidate] = []
    for eid, spec in catalog.dispatches():
        for t in range(H - spec.length + 1):
            out.append(
                _Candidate(
                    index=len(out),
                    edge=eid,
                    batch=spec.id,
                    start=t,
                    volume=spec.volume,
                    length=spec.length,
                    product=spec.product,
                    regime=spec.regime,
                    staining=not inst.product(spec.product).is_flushing,
                    chain=catalog.chains[spec.id],
                )
            )
    return out


def brute_force_optimum(inst: Instance, limits: OracleLimits = OracleLimits()) -> OracleResult:
    issues = validate_instance(inst)
    if issues:
        raise ValueError("invalid instance: " + "; ".join(str(i) for i in issues))
    if len(inst.edges) > MAX_EDGES:
        raise ValueError(f"instance has {len(inst.edges)} edges, oracle limit is {MAX_EDGES}")
    H = inst.grid.horizon_len
    if H > MAX_HORIZON:
        raise ValueError(f"horizon {H} exceeds oracle limit {MAX_HORIZON}")

    catalog = enumerate_batches(inst)
    cands = _candidates(inst, catalog)
    if len(cands) > MAX_CANDIDATES:
        raise ValueError(f"{len(cands)} candidate placements exceed oracle limit {MAX_CANDIDATES}")

    # transport outages remove candidates outright; forced placements must stay
    forbidden: set[tuple[str, str, int]] = set()
    for outage in inst.outages:
        if isinstance(outage, TransportOutage):
            for e, b in outage.batches:
                for t in outage.times:
                    forbidden.add((e, b, t))
    forced_coords: set[tuple[str, str, int]] = set()
    for fx in inst.fixed_transports:
        bid = batch_id(fx.regime, fx.product, STANDARD)
        if bid in catalog.spec_by_id:
            forced_coords.add((catalog.initial_edge(bid), bid, fx.start))
    forced_coords.update(inst.weights.executed)

    kept: list[_Candidate] = []
    for c in cands:
        if any((eid, c.batch, c.start) in forbidden for eid in c.chain):
            if (c.edge, c.batch, c.start) in forced_coords:
                # a forced transport that is also forbidden: nothing can be feasible
                return OracleResult(ORACLE_STATUS_INFEASIBLE, None, None, None, 0, 0)
            continue
        c.forced = (c.edge, c.batch, c.start) in forced_coords
        kept.append(c)
    if any(coord not in {(c.edge, c.batch, c.start) for c in kept} for coord in forced_coords):
        return OracleResult(ORACLE_STATUS_INFEASIBLE, None, None, None, 0, 0)
    cands = kept
    for i, c in enumerate(cands):
        c.index = i
    n = len(cands)

    # pairwise regime-exclusion conflicts: two member starts share an anchor
    # window iff max(0, t1-L1, t2-L2) <= min(t1, t2)
    group_of: dict[str, list[int]] = {}
    for gi, group in enumerate(inst.exclusion_groups):
        for rid in group.members:
            group_of.setdefault(rid, []).append(gi)

    def excl_conflict(a: _Candidate, b: _Candidate) -> bool:
        if not set(group_of.get(a.regime, ())) & set(group_of.get(b.regime, ())):
            return False
        return max(0, a.start - a.length, b.start - b.length) <= min(a.start, b.start)

    # cross-stain conflicts: b enters edge e exactly when a's stain completes there
    def stain_conflict(a: _Candidate, b: _Candidate) -> bool:
        for x, y in ((a, b), (b, a)):
            if x.staining and y.staining and x.product != y.product:
                if x.edge in y.chain and y.start == x.start + x.length:
                    return True
        return False

    # flush obligations: after including a stain, one allowed follow-up start
    # must also be included; satisfiers are candidate indices at the completion
    # (none where no follow-up fits inside the horizon, which bans the stain)
    allowed_followups: dict[int, frozenset[int]] = {}
    by_coord = {(c.edge, c.batch, c.start): c.index for c in cands}
    for c in cands:
        if not c.staining:
            continue
        te = c.start + c.length
        allowed = (c.batch, *catalog.flush_candidates.get((c.edge, c.batch), ()))
        allowed_followups[c.index] = frozenset(
            by_coord[(c.edge, fb, te)] for fb in allowed if (c.edge, fb, te) in by_coord
        )

    # stock bookkeeping: each candidate's stock events, from the placements on
    # every edge of its chain; the levels start at the empty schedule's stock
    events = [[ev for e in c.chain for ev in stock_events(inst, catalog, e, c.batch, c.start)] for c in cands]
    empty = simulate_occupancy(inst, catalog, Schedule.from_raw(()))
    upper, lower = empty.upper, empty.lower
    cap_max = {key: inst.capacity_max_profile(*key) for key in upper}
    cap_min = {key: inst.site(key[0]).profile(key[1]).min_profile(H) for key in upper}

    # a (site, product) that no candidate can drain (fill) keeps a too high
    # (too low) level for good, which makes its bound violations prunable
    has_in = {ev.key for evs in events for ev in evs if ev.volume > 0}
    has_out = {ev.key for evs in events for ev in evs if ev.volume < 0}

    def apply_stock(c: _Candidate, sign: int) -> None:
        for key, blocked_from, on_stock_from, volume in events[c.index]:
            up, lo = upper[key], lower[key]
            for u in range(blocked_from, H):
                up[u] += sign * volume
            for u in range(on_stock_from, H):
                lo[u] += sign * volume

    def stock_hopeless(c: _Candidate) -> bool:
        for key, _blocked_from, _on_stock_from, _volume in events[c.index]:
            if key not in has_out and any(
                cap_max[key][t] is not None and upper[key][t] > cap_max[key][t] for t in range(H)
            ):
                return True
            if key not in has_in and any(lower[key][t] < cap_min[key][t] for t in range(H)):
                return True
        return False

    # nomination and throughput running totals (monotone caps)
    nomination_caps: dict[tuple[str, str], int] = {}
    for nom in inst.nominations:
        for pid, cap in nom.limits.items():
            nomination_caps[(nom.refinery, pid)] = cap
    nomination_used: dict[tuple[str, str], int] = {k: 0 for k in nomination_caps}

    def nomination_key(c: _Candidate) -> Optional[tuple[str, str]]:
        key = (inst.edge(c.edge).origin, c.product)
        return key if key in nomination_caps else None

    throughput_windows = []
    for lim in inst.throughput_limits:
        window = set(lim.times)
        contribution: dict[int, int] = {}
        for c in cands:
            if c.product == lim.product and c.start in window and c.edge in lim.edges:
                contribution[c.index] = c.volume
        throughput_windows.append((contribution, lim.limit))
    throughput_used = [0] * len(throughput_windows)

    edge_load: dict[str, list[int]] = {e.id: [0] * H for e in inst.edges}

    chosen: list[int] = []
    chosen_set: set[int] = set()
    best_objective: Optional[Fraction] = None
    best_placements: Optional[tuple] = None
    best_components: Optional[dict] = None
    nodes = 0
    leaves = 0

    def packing_free(c: _Candidate) -> bool:
        for eid in c.chain:
            load = edge_load[eid]
            for u in range(c.start, c.start + c.length):
                if load[u]:
                    return False
        return True

    def include_feasible(c: _Candidate) -> bool:
        if not packing_free(c):
            return False
        for j in chosen:
            other = cands[j]
            if excl_conflict(c, other) or stain_conflict(c, other):
                return False
        key = nomination_key(c)
        if key is not None and nomination_used[key] + c.volume > nomination_caps[key]:
            return False
        for wi, (contribution, cap) in enumerate(throughput_windows):
            extra = contribution.get(c.index, 0)
            if extra and throughput_used[wi] + extra > cap:
                return False
        return True

    def obligations_dead(next_index: int) -> bool:
        # a chosen stain whose every satisfier lies before next_index must be satisfied
        for j in chosen:
            satisfiers = allowed_followups.get(j)
            if satisfiers is None:
                continue
            if not satisfiers:
                return True
            if max(satisfiers) < next_index and not (satisfiers & chosen_set):
                return True
        return False

    def push(c: _Candidate) -> None:
        for eid in c.chain:
            load = edge_load[eid]
            for u in range(c.start, c.start + c.length):
                load[u] += 1
        key = nomination_key(c)
        if key is not None:
            nomination_used[key] += c.volume
        for wi, (contribution, _cap) in enumerate(throughput_windows):
            throughput_used[wi] += contribution.get(c.index, 0)
        apply_stock(c, +1)
        chosen.append(c.index)
        chosen_set.add(c.index)

    def pop(c: _Candidate) -> None:
        chosen_set.remove(c.index)
        chosen.pop()
        apply_stock(c, -1)
        for wi, (contribution, _cap) in enumerate(throughput_windows):
            throughput_used[wi] -= contribution.get(c.index, 0)
        key = nomination_key(c)
        if key is not None:
            nomination_used[key] -= c.volume
        for eid in c.chain:
            load = edge_load[eid]
            for u in range(c.start, c.start + c.length):
                load[u] -= 1

    def leaf() -> None:
        nonlocal best_objective, best_placements, best_components, leaves
        leaves += 1
        schedule = Schedule.from_initial(catalog, [(cands[j].edge, cands[j].batch, cands[j].start) for j in chosen])
        if check_schedule(inst, catalog, schedule):
            return
        components = evaluate_objective(inst, catalog, schedule)
        objective = components["total"]
        placements = tuple(schedule.sorted_placements)
        if (
            best_objective is None
            or objective > best_objective
            or (objective == best_objective and placements < best_placements)
        ):
            best_objective = objective
            best_placements = placements
            best_components = components

    def dfs(i: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > limits.node_budget:
            raise _BudgetExceeded
        if obligations_dead(i):
            return
        if i == n:
            leaf()
            return
        c = cands[i]
        if include_feasible(c):
            push(c)
            if not stock_hopeless(c):
                dfs(i + 1)
            pop(c)
        if not c.forced:
            dfs(i + 1)

    try:
        dfs(0)
    except _BudgetExceeded:
        return OracleResult(ORACLE_STATUS_BUDGET, None, None, None, nodes, leaves)

    if best_objective is None:
        return OracleResult(ORACLE_STATUS_INFEASIBLE, None, None, None, nodes, leaves)
    return OracleResult(
        ORACLE_STATUS_OPTIMAL,
        best_objective,
        Schedule.from_raw(best_placements),
        best_components,
        nodes,
        leaves,
    )
