"""Exhaustive reference optimizer for tiny instances.

`brute_force_optimum` takes an instance that `validate_instance` accepts and
raises ValueError on any other.  The candidates are every initial-edge
placement (edge, batch, start) that fits the horizon, in canonical (edge,
batch, start) order.  A depth-first search decides them one at a time,
include before skip; a forced candidate (a fixed transport, or the dispatch
of an executed placement) is never skipped.  Every node judges its placement
set with the validator's `check_schedule`; a skip child has its parent's set
and reuses its verdict.  A leaf without violations is scored by
`evaluate_objective`; the best total wins and, on ties, the
lexicographically smallest placement set, so results are deterministic.

The oracle states no rule of its own.  It cuts a node only when one of the
validator's violations cannot be repaired by including later candidates.
These violations stay in every superset of the placement set:

- `packing`, `exclusion`, `nomination`, `throughput`, `outage`, and a
  stain-exclusion `flushing` violation (coordinate (edge, stain, slot,
  other)): edge loads, member starts, extracted and windowed volumes only
  grow, and the offending placements stay;
- `capacity_upper` on a (site, product) that no candidate drains, and
  `capacity_lower` on one that no candidate fills: blocked stock there can
  only rise, on-stock only fall (the keys are read once from `stock_events`).

One more depends on the search position: an unflushed stain (coordinate
(edge, stain, completion)) whose follow-up candidates at the completion all
lie before the current index; each was skipped, and nothing else flushes it.

Because the first kind stays in every superset, an include node whose new
candidate forms such a violation with one chosen candidate alone would be
cut; the search does not open it.  The verdict on each pair is the
validator's, taken once.

This is the ground truth the MILP path is tested against; like the
validator, this module imports nothing from the builder, the LP writer or
the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .batches import enumerate_batches, batch_id, STANDARD
from .instance import Instance, validate_instance
from .schedule import Schedule
from .validator import Violation, check_schedule, evaluate_objective, stock_events

ORACLE_STATUS_OPTIMAL = "optimal"
ORACLE_STATUS_INFEASIBLE = "infeasible"
ORACLE_STATUS_BUDGET = "budget_exceeded"

MAX_EDGES, MAX_HORIZON, MAX_CANDIDATES = 2, 24, 200  # beyond these `brute_force_optimum` raises ValueError

# violation families that adding placements never repairs
_MONOTONE = frozenset({"packing", "exclusion", "nomination", "throughput", "outage"})


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
    cands = [(eid, spec.id, t) for eid, spec in catalog.dispatches() for t in range(H - spec.length + 1)]
    n = len(cands)
    if n > MAX_CANDIDATES:
        raise ValueError(f"{n} candidate placements exceed oracle limit {MAX_CANDIDATES}")
    index = {coord: i for i, coord in enumerate(cands)}
    # the placements each candidate adds: its dispatch on every edge of the batch's path
    placed = [Schedule.from_initial(catalog, [coord]).placements for coord in cands]

    # forced candidates: each fixed transport's dispatch and the dispatch of each executed placement
    forced = [(batch_id(fx.regime, fx.product, STANDARD), fx.start) for fx in inst.fixed_transports]
    forced += [(b, t) for _e, b, t in inst.weights.executed]
    forced_indices = {index[(catalog.initial_edge(b), b, t)] for b, t in forced}

    events = [ev for adds in placed for e, b, t in adds for ev in stock_events(inst, catalog, e, b, t)]
    drained = {ev.key for ev in events if ev.volume < 0}
    filled = {ev.key for ev in events if ev.volume > 0}

    def unrepairable(v: Violation) -> bool:
        """True for a violation that every superset of the placement set keeps."""
        family, coord = v.family, v.coordinate
        if family in _MONOTONE or (family == "flushing" and len(coord) == 4):
            return True
        if family == "capacity_upper":
            return coord[:2] not in drained
        return family == "capacity_lower" and coord[:2] not in filled

    def hopeless(v: Violation, i: int) -> bool:
        """True for a violation that no candidate from index `i` on can repair."""
        if v.family == "flushing" and len(v.coordinate) == 3:
            e, b, te = v.coordinate
            return max(index.get((e, c, te), -1) for c in (b, *catalog.flush_candidates[b])) < i
        return unrepairable(v)

    clash: dict[tuple[int, int], bool] = {}

    def clashes(j: int, i: int) -> bool:
        """True when candidates j and i alone have a violation that every superset keeps."""
        if (j, i) not in clash:
            pair = Schedule(placed[j] | placed[i])
            clash[(j, i)] = any(map(unrepairable, check_schedule(inst, catalog, pair)))
        return clash[(j, i)]

    best_objective: Optional[Fraction] = None
    best_placements: Optional[tuple] = None
    best_components: Optional[dict] = None
    nodes = 0
    leaves = 0

    def dfs(i: int, chosen: tuple, schedule: Schedule, violations: list) -> None:
        nonlocal nodes, leaves, best_objective, best_placements, best_components
        nodes += 1
        if nodes > limits.node_budget:
            raise _BudgetExceeded
        for v in violations:
            if hopeless(v, i):
                return
        if i < n:
            if not any(clashes(j, i) for j in chosen):
                with_i = Schedule(schedule.placements | placed[i])
                dfs(i + 1, (*chosen, i), with_i, check_schedule(inst, catalog, with_i))
            if i not in forced_indices:
                dfs(i + 1, chosen, schedule, violations)
            return
        leaves += 1
        if violations:
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

    root = Schedule.from_initial(catalog, ())
    try:
        dfs(0, (), root, check_schedule(inst, catalog, root))
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
