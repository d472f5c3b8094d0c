"""List scheduler: a plan the validator has checked, to start the MILP solve from.

`list_schedule` builds a plan greedily; `plan_start` judges it with
`check_schedule` and drops a plan with any violation, without repairing it.
Like the oracle, this module is a client of the validator: it reads the
stock rule from `stock_events`, the tank limits from the capacity profiles
and the batches from the catalog, and shares no rule code with the builder.

The plan is built from runs: n dispatches of one batch back to back, and for
a staining batch one flush candidate of the same regime at the run's
completion, which the flushing rule asks for.  A run fits at start t when
its span is free on every edge of its path, no transport outage forbids a
start, the nomination left covers it, and blocked stock stays within
capacity (on-stock above the minimum, for a run that drains a tank).  Every
tank's spare room is kept as a suffix minimum, which only grows with t, so
the earliest start the stock allows is found by bisection.

1. Seed: the fixed transports and the executed placements.
2. Needs: each storage site in instance order, staining products first.
   While the simulated on-stock level falls below the minimum, place a run
   of ceil(deficit / volume) batches of the cheapest standard batch to the
   site at the earliest start where it fits, shortening the run until it
   fits and a flush can close it (the next cheapest batch when none does).
   A run that does not shrink the deficit ends the site's needs.
3. Fill: spend the nomination that is left, stains before flushes, taking
   the cheapest batch per unit volume first and placing the longest run
   that fits at its earliest start.  Only a batch whose reward exceeds its
   pumping cost is filled.

"Cheapest" is the pumping cost as the objective weighs it (theta times the
batch cost).  Among equals, as under an objective without pumping cost, the
batch with the longest path goes first: it blocks the most edges, so it is
the hardest to fit later.  Needs come first because the flush nomination is
tight: stains must travel in runs that share one flush.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import NamedTuple, Optional

from .batches import BatchCatalog, BatchSpec, batch_cost
from .instance import STANDARD, Instance, TransportOutage, batch_id
from .schedule import Schedule
from .validator import Violation, check_schedule, evaluate_objective, stock_events

_INF = float("inf")

Run = list[tuple[BatchSpec, int]]  # (batch, start offset from the run's start)


class Start(NamedTuple):
    """A judged plan: `schedule` and its exact `objective` when clean, else the `violations` that dropped it."""

    schedule: Optional[Schedule]
    objective: Optional[Fraction]
    violations: list[Violation]


def plan_start(inst: Instance, catalog: BatchCatalog) -> Optional[Start]:
    """The list scheduler's plan judged by `check_schedule`; None when the plan places nothing."""
    plan = list_schedule(inst, catalog)
    if not plan.placements:
        return None
    violations = check_schedule(inst, catalog, plan)
    if violations:
        return Start(None, None, violations)
    return Start(plan, evaluate_objective(inst, catalog, plan)["total"], [])


def list_schedule(inst: Instance, catalog: BatchCatalog) -> Schedule:
    """The plan, unjudged: seeded, needs covered, nomination filled."""
    planner = _Planner(inst, catalog)
    planner.seed()
    planner.cover_needs()
    planner.fill()
    return Schedule.from_initial(catalog, planner.dispatches)


def _suffix_min(values: list) -> list:
    return list(accumulate(reversed(values), min))[::-1]


class _Planner:
    def __init__(self, inst: Instance, catalog: BatchCatalog) -> None:
        self.inst, self.catalog = inst, catalog
        H = self.horizon = inst.grid.horizon_len
        self.dispatches: list[tuple[str, str, int]] = []
        # packing: per path, 1 at every slot where a batch holds one of its edges
        paths = set(catalog.chains.values())
        self.busy = {path: bytearray(H) for path in paths}
        self.crossing = {path: [other for other in paths if set(path) & set(other)] for path in paths}
        self.forbidden = {
            (bid, t) for out in inst.outages if isinstance(out, TransportOutage) for _e, bid in out.batches for t in out.times
        }
        self.left = {(nom.refinery, pid): cap for nom in inst.nominations for pid, cap in nom.limits.items()}
        # the stock moves of a dispatch at slot 0, over every edge of its path
        self.events = {
            bid: [ev for eid in chain for ev in stock_events(inst, catalog, eid, bid, 0)] for bid, chain in catalog.chains.items()
        }
        self.blocked: dict[tuple[str, str], list[int]] = {}
        self.on_stock: dict[tuple[str, str], list[int]] = {}
        self.capacity: dict[tuple[str, str], list] = {}
        self.minimum: dict[tuple[str, str], list[int]] = {}
        self.room: dict[tuple[str, str], list] = {}  # suffix minimum of capacity - blocked stock
        self.margin: dict[tuple[str, str], list] = {}  # suffix minimum of on-stock - minimum
        for site in inst.storage_sites():
            for product in inst.products:
                key = (site.id, product.id)
                profile = site.profile(product.id)
                self.blocked[key] = profile.base_profile(H)
                self.on_stock[key] = list(self.blocked[key])
                self.capacity[key] = [_INF if cap is None else cap for cap in inst.capacity_max_profile(*key)]
                self.minimum[key] = profile.min_profile(H)
                self._rescore(key)

    def _rescore(self, key: tuple[str, str]) -> None:
        self.room[key] = _suffix_min(list(map(sub, self.capacity[key], self.blocked[key])))
        self.margin[key] = _suffix_min(list(map(sub, self.on_stock[key], self.minimum[key])))

    def _nominated(self, spec: BatchSpec) -> tuple[str, str]:
        """The (refinery, product) key of the nomination a dispatch of `spec` draws on."""
        return self.inst.edge(self.catalog.initial_edge(spec.id)).origin, spec.product

    def _cost(self, spec: BatchSpec) -> Fraction:
        """What a dispatch of `spec` costs in the objective."""
        return self.inst.weights.theta * batch_cost(self.inst, spec)

    def _rank(self, spec: BatchSpec, per_volume: bool = False) -> tuple:
        """Cheapest first (per unit volume when `per_volume`); among equals, the longest path first,
        as it is the hardest to fit later."""
        cost = self._cost(spec)
        return cost / spec.volume if per_volume else cost, -len(self.catalog.chains[spec.id])

    def _cheapest_first(self, specs) -> list[BatchSpec]:
        return sorted(specs, key=self._rank)

    def _runs(self, spec: BatchSpec, n: int) -> list[Run]:
        """The runs of n dispatches of `spec`: one, or for a stain one per flush candidate closing it."""
        run = [(spec, i * spec.length) for i in range(n)]
        if self.inst.product(spec.product).is_flushing:
            return [run]
        closings = self._cheapest_first(self.catalog.spec_by_id[bid] for bid in self.catalog.flush_candidates[spec.id])
        return [[*run, (flush, n * spec.length)] for flush in closings]

    def _earliest(self, run: Run) -> Optional[int]:
        """The earliest start at which `run` fits, or None."""
        need: dict[tuple[str, str], int] = {}
        for spec, _offset in run:
            key = self._nominated(spec)
            if key in self.left:
                need[key] = need.get(key, 0) + spec.volume
        if any(volume > self.left[key] for key, volume in need.items()):
            return None
        t = self._stock_bound(run)
        span = max(offset + spec.length for spec, offset in run)
        free = bytes(span)
        busy = self.busy[self.catalog.chains[run[0][0].id]]
        while (t := busy.find(free, t)) >= 0:
            if not any((spec.id, t + offset) in self.forbidden for spec, offset in run):
                return t
            t += 1
        return None

    def _stock_bound(self, run: Run) -> int:
        """The earliest start at which the run keeps every tank it fills within capacity and every
        tank it drains above the minimum; past the horizon when there is none."""
        # (fills, key) -> (offset, volume) of each move: a fill takes room from its blocked-stock
        # slot on, a drain takes margin from its on-stock slot on
        moves: dict[tuple[bool, tuple[str, str]], list[tuple[int, int]]] = {}
        for spec, offset in run:
            for key, blocked_from, on_stock_from, volume in self.events[spec.id]:
                since = blocked_from if volume > 0 else on_stock_from
                moves.setdefault((volume > 0, key), []).append((offset + since, abs(volume)))
        H, t = self.horizon, 0
        for (fills, key), shifts in moves.items():
            spare = (self.room if fills else self.margin)[key]
            total = 0
            for offset, volume in sorted(shifts):  # the run's take is a step function rising with the slot
                total += volume
                t = max(t, min(bisect_left(spare, total), H) - offset)
        return t

    def _place(self, run: Run, t: int) -> None:
        touched = set()
        for spec, offset in run:
            start = t + offset
            chain = self.catalog.chains[spec.id]
            self.dispatches.append((chain[0], spec.id, start))
            for path in self.crossing[chain]:
                self.busy[path][start : start + spec.length] = b"\x01" * spec.length
            key = self._nominated(spec)
            if key in self.left:
                self.left[key] -= spec.volume
            for key, blocked_from, on_stock_from, volume in self.events[spec.id]:
                for series, since in ((self.blocked[key], start + blocked_from), (self.on_stock[key], start + on_stock_from)):
                    series[since:] = [level + volume for level in series[since:]]
                touched.add(key)
        for key in touched:
            self._rescore(key)

    def _place_longest(self, specs: list[BatchSpec], length) -> bool:
        """Place the longest run of the first batch in `specs` that fits, at most `length(spec)`
        dispatches, at its earliest start; False when no run fits."""
        for spec in specs:
            for n in range(length(spec), 0, -1):
                for run in self._runs(spec, n):
                    t = self._earliest(run)
                    if t is not None:
                        self._place(run, t)
                        return True
        return False

    def seed(self) -> None:
        inst, spec_by_id = self.inst, self.catalog.spec_by_id
        forced = [(batch_id(fx.regime, fx.product, STANDARD), fx.start) for fx in inst.fixed_transports]
        forced += [(bid, t) for _e, bid, t in inst.weights.executed]
        for bid, t in dict.fromkeys(forced):
            self._place([(spec_by_id[bid], 0)], t)

    def _products(self):
        """The products, staining ones first, each kind in instance order."""
        return sorted(self.inst.products, key=lambda product: product.is_flushing)

    def cover_needs(self) -> None:
        inst = self.inst
        for site in inst.storage_sites():
            for product in self._products():
                key = (site.id, product.id)
                specs = self._cheapest_first(
                    spec
                    for eid, spec in self.catalog.deliveries()
                    if spec.product == product.id and spec.size_variant == STANDARD and inst.edge(eid).destination == site.id
                )
                deficit = -self.margin[key][0]
                while deficit > 0:
                    if not self._place_longest(specs, lambda spec: -(-deficit // spec.volume)):
                        break
                    deficit, before = -self.margin[key][0], deficit
                    if deficit >= before:  # the run arrived too late to help
                        break

    def fill(self) -> None:
        w = self.inst.weights
        for product in self._products():
            specs = [
                spec
                for _eid, spec in self.catalog.dispatches()
                if spec.product == product.id
                and spec.size_variant == STANDARD
                and self._nominated(spec) in self.left
                and w.alpha * w.eta_for(spec.product) * spec.volume > self._cost(spec)
            ]
            specs.sort(key=lambda spec: self._rank(spec, per_volume=True))
            for spec in specs:
                while self._place_longest([spec], self._fill_length):
                    pass

    def _fill_length(self, spec: BatchSpec) -> int:
        """The most dispatches of `spec` that the nomination left and the destination's spare room allow."""
        n = self.left[self._nominated(spec)] // spec.volume
        for key, _blocked_from, _on_stock_from, volume in self.events[spec.id]:
            if volume > 0:
                n = min(n, max(0, self.room[key][-1]) // volume)
        return n
