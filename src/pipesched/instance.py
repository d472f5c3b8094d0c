"""Problem-instance data model for multi-product pipeline scheduling.

An instance couples a directed pipe network with products, pumping regimes,
storage capacities, demand nominations and objective weights over a discrete
time horizon.  Volumes and occupancy bookkeeping are integral (per-product
volume units) and rates/weights are exact rationals, so every downstream
feasibility and objective computation can be carried out without rounding.

Instances are immutable after construction.  `validate_instance` returns a
machine-readable list of issues; loaders are strict about unknown keys so a
typo in an instance file fails loudly instead of being ignored.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

PRODUCT_KINDS = ("flushing", "staining")
SITE_KINDS = ("storage", "refinery")

Numberish = Union[int, str, float, Fraction]


def to_fraction(value: Numberish) -> Fraction:
    """Coerce a JSON-ish number to an exact rational.

    Strings accept both "p/q" and decimal notation; floats are read through
    their decimal repr so "58.14" stays 5814/100 rather than a binary float.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a number")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a number")


def fraction_to_json(value: Fraction) -> Union[int, str]:
    if value.denominator == 1:
        return int(value)
    return str(value)


@dataclass(frozen=True)
class Product:
    id: str
    kind: str  # "flushing" | "staining"
    unit_volume: Fraction = Fraction(1)  # physical size of one volume unit

    @property
    def is_flushing(self) -> bool:
        return self.kind == "flushing"


@dataclass(frozen=True)
class Edge:
    id: str
    origin: str
    destination: str
    pipe_volume: int = 0  # in-transit volume held by the pipe segment


@dataclass(frozen=True)
class PumpingRegime:
    """A pumping configuration moving batches along a fixed edge path."""

    id: str
    edges: tuple[str, ...]  # consecutive path, origin of edges[0] is the source
    flow_rate: Mapping[str, Fraction]  # product id -> volume units per slot
    flush_volume: Optional[int] = None  # override; default is sum of pipe volumes
    cost_per_batch: Mapping[str, Fraction] = field(default_factory=dict)  # batch id -> cost
    pass_times: Mapping[str, int] = field(default_factory=dict)  # informational, per edge


@dataclass(frozen=True)
class CapacityProfile:
    """Storage tracking for one product at one site.

    `initial` is the stock at slot 0 before any scheduled transport; `deltas`
    are externally imposed stock changes (outtakes negative) applied from
    their slot onward.  `maximum`/`minimum` are either scalars or per-slot
    sequences.
    """

    initial: int = 0
    maximum: Union[int, tuple[int, ...], None] = None  # None = uncapped
    minimum: Union[int, tuple[int, ...]] = 0
    deltas: tuple[tuple[int, int], ...] = ()  # (slot, change), change applies at slot

    def base_profile(self, horizon: int) -> list[int]:
        """Accumulated exogenous stock level per slot."""
        step = [0] * horizon
        for t, change in self.deltas:
            if 0 <= t < horizon:
                step[t] += change
        return list(accumulate(step, initial=self.initial))[1:]

    def max_profile(self, horizon: int) -> list[Optional[int]]:
        if self.maximum is None:
            return [None] * horizon
        if isinstance(self.maximum, tuple):
            return list(self.maximum[:horizon])
        return [self.maximum] * horizon

    def min_profile(self, horizon: int) -> list[int]:
        if isinstance(self.minimum, tuple):
            return list(self.minimum[:horizon])
        return [self.minimum] * horizon


@dataclass(frozen=True)
class Site:
    id: str
    kind: str  # "storage" | "refinery"
    standard_batch: Mapping[str, int] = field(default_factory=dict)  # product -> units
    capacity: Mapping[str, CapacityProfile] = field(default_factory=dict)

    @property
    def is_storage(self) -> bool:
        return self.kind == "storage"

    def profile(self, product: str) -> CapacityProfile:
        return self.capacity.get(product, _EMPTY_PROFILE)


_EMPTY_PROFILE = CapacityProfile()


@dataclass(frozen=True)
class TimeGrid:
    horizon_len: int  # number of slots, indexed 0..horizon_len-1
    step_hours: Fraction = Fraction(1)

    @property
    def t_max(self) -> int:
        return self.horizon_len - 1

    @property
    def slots(self) -> range:
        return range(self.horizon_len)


@dataclass(frozen=True)
class Nomination:
    """Per-refinery extraction ceilings, in volume units per product."""

    refinery: str
    limits: Mapping[str, int]  # product -> max total volume leaving the refinery


@dataclass(frozen=True)
class TankOutage:
    site: str
    product: str
    reduction: int  # capacity reduction in volume units
    times: tuple[int, ...]


@dataclass(frozen=True)
class TransportOutage:
    batches: tuple[tuple[str, str], ...]  # (edge id, batch id)
    times: tuple[int, ...]  # forbidden start slots


Outage = Union[TankOutage, TransportOutage]


@dataclass(frozen=True)
class ThroughputLimit:
    edges: tuple[str, ...]
    product: str
    times: tuple[int, ...]
    limit: int  # max volume started inside the window


@dataclass(frozen=True)
class ExclusionGroup:
    """Regimes whose batches may not be in simultaneous transport."""

    members: tuple[str, ...]


@dataclass(frozen=True)
class DistributionTarget:
    """Final-stock shaping for one (site, product).

    With `target` set the objective pays -weight * |final stock - target|
    (weight > 0).  With `target` None the final stock enters linearly with
    the signed `weight`.
    """

    site: str
    product: str
    weight: Fraction
    target: Optional[int] = None


@dataclass(frozen=True)
class CostWeights:
    alpha: Fraction = Fraction(1)  # nominated extraction volume
    beta: Fraction = Fraction(0)  # final-stock distribution shaping
    gamma: Fraction = Fraction(0)  # plan-change penalty
    theta: Fraction = Fraction(0)  # pumping cost
    eta: Mapping[str, Fraction] = field(default_factory=dict)  # product reward factor
    distribution_targets: tuple[DistributionTarget, ...] = ()
    previous_plan: tuple[tuple[str, str, int], ...] = ()  # (edge, batch, t)
    executed: tuple[tuple[str, str, int], ...] = ()  # subset of previous_plan, frozen

    def eta_for(self, product: str) -> Fraction:
        return self.eta.get(product, Fraction(1))


@dataclass(frozen=True)
class FixedTransport:
    """An operator-imposed standard-size transport that must take place."""

    regime: str
    product: str
    start: int


@dataclass(frozen=True)
class Instance:
    name: str
    grid: TimeGrid
    products: tuple[Product, ...]
    sites: tuple[Site, ...]
    edges: tuple[Edge, ...]
    regimes: tuple[PumpingRegime, ...]
    nominations: tuple[Nomination, ...] = ()
    outages: tuple[Outage, ...] = ()
    throughput_limits: tuple[ThroughputLimit, ...] = ()
    exclusion_groups: tuple[ExclusionGroup, ...] = ()
    weights: CostWeights = field(default_factory=CostWeights)
    fixed_transports: tuple[FixedTransport, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_products", {p.id: p for p in self.products})
        object.__setattr__(self, "_sites", {s.id: s for s in self.sites})
        object.__setattr__(self, "_edges", {e.id: e for e in self.edges})
        object.__setattr__(self, "_regimes", {r.id: r for r in self.regimes})

    def product(self, pid: str) -> Product:
        return self._products[pid]  # type: ignore[attr-defined]

    def site(self, sid: str) -> Site:
        return self._sites[sid]  # type: ignore[attr-defined]

    def edge(self, eid: str) -> Edge:
        return self._edges[eid]  # type: ignore[attr-defined]

    def regime(self, rid: str) -> PumpingRegime:
        return self._regimes[rid]  # type: ignore[attr-defined]

    def has_product(self, pid: str) -> bool:
        return pid in self._products  # type: ignore[attr-defined]

    def has_site(self, sid: str) -> bool:
        return sid in self._sites  # type: ignore[attr-defined]

    def has_edge(self, eid: str) -> bool:
        return eid in self._edges  # type: ignore[attr-defined]

    def has_regime(self, rid: str) -> bool:
        return rid in self._regimes  # type: ignore[attr-defined]

    def storage_sites(self) -> tuple[Site, ...]:
        return tuple(s for s in self.sites if s.is_storage)

    def regime_origin(self, regime: PumpingRegime) -> str:
        return self.edge(regime.edges[0]).origin

    def regime_destination(self, regime: PumpingRegime) -> str:
        return self.edge(regime.edges[-1]).destination

    def capacity_max_profile(self, site: str, product: str) -> list[Optional[int]]:
        """Tank capacity per slot after tank outages (None = uncapped).

        Each outage lowers every slot it lists by its reduction, once per
        outage even where it lists a slot twice.
        """
        horizon = self.grid.horizon_len
        caps = self.site(site).profile(product).max_profile(horizon)
        for outage in self.outages:
            if isinstance(outage, TankOutage) and outage.site == site and outage.product == product:
                for t in set(outage.times):
                    if 0 <= t < horizon and caps[t] is not None:
                        caps[t] -= outage.reduction
        return caps

    def regime_flush_volume(self, regime: PumpingRegime) -> int:
        """Volume needed to push a batch through the regime's whole path."""
        if regime.flush_volume is not None:
            return regime.flush_volume
        return sum(self.edge(eid).pipe_volume for eid in regime.edges)


@dataclass(frozen=True)
class InstanceIssue:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def validate_instance(inst: Instance) -> list[InstanceIssue]:
    """Structural validation; returns an empty list iff the instance is sound.

    Checks identifiers, cross-references, path structure, sign conditions and
    time ranges.  Feasibility of the scheduling problem itself is not checked
    here.
    """
    issues: list[InstanceIssue] = []

    def bad(code: str, message: str) -> None:
        issues.append(InstanceIssue(code, message))

    horizon = inst.grid.horizon_len
    if horizon < 1:
        bad("nonpositive_horizon", f"horizon length {horizon} must be >= 1")
    if inst.grid.step_hours <= 0:
        bad("nonpositive_step", "time step must be positive")

    for label, ids in (
        ("product", [p.id for p in inst.products]),
        ("site", [s.id for s in inst.sites]),
        ("edge", [e.id for e in inst.edges]),
        ("regime", [r.id for r in inst.regimes]),
    ):
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                bad("duplicate_id", f"duplicate {label} id {i!r}")
            seen.add(i)

    for p in inst.products:
        if p.kind not in PRODUCT_KINDS:
            bad("unknown_product_kind", f"product {p.id!r} has kind {p.kind!r}")
        if p.unit_volume <= 0:
            bad("nonpositive_unit_volume", f"product {p.id!r} unit volume must be > 0")

    for s in inst.sites:
        if s.kind not in SITE_KINDS:
            bad("unknown_site_kind", f"site {s.id!r} has kind {s.kind!r}")
        for pid, units in s.standard_batch.items():
            if not inst.has_product(pid):
                bad("unknown_product", f"site {s.id!r} standard batch for unknown product {pid!r}")
            elif units <= 0:
                bad("nonpositive_standard_batch", f"site {s.id!r} product {pid!r} standard batch {units}")
        for pid, prof in s.capacity.items():
            if not inst.has_product(pid):
                bad("unknown_product", f"site {s.id!r} capacity for unknown product {pid!r}")
                continue
            if horizon < 1:
                continue
            base = prof.base_profile(horizon)
            if base[0] < 0:
                bad("negative_initial_occupancy", f"site {s.id!r} product {pid!r} starts at {base[0]}")
            maxp = prof.max_profile(horizon)
            minp = prof.min_profile(horizon)
            if isinstance(prof.maximum, tuple) and len(prof.maximum) != horizon:
                bad("capacity_profile_length", f"site {s.id!r} product {pid!r} max profile length mismatch")
            if isinstance(prof.minimum, tuple) and len(prof.minimum) != horizon:
                bad("capacity_profile_length", f"site {s.id!r} product {pid!r} min profile length mismatch")
            for t in range(horizon):
                if maxp[t] is not None and minp[t] > maxp[t]:
                    bad(
                        "capacity_min_exceeds_max",
                        f"site {s.id!r} product {pid!r} slot {t}: min {minp[t]} > max {maxp[t]}",
                    )
                    break
            for t, _change in prof.deltas:
                if not 0 <= t < horizon:
                    bad("time_out_of_range", f"site {s.id!r} product {pid!r} stock change at slot {t}")

    for e in inst.edges:
        if e.origin == e.destination:
            bad("edge_self_loop", f"edge {e.id!r} loops on {e.origin!r}")
        for endpoint in (e.origin, e.destination):
            if not inst.has_site(endpoint):
                bad("unknown_site", f"edge {e.id!r} references unknown site {endpoint!r}")
        if e.pipe_volume < 0:
            bad("negative_pipe_volume", f"edge {e.id!r} pipe volume {e.pipe_volume}")

    used_edges: set[str] = set()
    for r in inst.regimes:
        if not r.edges:
            bad("regime_empty_path", f"regime {r.id!r} has no edges")
            continue
        missing = [eid for eid in r.edges if not inst.has_edge(eid)]
        if missing:
            bad("regime_unknown_edge", f"regime {r.id!r} references unknown edges {missing}")
            continue
        used_edges.update(r.edges)
        if len(set(r.edges)) != len(r.edges):
            bad("regime_path_not_simple", f"regime {r.id!r} repeats an edge")
        for a, b in zip(r.edges, r.edges[1:]):
            if inst.edge(a).destination != inst.edge(b).origin:
                bad("regime_path_disconnected", f"regime {r.id!r}: {a!r} does not chain into {b!r}")
        for pid, rate in r.flow_rate.items():
            if not inst.has_product(pid):
                bad("unknown_product", f"regime {r.id!r} flow rate for unknown product {pid!r}")
            elif rate <= 0:
                bad("regime_nonpositive_flow", f"regime {r.id!r} product {pid!r} flow {rate}")
        if r.flush_volume is not None and r.flush_volume < 0:
            bad("regime_negative_flush_volume", f"regime {r.id!r} flush volume {r.flush_volume}")
        origin = inst.edge(r.edges[0]).origin if inst.has_edge(r.edges[0]) else None
        if origin is not None and inst.has_site(origin):
            std = inst.site(origin).standard_batch
            for pid in r.flow_rate:
                if inst.has_product(pid) and pid not in std:
                    bad(
                        "missing_standard_batch",
                        f"site {origin!r} lacks a standard batch for product {pid!r} pumped by {r.id!r}",
                    )

    for e in inst.edges:
        if e.id not in used_edges:
            bad("edge_unused", f"edge {e.id!r} appears in no regime")

    nominated: set[str] = set()
    for nom in inst.nominations:
        if nom.refinery in nominated:
            bad("duplicate_nomination", f"refinery {nom.refinery!r} has more than one nomination")
        nominated.add(nom.refinery)
        if not inst.has_site(nom.refinery):
            bad("unknown_site", f"nomination references unknown site {nom.refinery!r}")
        elif inst.site(nom.refinery).kind != "refinery":
            bad("nomination_not_refinery", f"nomination on non-refinery site {nom.refinery!r}")
        for pid, vol in nom.limits.items():
            if not inst.has_product(pid):
                bad("unknown_product", f"nomination for unknown product {pid!r}")
            if vol < 0:
                bad("nomination_negative_limit", f"nomination {nom.refinery!r}/{pid!r} limit {vol}")

    for out in inst.outages:
        if isinstance(out, TankOutage):
            if not inst.has_site(out.site):
                bad("unknown_site", f"tank outage on unknown site {out.site!r}")
            if not inst.has_product(out.product):
                bad("unknown_product", f"tank outage on unknown product {out.product!r}")
            if out.reduction < 0:
                bad("negative_reduction", f"tank outage reduction {out.reduction}")
        else:
            for eid, _bid in out.batches:
                if not inst.has_edge(eid):
                    bad("unknown_edge", f"transport outage on unknown edge {eid!r}")
        for t in out.times:
            if not 0 <= t < horizon:
                bad("time_out_of_range", f"outage slot {t} outside horizon")

    for lim in inst.throughput_limits:
        for eid in lim.edges:
            if not inst.has_edge(eid):
                bad("unknown_edge", f"throughput limit on unknown edge {eid!r}")
        if not inst.has_product(lim.product):
            bad("unknown_product", f"throughput limit on unknown product {lim.product!r}")
        if not lim.times:
            bad("empty_window", "throughput limit with empty time window")
        for t in lim.times:
            if not 0 <= t < horizon:
                bad("time_out_of_range", f"throughput limit slot {t} outside horizon")
        if lim.limit < 0:
            bad("negative_limit", f"throughput limit {lim.limit}")

    for group in inst.exclusion_groups:
        if len(group.members) < 2:
            bad("exclusion_group_too_small", f"exclusion group {group.members} needs >= 2 members")
        for rid in group.members:
            if not inst.has_regime(rid):
                bad("unknown_regime", f"exclusion group references unknown regime {rid!r}")

    w = inst.weights
    for label, value in (("alpha", w.alpha), ("beta", w.beta), ("gamma", w.gamma), ("theta", w.theta)):
        if value < 0:
            bad("negative_weight", f"objective weight {label} = {value}")
    for pid, value in w.eta.items():
        if not inst.has_product(pid):
            bad("unknown_product", f"reward factor for unknown product {pid!r}")
        if value < 0:
            bad("negative_eta", f"reward factor for {pid!r} = {value}")
    for tgt in w.distribution_targets:
        if not inst.has_site(tgt.site):
            bad("unknown_site", f"distribution target on unknown site {tgt.site!r}")
        elif not inst.site(tgt.site).is_storage:
            bad("target_on_non_storage", f"distribution target on non-storage site {tgt.site!r}")
        if not inst.has_product(tgt.product):
            bad("unknown_product", f"distribution target on unknown product {tgt.product!r}")
        if tgt.target is not None:
            if tgt.target < 0:
                bad("negative_target", f"distribution target {tgt.target}")
            if tgt.weight <= 0:
                bad("nonpositive_target_weight", f"distribution weight {tgt.weight} must be > 0")
    prev = set(w.previous_plan)
    for coord in w.executed:
        if coord not in prev:
            bad("executed_not_in_plan", f"executed placement {coord} missing from previous plan")
    for eid, _bid, t in w.previous_plan:
        if not inst.has_edge(eid):
            bad("unknown_edge", f"previous plan references unknown edge {eid!r}")
        if not 0 <= t < horizon:
            bad("time_out_of_range", f"previous plan slot {t} outside horizon")

    for fx in inst.fixed_transports:
        if not inst.has_regime(fx.regime):
            bad("unknown_regime", f"fixed transport on unknown regime {fx.regime!r}")
        elif fx.product not in inst.regime(fx.regime).flow_rate:
            bad("fixed_unpumpable", f"regime {fx.regime!r} cannot pump {fx.product!r}")
        if not inst.has_product(fx.product):
            bad("unknown_product", f"fixed transport of unknown product {fx.product!r}")
        if not 0 <= fx.start < horizon:
            bad("time_out_of_range", f"fixed transport start {fx.start} outside horizon")

    return issues


# ---------------------------------------------------------------------------
# JSON (de)serialization


class InstanceFormatError(ValueError):
    pass


def _check_keys(obj: Mapping, allowed: Iterable[str], where: str) -> None:
    extra = set(obj) - set(allowed)
    if extra:
        raise InstanceFormatError(f"unknown keys {sorted(extra)} in {where}")


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise InstanceFormatError(f"missing key {key!r} in {where}")
    return obj[key]


def _parse_times(spec, horizon: int, where: str) -> tuple[int, ...]:
    """A time window is either an explicit slot list or {"start","end"} inclusive."""
    if isinstance(spec, Mapping):
        _check_keys(spec, ("start", "end"), where)
        start = int(_require(spec, "start", where))
        end = int(_require(spec, "end", where))
        return tuple(range(start, end + 1))
    if isinstance(spec, Sequence) and not isinstance(spec, (str, bytes)):
        return tuple(int(t) for t in spec)
    raise InstanceFormatError(f"bad time window in {where}: {spec!r}")


def instance_from_dict(data: Mapping) -> Instance:
    """The instance a JSON document describes; any malformed part raises InstanceFormatError."""
    try:
        return _instance_from_dict(data)
    except InstanceFormatError:
        raise
    except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"malformed value ({type(exc).__name__}: {exc})") from exc


def _instance_from_dict(data: Mapping) -> Instance:
    where = "instance"
    _check_keys(
        data,
        (
            "name",
            "horizon",
            "products",
            "sites",
            "edges",
            "regimes",
            "nominations",
            "outages",
            "throughput_limits",
            "exclusion_groups",
            "weights",
            "fixed_transports",
        ),
        where,
    )
    hz = _require(data, "horizon", where)
    _check_keys(hz, ("length", "step_hours"), "horizon")
    grid = TimeGrid(int(_require(hz, "length", "horizon")), to_fraction(hz.get("step_hours", 1)))
    horizon = grid.horizon_len

    products = []
    for pd in _require(data, "products", where):
        _check_keys(pd, ("id", "kind", "unit_volume"), "product")
        products.append(
            Product(
                id=str(_require(pd, "id", "product")),
                kind=str(_require(pd, "kind", "product")),
                unit_volume=to_fraction(pd.get("unit_volume", 1)),
            )
        )

    sites = []
    for sd in _require(data, "sites", where):
        _check_keys(sd, ("id", "kind", "standard_batch", "capacity"), "site")
        capacity = {}
        for pid, cd in sd.get("capacity", {}).items():
            _check_keys(cd, ("initial", "max", "min", "deltas"), f"site capacity {pid}")
            maximum = cd.get("max")
            if isinstance(maximum, Sequence) and not isinstance(maximum, (str, bytes)):
                maximum = tuple(int(x) for x in maximum)
            elif maximum is not None:
                maximum = int(maximum)
            minimum = cd.get("min", 0)
            if isinstance(minimum, Sequence) and not isinstance(minimum, (str, bytes)):
                minimum = tuple(int(x) for x in minimum)
            else:
                minimum = int(minimum)
            capacity[str(pid)] = CapacityProfile(
                initial=int(cd.get("initial", 0)),
                maximum=maximum,
                minimum=minimum,
                deltas=tuple((int(t), int(dv)) for t, dv in cd.get("deltas", ())),
            )
        sites.append(
            Site(
                id=str(_require(sd, "id", "site")),
                kind=str(_require(sd, "kind", "site")),
                standard_batch={str(k): int(v) for k, v in sd.get("standard_batch", {}).items()},
                capacity=capacity,
            )
        )

    edges = []
    for ed in _require(data, "edges", where):
        _check_keys(ed, ("id", "origin", "destination", "pipe_volume"), "edge")
        edges.append(
            Edge(
                id=str(_require(ed, "id", "edge")),
                origin=str(_require(ed, "origin", "edge")),
                destination=str(_require(ed, "destination", "edge")),
                pipe_volume=int(ed.get("pipe_volume", 0)),
            )
        )

    regimes = []
    for rd in _require(data, "regimes", where):
        _check_keys(rd, ("id", "edges", "flow_rate", "flush_volume", "cost_per_batch", "pass_times"), "regime")
        regimes.append(
            PumpingRegime(
                id=str(_require(rd, "id", "regime")),
                edges=tuple(str(e) for e in _require(rd, "edges", "regime")),
                flow_rate={str(k): to_fraction(v) for k, v in _require(rd, "flow_rate", "regime").items()},
                flush_volume=None if rd.get("flush_volume") is None else int(rd["flush_volume"]),
                cost_per_batch={str(k): to_fraction(v) for k, v in rd.get("cost_per_batch", {}).items()},
                pass_times={str(k): int(v) for k, v in rd.get("pass_times", {}).items()},
            )
        )

    nominations = []
    for nd in data.get("nominations", ()):
        _check_keys(nd, ("refinery", "limits"), "nomination")
        nominations.append(
            Nomination(
                refinery=str(_require(nd, "refinery", "nomination")),
                limits={str(k): int(v) for k, v in _require(nd, "limits", "nomination").items()},
            )
        )

    outages: list[Outage] = []
    for od in data.get("outages", ()):
        kind = _require(od, "kind", "outage")
        if kind == "tank":
            _check_keys(od, ("kind", "site", "product", "reduction", "times"), "outage")
            outages.append(
                TankOutage(
                    site=str(_require(od, "site", "outage")),
                    product=str(_require(od, "product", "outage")),
                    reduction=int(_require(od, "reduction", "outage")),
                    times=_parse_times(_require(od, "times", "outage"), horizon, "outage"),
                )
            )
        elif kind == "transport":
            _check_keys(od, ("kind", "batches", "times"), "outage")
            outages.append(
                TransportOutage(
                    batches=tuple((str(e), str(b)) for e, b in _require(od, "batches", "outage")),
                    times=_parse_times(_require(od, "times", "outage"), horizon, "outage"),
                )
            )
        else:
            raise InstanceFormatError(f"unknown outage kind {kind!r}")

    limits = []
    for ld in data.get("throughput_limits", ()):
        _check_keys(ld, ("edges", "product", "times", "limit"), "throughput_limit")
        limits.append(
            ThroughputLimit(
                edges=tuple(str(e) for e in _require(ld, "edges", "throughput_limit")),
                product=str(_require(ld, "product", "throughput_limit")),
                times=_parse_times(_require(ld, "times", "throughput_limit"), horizon, "throughput_limit"),
                limit=int(_require(ld, "limit", "throughput_limit")),
            )
        )

    groups = []
    for gd in data.get("exclusion_groups", ()):
        _check_keys(gd, ("members",), "exclusion_group")
        groups.append(ExclusionGroup(members=tuple(str(r) for r in _require(gd, "members", "exclusion_group"))))

    wd = data.get("weights", {})
    _check_keys(
        wd,
        ("alpha", "beta", "gamma", "theta", "eta", "distribution_targets", "previous_plan", "executed"),
        "weights",
    )
    targets = []
    for td in wd.get("distribution_targets", ()):
        _check_keys(td, ("site", "product", "target", "weight", "signed_weight"), "distribution_target")
        if "signed_weight" in td:
            if "weight" in td or "target" in td:
                raise InstanceFormatError("distribution target mixes signed and target forms")
            targets.append(
                DistributionTarget(
                    site=str(_require(td, "site", "distribution_target")),
                    product=str(_require(td, "product", "distribution_target")),
                    weight=to_fraction(td["signed_weight"]),
                    target=None,
                )
            )
        else:
            targets.append(
                DistributionTarget(
                    site=str(_require(td, "site", "distribution_target")),
                    product=str(_require(td, "product", "distribution_target")),
                    weight=to_fraction(_require(td, "weight", "distribution_target")),
                    target=int(_require(td, "target", "distribution_target")),
                )
            )
    weights = CostWeights(
        alpha=to_fraction(wd.get("alpha", 1)),
        beta=to_fraction(wd.get("beta", 0)),
        gamma=to_fraction(wd.get("gamma", 0)),
        theta=to_fraction(wd.get("theta", 0)),
        eta={str(k): to_fraction(v) for k, v in wd.get("eta", {}).items()},
        distribution_targets=tuple(targets),
        previous_plan=tuple((str(e), str(b), int(t)) for e, b, t in wd.get("previous_plan", ())),
        executed=tuple((str(e), str(b), int(t)) for e, b, t in wd.get("executed", ())),
    )

    fixed = []
    for fd in data.get("fixed_transports", ()):
        _check_keys(fd, ("regime", "product", "start"), "fixed_transport")
        fixed.append(
            FixedTransport(
                regime=str(_require(fd, "regime", "fixed_transport")),
                product=str(_require(fd, "product", "fixed_transport")),
                start=int(_require(fd, "start", "fixed_transport")),
            )
        )

    return Instance(
        name=str(data.get("name", "unnamed")),
        grid=grid,
        products=tuple(products),
        sites=tuple(sites),
        edges=tuple(edges),
        regimes=tuple(regimes),
        nominations=tuple(nominations),
        outages=tuple(outages),
        throughput_limits=tuple(limits),
        exclusion_groups=tuple(groups),
        weights=weights,
        fixed_transports=tuple(fixed),
    )


def instance_to_dict(inst: Instance) -> dict:
    def cap_dict(prof: CapacityProfile) -> dict:
        out: dict = {"initial": prof.initial}
        if prof.maximum is not None:
            out["max"] = list(prof.maximum) if isinstance(prof.maximum, tuple) else prof.maximum
        if prof.minimum != 0:
            out["min"] = list(prof.minimum) if isinstance(prof.minimum, tuple) else prof.minimum
        if prof.deltas:
            out["deltas"] = [[t, d] for t, d in prof.deltas]
        return out

    data: dict = {
        "name": inst.name,
        "horizon": {"length": inst.grid.horizon_len, "step_hours": fraction_to_json(inst.grid.step_hours)},
        "products": [
            {"id": p.id, "kind": p.kind, "unit_volume": fraction_to_json(p.unit_volume)} for p in inst.products
        ],
        "sites": [
            {
                "id": s.id,
                "kind": s.kind,
                "standard_batch": dict(s.standard_batch),
                "capacity": {pid: cap_dict(prof) for pid, prof in s.capacity.items()},
            }
            for s in inst.sites
        ],
        "edges": [
            {"id": e.id, "origin": e.origin, "destination": e.destination, "pipe_volume": e.pipe_volume}
            for e in inst.edges
        ],
        "regimes": [
            {
                "id": r.id,
                "edges": list(r.edges),
                "flow_rate": {pid: fraction_to_json(v) for pid, v in r.flow_rate.items()},
                **({"flush_volume": r.flush_volume} if r.flush_volume is not None else {}),
                **(
                    {"cost_per_batch": {bid: fraction_to_json(v) for bid, v in r.cost_per_batch.items()}}
                    if r.cost_per_batch
                    else {}
                ),
                **({"pass_times": dict(r.pass_times)} if r.pass_times else {}),
            }
            for r in inst.regimes
        ],
    }
    if inst.nominations:
        data["nominations"] = [{"refinery": n.refinery, "limits": dict(n.limits)} for n in inst.nominations]
    if inst.outages:
        outs = []
        for o in inst.outages:
            if isinstance(o, TankOutage):
                outs.append(
                    {"kind": "tank", "site": o.site, "product": o.product, "reduction": o.reduction, "times": list(o.times)}
                )
            else:
                outs.append({"kind": "transport", "batches": [list(b) for b in o.batches], "times": list(o.times)})
        data["outages"] = outs
    if inst.throughput_limits:
        data["throughput_limits"] = [
            {"edges": list(l.edges), "product": l.product, "times": list(l.times), "limit": l.limit}
            for l in inst.throughput_limits
        ]
    if inst.exclusion_groups:
        data["exclusion_groups"] = [{"members": list(g.members)} for g in inst.exclusion_groups]

    w = inst.weights
    wd: dict = {
        "alpha": fraction_to_json(w.alpha),
        "beta": fraction_to_json(w.beta),
        "gamma": fraction_to_json(w.gamma),
        "theta": fraction_to_json(w.theta),
    }
    if w.eta:
        wd["eta"] = {pid: fraction_to_json(v) for pid, v in w.eta.items()}
    if w.distribution_targets:
        tds = []
        for t in w.distribution_targets:
            if t.target is None:
                tds.append({"site": t.site, "product": t.product, "signed_weight": fraction_to_json(t.weight)})
            else:
                tds.append(
                    {"site": t.site, "product": t.product, "target": t.target, "weight": fraction_to_json(t.weight)}
                )
        wd["distribution_targets"] = tds
    if w.previous_plan:
        wd["previous_plan"] = [list(c) for c in w.previous_plan]
    if w.executed:
        wd["executed"] = [list(c) for c in w.executed]
    data["weights"] = wd
    if inst.fixed_transports:
        data["fixed_transports"] = [
            {"regime": f.regime, "product": f.product, "start": f.start} for f in inst.fixed_transports
        ]
    return data


def load_instance(path: Union[str, Path]) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_float=Fraction)
    return instance_from_dict(data)


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n", encoding="utf-8")


def instance_hash(inst: Instance) -> str:
    """Stable content hash used to tie models and run manifests to inputs."""
    canonical = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
