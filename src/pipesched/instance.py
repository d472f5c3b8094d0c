"""Problem-instance data model for multi-product pipeline scheduling.

An instance couples a directed pipe network with products, pumping regimes,
storage capacities, demand nominations and objective weights over a discrete
time horizon.  Volumes and occupancy bookkeeping are integral (per-product
volume units) and rates/weights are exact rationals, so every downstream
feasibility and objective computation can be carried out without rounding.

Instances are immutable after construction.  `validate_instance` returns a
machine-readable list of issues.

The JSON format is stated once, as one `_Key` table per object, and that
table drives both the reader and the writer.  The reader rejects unknown
keys, so a typo in an instance file fails loudly instead of being ignored,
and it treats a key as optional exactly when its dataclass field has a
default (plus `name`, which reads as "unnamed").  Time windows are slot
lists or {"start", "end"} objects, both ends inclusive; a distribution
target takes either `target` and `weight` or a lone `signed_weight`.  The
writer leaves out an `omit` key while it holds its default, so `save_instance`
and `instance_hash` see one canonical form.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional, Union

try:  # CPython's own SHA-256: `hashlib` would map OpenSSL's libcrypto for one digest
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

PRODUCT_KINDS = ("flushing", "staining")
SITE_KINDS = ("storage", "refinery")

# batch size variants: the origin's standard batch, or a flush fill of the regime's flush volume
STANDARD = "standard"
FLUSH_FILL = "flush_fill"

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


def batch_id(regime: str, product: str, variant: str) -> str:
    """A batch's id, as schedules and `cost_per_batch` keys name it."""
    return f"{regime}:{product}:{variant}"


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
    time ranges, then that every placement an outage, a fixed transport or an
    executed placement names is in the batch catalog and, when forced, fits.
    Feasibility of the scheduling problem itself is not checked here.
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
        priced = {batch_id(r.id, pid, variant) for pid in r.flow_rate for variant in (STANDARD, FLUSH_FILL)}
        for key in r.cost_per_batch:
            if key not in priced:
                bad("unknown_batch", f"regime {r.id!r} prices {key!r}, not <regime>:<pumped product>:<variant>")
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

    if issues:  # the catalog below assumes a sound instance
        return issues

    # a previous-plan placement may name any placement: one the catalog lacks counts as dropped
    from .batches import enumerate_batches  # here: `batches` imports this module

    catalog = enumerate_batches(inst)
    for out in inst.outages:
        if isinstance(out, TransportOutage):
            for eid, bid in out.batches:
                if eid not in catalog.chains.get(bid, ()):
                    bad("unknown_batch", f"transport outage names unknown batch {bid!r} on edge {eid!r}")
    bids = [batch_id(fx.regime, fx.product, STANDARD) for fx in inst.fixed_transports]  # all in the catalog
    fixed = [(catalog.initial_edge(bid), bid, fx.start) for bid, fx in zip(bids, inst.fixed_transports)]
    for what, placements in (("fixed transport", fixed), ("executed placement", w.executed)):
        for eid, bid, t in placements:
            if eid not in catalog.chains.get(bid, ()):
                bad("unknown_batch", f"{what} {(eid, bid, t)} names unknown batch {bid!r} on edge {eid!r}")
            elif t + catalog.spec_by_id[bid].length > horizon:
                bad("placement_beyond_horizon", f"{what} {(eid, bid, t)} does not fit the horizon {horizon}")
    return issues


# ---------------------------------------------------------------------------
# JSON (de)serialization: one `_Key` tuple per object, walked by `_read` and `_write`


class InstanceFormatError(ValueError):
    pass


def _same(value):
    return value


def _int(value) -> int:
    """A JSON integer; a bool, a string or a number with a fraction part or point is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceFormatError(f"expected an integer, not {type(value).__name__} {value!r}")
    return value


def _id(value) -> str:
    """A JSON string (ids, kinds and names)."""
    if not isinstance(value, str):
        raise InstanceFormatError(f"expected a string, not {type(value).__name__} {value!r}")
    return value


def _array(value) -> list:
    if not isinstance(value, list):
        raise InstanceFormatError(f"expected an array, not {type(value).__name__} {value!r}")
    return value


class _Key(NamedTuple):
    """One JSON key of an object, and how its value maps to a dataclass field."""

    name: str
    read: Callable[[Any], Any] = _id
    write: Callable[[Any], Any] = _same
    omit: bool = False  # left out on write while the field holds its default
    attr: str = ""  # the dataclass field, where it is not `name`


def _default(cls: type, attr: str):
    """The default of dataclass field `attr` of `cls`; MISSING for a required field."""
    f = cls.__dataclass_fields__[attr]
    return f.default if f.default_factory is MISSING else f.default_factory()


def _read(cls: type, keys: tuple[_Key, ...], data, where: str):
    """The `cls` that JSON object `data` describes; absent keys take the field defaults."""
    if not isinstance(data, Mapping):
        raise InstanceFormatError(f"{where} must be an object, not {type(data).__name__}")
    unknown = set(data) - {key.name for key in keys}
    if unknown:
        raise InstanceFormatError(f"unknown keys {sorted(unknown)} in {where}")
    values = {}
    for key in keys:
        attr = key.attr or key.name
        if key.name in data:
            try:
                values[attr] = key.read(data[key.name])
            except InstanceFormatError as exc:
                raise InstanceFormatError(f"{where} {key.name!r}: {exc}") from None
        elif _default(cls, attr) is MISSING:
            raise InstanceFormatError(f"missing key {key.name!r} in {where}")
    return cls(**values)


def _write(obj, keys: tuple[_Key, ...]) -> dict:
    """The JSON object of dataclass `obj`, in table order."""
    out = {}
    for key in keys:
        attr = key.attr or key.name
        value = getattr(obj, attr)
        if not (key.omit and value == _default(type(obj), attr)):
            out[key.name] = key.write(value)
    return out


def _object(cls: type, keys: tuple[_Key, ...], where: str):
    return lambda data: _read(cls, keys, data, where), lambda obj: _write(obj, keys)


def _each(read, write):
    """A JSON array whose elements `read` and `write` convert."""
    return lambda values: tuple(read(v) for v in _array(values)), lambda values: [write(v) for v in values]


def _by_id(read, write):
    """A JSON object keyed by id whose values `read` and `write` convert."""

    def read_map(values) -> dict:
        if not isinstance(values, Mapping):
            raise InstanceFormatError(f"expected an object, not {type(values).__name__} {values!r}")
        return {_id(k): read(v) for k, v in values.items()}

    return read_map, lambda values: {k: write(v) for k, v in values.items()}


def _rows(*reads):
    """A JSON array of arrays of exactly len(reads) elements, element i read by reads[i]."""

    def read_row(row) -> tuple:
        items = _array(row)
        if len(items) != len(reads):
            raise InstanceFormatError(f"expected {len(reads)} elements, got {len(items)}")
        return tuple(read(item) for read, item in zip(reads, items))

    return _each(read_row, list)


def _optional(read):
    return lambda value: None if value is None else read(value)


def _read_levels(value) -> Union[int, tuple[int, ...]]:
    """A stock level: one for every slot, or a list with one per slot."""
    if isinstance(value, list):
        return tuple(_int(x) for x in value)
    return _int(value)


def _write_levels(value):
    return list(value) if isinstance(value, tuple) else value


def _read_times(spec) -> tuple[int, ...]:
    """A time window is either an explicit slot list or {"start","end"} inclusive."""
    if isinstance(spec, Mapping):
        if set(spec) != {"start", "end"}:
            raise InstanceFormatError(f"a time window object takes exactly 'start' and 'end', not {sorted(spec)}")
        return tuple(range(_int(spec["start"]), _int(spec["end"]) + 1))
    return tuple(_int(t) for t in _array(spec))


_FRACTION = (to_fraction, fraction_to_json)
# [edge, batch, start] triples of two strings and an integer, in instance and schedule files
read_placements, _write_placements = _rows(_id, _id, _int)
_IDS = _each(_id, _same)
_INTS_BY_ID = _by_id(_int, _same)
_FRACTIONS_BY_ID = _by_id(*_FRACTION)
_TIMES = (_read_times, list)

_GRID_KEYS = (_Key("length", _int, attr="horizon_len"), _Key("step_hours", *_FRACTION))
_PRODUCT_KEYS = (_Key("id"), _Key("kind"), _Key("unit_volume", *_FRACTION))
_CAPACITY_KEYS = (
    _Key("initial", _int),
    _Key("max", _optional(_read_levels), _write_levels, omit=True, attr="maximum"),
    _Key("min", _read_levels, _write_levels, omit=True, attr="minimum"),
    _Key("deltas", *_rows(_int, _int), omit=True),
)
_SITE_KEYS = (
    _Key("id"),
    _Key("kind"),
    _Key("standard_batch", *_INTS_BY_ID),
    _Key("capacity", *_by_id(*_object(CapacityProfile, _CAPACITY_KEYS, "site capacity"))),
)
_EDGE_KEYS = (_Key("id"), _Key("origin"), _Key("destination"), _Key("pipe_volume", _int))
_REGIME_KEYS = (
    _Key("id"),
    _Key("edges", *_IDS),
    _Key("flow_rate", *_FRACTIONS_BY_ID),
    _Key("flush_volume", _optional(_int), omit=True),
    _Key("cost_per_batch", *_FRACTIONS_BY_ID, omit=True),
    _Key("pass_times", *_INTS_BY_ID, omit=True),
)
_NOMINATION_KEYS = (_Key("refinery"), _Key("limits", *_INTS_BY_ID))
# outages also carry "kind", which picks one of these tables
_TANK_OUTAGE_KEYS = (_Key("site"), _Key("product"), _Key("reduction", _int), _Key("times", *_TIMES))
_TRANSPORT_OUTAGE_KEYS = (_Key("batches", *_rows(_id, _id)), _Key("times", *_TIMES))
_OUTAGE_KINDS = (("tank", TankOutage, _TANK_OUTAGE_KEYS), ("transport", TransportOutage, _TRANSPORT_OUTAGE_KEYS))
_LIMIT_KEYS = (_Key("edges", *_IDS), _Key("product"), _Key("times", *_TIMES), _Key("limit", _int))
_GROUP_KEYS = (_Key("members", *_IDS),)
# a target-form distribution target must also give "target"
_TARGET_KEYS = (_Key("site"), _Key("product"), _Key("target", _int), _Key("weight", *_FRACTION))
_SIGNED_TARGET_KEYS = (_Key("site"), _Key("product"), _Key("signed_weight", *_FRACTION, attr="weight"))
_FIXED_KEYS = (_Key("regime"), _Key("product"), _Key("start", _int))


def _read_outage(data) -> Outage:
    kind = data.get("kind") if isinstance(data, Mapping) else None
    for name, cls, keys in _OUTAGE_KINDS:
        if kind == name:
            return _read(cls, keys, {k: v for k, v in data.items() if k != "kind"}, f"{name} outage")
    raise InstanceFormatError(f"an outage needs kind 'tank' or 'transport', not {kind!r}")


def _write_outage(outage: Outage) -> dict:
    name, _, keys = next(form for form in _OUTAGE_KINDS if isinstance(outage, form[1]))
    return {"kind": name, **_write(outage, keys)}


def _read_target(data) -> DistributionTarget:
    if isinstance(data, Mapping) and "signed_weight" in data:
        return _read(DistributionTarget, _SIGNED_TARGET_KEYS, data, "signed-weight distribution_target")
    target = _read(DistributionTarget, _TARGET_KEYS, data, "distribution_target")
    if target.target is None:
        raise InstanceFormatError("missing key 'target' in distribution_target")
    return target


def _write_target(target: DistributionTarget) -> dict:
    return _write(target, _SIGNED_TARGET_KEYS if target.target is None else _TARGET_KEYS)


_WEIGHTS_KEYS = (
    _Key("alpha", *_FRACTION),
    _Key("beta", *_FRACTION),
    _Key("gamma", *_FRACTION),
    _Key("theta", *_FRACTION),
    _Key("eta", *_FRACTIONS_BY_ID, omit=True),
    _Key("distribution_targets", *_each(_read_target, _write_target), omit=True),
    _Key("previous_plan", read_placements, _write_placements, omit=True),
    _Key("executed", read_placements, _write_placements, omit=True),
)
_INSTANCE_KEYS = (
    _Key("name"),
    _Key("horizon", *_object(TimeGrid, _GRID_KEYS, "horizon"), attr="grid"),
    _Key("products", *_each(*_object(Product, _PRODUCT_KEYS, "product"))),
    _Key("sites", *_each(*_object(Site, _SITE_KEYS, "site"))),
    _Key("edges", *_each(*_object(Edge, _EDGE_KEYS, "edge"))),
    _Key("regimes", *_each(*_object(PumpingRegime, _REGIME_KEYS, "regime"))),
    _Key("nominations", *_each(*_object(Nomination, _NOMINATION_KEYS, "nomination")), omit=True),
    _Key("outages", *_each(_read_outage, _write_outage), omit=True),
    _Key("throughput_limits", *_each(*_object(ThroughputLimit, _LIMIT_KEYS, "throughput_limit")), omit=True),
    _Key("exclusion_groups", *_each(*_object(ExclusionGroup, _GROUP_KEYS, "exclusion_group")), omit=True),
    _Key("weights", *_object(CostWeights, _WEIGHTS_KEYS, "weights")),
    _Key("fixed_transports", *_each(*_object(FixedTransport, _FIXED_KEYS, "fixed_transport")), omit=True),
)


def instance_from_dict(data: Mapping) -> Instance:
    """The instance a JSON document describes; any malformed part raises InstanceFormatError."""
    try:
        if isinstance(data, Mapping):
            data = {"name": "unnamed", **data}  # the one required field with a fallback
        return _read(Instance, _INSTANCE_KEYS, data, "instance")
    except InstanceFormatError:
        raise
    except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"malformed value ({type(exc).__name__}: {exc})") from exc


def instance_to_dict(inst: Instance) -> dict:
    return _write(inst, _INSTANCE_KEYS)


def load_instance(path: Union[str, Path]) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_float=Fraction)
    return instance_from_dict(data)


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n", encoding="utf-8")


def instance_hash(inst: Instance) -> str:
    """Stable content hash used to tie models and run manifests to inputs."""
    canonical = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()
