"""Benchmark instance generators.

`generate_path_instance` builds the deterministic path-network family used
by the experiment suites: a refinery feeding l-1 storage sites over a chain
of identical pipe segments, one flushing and one staining product, a pumping
regime per reachable site, daily outtakes and per-setting nominations.

`generate_oracle_instance` draws seeded random micro instances (1-2 edges,
short horizons, small integral volumes) that stay inside the exhaustive
oracle's limits while still exercising fills, outages, throughput windows,
exclusion groups, distribution targets and previous plans.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .batches import enumerate_batches
from .instance import (
    FLUSH_FILL,
    STANDARD,
    CapacityProfile,
    CostWeights,
    DistributionTarget,
    Edge,
    FixedTransport,
    Instance,
    Nomination,
    Product,
    PumpingRegime,
    Site,
    TankOutage,
    ThroughputLimit,
    ExclusionGroup,
    TimeGrid,
    TransportOutage,
    batch_id,
    validate_instance,
)

# batches per product and horizon length per experiment setting
SETTINGS: dict[str, tuple[int, int]] = {"A": (10, 480), "B": (15, 576), "C": (20, 576)}

FLUSH = "flush"
STAIN = "stain"
FLUSH_STD = 100  # volume units per standard flushing batch
STAIN_STD = 44
FLUSH_RATE = Fraction(100, 6)  # units per slot -> standard batch length 6
STAIN_RATE = Fraction(44, 3)  # -> length 3
PIPE_VOLUME = 100
SITE_CAPACITY = 600
BASE_STOCK = 120  # first storage site; +10 per further site
DAILY_OUTTAKE = 10  # units per product, site and day
DAY = 24
HAUL_EXPONENT = 2  # pumping cost = pump hours x (edge count)^exponent

OUTTAKE_POLICIES = ("daily", "front_loaded", "uniform_hourly")


@dataclass(frozen=True)
class PathExperimentParams:
    vertices: int = 4  # refinery plus vertices-1 storage sites
    setting: str = "A"
    cost_mode: str = "SD"  # SD: extraction only; SDC: extraction plus pumping cost
    outtake_policy: str = "daily"
    nomination_batches: Optional[int] = None  # override the setting's batch count
    horizon: Optional[int] = None  # override the setting's horizon


def _outtake_deltas(policy: str, horizon: int) -> list[tuple[int, int]]:
    """Stock-change events implementing one product's outtake stream."""
    if policy == "daily":
        return [(t, -DAILY_OUTTAKE) for t in range(DAY, horizon, DAY)]
    if policy == "front_loaded":
        return [(t, -DAILY_OUTTAKE) for t in range(0, horizon, DAY)]
    if policy == "uniform_hourly":
        out = []
        for t in range(1, horizon):
            step = DAILY_OUTTAKE * t // DAY - DAILY_OUTTAKE * (t - 1) // DAY
            if step:
                out.append((t, -step))
        return out
    raise ValueError(f"unknown outtake policy {policy!r}")


def generate_path_instance(params: PathExperimentParams) -> Instance:
    if params.setting not in SETTINGS:
        raise ValueError(f"unknown setting {params.setting!r}")
    if params.vertices < 2:
        raise ValueError("a path needs at least a refinery and one storage site")
    if params.cost_mode not in ("SD", "SDC"):
        raise ValueError(f"unknown cost mode {params.cost_mode!r}")
    batches, horizon = SETTINGS[params.setting]
    if params.nomination_batches is not None:
        batches = params.nomination_batches
    if params.horizon is not None:
        horizon = params.horizon
    n_store = params.vertices - 1

    products = (
        Product(FLUSH, "flushing", unit_volume=Fraction("58.14")),
        Product(STAIN, "staining", unit_volume=Fraction("64.94")),
    )
    standard = {FLUSH: FLUSH_STD, STAIN: STAIN_STD}
    deltas = tuple(_outtake_deltas(params.outtake_policy, horizon))

    sites = [Site("refinery", "refinery", standard_batch=standard)]
    for k in range(1, n_store + 1):
        stock = BASE_STOCK + DAILY_OUTTAKE * (k - 1)
        capacity = {
            pid: CapacityProfile(initial=stock, maximum=SITE_CAPACITY, minimum=0, deltas=deltas)
            for pid in (FLUSH, STAIN)
        }
        sites.append(Site(f"s{k}", "storage", standard_batch=standard, capacity=capacity))

    edges = []
    for k in range(1, n_store + 1):
        origin = "refinery" if k == 1 else f"s{k - 1}"
        edges.append(Edge(f"e{k}", origin, f"s{k}", pipe_volume=PIPE_VOLUME))

    regimes = []
    for k in range(1, n_store + 1):
        flush_std_len = math.ceil(FLUSH_STD / FLUSH_RATE)
        stain_len = math.ceil(STAIN_STD / STAIN_RATE)
        # pumping cost: pump hours scaled by haul length; the superlinear
        # exponent keeps near and far deliveries clearly separated in price
        haul = k**HAUL_EXPONENT
        costs = {
            batch_id(f"r{k}", FLUSH, STANDARD): flush_std_len * haul,
            batch_id(f"r{k}", STAIN, STANDARD): stain_len * haul,
        }
        regimes.append(
            PumpingRegime(
                id=f"r{k}",
                edges=tuple(f"e{i}" for i in range(1, k + 1)),
                flow_rate={FLUSH: FLUSH_RATE, STAIN: STAIN_RATE},
                # batches move whole-path, so one standard flush clears the
                # line behind a stain regardless of haul length
                flush_volume=PIPE_VOLUME,
                cost_per_batch=costs,
                pass_times={f"e{i}": flush_std_len for i in range(1, k + 1)},
            )
        )

    if params.cost_mode == "SD":
        weights = CostWeights(alpha=Fraction(1), eta={FLUSH: Fraction(1), STAIN: Fraction(1)})
    else:
        weights = CostWeights(
            alpha=Fraction(5), theta=Fraction(3, 1000), eta={FLUSH: Fraction(1), STAIN: Fraction(1)}
        )

    inst = Instance(
        name=f"path-l{params.vertices}-{params.setting}-{params.cost_mode}-{params.outtake_policy}",
        grid=TimeGrid(horizon),
        products=products,
        sites=tuple(sites),
        edges=tuple(edges),
        regimes=tuple(regimes),
        nominations=(
            Nomination("refinery", {FLUSH: FLUSH_STD * batches, STAIN: STAIN_STD * batches}),
        ),
        weights=weights,
    )
    issues = validate_instance(inst)
    if issues:
        raise ValueError("these parameters give an invalid instance: " + "; ".join(map(str, issues)))
    return inst


# ---------------------------------------------------------------------------
# randomized micro instances for oracle cross-checks


ORACLE_MAX_CANDIDATES = 40  # initial-edge placements an oracle instance may offer


def generate_oracle_instance(seed: int) -> Instance:
    rng = random.Random(seed)
    for _attempt in range(100):
        inst = _draw_oracle_instance(rng, seed)
        if inst is None:
            continue
        if validate_instance(inst):
            continue
        dispatches = enumerate_batches(inst).dispatches()
        n_cands = sum(inst.grid.horizon_len - spec.length + 1 for _eid, spec in dispatches)
        if 4 <= n_cands <= ORACLE_MAX_CANDIDATES:
            return inst
    raise RuntimeError(f"could not draw an oracle instance for seed {seed}")


def _draw_oracle_instance(rng: random.Random, seed: int) -> Optional[Instance]:
    two_edges = rng.random() < 0.4
    horizon = rng.choice((8, 9, 10)) if two_edges else rng.choice((9, 10, 11, 12))

    flush_len = rng.choice((2, 3))
    flush_std = rng.choice((4, 6))
    with_stain = rng.random() < 0.8
    stain_len = rng.choice((2, 3))
    stain_std = rng.choice((2, 3, 4))

    products = [Product(FLUSH, "flushing")]
    if with_stain:
        products.append(Product(STAIN, "staining"))
    standard = {FLUSH: flush_std, **({STAIN: stain_std} if with_stain else {})}
    flow = {FLUSH: Fraction(flush_std, flush_len), **({STAIN: Fraction(stain_std, stain_len)} if with_stain else {})}

    def capacity() -> dict[str, CapacityProfile]:
        caps = {}
        for pid in standard:
            initial = rng.randint(3, 9)
            deltas = []
            if rng.random() < 0.25:
                t = rng.randint(1, horizon - 1)
                deltas.append((t, -rng.randint(1, max(1, initial - 1))))
            caps[pid] = CapacityProfile(
                initial=initial,
                maximum=initial + rng.randint(standard[pid], 3 * standard[pid] + 4),
                minimum=0,
                deltas=tuple(deltas),
            )
        return caps

    sites = [Site("R", "refinery", standard_batch=standard)]
    edges = [Edge("e1", "R", "S1", pipe_volume=rng.randint(1, 6))]
    sites.append(Site("S1", "storage", standard_batch=standard, capacity=capacity()))
    if two_edges:
        edges.append(Edge("e2", "S1", "S2", pipe_volume=rng.randint(1, 6)))
        sites.append(Site("S2", "storage", standard_batch=standard, capacity=capacity()))

    regimes = []
    if two_edges:
        regimes.append(PumpingRegime("r2", ("e1", "e2"), flow_rate=dict(flow)))
        if rng.random() < 0.6:
            regimes.append(PumpingRegime("r1", ("e1",), flow_rate=dict(flow)))
        if rng.random() < 0.25:
            regimes.append(PumpingRegime("rs", ("e2",), flow_rate=dict(flow)))
    else:
        regimes.append(PumpingRegime("r1", ("e1",), flow_rate=dict(flow)))

    # integral pumping costs make every objective exactly representable
    theta = Fraction(1) if rng.random() < 0.3 else Fraction(0)
    if theta:
        priced = []
        for r in regimes:
            costs = {}
            for pid in standard:
                std_len = math.ceil(Fraction(standard[pid]) / flow[pid])
                costs[batch_id(r.id, pid, STANDARD)] = std_len * len(r.edges)
            rv = sum(e.pipe_volume for e in edges if e.id in r.edges)
            if rv > flush_std:
                fill_len = math.ceil(Fraction(rv) / flow[FLUSH])
                costs[batch_id(r.id, FLUSH, FLUSH_FILL)] = fill_len * len(r.edges)
            priced.append(
                PumpingRegime(r.id, r.edges, flow_rate=r.flow_rate, cost_per_batch=costs)
            )
        regimes = priced

    nomination_limits = {FLUSH: flush_std * rng.randint(1, 2)}
    if with_stain:
        nomination_limits[STAIN] = stain_std * rng.randint(1, 2)

    outages = []
    if rng.random() < 0.25:
        eid = rng.choice(edges).id
        rid = rng.choice([r for r in regimes if eid in r.edges]).id
        pid = rng.choice(list(standard))
        t0 = rng.randint(0, horizon - 2)
        outages.append(
            TransportOutage(batches=((eid, batch_id(rid, pid, STANDARD)),), times=tuple(range(t0, min(horizon, t0 + 3))))
        )
    if rng.random() < 0.2:
        storage = [s for s in sites if s.kind == "storage"]
        site = rng.choice(storage)
        pid = rng.choice(list(standard))
        t0 = rng.randint(0, horizon - 2)
        outages.append(
            TankOutage(site=site.id, product=pid, reduction=rng.randint(1, 3), times=tuple(range(t0, min(horizon, t0 + 3))))
        )

    limits = []
    if rng.random() < 0.25:
        pid = rng.choice(list(standard))
        t0 = rng.randint(0, horizon - 3)
        limits.append(
            ThroughputLimit(
                edges=("e1",),
                product=pid,
                times=tuple(range(t0, min(horizon, t0 + rng.randint(2, 4)))),
                limit=rng.randint(standard[pid], 3 * standard[pid]),
            )
        )

    groups = []
    if len(regimes) >= 2 and rng.random() < 0.3:
        members = rng.sample([r.id for r in regimes], 2)
        groups.append(ExclusionGroup(members=tuple(members)))

    targets = []
    beta = Fraction(0)
    if rng.random() < 0.25:
        beta = Fraction(1)
        storage = [s for s in sites if s.kind == "storage"]
        site = rng.choice(storage)
        pid = rng.choice(list(standard))
        if rng.random() < 0.5:
            targets.append(
                DistributionTarget(
                    site=site.id,
                    product=pid,
                    weight=Fraction(rng.randint(1, 2)),
                    target=max(0, site.profile(pid).initial + rng.randint(-2, 4)),
                )
            )
        else:
            targets.append(
                DistributionTarget(site=site.id, product=pid, weight=Fraction(rng.choice((-1, 1))), target=None)
            )

    previous = []
    gamma = Fraction(0)
    if rng.random() < 0.2:
        gamma = Fraction(1)
        for _ in range(rng.randint(1, 2)):
            r = rng.choice(regimes)
            pid = rng.choice([p for p in standard if p in r.flow_rate])
            length = math.ceil(Fraction(standard[pid]) / flow[pid])
            if horizon - length < 0:
                continue
            t = rng.randint(0, horizon - length)
            previous.append((r.edges[0], batch_id(r.id, pid, STANDARD), t))

    fixed = []
    if rng.random() < 0.12:
        r = rng.choice(regimes)
        pid = rng.choice(list(r.flow_rate))
        length = math.ceil(Fraction(standard[pid]) / flow[pid])
        if horizon - length >= 0:
            t = rng.randint(0, horizon - length)
            coords = {(e, batch_id(r.id, pid, STANDARD)) for e in r.edges}
            conflict = any(
                isinstance(o, TransportOutage) and set(o.batches) & coords and t in o.times for o in outages
            )
            if not conflict:
                fixed.append(FixedTransport(regime=r.id, product=pid, start=t))

    weights = CostWeights(
        alpha=Fraction(rng.randint(1, 3)),
        beta=beta,
        gamma=gamma,
        theta=theta,
        eta={pid: Fraction(rng.randint(1, 2)) for pid in standard},
        distribution_targets=tuple(targets),
        previous_plan=tuple(previous),
        executed=(),
    )

    return Instance(
        name=f"oracle-{seed}",
        grid=TimeGrid(horizon),
        products=tuple(products),
        sites=tuple(sites),
        edges=tuple(edges),
        regimes=tuple(regimes),
        nominations=(Nomination("R", nomination_limits),),
        outages=tuple(outages),
        throughput_limits=tuple(limits),
        exclusion_groups=tuple(groups),
        weights=weights,
        fixed_transports=tuple(fixed),
    )
