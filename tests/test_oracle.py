"""Exhaustive reference optimizer: exact optima on tiny instances."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import compress, product

import pytest

from pipesched.batches import enumerate_batches
from pipesched.generator import PathExperimentParams, generate_oracle_instance, generate_path_instance
from pipesched.instance import FixedTransport, TransportOutage
from pipesched.oracle import (
    ORACLE_STATUS_BUDGET,
    ORACLE_STATUS_INFEASIBLE,
    ORACLE_STATUS_OPTIMAL,
    OracleLimits,
    brute_force_optimum,
)
from pipesched.schedule import Schedule
from pipesched.validator import check_schedule, evaluate_objective
from tests.conftest import single_edge_instance


def test_small_fixture_optimum_is_exact(ref1_small):
    res = brute_force_optimum(ref1_small)
    assert res.status == ORACLE_STATUS_OPTIMAL
    assert res.objective == 144  # full 100 + 44 extraction fits the 12 slots
    assert res.nodes > 0
    catalog = enumerate_batches(ref1_small)
    assert check_schedule(ref1_small, catalog, res.schedule) == []


def test_oracle_is_deterministic(ref1_small):
    a = brute_force_optimum(ref1_small)
    b = brute_force_optimum(ref1_small)
    assert a.objective == b.objective
    assert a.schedule.placements == b.schedule.placements


def test_node_budget_sentinel(ref1_small):
    res = brute_force_optimum(ref1_small, OracleLimits(node_budget=1))
    assert res.status == ORACLE_STATUS_BUDGET
    assert res.objective is None


def test_limit_guards_reject_large_inputs():
    three_edges = generate_path_instance(PathExperimentParams(vertices=4, horizon=12))
    with pytest.raises(ValueError, match="instance has 3 edges, oracle limit is 2"):
        brute_force_optimum(three_edges)
    with pytest.raises(ValueError, match="horizon 25 exceeds oracle limit 24"):
        brute_force_optimum(single_edge_instance(horizon=25))
    # five copies of the one regime offer 5 x 41 dispatches on the 24-slot pipe
    base = single_edge_instance()
    copies = tuple(dataclasses.replace(base.regimes[0], id=f"r{k}", cost_per_batch={}) for k in range(1, 6))
    with pytest.raises(ValueError, match="205 candidate placements exceed oracle limit 200"):
        brute_force_optimum(dataclasses.replace(base, regimes=copies))


def test_forced_transport_appears_in_optimum(ref1_small):
    inst = dataclasses.replace(
        ref1_small,
        fixed_transports=(FixedTransport(regime="r1", product="stain", start=0),),
    )
    res = brute_force_optimum(inst)
    assert res.status == ORACLE_STATUS_OPTIMAL
    assert ("e1", "r1:stain:standard", 0) in res.schedule.placements


def test_forced_transport_inside_outage_is_infeasible(ref1_small):
    inst = dataclasses.replace(
        ref1_small,
        fixed_transports=(FixedTransport(regime="r1", product="flush", start=2),),
        outages=(TransportOutage(batches=(("e1", "r1:flush:standard"),), times=(2,)),),
    )
    res = brute_force_optimum(inst)
    assert res.status == ORACLE_STATUS_INFEASIBLE
    assert res.schedule is None


def test_capacity_prunes_extraction():
    # per-product tanks at 230: one flush (120+100) and two stains (120+88)
    # fit, a second flush or third stain would breach the blocked bound
    inst = single_edge_instance(horizon=24, cmax=230)
    res = brute_force_optimum(inst)
    assert res.status == ORACLE_STATUS_OPTIMAL
    assert res.objective == 188


def _with_delta(inst, site_id, product_id, delta):
    """`inst` with one exogenous stock change on one tank."""
    site = inst.site(site_id)
    profile = dataclasses.replace(site.capacity[product_id], deltas=(delta,))
    site = dataclasses.replace(site, capacity={**site.capacity, product_id: profile})
    return dataclasses.replace(inst, sites=tuple(site if s.id == site_id else s for s in inst.sites))


def test_tank_below_minimum_is_repaired_by_a_delivery():
    # the outtake at slot 10 empties the flush tank below 0 unless a flush batch has arrived by then
    inst = _with_delta(single_edge_instance(horizon=12, batches=1), "s1", "flush", (10, -150))
    res = brute_force_optimum(inst)
    assert res.status == ORACLE_STATUS_OPTIMAL
    assert res.objective == 144
    assert ("e1", "r1:flush:standard", 3) in res.schedule.placements


def test_tank_above_capacity_is_repaired_by_a_drain():
    # an inflow at slot 9 overfills s1 unless a batch pumped out of s1 over e2 has arrived by then
    inst = generate_path_instance(PathExperimentParams(vertices=3, horizon=10, nomination_batches=1))
    s1_batches = dict(inst.site("refinery").standard_batch)
    sites = tuple(dataclasses.replace(s, standard_batch=s1_batches) if s.id == "s1" else s for s in inst.sites)
    drain = dataclasses.replace(inst.regime("r1"), id="r3", edges=("e2",), cost_per_batch={})
    inst = _with_delta(dataclasses.replace(inst, sites=sites, regimes=(*inst.regimes, drain)), "s1", "flush", (9, 500))
    res = brute_force_optimum(inst)
    assert res.status == ORACLE_STATUS_OPTIMAL
    assert res.schedule.placements == {("e2", "r3:flush:standard", 0)}


def test_executed_placement_on_a_transit_edge_forces_its_dispatch():
    # the executed coordinate names the batch's second edge; the dispatch on e1 is what must stay
    inst = generate_oracle_instance(3)
    coord = ("e2", "r2:flush:standard", 0)
    assert enumerate_batches(inst).chains[coord[1]] == ("e1", "e2")
    weights = dataclasses.replace(inst.weights, previous_plan=(coord,), executed=(coord,), gamma=Fraction(1))
    inst = dataclasses.replace(inst, weights=weights)
    res = brute_force_optimum(inst)
    assert res.status == ORACLE_STATUS_OPTIMAL
    assert res.objective == 23
    assert {coord, ("e1", coord[1], 0)} <= res.schedule.placements
    assert check_schedule(inst, enumerate_batches(inst), res.schedule) == []


@pytest.mark.parametrize("seed", [0, 1, 15, 20, 30, 34])  # the oracle seeds below 40 with at most 12 candidates
def test_pruned_search_equals_full_enumeration(seed):
    inst = generate_oracle_instance(seed)
    catalog = enumerate_batches(inst)
    H = inst.grid.horizon_len
    cands = [(eid, spec.id, t) for eid, spec in catalog.dispatches() for t in range(H - spec.length + 1)]
    best = None
    for mask in product((0, 1), repeat=len(cands)):
        schedule = Schedule.from_initial(catalog, compress(cands, mask))
        if check_schedule(inst, catalog, schedule):
            continue
        key = (evaluate_objective(inst, catalog, schedule)["total"], tuple(schedule.sorted_placements))
        if best is None or key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
            best = key
    res = brute_force_optimum(inst)
    if best is None:
        assert res.status == ORACLE_STATUS_INFEASIBLE
    else:
        assert res.status == ORACLE_STATUS_OPTIMAL
        assert (res.objective, tuple(res.schedule.sorted_placements)) == best
