"""Exhaustive reference optimizer: exact optima on tiny instances."""

from __future__ import annotations

import dataclasses

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
from pipesched.validator import check_schedule
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
