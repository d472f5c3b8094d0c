"""Benchmark families: path instances, outtake policies, oracle draws."""

from __future__ import annotations

import pytest

from pipesched.batches import enumerate_batches
from pipesched.generator import (
    DAILY_OUTTAKE,
    DAY,
    OUTTAKE_POLICIES,
    SETTINGS,
    PathExperimentParams,
    _outtake_deltas,
    generate_oracle_instance,
    generate_path_instance,
)
from pipesched.instance import instance_hash, instance_to_dict, validate_instance
from pipesched.milpmodel import build_model
from pipesched.oracle import MAX_EDGES, MAX_HORIZON
from pipesched.validator import nomination_shortfalls


def test_setting_table():
    assert SETTINGS == {"A": (10, 480), "B": (15, 576), "C": (20, 576)}


@pytest.mark.parametrize("setting,expected", [("A", (1000, 440)), ("B", (1500, 660)), ("C", (2000, 880))])
def test_nomination_volumes_follow_setting(setting, expected):
    inst = generate_path_instance(PathExperimentParams(vertices=4, setting=setting))
    limits = inst.nominations[0].limits
    assert (limits["flush"], limits["stain"]) == expected


def test_batch_lengths_are_six_and_three():
    inst = generate_path_instance(PathExperimentParams(vertices=5, setting="B"))
    cat = enumerate_batches(inst)
    lengths = {(s.product, s.length) for s in cat.specs}
    assert lengths == {("flush", 6), ("stain", 3)}


def test_path_topology_and_stocks():
    inst = generate_path_instance(PathExperimentParams(vertices=4, setting="A"))
    assert [e.id for e in inst.edges] == ["e1", "e2", "e3"]
    assert [r.edges for r in inst.regimes] == [("e1",), ("e1", "e2"), ("e1", "e2", "e3")]
    stocks = [s.profile("flush").initial for s in inst.storage_sites()]
    assert stocks == [120, 130, 140]  # +10 per site down the line
    assert all(r.flush_volume == 100 for r in inst.regimes)


def test_pumping_cost_scales_with_squared_haul():
    inst = generate_path_instance(PathExperimentParams(vertices=4, setting="B", cost_mode="SDC"))
    costs = {k: v for r in inst.regimes for k, v in r.cost_per_batch.items()}
    assert costs["r1:flush:standard"] == 6
    assert costs["r2:flush:standard"] == 24
    assert costs["r3:flush:standard"] == 54
    assert costs["r3:stain:standard"] == 27


def test_cost_mode_sets_weights():
    sd = generate_path_instance(PathExperimentParams(vertices=4, setting="A", cost_mode="SD"))
    sdc = generate_path_instance(PathExperimentParams(vertices=4, setting="A", cost_mode="SDC"))
    assert sd.weights.alpha == 1 and sd.weights.theta == 0
    assert sdc.weights.alpha == 5 and float(sdc.weights.theta) == pytest.approx(3e-3)


def test_outtake_policies_drain_the_same_total():
    horizon = 480
    totals = {}
    for policy in OUTTAKE_POLICIES:
        deltas = _outtake_deltas(policy, horizon)
        assert all(change < 0 for _t, change in deltas)
        assert all(0 <= t < horizon for t, _change in deltas)
        totals[policy] = -sum(change for _t, change in deltas)
    # front-loaded adds the day-0 event, hourly matches it by end of horizon
    assert totals["daily"] == DAILY_OUTTAKE * (horizon // DAY - 1)
    assert totals["front_loaded"] == DAILY_OUTTAKE * (horizon // DAY)
    assert totals["uniform_hourly"] == DAILY_OUTTAKE * (horizon - 1) // DAY


def test_uniform_hourly_tracks_daily_cumulative():
    deltas = dict(_outtake_deltas("uniform_hourly", 480))
    cumulative = 0
    for t in range(1, 480):
        cumulative += -deltas.get(t, 0)
        assert cumulative == DAILY_OUTTAKE * t // DAY


def test_generation_is_deterministic():
    params = PathExperimentParams(vertices=5, setting="B", cost_mode="SDC")
    a = generate_path_instance(params)
    b = generate_path_instance(params)
    assert instance_to_dict(a) == instance_to_dict(b)
    assert instance_hash(a) == instance_hash(b)


@pytest.mark.parametrize("vertices", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("setting", ["A", "B", "C"])
def test_generated_instances_validate(vertices, setting):
    inst = generate_path_instance(PathExperimentParams(vertices=vertices, setting=setting))
    assert validate_instance(inst) == []


def _shortfalls(params: PathExperimentParams) -> list[str]:
    inst = generate_path_instance(params)
    return nomination_shortfalls(inst, enumerate_batches(inst))


def test_precheck_passes_default_feasible_cases():
    assert _shortfalls(PathExperimentParams(vertices=4, setting="A")) == []
    assert _shortfalls(PathExperimentParams(vertices=6, setting="A")) == []


def test_precheck_flags_oversubscribed_stains():
    warnings = _shortfalls(PathExperimentParams(vertices=8, setting="B"))
    assert len(warnings) == 1
    assert warnings[0].startswith("stain:")
    assert "cannot be feasible" in warnings[0]


# the sweep's infeasible cells: (vertices, setting) -> the outtake policies that over-subscribe the stain nomination
SWEEP_FLAGGED = {
    (8, "A"): {"front_loaded", "uniform_hourly"},
    (10, "A"): {"front_loaded", "uniform_hourly"},
    (10, "C"): {"front_loaded", "uniform_hourly"},
    (8, "B"): set(OUTTAKE_POLICIES),
    (10, "B"): set(OUTTAKE_POLICIES),
}


@pytest.mark.parametrize("policy", OUTTAKE_POLICIES)
@pytest.mark.parametrize("setting", ["A", "B", "C"])
@pytest.mark.parametrize("vertices", [3, 4, 6, 8, 10])
def test_sweep_build_warns_exactly_where_the_nomination_falls_short(vertices, setting, policy):
    params = PathExperimentParams(vertices=vertices, setting=setting, cost_mode="SDC", outtake_policy=policy)
    warnings = build_model(generate_path_instance(params)).metadata["warnings"]
    if policy in SWEEP_FLAGGED.get((vertices, setting), ()):
        assert len(warnings) == 1 and warnings[0].startswith("stain:") and "cannot be feasible" in warnings[0]
    else:
        assert warnings == []


@pytest.mark.parametrize(
    "params",
    [
        PathExperimentParams(vertices=4, setting="A"),
        PathExperimentParams(vertices=6, setting="A"),
        PathExperimentParams(vertices=6, setting="B", cost_mode="SDC"),
        PathExperimentParams(vertices=8, setting="C", cost_mode="SDC"),
        PathExperimentParams(vertices=6, setting="C", cost_mode="SDC", nomination_batches=40, horizon=744),
        PathExperimentParams(vertices=8, setting="C", cost_mode="SDC", nomination_batches=40, horizon=744),
    ],
    ids=["l4A", "l6A", "l6B", "l8C", "month-l6", "month-l8"],
)
def test_ladder_rungs_and_the_month_build_without_warnings(params):
    assert build_model(generate_path_instance(params)).metadata["warnings"] == []


def test_oracle_draws_are_valid_and_deterministic():
    for seed in range(25):
        inst = generate_oracle_instance(seed)
        assert validate_instance(inst) == [], seed
        assert len(inst.edges) <= MAX_EDGES
        assert inst.grid.horizon_len <= MAX_HORIZON
        again = generate_oracle_instance(seed)
        assert instance_hash(inst) == instance_hash(again)


def test_oracle_draws_vary_across_seeds():
    hashes = {instance_hash(generate_oracle_instance(seed)) for seed in range(10)}
    assert len(hashes) == 10
