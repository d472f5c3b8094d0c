"""MILP compilation: variable layout, per-family rows, fixings, semantics."""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest

from pipesched.batches import enumerate_batches
from pipesched.generator import PathExperimentParams, generate_path_instance
from pipesched.instance import (
    ExclusionGroup,
    FixedTransport,
    TankOutage,
    ThroughputLimit,
    TransportOutage,
)
from pipesched.milpmodel import (
    ENDPOINT,
    FAM_CAP_LOWER,
    FAM_CAP_UPPER,
    FAM_EXCLUSION,
    FAM_FLUSH_ENFORCE,
    FAM_NOMINATION,
    FAM_OUTAGE,
    FAM_PACKING,
    FAM_ROUTES,
    FAM_THROUGHPUT,
    FAMILIES,
    FAMILY_SENSE,
    OCC_LOWER,
    OCC_UPPER,
    PLACEMENT,
    BuildOptions,
    ModelBuildError,
    RowStore,
    build_model,
    extend_placement_assignment,
    objective_value,
    row_name,
    violated_rows,
)
from pipesched.schedule import Schedule
from pipesched.validator import capacity_bound_violations, simulate_occupancy
from tests.conftest import single_edge_instance


def families(model, assignment):
    return {FAMILIES[model.constraints.family[r]] for r in violated_rows(model, assignment)}


def test_reference_variable_counts(ref1):
    model = build_model(ref1)
    kinds = {}
    for v in model.variables:
        kinds[v.kind] = kinds.get(v.kind, 0) + 1
    # flush length 6 -> starts 0..18, stain length 3 -> starts 0..21
    assert kinds[PLACEMENT] == 19 + 22 == 41
    assert kinds[ENDPOINT] == 22
    assert kinds[OCC_UPPER] == kinds[OCC_LOWER] == 48  # 2 products x 24 slots
    assert model.metadata["binaries"] == 41
    assert all(v.binary == (v.kind == PLACEMENT) for v in model.variables)


def test_reference_family_counts(ref1):
    counts = build_model(ref1).family_counts()
    assert counts["packing"] == 24
    assert counts["routes"] == 0
    assert counts["capacity_def_upper"] + counts["capacity_def_lower"] == 96
    assert counts["capacity_upper"] == counts["capacity_lower"] == 48
    assert counts["flushing_link"] == 22
    assert counts["nomination"] == 2


def test_packing_blocks_overlap(ref1):
    model = build_model(ref1)
    # two flush batches overlapping by one slot
    bad = extend_placement_assignment(model, [("e1", "r1:flush:standard", 0), ("e1", "r1:flush:standard", 5)])
    assert "packing" in families(model, bad)
    ok = extend_placement_assignment(model, [("e1", "r1:flush:standard", 0), ("e1", "r1:flush:standard", 6)])
    assert "packing" not in families(model, ok)


def test_stain_completion_requires_immediate_follow_up(ref1):
    model = build_model(ref1)
    # stain finishing at t=3 with nothing after it
    alone = extend_placement_assignment(model, [("e1", "r1:stain:standard", 0)])
    assert FAM_FLUSH_ENFORCE in families(model, alone)
    # a flush starting exactly at the completion instant satisfies it
    flushed = extend_placement_assignment(
        model, [("e1", "r1:stain:standard", 0), ("e1", "r1:flush:standard", 3)]
    )
    assert FAM_FLUSH_ENFORCE not in families(model, flushed)
    # another stain of the same product also counts as a follow-up
    chained = extend_placement_assignment(
        model,
        [("e1", "r1:stain:standard", 0), ("e1", "r1:stain:standard", 3), ("e1", "r1:flush:standard", 6)],
    )
    assert FAM_FLUSH_ENFORCE not in families(model, chained)
    # a gap before the flush does not
    gap = extend_placement_assignment(
        model, [("e1", "r1:stain:standard", 0), ("e1", "r1:flush:standard", 5)]
    )
    assert FAM_FLUSH_ENFORCE in families(model, gap)


def test_endpoint_marker_follows_placement(ref1):
    model = build_model(ref1)
    assignment = extend_placement_assignment(model, [("e1", "r1:stain:standard", 4)])
    w = model.variables.vid(ENDPOINT, ("e1", "r1:stain:standard", 7))
    assert assignment[w] == 1
    other = model.variables.vid(ENDPOINT, ("e1", "r1:stain:standard", 5))
    assert assignment[other] == 0


def test_blocked_and_on_stock_jump_at_different_instants(ref1):
    model = build_model(ref1)
    assignment = extend_placement_assignment(model, [("e1", "r1:flush:standard", 2)])
    upper = {t: assignment[model.variables.vid(OCC_UPPER, ("s1", "flush", t))] for t in range(12)}
    lower = {t: assignment[model.variables.vid(OCC_LOWER, ("s1", "flush", t))] for t in range(12)}
    assert upper[1] == 120 and upper[2] == 220  # counted from pour start
    assert lower[7] == 120 and lower[8] == 220  # counted from completion
    assert violated_rows(model, assignment) == []


def test_capacity_upper_violation_detected(ref1_long):
    from tests.conftest import with_capacity

    # six early flush deliveries push blocked stock to 720; a 600-unit tank
    # flags them while the 1200-unit variant stays clean
    placements = [("e1", "r1:flush:standard", 6 * k) for k in range(6)]
    roomy = build_model(ref1_long)
    assert FAM_CAP_UPPER not in families(roomy, extend_placement_assignment(roomy, placements))
    tight = build_model(with_capacity(ref1_long, maximum=600))
    assert FAM_CAP_UPPER in families(tight, extend_placement_assignment(tight, placements))


def test_capacity_lower_violation_detected(ref1_long):
    # outtakes pull stock to 80 by t=96; an inflow-free schedule stays legal,
    # but tightening the floor above that exposes a lower-bound violation
    sites = []
    for s in ref1_long.sites:
        if s.kind != "storage":
            sites.append(s)
            continue
        caps = {pid: dataclasses.replace(prof, minimum=100) for pid, prof in s.capacity.items()}
        sites.append(dataclasses.replace(s, capacity=caps))
    floor = dataclasses.replace(ref1_long, sites=tuple(sites), name="floor")
    model = build_model(floor)
    empty = extend_placement_assignment(model, [])
    assert FAM_CAP_LOWER in families(model, empty)


def test_tank_outage_listing_a_slot_twice_lowers_it_once():
    inst = dataclasses.replace(
        single_edge_instance(horizon=12, batches=2),
        outages=(TankOutage(site="s1", product="flush", reduction=50, times=(5, 5)),),
        name="twice",
    )
    model = build_model(inst)
    rows, fid = model.constraints, FAMILIES.index(FAM_CAP_UPPER)
    # a bound row's one term is the occupancy column it bounds
    bound = {rows.col[rows.start[r]]: rows.rhs[r] for r, family in enumerate(rows.family) if family == fid}
    rhs = {t: bound[model.variables.vid(OCC_UPPER, ("s1", "flush", t))] for t in (4, 5)}
    assert rhs == {4: 600, 5: 550}
    occupancy = simulate_occupancy(inst, model.catalog, Schedule.from_raw([]))
    occupancy.upper[("s1", "flush")] = [551] * 12
    report = capacity_bound_violations(inst, occupancy)
    assert [(v.family, v.coordinate, v.bound) for v in report] == [(FAM_CAP_UPPER, ("s1", "flush", 5), 550)]


def test_throughput_window_counts_volume(ref1):
    inst = dataclasses.replace(
        ref1,
        throughput_limits=(
            ThroughputLimit(edges=("e1",), product="flush", times=tuple(range(24)), limit=150),
        ),
        name="tp",
    )
    model = build_model(inst)
    two = extend_placement_assignment(
        model, [("e1", "r1:flush:standard", 0), ("e1", "r1:flush:standard", 6)]
    )
    assert FAM_THROUGHPUT in families(model, two)
    one = extend_placement_assignment(model, [("e1", "r1:flush:standard", 0)])
    assert FAM_THROUGHPUT not in families(model, one)


def test_nomination_caps_dispatched_volume(ref1):
    model = build_model(ref1)
    # eleven flush dispatches exceed the 1000-unit nomination; overlap is
    # irrelevant here because only the nomination family is inspected
    eleven = extend_placement_assignment(model, [("e1", "r1:flush:standard", t) for t in range(11)])
    assert FAM_NOMINATION in families(model, eleven)
    ten = extend_placement_assignment(model, [("e1", "r1:flush:standard", t) for t in range(10)])
    assert FAM_NOMINATION not in families(model, ten)


def test_route_rows_synchronize_chain_edges():
    inst = generate_path_instance(PathExperimentParams(vertices=3, setting="A", horizon=24))
    model = build_model(inst)
    desync = extend_placement_assignment(model, [("e1", "r2:flush:standard", 0)])
    assert FAM_ROUTES in families(model, desync)
    synced = extend_placement_assignment(
        model, [("e1", "r2:flush:standard", 0), ("e2", "r2:flush:standard", 0)]
    )
    assert FAM_ROUTES not in families(model, synced)


def test_outage_fixes_placements_to_zero(ref1):
    inst = dataclasses.replace(
        ref1,
        outages=(TransportOutage(batches=(("e1", "r1:flush:standard"),), times=(4, 5)),),
        name="outage",
    )
    model = build_model(inst)
    hit = extend_placement_assignment(model, [("e1", "r1:flush:standard", 4)])
    assert FAM_OUTAGE in families(model, hit)
    missed = extend_placement_assignment(model, [("e1", "r1:flush:standard", 6)])
    assert FAM_OUTAGE not in families(model, missed)


def test_outage_on_unknown_batch_rejected(ref1):
    inst = dataclasses.replace(
        ref1,
        outages=(TransportOutage(batches=(("e1", "r1:ghost:standard"),), times=(0,)),),
        name="badoutage",
    )
    with pytest.raises(ModelBuildError, match="unknown batch"):
        build_model(inst)


def test_tank_outage_tightens_upper_bound(ref1):
    from pipesched.instance import TankOutage

    inst = dataclasses.replace(
        ref1,
        outages=(TankOutage(site="s1", product="flush", reduction=550, times=(10,)),),
        name="tank",
    )
    model = build_model(inst)
    rows = {c.name: c for c in model.constraints if c.family == FAM_CAP_UPPER}
    by_rhs = sorted({float(c.rhs) for c in rows.values()})
    assert by_rhs == [50.0, 600.0]  # 600 - 550 at the outage slot


def test_exclusion_group_window_is_inclusive(ref1):
    r1 = ref1.regimes[0]
    r2 = dataclasses.replace(r1, id="r2", cost_per_batch={})
    inst = dataclasses.replace(
        ref1,
        regimes=(r1, r2),
        exclusion_groups=(ExclusionGroup(members=("r1", "r2")),),
        name="excl",
    )
    model = build_model(inst)
    # r1 flush runs 0..6; r2 starting at t=6 is still inside the window
    boundary = extend_placement_assignment(
        model, [("e1", "r1:flush:standard", 0), ("e1", "r2:flush:standard", 6)]
    )
    assert FAM_EXCLUSION in families(model, boundary)
    after = extend_placement_assignment(
        model, [("e1", "r1:flush:standard", 0), ("e1", "r2:flush:standard", 7)]
    )
    assert FAM_EXCLUSION not in families(model, after)


def test_fixed_transport_forces_placement(ref1):
    inst = dataclasses.replace(
        ref1, fixed_transports=(FixedTransport(regime="r1", product="flush", start=2),), name="fx"
    )
    model = build_model(inst)
    without = extend_placement_assignment(model, [])
    assert "fixed" in families(model, without)
    with_it = extend_placement_assignment(model, [("e1", "r1:flush:standard", 2)])
    assert "fixed" not in families(model, with_it)


def test_fixed_transport_beyond_fit_rejected(ref1):
    inst = dataclasses.replace(
        ref1, fixed_transports=(FixedTransport(regime="r1", product="flush", start=20),), name="fx2"
    )
    with pytest.raises(ModelBuildError, match="does not fit"):
        build_model(inst)


def test_contradictory_outage_and_fixed_rejected(ref1):
    inst = dataclasses.replace(
        ref1,
        outages=(TransportOutage(batches=(("e1", "r1:flush:standard"),), times=(2,)),),
        fixed_transports=(FixedTransport(regime="r1", product="flush", start=2),),
        name="clash",
    )
    with pytest.raises(ModelBuildError, match="contradictory"):
        build_model(inst)


def test_objective_counts_extraction(ref1):
    model = build_model(ref1)
    assignment = extend_placement_assignment(
        model, [("e1", "r1:flush:standard", 0), ("e1", "r1:stain:standard", 6)]
    )
    assert objective_value(model, assignment) == 144


def test_lazy_flag_marks_only_the_occupancy_bounds(ref1):
    lazy = build_model(ref1, BuildOptions(capacity_lazy=True))
    flagged = {c.family for c in lazy.constraints if c.lazy}
    assert flagged == {FAM_CAP_UPPER, FAM_CAP_LOWER}
    assert [FAMILIES[f] for f, flag in enumerate(lazy.constraints.lazy) if flag] == [FAM_CAP_UPPER, FAM_CAP_LOWER]
    assert sum(c.lazy for c in lazy.constraints) == 96
    eager = build_model(ref1)
    assert not any(eager.constraints.lazy)
    # the flag is all that differs between the two builds
    for name in ("start", "col", "coef", "rhs", "family"):
        assert getattr(lazy.constraints, name) == getattr(eager.constraints, name), name
    # each bound row holds one term, a distinct occupancy column of its family's kind at its (site, product, t),
    # so the lazy loop and the writer can address it by that column
    rows, columns = lazy.constraints, lazy.variables
    kind = {FAM_CAP_UPPER: OCC_UPPER, FAM_CAP_LOWER: OCC_LOWER}
    seen = set()
    for r, f in enumerate(rows.family):
        if rows.lazy[f]:
            (vid,) = rows.col[rows.start[r] : rows.start[r + 1]]
            (block,) = [b for b in columns.blocks if b.start <= vid < b.start + b.count]
            assert block.kind == kind[FAMILIES[f]]
            assert columns.vid(block.kind, (*block.prefix, block.first + vid - block.start)) == vid
            seen.add(vid)
    assert len(seen) == 96


def test_a_family_is_lazy_or_not_as_a_whole():
    rows = RowStore()
    rows.add(FAM_CAP_UPPER, [], [], [], [], lazy=True)  # no rows yet: the flag may still change
    rows.add(FAM_CAP_UPPER, [0], [1], [1], [5])
    with pytest.raises(ModelBuildError, match="lazy"):
        rows.add(FAM_CAP_UPPER, [1], [1], [1], [5], lazy=True)
    assert len(rows) == 1 and not any(rows.lazy)
    rows.add(FAM_CAP_LOWER, [2], [1], [1], [0], lazy=True)
    assert [FAMILIES[f] for f, flag in enumerate(rows.lazy) if flag] == [FAM_CAP_LOWER]


@pytest.mark.parametrize("vertices,setting,cost_mode", [(4, "A", "SD"), (6, "B", "SDC")])
def test_rows_and_bounds_are_plain_integers(vertices, setting, cost_mode):
    # only the objective is rational; every row and bound is a volume or a count
    inst = generate_path_instance(PathExperimentParams(vertices=vertices, setting=setting, cost_mode=cost_mode))
    model = build_model(inst)
    assert all(type(coef) is int for c in model.constraints for _vid, coef in c.terms)
    assert all(type(c.rhs) is int for c in model.constraints)
    assert all(type(b) is int for v in model.variables for b in (v.lb, v.ub) if b is not None)


def test_model_objective_matches_validator_on_oracle_optima():
    from pipesched.generator import generate_oracle_instance
    from pipesched.oracle import ORACLE_STATUS_OPTIMAL, brute_force_optimum
    from pipesched.validator import evaluate_objective

    checked = 0
    for seed in range(12):
        inst = generate_oracle_instance(seed)
        res = brute_force_optimum(inst)
        if res.status != ORACLE_STATUS_OPTIMAL:
            continue
        model = build_model(inst)
        value = objective_value(model, extend_placement_assignment(model, res.schedule.placements))
        assert value == evaluate_objective(inst, model.catalog, res.schedule)["total"] == res.objective, seed
        checked += 1
    assert checked >= 8


def test_row_iteration_lists_no_terms_ahead():
    # the iteration view, kept for the benchmark's model counts, builds one row at a time: walking
    # the 6B model's 166k terms peaks under 4 MB, where a list of every (column, coefficient) pair takes 15.7 MB
    model = build_model(generate_path_instance(PathExperimentParams(vertices=6, setting="B", cost_mode="SDC")))
    rows = model.constraints
    tracemalloc.start()
    try:
        nnz = sum(len(c.terms) for c in rows)
        _held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nnz == len(rows.col) == 166_130
    assert peak < 4 * 2**20
    ((name, family, terms, sense, rhs, _lazy),) = deque(rows, maxlen=1)
    assert terms == tuple(zip(rows.col[rows.start[-2] :], rows.coef[rows.start[-2] :]))
    fid = rows.family[-1]
    # the rank is the count of the family's earlier rows, the sense the family's
    assert (name, family, rhs) == (row_name(fid, rows.family.count(fid) - 1), FAMILIES[fid], rows.rhs[-1])
    assert sense == FAMILY_SENSE[family]


def test_row_store_rejects_indices_past_32_bits():
    # column ids and row starts are 32-bit, coefficients and right-hand sides 64-bit: a column or
    # a running term count past 2**31 - 1, or a volume past 2**63 - 1, fails the build
    for cols, coefs, sizes in [([2**31], [1], [1]), ([], [], [2**31]), ([0], [2**63], [1])]:
        with pytest.raises(OverflowError):
            RowStore().add(FAM_PACKING, cols, coefs, sizes, [1])
    rows = RowStore()
    rows.add(FAM_PACKING, [2**31 - 1], [2**63 - 1], [1], [-(2**63)])
    assert (rows.col[0], rows.coef[0], rows.rhs[0]) == (2**31 - 1, 2**63 - 1, -(2**63))
