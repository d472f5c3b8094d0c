"""MILP compilation: variable layout, per-family rows, fixings, semantics."""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from pipesched.batches import enumerate_batches
from pipesched.cli import EXIT_INFEASIBLE, _solve_exit_code
from pipesched.cli import main as cli_main
from pipesched.generator import PathExperimentParams, generate_oracle_instance, generate_path_instance
from pipesched.instance import (
    DistributionTarget,
    ExclusionGroup,
    FixedTransport,
    TankOutage,
    ThroughputLimit,
    TransportOutage,
    save_instance,
)
from pipesched.milpmodel import (
    FAM_CAP_DEF_LOWER,
    FAM_CAP_DEF_UPPER,
    FAM_CAP_LOWER,
    FAM_CAP_UPPER,
    FAM_EXCLUSION,
    FAM_FLUSH_ENFORCE,
    FAM_FLUSH_LINK,
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
    ModelBuildError,
    RowStore,
    build_model,
    extend_placement_assignment,
    kept_limits,
    objective_value,
    occupancy_series,
    occupancy_steps,
    row_name,
    stock_moves,
    violated_bounds,
    violated_rows,
)
from pipesched.oracle import ORACLE_STATUS_INFEASIBLE, brute_force_optimum
from pipesched.schedule import Schedule
from pipesched.solver import STATUS_INFEASIBLE, STATUS_OPTIMAL, SolverConfig, solve
from pipesched.validator import capacity_bound_violations, check_schedule, simulate_occupancy
from tests.conftest import lp_text, single_edge_instance, with_dye

# an occupancy column's kind -> the family of the tank limit that bounds it
_LIMIT_FAMILY = {OCC_UPPER: FAM_CAP_UPPER, OCC_LOWER: FAM_CAP_LOWER}


def families(model, assignment):
    """The families of the rows `assignment` violates, and the tank-limit family of each occupancy
    column it puts outside its bounds."""
    kind = {v.vid: v.kind for v in model.variables}
    rows = {FAMILIES[model.constraints.family[r]] for r in violated_rows(model, assignment)}
    return rows | {_LIMIT_FAMILY[kind[vid]] for vid in violated_bounds(model, assignment)}


def test_reference_variable_counts(ref1):
    model = build_model(ref1)
    kinds = {}
    for v in model.variables:
        kinds[v.kind] = kinds.get(v.kind, 0) + 1
    # flush length 6 -> starts 0..18, stain length 3 -> starts 0..21
    assert kinds[PLACEMENT] == 19 + 22 == 41
    assert model.metadata["binaries"] == 41
    assert all(v.binary == (v.kind == PLACEMENT) for v in model.variables)
    # the tank limits: capacity 600 above blocked stock, 0 below on-stock, each rounded onto the stock
    # 120 plus multiples of the one batch volume that moves it (flush 100, stain 44); on-stock counts a
    # delivery at its completion, so its minimum stays 0 until the first can complete (slot 6 for
    # flush, 3 for stain)
    limits = {k: ser.limits for k, ser in occupancy_series(ref1, stock_moves(ref1, model.catalog)).items()}
    assert limits[OCC_UPPER, ("s1", "flush")] == [120 + 4 * 100] * 24
    assert limits[OCC_UPPER, ("s1", "stain")] == [120 + 10 * 44] * 24
    assert limits[OCC_LOWER, ("s1", "flush")] == [0] * 6 + [120 - 100] * 18
    assert limits[OCC_LOWER, ("s1", "stain")] == [0] * 3 + [120 - 2 * 44] * 21
    # no stock leaves s1 inside the horizon, so each capacity is implied by the next and each minimum
    # by the stock of 120; only the last capacities stay, as the bounds of the only occupancy columns
    assert kinds[OCC_UPPER] == 2 and OCC_LOWER not in kinds
    upper = model.variables.of_kind(OCC_UPPER)
    assert [(b.slots, b.limits) for b in upper.values()] == [((23,), (520,)), ((23,), (560,))]
    assert {(v.key, v.lb, v.ub) for v in model.variables if v.kind == OCC_UPPER} == {
        (("s1", "flush", 23), None, 520),
        (("s1", "stain", 23), None, 560),
    }


def test_reference_family_counts(ref1):
    counts = build_model(ref1).family_counts()
    assert counts["packing"] == 24
    assert (counts["capacity_def_upper"], counts["capacity_def_lower"]) == (2, 0)  # one per occupancy column
    assert counts["flushing_enforce"] == 22
    assert counts["nomination"] == 2
    # the dispatch columns and the column bounds leave these families empty
    assert counts["routes"] == counts["flushing_link"] == counts["capacity_upper"] == counts["capacity_lower"] == 0


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
    # the stain's completion at te = t + L is its start column v(te - L), not a column of its own:
    # the enforcement row at te = 7 opens with the stain's start at 4 and subtracts its re-dispatch at 7
    model = build_model(ref1)
    rows, fid = model.constraints, FAMILIES.index(FAM_FLUSH_ENFORCE)
    enforce = [r for r, family in enumerate(rows.family) if family == fid]
    r = enforce[7 - 3]  # one row per te = 3 .. 24
    terms = list(zip(rows.col[rows.start[r] : rows.start[r + 1]], rows.coef[rows.start[r] : rows.start[r + 1]]))
    start, redispatch = (model.variables.vid(PLACEMENT, ("e1", "r1:stain:standard", t)) for t in (4, 7))
    assert terms[:2] == [(start, 1), (redispatch, -1)]
    assignment = extend_placement_assignment(model, [("e1", "r1:stain:standard", 4)])
    assert [r for r in violated_rows(model, assignment) if rows.family[r] == fid] == [r]


def test_blocked_and_on_stock_jump_at_different_instants(ref1):
    # a flush delivery into s1 can raise blocked stock from its start on (slots 0..18) and on-stock
    # from its completion on (slots 6..23); the stock itself never moves, so the least change is 0
    model = build_model(ref1)
    series = occupancy_series(ref1, stock_moves(ref1, model.catalog))
    for kind, counted in ((OCC_UPPER, range(0, 19)), (OCC_LOWER, range(6, 24))):
        ser = series[kind, ("s1", "flush")]
        steps = occupancy_steps(ser.base, ser.runs)
        assert steps[0] == (120, 120 + 100 * (0 in counted))
        assert all(step == (0, 100 * (t in counted)) for t, step in enumerate(steps) if t), kind
    assignment = extend_placement_assignment(model, [("e1", "r1:flush:standard", 2)])
    occupancy = simulate_occupancy(ref1, model.catalog, Schedule.from_raw([("e1", "r1:flush:standard", 2)]))
    assert occupancy.upper[("s1", "flush")][1:3] == [120, 220]  # counted from pour start
    assert occupancy.lower[("s1", "flush")][7:9] == [120, 220]  # counted from completion
    assert assignment[model.variables.vid(OCC_UPPER, ("s1", "flush", 23))] == 220
    assert violated_rows(model, assignment) == violated_bounds(model, assignment) == []


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
    assert inst.capacity_max_profile("s1", "flush")[4:6] == [600, 550]
    # the tank capacity, rounded onto the stock 120 plus multiples of the flush volume 100, is the
    # upper bound of the blocked-stock column at each slot; lowered twice, slot 5 would read 420
    limits = occupancy_series(inst, stock_moves(inst, model.catalog))[OCC_UPPER, ("s1", "flush")].limits
    assert (limits[4], limits[5]) == (520, 520)
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


def test_one_dispatch_column_moves_a_batch_on_every_edge():
    # r2 runs e1 -> e2; the model has one column per start of the batch, keyed by its dispatch edge
    # e1, and none for e2, so a set whose pipes disagree is no point of the model; the validator,
    # which reads placements per pipe, flags such a set `routes`
    inst = generate_path_instance(PathExperimentParams(vertices=3, setting="A", horizon=24))
    model = build_model(inst)
    assert model.variables.vid(PLACEMENT, ("e2", "r2:flush:standard", 0)) is None
    assert model.family_counts()[FAM_ROUTES] == model.family_counts()[FAM_FLUSH_LINK] == 0
    desync = Schedule.from_raw([("e1", "r2:flush:standard", 0)])
    assert FAM_ROUTES in {v.family for v in check_schedule(inst, model.catalog, desync)}
    synced = Schedule.from_initial(model.catalog, [("e1", "r2:flush:standard", 0)])
    assert synced.placements == {("e1", "r2:flush:standard", 0), ("e2", "r2:flush:standard", 0)}
    assert FAM_ROUTES not in {v.family for v in check_schedule(inst, model.catalog, synced)}
    assert families(model, extend_placement_assignment(model, synced.placements)) == set()


def test_outage_fixes_placements_to_zero(ref1):
    inst = dataclasses.replace(
        ref1,
        outages=(TransportOutage(batches=(("e1", "r1:flush:standard"),), times=(4, 5)),),
        name="outage",
    )
    # a forbidden start is a dispatch column boxed to [0, 0], not a row
    model = build_model(inst)
    assert model.family_counts()[FAM_OUTAGE] == 0
    vids = [model.variables.vid(PLACEMENT, ("e1", "r1:flush:standard", t)) for t in (4, 5)]
    bounds = {v.vid: (v.lb, v.ub) for v in model.variables if v.kind == PLACEMENT and (v.lb, v.ub) != (0, 1)}
    assert bounds == {vid: (0, 0) for vid in vids}
    assert all(f" 0 <= v{vid} <= 0\n" in lp_text(model) for vid in vids)
    hit = extend_placement_assignment(model, [("e1", "r1:flush:standard", 4)])
    assert violated_bounds(model, hit) == vids[:1] and violated_rows(model, hit) == []
    missed = extend_placement_assignment(model, [("e1", "r1:flush:standard", 6)])
    assert violated_bounds(model, missed) == violated_rows(model, missed) == []


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
    caps = sorted({v.ub for v in model.variables if v.kind == OCC_UPPER})
    # 600 - 550 at the outage slot; both rounded onto the stock 120 plus multiples of 100 (flush)
    # or 44 (stain)
    assert caps == [20, 520, 560]


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
    # a forced start is a dispatch column boxed to [1, 1], not a row
    model = build_model(inst)
    assert model.family_counts()["fixed"] == 0
    vid = model.variables.vid(PLACEMENT, ("e1", "r1:flush:standard", 2))
    bounds = {v.vid: (v.lb, v.ub) for v in model.variables if v.kind == PLACEMENT and (v.lb, v.ub) != (0, 1)}
    assert bounds == {vid: (1, 1)} and f" 1 <= v{vid} <= 1\n" in lp_text(model)
    without = extend_placement_assignment(model, [])
    assert violated_bounds(model, without) == [vid]
    with_it = extend_placement_assignment(model, [("e1", "r1:flush:standard", 2)])
    assert violated_bounds(model, with_it) == violated_rows(model, with_it) == []


def test_fixed_transport_beyond_fit_rejected(ref1):
    inst = dataclasses.replace(
        ref1, fixed_transports=(FixedTransport(regime="r1", product="flush", start=20),), name="fx2"
    )
    with pytest.raises(ModelBuildError, match="does not fit"):
        build_model(inst)


@pytest.mark.parametrize("edge", ["e1", "e2"])
def test_fixed_start_inside_an_outage_builds_and_is_infeasible(edge):
    # an outage on the fixed start, on the batch's initial edge or on its transit edge: a sound
    # instance without a feasible schedule, which the solver and the oracle both prove
    inst = generate_path_instance(PathExperimentParams(vertices=3, setting="A", horizon=12, nomination_batches=1))
    inst = dataclasses.replace(
        inst,
        outages=(TransportOutage(batches=((edge, "r2:flush:standard"),), times=(2,)),),
        fixed_transports=(FixedTransport(regime="r2", product="flush", start=2),),
        name="clash",
    )
    # the start gets the empty box [1, 0], which the LP file writes and HiGHS's reader keeps
    model = build_model(inst)
    vid = model.variables.vid(PLACEMENT, ("e1", "r2:flush:standard", 2))
    assert f" 1 <= v{vid} <= 0\n" in lp_text(model)
    res = solve(model, SolverConfig(time_limit=120, gap=0.0))
    assert res.status == STATUS_INFEASIBLE and _solve_exit_code(res) == EXIT_INFEASIBLE
    assert brute_force_optimum(inst).status == ORACLE_STATUS_INFEASIBLE


def two_stain_path():
    """The 3A-SDC path with a second staining product, `dye`, shipped like `stain` and nominated like it
    (`with_dye`): every stain on e1 excludes the other.  It is feasible, so a solve covers the stain
    rules.  `tests/test_lp_io.py::second_stain_path` is not, for want of volume: its dye is nominated
    220, and the nomination screen warns "dye: storage sites need at least 264 units but the
    nominations allow 220"."""
    return with_dye(generate_path_instance(PathExperimentParams(vertices=3, setting="A", cost_mode="SDC")))


def test_two_stain_path_is_proven_optimal_at_node_0_without_stain_exclusion_rows():
    # no stain-exclusion rows: packing and flush enforcement imply them, so the LP relaxation, 9399.316,
    # meets the optimum as it does with them (4,343 rows), and the start is proven at node 0
    model = build_model(two_stain_path())
    assert model.metadata["warnings"] == []
    assert {f: n for f, n in model.family_counts().items() if n} == {
        "packing": 480, "flushing_enforce": 1_912, "capacity_def_upper": 30, "capacity_def_lower": 10, "nomination": 3
    }
    res = solve(model, SolverConfig(time_limit=120, gap=0.0))
    assert (res.status, res.objective, res.nodes) == (STATUS_OPTIMAL, Fraction(2349829, 250), 0)
    assert res.bound == pytest.approx(9399.316) and res.start.objective == res.objective
    assert {"stain", "dye"} <= {model.catalog.spec_by_id[b].product for _e, b, _t in res.schedule.placements}


def test_objective_counts_extraction(ref1):
    model = build_model(ref1)
    assignment = extend_placement_assignment(
        model, [("e1", "r1:flush:standard", 0), ("e1", "r1:stain:standard", 6)]
    )
    assert objective_value(model, assignment) == 144


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
    # the 6B model's 50k terms peaks under 4 MB, where a list of every (column, coefficient) pair takes about 5 MB
    model = build_model(generate_path_instance(PathExperimentParams(vertices=6, setting="B", cost_mode="SDC")))
    rows = model.constraints
    tracemalloc.start()
    try:
        nnz = sum(len(c.terms) for c in rows)
        _held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nnz == len(rows.col) == 50_442
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


# ---------------------------------------------------------------------------
# tank limits on the volume lattice, derived here from the recurrence rows alone


def _recurrence_series(model):
    """Per occupancy block of a recurrence: its rows' other terms, the index in the block of each
    row's column and the row's right-hand side, from the row store; the row of the block's column i
    holds it with coefficient 1."""
    rows = model.constraints
    blocks = [b for b in model.variables.blocks if b.kind in (OCC_UPPER, OCC_LOWER)]
    owner = {b.start + i: (b, i) for b in blocks for i in range(b.count)}
    wanted = {FAMILIES.index(FAM_CAP_DEF_UPPER), FAMILIES.index(FAM_CAP_DEF_LOWER)}
    series = {}
    for r, family in enumerate(rows.family):
        if family not in wanted:
            continue
        terms = list(zip(rows.col[rows.start[r] : rows.start[r + 1]], rows.coef[rows.start[r] : rows.start[r + 1]]))
        block, i = next(owner[vid] for vid, coef in terms if coef == 1 and vid in owner)
        others = [(vid, coef) for vid, coef in terms if owner.get(vid, (None,))[0] is not block]
        series.setdefault(block, []).append((i, others, rows.rhs[r]))
    return series


def _ladder_and_oracle_models():
    for params in (
        PathExperimentParams(vertices=4, setting="A", cost_mode="SD"),
        PathExperimentParams(vertices=6, setting="B", cost_mode="SDC"),
    ):
        yield build_model(generate_path_instance(params))
    for seed in range(25):
        yield build_model(generate_oracle_instance(seed))


def test_only_dispatch_binaries_enter_a_recurrence():
    # the validity condition of the lattice rounding: besides the series' own occupancy columns, every
    # term of a recurrence is a binary times an integer volume, so x_t - base_t is a multiple of their gcd
    for model in _ladder_and_oracle_models():
        binary = {b.start + i for b in model.variables.blocks if b.bounds[0] for i in range(b.count)}
        for block, rows in _recurrence_series(model).items():
            assert len(rows) == block.count
            for _t, others, _rhs in rows:
                assert {vid for vid, _coef in others} <= binary, block.prefix
                assert all(type(coef) is int and coef != 0 for _vid, coef in others)


def test_tank_limits_lie_on_the_volume_lattice_and_are_never_looser():
    # g is the gcd of the volumes of every dispatch term in the series' rows up to a column's slot, and
    # base the sum of their right-hand sides; a rounded limit is the lattice point nearest the raw one
    # on the feasible side, and where no dispatch has entered yet it is the raw limit
    rounded = 0
    for model in _ladder_and_oracle_models():
        inst = model.instance
        H = inst.grid.horizon_len
        for block, rows in _recurrence_series(model).items():
            site, product = block.prefix
            if block.kind == OCC_UPPER:
                raw = inst.capacity_max_profile(site, product)
            else:
                raw = inst.site(site).profile(product).min_profile(H)
            g = base = 0
            for i, others, rhs in sorted(rows, key=lambda row: row[0]):
                g = gcd(g, *(coef for _vid, coef in others))
                base += rhs
                t, limit = block.slots[i], block.limits[i]
                if limit is None:  # a final slot kept for a distribution target, its limit implied
                    continue
                if raw[t] is None or g == 0:
                    assert limit == raw[t], (block.prefix, t)
                    continue
                assert (limit - base) % g == 0, (block.prefix, t)
                if block.kind == OCC_UPPER:
                    assert raw[t] - g < limit <= raw[t], (block.prefix, t)
                else:
                    assert raw[t] <= limit < raw[t] + g, (block.prefix, t)
                rounded += limit != raw[t]
    assert rounded > 100  # of the 159 limits these models keep


def _empty_band_instance():
    """One pipe into s1, flush batches of 100 on top of a stock of 120: a tank of 190 admits no
    delivery (blocked stock 120 or 220), and a minimum of 150 from slot 12 on needs one (on-stock
    120 + 100k, counted from slot 6, when a first delivery can complete).  Every raw minimum lies
    below its capacity."""
    inst = single_edge_instance(horizon=24, batches=2)
    sites = []
    for s in inst.sites:
        if s.id == "s1":
            flush = dataclasses.replace(s.capacity["flush"], maximum=190, minimum=(0,) * 12 + (150,) * 12)
            s = dataclasses.replace(s, capacity={**s.capacity, "flush": flush})
        sites.append(s)
    return dataclasses.replace(inst, sites=tuple(sites), name="empty-band")


def test_empty_rounded_band_is_a_build_warning(tmp_path, capsys):
    inst = _empty_band_instance()
    model = build_model(inst)
    series = occupancy_series(inst, stock_moves(inst, model.catalog))
    upper, lower = (series[kind, ("s1", "flush")].limits for kind in (OCC_UPPER, OCC_LOWER))
    assert set(upper) == {120} and lower == [0] * 6 + [20] * 6 + [220] * 12
    (warning,) = [w for w in model.metadata["warnings"] if "s1" in w]
    assert "flush" in warning and "12 slots from slot 12" in warning
    assert not any("minimum stock" in w for w in build_model(single_edge_instance()).metadata["warnings"])
    save_instance(inst, tmp_path / "inst.json")
    assert cli_main(["build", "--instance", str(tmp_path / "inst.json"), "--out", str(tmp_path / "m.lp")]) == 0
    assert f"warning: {warning}\n" in capsys.readouterr().err
    assert solve(model, SolverConfig(time_limit=120, gap=0.0)).status == STATUS_INFEASIBLE


# ---------------------------------------------------------------------------
# tank limits that cannot bind: `kept_limits` on random short series, checked by enumeration


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_kept_limits_admit_exactly_the_assignments_all_limits_admit(data):
    # a series of H <= 12 slots, its base change at each slot and up to 3 moves per slot (10 in all),
    # each a binary times a signed volume; x_t is the sum of both up to t, from x_{-1} = 0
    H = data.draw(st.integers(1, 12), label="H")
    upper = data.draw(st.booleans(), label="upper")
    change = data.draw(st.lists(st.integers(-4, 4), min_size=H, max_size=H), label="change")
    per_slot = st.lists(st.integers(-6, 6).filter(bool), max_size=3)
    moves = data.draw(st.lists(per_slot, min_size=H, max_size=H), label="moves")
    terms = [(t, volume) for t, volumes in enumerate(moves) for volume in volumes][:10]
    limits = data.draw(st.lists(st.none() | st.integers(-12, 20), min_size=H, max_size=H), label="limits")
    steps = [
        (c + sum(v for s, v in terms if s == t and v < 0), c + sum(v for s, v in terms if s == t and v > 0))
        for t, c in enumerate(change)
    ]
    kept = kept_limits(limits, steps, upper)
    assert kept == sorted(kept) and all(limits[t] is not None for t in kept)

    def meets(x, t):
        return x[t] <= limits[t] if upper else x[t] >= limits[t]

    for bits in range(2 ** len(terms)):
        counted = [0] * H
        for k, (t, volume) in enumerate(terms):
            counted[t] += volume * (bits >> k & 1)
        x = list(accumulate(map(add, change, counted)))
        every = all(meets(x, t) for t in range(H) if limits[t] is not None)
        assert every == all(meets(x, t) for t in kept), (bits, x)

    # each dropped limit meets the inequality that drops it, against the nearest kept limit on one side
    # (x_{-1} = 0 on the left where none is kept): the most, or the least, the series can rise in between
    def rise(lo, hi, side):
        return sum(step[side] for step in steps[lo + 1 : hi + 1])

    for t, limit in enumerate(limits):
        if limit is None or t in kept:
            continue
        p = max((k for k in kept if k < t), default=-1)
        n = min((k for k in kept if k > t), default=None)
        before = 0 if p < 0 else limits[p]
        if upper:
            by_prev = before + rise(p, t, 1) <= limit
            by_next = n is not None and limits[n] - rise(t, n, 0) <= limit
        else:
            by_prev = before + rise(p, t, 0) >= limit
            by_next = n is not None and limits[n] - rise(t, n, 1) >= limit
        assert by_prev or by_next, (t, p, n)


def test_a_distribution_target_keeps_the_final_on_stock_column(ref1):
    # ref1 keeps no minimum, so its on-stock series have no columns; a distribution target reads the
    # final on-stock, so its series gets that one column, without a limit, and its chain row
    targets = (
        DistributionTarget("s1", "flush", Fraction(1), target=220),
        DistributionTarget("s1", "stain", Fraction(1)),
    )
    inst = dataclasses.replace(
        ref1, weights=dataclasses.replace(ref1.weights, beta=Fraction(1), distribution_targets=targets), name="dist"
    )
    assert not build_model(ref1).variables.of_kind(OCC_LOWER)[("s1", "flush")].count
    model = build_model(inst)
    lower = model.variables.of_kind(OCC_LOWER)
    assert [(b.slots, b.limits) for b in lower.values()] == [((23,), (None,)), ((23,), (None,))]
    counts = model.family_counts()
    assert (counts[FAM_CAP_DEF_LOWER], counts["distribution"]) == (2, 2)
    assignment = extend_placement_assignment(model, [("e1", "r1:flush:standard", 0)])
    assert assignment[model.variables.vid(OCC_LOWER, ("s1", "flush", 23))] == 220
    assert violated_rows(model, assignment) == violated_bounds(model, assignment) == []
    result = solve(model, SolverConfig(time_limit=120, gap=0.0))
    assert result.ok and not result.violations
