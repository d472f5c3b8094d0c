"""Model rows and bounds and the independent validator must agree on every dispatch set.

A set of dispatches is expanded along the batches' paths (`Schedule.from_initial`)
before both judge it: the model has one column per batch start, so a raw set whose
pipes disagree is no point of the model, and only the validator judges it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pipesched.batches import enumerate_batches
from pipesched.generator import PathExperimentParams, generate_oracle_instance, generate_path_instance
from pipesched.instance import Edge, PumpingRegime, ThroughputLimit
from pipesched.milpmodel import (
    FAM_CAP_DEF_LOWER,
    FAM_CAP_DEF_UPPER,
    FAM_CAP_LOWER,
    FAM_CAP_UPPER,
    FAM_FLUSH_ENFORCE,
    FAM_PACKING,
    FAMILIES,
    OCC_LOWER,
    OCC_UPPER,
    PLACEMENT,
    build_model,
    column_letters,
    extend_placement_assignment,
    objective_value,
    row_name,
    trunk_edges,
    violated_bounds,
    violated_rows,
)
from pipesched.schedule import Schedule
from pipesched.validator import capacity_bound_violations, check_schedule, evaluate_objective, simulate_occupancy
from tests.conftest import single_edge_instance, with_capacity, with_dye

INST = single_edge_instance(horizon=12, batches=2)
TIGHT = single_edge_instance(horizon=12, batches=2, cmax=230)
# r2 dispatches on e1 and travels on to e2; the window lists e1 and slot 0
# twice, and each counts once, so one flush batch (100) fits and two do not
TWO_EDGE = replace(
    generate_path_instance(PathExperimentParams(vertices=3, horizon=12)),
    throughput_limits=(ThroughputLimit(("e1", "e2", "e1"), "flush", (0, 0, 1, 2, 3), 100),),
)
# r3 pumps flush from s1 over e2 and back over e3: its dispatch leaves s1's stock and its delivery
# returns to it, and a tank of 3000 keeps the first limits of s1 from binding, so the first
# blocked-stock row spans both moves of its earliest starts
_PATH3 = generate_path_instance(PathExperimentParams(vertices=3, horizon=24))
LOOP = with_capacity(
    replace(
        _PATH3,
        edges=(*_PATH3.edges, Edge("e3", "s2", "s1", pipe_volume=100)),
        regimes=(*_PATH3.regimes, PumpingRegime("r3", ("e2", "e3"), {"flush": Fraction(100, 6)}, flush_volume=100)),
        name="loop",
    ),
    3000,
)
# the two-edge path with a second staining product, `dye`: each stain on e1 excludes the other, a rule
# the model states through packing and flush enforcement, not rows of its own
TWO_STAIN = with_dye(generate_path_instance(PathExperimentParams(vertices=3, horizon=12)))
MODELS = {id(inst): build_model(inst) for inst in (INST, TIGHT, TWO_EDGE, LOOP, TWO_STAIN)}
CATALOGS = {id(inst): enumerate_batches(inst) for inst in (INST, TIGHT, TWO_EDGE, LOOP, TWO_STAIN)}


def dispatch_coords(model):
    """The (dispatch edge, batch, start) of every dispatch column."""
    blocks = model.variables.of_kind(PLACEMENT)
    return [(*prefix, t) for prefix, block in blocks.items() for t in range(block.first, block.first + block.count)]


def occupancy_vids(model):
    """The ids of the blocked-stock and on-stock columns, which carry the tank limits."""
    blocks = (b for b in model.variables.blocks if b.kind in (OCC_UPPER, OCC_LOWER))
    return {vid for b in blocks for vid in range(b.start, b.start + b.count)}


def placement_coords(inst):
    return dispatch_coords(MODELS[id(inst)])


def agree(inst, subset):
    """Assert that the rows and bounds the expanded dispatch set breaks and the validator's findings
    coincide, and that a clean set scores alike."""
    model = MODELS[id(inst)]
    catalog = CATALOGS[id(inst)]
    schedule = Schedule.from_initial(catalog, subset)
    assignment = extend_placement_assignment(model, schedule.placements)
    rows_broken = violated_rows(model, assignment)
    bounds_broken = violated_bounds(model, assignment)
    report = check_schedule(inst, catalog, schedule)
    family, letters = model.constraints.family, column_letters(model)
    assert bool(rows_broken or bounds_broken) == bool(report), (
        subset,
        [row_name(family[r], family[:r].count(family[r])) for r in rows_broken[:4]],
        [f"{letters[vid]}{vid}" for vid in bounds_broken[:4]],
        [v.message for v in report[:4]],
    )
    if not report:
        model_obj = objective_value(model, assignment)
        exact = evaluate_objective(inst, catalog, schedule)["total"]
        assert model_obj == exact, subset


def test_exhaustive_subsets_up_to_two_placements():
    for inst in (INST, TIGHT, TWO_EDGE, TWO_STAIN):
        coords = placement_coords(inst)
        for single in coords:
            agree(inst, [single])
        for pair in itertools.combinations(coords, 2):
            agree(inst, list(pair))


def test_sets_whose_pipes_disagree_are_flagged_routes():
    # the validator alone judges raw per-pipe sets: on the two-edge path it flags `routes` for
    # every set of up to two placements exactly when some batch start misses an edge of its path
    catalog = CATALOGS[id(TWO_EDGE)]
    H = TWO_EDGE.grid.horizon_len
    coords = [
        (eid, bid, t)
        for bid, chain in catalog.chains.items()
        for eid in chain
        for t in range(H - catalog.spec_by_id[bid].length + 1)
    ]
    flagged = 0
    for subset in itertools.chain(itertools.combinations(coords, 1), itertools.combinations(coords, 2)):
        dispatches = [(catalog.initial_edge(bid), bid, t) for _eid, bid, t in subset]
        synchronized = Schedule.from_initial(catalog, dispatches).placements == set(subset)
        report = check_schedule(TWO_EDGE, catalog, Schedule.from_raw(subset))
        assert ("routes" in {v.family for v in report}) != synchronized, subset
        flagged += not synchronized
    assert flagged


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_subsets_agree(data):
    inst = data.draw(st.sampled_from([INST, TIGHT, TWO_EDGE, TWO_STAIN]))
    coords = placement_coords(inst)
    subset = data.draw(st.lists(st.sampled_from(coords), unique=True, max_size=6))
    agree(inst, subset)


def test_a_stain_entering_behind_an_unflushed_one_breaks_a_kept_row():
    # the model writes no stain-exclusion rows; every pair of dispatches in which the validator finds
    # another stain entering e1 as a stain completes breaks the trunk's packing row or the stain's
    # enforcement row at that slot, since the two rows sum to the exclusion row
    model, catalog = MODELS[id(TWO_STAIN)], CATALOGS[id(TWO_STAIN)]
    assert model.family_counts()["flushing_exclusion"] == 0
    rows = model.constraints.family
    kept = {FAMILIES.index(FAM_PACKING), FAMILIES.index(FAM_FLUSH_ENFORCE)}
    behind = 0
    for pair in itertools.combinations(dispatch_coords(model), 2):
        schedule = Schedule.from_initial(catalog, pair)
        if any(v.family == "flushing" and len(v.coordinate) == 4 for v in check_schedule(TWO_STAIN, catalog, schedule)):
            broken = violated_rows(model, extend_placement_assignment(model, schedule.placements))
            assert {rows[r] for r in broken} & kept, pair
            behind += 1
    assert behind


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_valid_subsets_score_identically(data):
    # restrict draws to non-overlapping placements so feasible cases are common
    inst = INST
    coords = sorted(placement_coords(inst), key=lambda key: key[2])
    picked = []
    cursor = 0
    catalog = CATALOGS[id(inst)]
    for key in coords:
        if key[2] >= cursor and data.draw(st.booleans()):
            picked.append(key)
            cursor = key[2] + catalog.spec_by_id[key[1]].length
    agree(inst, picked)


LADDER = {
    "l4A-SD": PathExperimentParams(vertices=4, setting="A", cost_mode="SD"),
    "l6B-SDC": PathExperimentParams(vertices=6, setting="B", cost_mode="SDC"),
}


@pytest.mark.parametrize("name", LADDER)
def test_capacity_rows_agree_with_validator_on_ladder(name):
    """Random dispatch sets, nothing solved: the occupancy recurrences hold, and the
    occupancy columns out of their bounds are the validator's findings at the slots
    the model keeps a column for.  The validator's other findings are at limits the
    kept ones imply, so the model flags a set exactly when the validator does."""
    inst = generate_path_instance(LADDER[name])
    model = build_model(inst)
    catalog, rows = model.catalog, model.constraints
    kind = {FAM_CAP_UPPER: OCC_UPPER, FAM_CAP_LOWER: OCC_LOWER}
    H = inst.grid.horizon_len
    initial = [(eid, spec.id, t) for eid, spec in catalog.dispatches() for t in range(H - spec.length + 1)]
    flagged = []
    for seed, size in enumerate((20, 60, 150)):
        schedule = Schedule.from_initial(catalog, random.Random(seed).sample(initial, size))
        values = extend_placement_assignment(model, schedule.placements)
        families = {FAMILIES[rows.family[r]] for r in violated_rows(model, values)}
        assert not families & {FAM_CAP_DEF_UPPER, FAM_CAP_DEF_LOWER}
        report = capacity_bound_violations(inst, simulate_occupancy(inst, catalog, schedule))
        mapped = {model.variables.vid(kind[v.family], v.coordinate) for v in report} - {None}
        assert set(violated_bounds(model, values)) & occupancy_vids(model) == mapped, (seed, size)
        assert bool(mapped) == bool(report), (seed, size)
        flagged.append(len(mapped))
    assert any(flagged), flagged


def test_a_batch_returning_to_its_origin_appears_once_per_row():
    # where one recurrence row counts a looped batch's dispatch and its return, the two terms cancel
    model = MODELS[id(LOOP)]
    rows = model.constraints
    assert all(len(set(rows.col[s:e])) == e - s for s, e in zip(rows.start, rows.start[1:]))
    first = model.variables.of_kind(OCC_UPPER)[("s1", "flush")]
    assert first.slots[0] >= 6  # the first row counts both moves of every start up to slots[0] - 6
    coords = placement_coords(LOOP)
    rng = random.Random(3)
    for size in [1, 2, 3, 4, 6] * 20:
        agree(LOOP, rng.sample(coords, size))


# r2 and r3 of a four-vertex path carry their batches over e2, r3 over e3 as well
THREE_EDGE = generate_path_instance(PathExperimentParams(vertices=4, horizon=12))


@pytest.mark.parametrize("inst", [TWO_EDGE, THREE_EDGE], ids=["two-edge", "three-edge"])
def test_packing_clash_below_the_trunk_is_caught_by_the_trunk_row(inst):
    # only e1 has packing rows: every batch crosses it.  Each pair of dispatches that the validator
    # finds overlapping on a later edge also breaks e1's row at the same slot
    model = build_model(inst)
    catalog = model.catalog
    assert trunk_edges(inst, catalog) == ["e1"]
    assert model.family_counts()[FAM_PACKING] == inst.grid.horizon_len
    family = model.constraints.family
    packing = FAMILIES.index(FAM_PACKING)
    first = family.index(packing)  # e1's rows, one per slot
    below = set()
    for pair in itertools.combinations(dispatch_coords(model), 2):
        schedule = Schedule.from_initial(catalog, pair)
        clashes = {v.coordinate for v in check_schedule(inst, catalog, schedule) if v.family == "packing"}
        broken = violated_rows(model, extend_placement_assignment(model, schedule.placements))
        assert {r - first for r in broken if family[r] == packing} == {t for eid, t in clashes if eid == "e1"}, pair
        below |= {eid for eid, _t in clashes if eid != "e1"}
    assert below == {e.id for e in inst.edges} - {"e1"}


ORACLE_INSTANCES = [generate_oracle_instance(seed) for seed in range(25)]


@pytest.mark.parametrize("seed", range(25))
def test_rounded_tank_limits_flag_exactly_the_validators_capacity_violations(seed):
    # at integer points the limits on the volume lattice cut off nothing the raw limits allow, and the
    # kept limits imply the others: over random dispatch sets the occupancy columns out of their bounds
    # are the validator's capacity findings at the kept slots, and there are some whenever it finds any;
    # with the rows and the dispatch columns that an outage or a fixed start boxes, the model flags a set
    # exactly when the validator does
    inst = ORACLE_INSTANCES[seed]
    model = build_model(inst)
    catalog = model.catalog
    kind = {FAM_CAP_UPPER: OCC_UPPER, FAM_CAP_LOWER: OCC_LOWER}
    coords = dispatch_coords(model)
    occupancy = occupancy_vids(model)  # a dispatch column's fixing is no capacity finding
    rng = random.Random(seed)
    flagged = 0
    for size in [1, 2, 3, 4, 6, 8] * 5:
        schedule = Schedule.from_initial(catalog, rng.sample(coords, min(size, len(coords))))
        values = extend_placement_assignment(model, schedule.placements)
        found = check_schedule(inst, catalog, schedule)
        report = [v for v in found if v.family in kind]
        mapped = {model.variables.vid(kind[v.family], v.coordinate) for v in report} - {None}
        broken = violated_bounds(model, values)
        assert set(broken) & occupancy == mapped, (seed, sorted(schedule.placements))
        assert bool(broken or violated_rows(model, values)) == bool(found), (seed, sorted(schedule.placements))
        assert bool(mapped) == bool(report), (seed, sorted(schedule.placements))
        flagged += bool(mapped)
    assert 0 < flagged < 30  # both verdicts occur on every seed
