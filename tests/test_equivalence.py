"""Model rows and the independent validator must agree on every subset."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from pipesched.batches import enumerate_batches
from pipesched.generator import PathExperimentParams, generate_path_instance
from pipesched.instance import ThroughputLimit
from pipesched.milpmodel import (
    FAM_CAP_DEF_LOWER,
    FAM_CAP_DEF_UPPER,
    PLACEMENT,
    build_model,
    extend_placement_assignment,
    objective_value,
    violated_rows,
)
from pipesched.schedule import Schedule
from pipesched.validator import capacity_bound_violations, check_schedule, evaluate_objective, simulate_occupancy
from tests.conftest import single_edge_instance

INST = single_edge_instance(horizon=12, batches=2)
TIGHT = single_edge_instance(horizon=12, batches=2, cmax=230)
# r2 dispatches on e1 and travels on to e2; the window lists e1 and slot 0
# twice, and each counts once, so one flush batch (100) fits and two do not
TWO_EDGE = replace(
    generate_path_instance(PathExperimentParams(vertices=3, horizon=12)),
    throughput_limits=(ThroughputLimit(("e1", "e2", "e1"), "flush", (0, 0, 1, 2, 3), 100),),
)
MODELS = {id(inst): build_model(inst) for inst in (INST, TIGHT, TWO_EDGE)}
CATALOGS = {id(inst): enumerate_batches(inst) for inst in (INST, TIGHT, TWO_EDGE)}


def placement_coords(inst):
    model = MODELS[id(inst)]
    return [v.key for v in model.variables if v.kind == PLACEMENT]


def agree(inst, subset):
    """Assert row violations and validator findings coincide for a subset."""
    model = MODELS[id(inst)]
    catalog = CATALOGS[id(inst)]
    assignment = extend_placement_assignment(model, subset)
    rows_broken = violated_rows(model, assignment)
    report = check_schedule(inst, catalog, Schedule.from_raw(subset))
    assert bool(rows_broken) == bool(report), (
        subset,
        [r.name for r in rows_broken[:4]],
        [v.message for v in report[:4]],
    )
    if not report:
        model_obj = objective_value(model, assignment)
        exact = evaluate_objective(inst, catalog, Schedule.from_raw(subset))["total"]
        assert model_obj == exact, subset


def test_exhaustive_subsets_up_to_two_placements():
    for inst in (INST, TIGHT, TWO_EDGE):
        coords = placement_coords(inst)
        for single in coords:
            agree(inst, [single])
        for pair in itertools.combinations(coords, 2):
            agree(inst, list(pair))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_subsets_agree(data):
    inst = data.draw(st.sampled_from([INST, TIGHT]))
    coords = placement_coords(inst)
    subset = data.draw(st.lists(st.sampled_from(coords), unique=True, max_size=6))
    agree(inst, subset)


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
    """Random dispatch sets, nothing solved: the occupancy recurrences hold and
    exactly the bound rows the validator flags are violated."""
    inst = generate_path_instance(LADDER[name])
    model = build_model(inst)
    catalog = model.catalog
    bound_key = {model.constraints[row].name: key for key, row in model.lazy_bounds.items()}
    initial = [v.key for v in model.variables if v.kind == PLACEMENT and catalog.chains[v.key[1]][0] == v.key[0]]
    flagged = []
    for seed, size in enumerate((20, 60, 150)):
        schedule = Schedule.from_initial(catalog, random.Random(seed).sample(initial, size))
        broken = violated_rows(model, extend_placement_assignment(model, schedule.placements))
        assert not [row.name for row in broken if row.family in (FAM_CAP_DEF_UPPER, FAM_CAP_DEF_LOWER)]
        rows = {bound_key[row.name] for row in broken if row.name in bound_key}
        report = capacity_bound_violations(inst, simulate_occupancy(inst, catalog, schedule))
        assert rows == {(v.family, *v.coordinate) for v in report}, (seed, size)
        flagged.append(len(rows))
    assert any(flagged), flagged
