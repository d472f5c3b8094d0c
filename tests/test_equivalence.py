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
    FAM_CAP_LOWER,
    FAM_CAP_UPPER,
    FAMILIES,
    OCC_LOWER,
    OCC_UPPER,
    PLACEMENT,
    BuildOptions,
    build_model,
    extend_placement_assignment,
    objective_value,
    row_name,
    violated_rows,
)
from pipesched.schedule import Schedule
from pipesched.validator import capacity_bound_violations, check_schedule, evaluate_objective, simulate_occupancy
from tests.conftest import lp_text, single_edge_instance

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
    blocks = MODELS[id(inst)].variables.of_kind(PLACEMENT)
    return [(*prefix, t) for prefix, block in blocks.items() for t in range(block.first, block.first + block.count)]


def agree(inst, subset):
    """Assert row violations and validator findings coincide for a subset."""
    model = MODELS[id(inst)]
    catalog = CATALOGS[id(inst)]
    assignment = extend_placement_assignment(model, subset)
    rows_broken = violated_rows(model, assignment)
    report = check_schedule(inst, catalog, Schedule.from_raw(subset))
    family = model.constraints.family
    assert bool(rows_broken) == bool(report), (
        subset,
        [row_name(family[r], family[:r].count(family[r])) for r in rows_broken[:4]],
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
    """Random dispatch sets, nothing solved: the occupancy recurrences hold, and
    the validator's findings, mapped to occupancy columns as the lazy loop maps
    them, make the LP file ship exactly the violated bound rows."""
    inst = generate_path_instance(LADDER[name])
    model = build_model(inst, BuildOptions(capacity_lazy=True))
    catalog, rows = model.catalog, model.constraints
    kind = {FAM_CAP_UPPER: OCC_UPPER, FAM_CAP_LOWER: OCC_LOWER}
    bound_lines = tuple(f" {family}_" for family in kind)
    H = inst.grid.horizon_len
    initial = [(eid, spec.id, t) for eid, spec in catalog.dispatches() for t in range(H - spec.length + 1)]
    flagged = []
    for seed, size in enumerate((20, 60, 150)):
        schedule = Schedule.from_initial(catalog, random.Random(seed).sample(initial, size))
        broken = violated_rows(model, extend_placement_assignment(model, schedule.placements))
        families = [rows.family[r] for r in broken]
        assert not {FAMILIES[f] for f in families} & {FAM_CAP_DEF_UPPER, FAM_CAP_DEF_LOWER}
        violated = {row_name(f, rows.family[:r].count(f)) for r, f in zip(broken, families) if rows.lazy[f]}
        report = capacity_bound_violations(inst, simulate_occupancy(inst, catalog, schedule))
        activated = {model.variables.vid(kind[v.family], v.coordinate) for v in report}
        assert None not in activated and len(activated) == len(report)
        lines = lp_text(model, activated).splitlines()
        shipped = {line.split(":")[0].strip() for line in lines if line.startswith(bound_lines)}
        assert shipped == violated, (seed, size)
        flagged.append(len(shipped))
    assert any(flagged), flagged
