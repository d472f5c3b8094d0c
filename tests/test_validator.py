"""Independent schedule checking: rule families, occupancy, exact scoring."""

from __future__ import annotations

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

import pipesched
from pipesched.batches import enumerate_batches
from pipesched.generator import PathExperimentParams, generate_path_instance
from pipesched.instance import FixedTransport, TransportOutage, ThroughputLimit, instance_from_dict
from pipesched.schedule import Schedule
from pipesched.validator import (
    check_schedule,
    evaluate_objective,
    simulate_occupancy,
)
from tests.conftest import single_edge_instance


def families(inst, schedule):
    catalog = enumerate_batches(inst)
    return {v.family for v in check_schedule(inst, catalog, schedule)}


def base_schedule():
    # stain completion at 6 is covered by the flush starting there
    return Schedule.from_raw(
        [
            ("e1", "r1:stain:standard", 3),
            ("e1", "r1:flush:standard", 6),
        ]
    )


def test_valid_schedule_has_empty_report(ref1, ref1_catalog):
    assert check_schedule(ref1, ref1_catalog, base_schedule()) == []


def test_empty_schedule_is_valid(ref1, ref1_catalog):
    assert check_schedule(ref1, ref1_catalog, Schedule.from_raw([])) == []


def test_overlap_shift_breaks_packing(ref1):
    shifted = Schedule.from_raw(
        [
            ("e1", "r1:stain:standard", 3),
            ("e1", "r1:flush:standard", 5),  # now overlaps the stain's last slot
        ]
    )
    assert "packing" in families(ref1, shifted)


def test_flush_removal_breaks_flushing(ref1):
    dropped = Schedule.from_raw([("e1", "r1:stain:standard", 3)])
    assert families(ref1, dropped) == {"flushing"}


def two_stain_instance():
    return instance_from_dict(
        {
            "name": "two-stains",
            "horizon": {"length": 12},
            "products": [
                {"id": "f", "kind": "flushing"},
                {"id": "a", "kind": "staining"},
                {"id": "b", "kind": "staining"},
            ],
            "sites": [
                {"id": "R", "kind": "refinery", "standard_batch": {"f": 4, "a": 2, "b": 2}},
                {
                    "id": "S",
                    "kind": "storage",
                    "standard_batch": {"f": 4, "a": 2, "b": 2},
                    "capacity": {
                        "f": {"initial": 5, "max": 30},
                        "a": {"initial": 5, "max": 30},
                        "b": {"initial": 5, "max": 30},
                    },
                },
            ],
            "edges": [{"id": "e1", "origin": "R", "destination": "S", "pipe_volume": 2}],
            "regimes": [{"id": "r1", "edges": ["e1"], "flow_rate": {"f": 2, "a": 1, "b": 1}}],
            "nominations": [{"refinery": "R", "limits": {"f": 8, "a": 4, "b": 4}}],
            "weights": {"alpha": 1},
        }
    )


def test_stain_after_different_stain_breaks_flushing():
    inst = two_stain_instance()
    legal = Schedule.from_raw(
        [
            ("e1", "r1:a:standard", 0),
            ("e1", "r1:f:standard", 2),
        ]
    )
    assert families(inst, legal) == set()
    illegal = Schedule.from_raw(
        [
            ("e1", "r1:a:standard", 0),
            ("e1", "r1:b:standard", 2),  # different stain right at a's endpoint
            ("e1", "r1:f:standard", 4),
        ]
    )
    assert "flushing" in families(inst, illegal)


def test_capacity_overfill_detected():
    inst = single_edge_instance(horizon=120)  # default tank size 600
    burst = Schedule.from_raw([("e1", "r1:flush:standard", 6 * i) for i in range(6)])
    assert families(inst, burst) == {"capacity_upper"}


def test_nomination_overshoot_detected(ref1_long):
    eleven = Schedule.from_raw([("e1", "r1:flush:standard", 6 * i) for i in range(11)])
    assert families(ref1_long, eleven) == {"nomination"}


def test_outage_violation_detected(ref1):
    inst = dataclasses.replace(
        ref1,
        outages=(TransportOutage(batches=(("e1", "r1:flush:standard"),), times=(4, 5)),),
    )
    hit = Schedule.from_raw([("e1", "r1:flush:standard", 4)])
    assert families(inst, hit) == {"outage"}
    clear = Schedule.from_raw([("e1", "r1:flush:standard", 6)])
    assert families(inst, clear) == set()


def test_throughput_overshoot_detected(ref1):
    inst = dataclasses.replace(
        ref1,
        throughput_limits=(
            ThroughputLimit(edges=("e1",), product="flush", times=tuple(range(24)), limit=150),
        ),
    )
    two = Schedule.from_raw(
        [("e1", "r1:flush:standard", 0), ("e1", "r1:flush:standard", 6)]
    )
    assert families(inst, two) == {"throughput"}
    one = Schedule.from_raw([("e1", "r1:flush:standard", 0)])
    assert families(inst, one) == set()


def test_route_desync_detected():
    inst = generate_path_instance(PathExperimentParams(vertices=3, setting="A", horizon=24))
    catalog = enumerate_batches(inst)
    partial = Schedule.from_raw([("e1", "r2:flush:standard", 0)])
    assert "routes" in families(inst, partial)
    whole = Schedule.from_initial(catalog, [("e1", "r2:flush:standard", 0)])
    assert families(inst, whole) == set()


def test_fixed_transport_drop_detected(ref1):
    inst = dataclasses.replace(
        ref1,
        fixed_transports=(FixedTransport(regime="r1", product="flush", start=0),),
    )
    assert families(inst, Schedule.from_raw([])) == {"fixed"}
    kept = Schedule.from_raw([("e1", "r1:flush:standard", 0)])
    assert families(inst, kept) == set()


def test_executed_prefix_drop_detected(ref1):
    coord = ("e1", "r1:flush:standard", 0)
    weights = dataclasses.replace(ref1.weights, previous_plan=(coord,), executed=(coord,))
    inst = dataclasses.replace(ref1, weights=weights)
    assert families(inst, Schedule.from_raw([])) == {"fixed"}
    assert families(inst, Schedule.from_raw([coord])) == set()


def test_occupancy_series_tracks_both_counting_modes(ref1, ref1_catalog):
    occ = simulate_occupancy(ref1, ref1_catalog, base_schedule())
    up = occ.upper[("s1", "stain")]
    lo = occ.lower[("s1", "stain")]
    assert up[3] == 120 + 44  # blocked counts from the start slot
    assert lo[3] == 120
    assert lo[6] == 120 + 44  # on-stock counts from the completion slot
    assert up[23] == lo[23] == 120 + 44  # single fixture day has no outtake yet


def test_occupancy_csv_layout(ref1, ref1_catalog):
    text = simulate_occupancy(ref1, ref1_catalog, base_schedule()).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "site,product,t,lower,upper"
    assert len(lines) == 1 + 2 * 24  # two products, 24 slots each
    assert "s1,stain,3,120,164" in lines


def test_objective_components_are_exact_fractions(ref1, ref1_catalog):
    comps = evaluate_objective(ref1, ref1_catalog, base_schedule())
    assert comps["extraction"] == Fraction(144)
    assert comps["pumping_cost"] == Fraction(-9)  # 6 pump hours flush + 3 stain
    assert comps["total"] == Fraction(144)  # SD weights ignore cost


def test_unknown_placement_rejected(ref1, ref1_catalog):
    with pytest.raises(Exception):
        check_schedule(ref1, ref1_catalog, Schedule.from_raw([("e1", "nope", 0)]))


@pytest.mark.parametrize("module", ["validator", "oracle"])
def test_judges_import_nothing_from_the_model_path(module):
    """The validator and the oracle re-derive the rules, so they must not
    reach the builder, the LP writer or the solver through any import."""
    tree = ast.parse(Path(pipesched.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
            parts.update(alias.name for alias in node.names)
    assert not parts & {"milpmodel", "lp_io", "solver", "solver_shim"}
