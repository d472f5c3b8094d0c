"""Instance schema: parsing, validation codes, serialization round trips."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from pipesched.generator import PathExperimentParams, generate_oracle_instance, generate_path_instance
from pipesched.instance import (
    DistributionTarget,
    FixedTransport,
    InstanceFormatError,
    TransportOutage,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    load_instance,
    save_instance,
    to_fraction,
    validate_instance,
)
from pipesched.milpmodel import ModelBuildError, build_model
from pipesched.oracle import ORACLE_STATUS_OPTIMAL, brute_force_optimum


def minimal_dict() -> dict:
    """Smallest valid network: refinery -> one storage site, one product."""
    return {
        "name": "mini",
        "horizon": {"length": 8},
        "products": [{"id": "f", "kind": "flushing"}],
        "sites": [
            {"id": "R", "kind": "refinery", "standard_batch": {"f": 4}},
            {
                "id": "S",
                "kind": "storage",
                "standard_batch": {"f": 4},
                "capacity": {"f": {"initial": 5, "max": 20}},
            },
        ],
        "edges": [{"id": "e1", "origin": "R", "destination": "S", "pipe_volume": 2}],
        "regimes": [{"id": "r1", "edges": ["e1"], "flow_rate": {"f": 2}}],
        "nominations": [{"refinery": "R", "limits": {"f": 8}}],
        "weights": {"alpha": 1, "eta": {"f": 1}},
    }


def codes(data: dict) -> set[str]:
    return {issue.code for issue in validate_instance(instance_from_dict(data))}


def test_minimal_instance_is_valid():
    assert codes(minimal_dict()) == set()


def test_fraction_parsing_forms():
    assert to_fraction("58.14") == Fraction(5814, 100)
    assert to_fraction("50/3") == Fraction(50, 3)
    assert to_fraction(7) == Fraction(7)
    assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_decimal_strings_parse_exactly_from_json():
    data = minimal_dict()
    data["products"][0]["unit_volume"] = "58.14"
    inst = instance_from_dict(data)
    assert inst.product("f").unit_volume == Fraction(2907, 50)


def test_unknown_keys_rejected():
    data = minimal_dict()
    data["horizon"]["lenght"] = 8
    with pytest.raises(InstanceFormatError, match="lenght"):
        instance_from_dict(data)


def test_missing_required_key_rejected():
    data = minimal_dict()
    del data["edges"][0]["origin"]
    with pytest.raises(InstanceFormatError, match="origin"):
        instance_from_dict(data)


def test_round_trip_preserves_equality(ref1):
    again = instance_from_dict(instance_to_dict(ref1))
    assert again == ref1
    assert instance_hash(again) == instance_hash(ref1)


def test_save_load_round_trip(tmp_path, ref1):
    path = tmp_path / "inst.json"
    save_instance(ref1, path)
    assert load_instance(path) == ref1
    # fractions must survive as exact strings, not floats
    raw = json.loads(path.read_text())
    assert raw["regimes"][0]["flow_rate"]["flush"] == "50/3"


def test_hash_changes_with_content(ref1, ref1_small):
    assert instance_hash(ref1) != instance_hash(ref1_small)


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda d: d["horizon"].__setitem__("length", 0), "nonpositive_horizon"),
        (lambda d: d["products"].append({"id": "f", "kind": "flushing"}), "duplicate_id"),
        (lambda d: d["products"][0].__setitem__("kind", "sticky"), "unknown_product_kind"),
        (lambda d: d["sites"][1].__setitem__("kind", "depot"), "unknown_site_kind"),
        (lambda d: d["sites"][1]["standard_batch"].__setitem__("f", 0), "nonpositive_standard_batch"),
        (lambda d: d["sites"][1]["capacity"]["f"].__setitem__("initial", -5), "negative_initial_occupancy"),
        (lambda d: d["sites"][1]["capacity"]["f"].__setitem__("min", 30), "capacity_min_exceeds_max"),
        (lambda d: d["sites"][1]["capacity"].__setitem__("ghost", {"initial": 0, "max": 1}), "unknown_product"),
        (lambda d: d["edges"][0].__setitem__("destination", "R"), "edge_self_loop"),
        (lambda d: d["edges"][0].__setitem__("origin", "X"), "unknown_site"),
        (lambda d: d["regimes"][0].__setitem__("edges", []), "regime_empty_path"),
        (lambda d: d["regimes"][0].__setitem__("edges", ["e1", "e1"]), "regime_path_not_simple"),
        (lambda d: d["regimes"][0].__setitem__("edges", ["zz"]), "regime_unknown_edge"),
        (lambda d: d["regimes"][0]["flow_rate"].__setitem__("f", 0), "regime_nonpositive_flow"),
        (lambda d: d["regimes"][0].__setitem__("flush_volume", -1), "regime_negative_flush_volume"),
        (lambda d: d["nominations"].append({"refinery": "R", "limits": {"f": 4}}), "duplicate_nomination"),
        (lambda d: d["nominations"][0].__setitem__("refinery", "S"), "nomination_not_refinery"),
        (lambda d: d["nominations"][0]["limits"].__setitem__("f", -4), "nomination_negative_limit"),
        (lambda d: d["weights"].__setitem__("alpha", -1), "negative_weight"),
        (lambda d: d["weights"]["eta"].__setitem__("f", -2), "negative_eta"),
        (lambda d: d["regimes"][0].__setitem__("cost_per_batch", {"r1:f:std": 1}), "unknown_batch"),
        (lambda d: d["regimes"][0].__setitem__("cost_per_batch", {"r9:f:standard": 1}), "unknown_batch"),
    ],
)
def test_validation_codes(mutate, code):
    data = copy.deepcopy(minimal_dict())
    mutate(data)
    assert code in codes(data), f"expected {code}"


def test_two_edge_path_must_connect():
    data = minimal_dict()
    data["sites"].append(
        {"id": "T", "kind": "storage", "standard_batch": {"f": 4}, "capacity": {"f": {"initial": 0, "max": 9}}}
    )
    data["edges"].append({"id": "e2", "origin": "S", "destination": "T", "pipe_volume": 2})
    data["regimes"][0]["edges"] = ["e2", "e1"]  # e2 ends at T but e1 starts at R
    assert "regime_path_disconnected" in codes(data)


def test_unused_edge_flagged():
    data = minimal_dict()
    data["sites"].append(
        {"id": "T", "kind": "storage", "standard_batch": {"f": 4}, "capacity": {"f": {"initial": 0, "max": 9}}}
    )
    data["edges"].append({"id": "e2", "origin": "S", "destination": "T", "pipe_volume": 2})
    assert "edge_unused" in codes(data)


def test_throughput_window_bounds_checked():
    data = minimal_dict()
    data["throughput_limits"] = [{"edges": ["e1"], "product": "f", "times": [7, 8], "limit": 4}]
    assert "time_out_of_range" in codes(data)


def test_exclusion_group_needs_two_members():
    data = minimal_dict()
    data["exclusion_groups"] = [{"members": ["r1"]}]
    assert "exclusion_group_too_small" in codes(data)


def test_fixed_transport_start_range_checked():
    data = minimal_dict()
    data["fixed_transports"] = [{"regime": "r1", "product": "f", "start": 9}]  # horizon 8
    assert "time_out_of_range" in codes(data)


def test_fixed_transport_product_must_be_pumpable():
    data = minimal_dict()
    data["products"].append({"id": "g", "kind": "staining"})
    data["sites"][0]["standard_batch"]["g"] = 4
    data["sites"][1]["standard_batch"]["g"] = 4
    data["fixed_transports"] = [{"regime": "r1", "product": "g", "start": 0}]
    assert "fixed_unpumpable" in codes(data)


def test_executed_must_be_in_previous_plan():
    data = minimal_dict()
    data["weights"]["gamma"] = 1
    data["weights"]["previous_plan"] = [["e1", "r1:f:standard", 0]]
    data["weights"]["executed"] = [["e1", "r1:f:standard", 3]]
    assert "executed_not_in_plan" in codes(data)


def _outage(inst, edge, batch):
    return dataclasses.replace(inst, outages=(*inst.outages, TransportOutage(((edge, batch),), (0,))))


def _fixed(inst, regime, start):
    return dataclasses.replace(inst, fixed_transports=(FixedTransport(regime, "flush", start),))


def _executed(inst, coord):
    weights = dataclasses.replace(inst.weights, previous_plan=(coord,), executed=(coord,))
    return dataclasses.replace(inst, weights=weights)


# oracle seed 0: one edge, horizon 12, r1 on e1 (flush length 2); seed 3: horizon 10, r2 on e1-e2, r1 on e1
@pytest.mark.parametrize(
    "seed, change, code",
    [
        (0, lambda i: _outage(i, "e1", "r9:flush:standard"), "unknown_batch"),
        (3, lambda i: _outage(i, "e2", "r1:flush:standard"), "unknown_batch"),
        (0, lambda i: _fixed(i, "r1", 11), "placement_beyond_horizon"),
        (0, lambda i: _executed(i, ("e1", "r9:flush:standard", 0)), "unknown_batch"),
        (0, lambda i: _executed(i, ("e1", "r1:flush:standard", 11)), "placement_beyond_horizon"),
        (3, lambda i: _executed(i, ("e2", "r2:flush:standard", 0)), None),
    ],
    ids=[
        "outage unknown batch",
        "outage off the path",
        "fixed beyond",
        "executed unknown",
        "executed beyond",
        "executed transit",
    ],
)
def test_named_placements_are_judged_by_validation_alone(seed, change, code):
    # the builder and the oracle refuse exactly what `validate_instance` reports, with its code
    inst = change(generate_oracle_instance(seed))
    if code is None:
        assert validate_instance(inst) == []
        build_model(inst)
        assert brute_force_optimum(inst).status == ORACLE_STATUS_OPTIMAL
        return
    assert [issue.code for issue in validate_instance(inst)] == [code]
    with pytest.raises(ModelBuildError, match=code):
        build_model(inst)
    with pytest.raises(ValueError, match=code):
        brute_force_optimum(inst)


def test_time_window_object_form_accepted():
    data = minimal_dict()
    data["throughput_limits"] = [{"edges": ["e1"], "product": "f", "times": {"start": 1, "end": 3}, "limit": 4}]
    inst = instance_from_dict(data)
    assert inst.throughput_limits[0].times == (1, 2, 3)


# ---------------------------------------------------------------------------
# the file format, pinned: these hold for any reader and writer of the format


@pytest.mark.parametrize(
    "make, digest",
    [
        (
            lambda: generate_path_instance(PathExperimentParams(vertices=4, setting="A", cost_mode="SD")),
            "73c5512f92da08e36dd6c463aea11b500531cc8fa0c09a6c6445f715b53da10e",
        ),
        (
            lambda: generate_path_instance(PathExperimentParams(vertices=6, setting="B", cost_mode="SDC")),
            "014dabcf2a3d77c7190302452a961b2b75b1718718dfd407309eefd54c8b9905",
        ),
        (lambda: generate_oracle_instance(3), "bd614092f41e5d65d0739e9d97521e95c00f82a6a242cf1140bb0e35975cb2fd"),
        (lambda: generate_oracle_instance(0), "ea56f68b6ed84704766f22331a8f3fc822cf6960f018fa628c4d9f13048453d7"),
    ],
    ids=["l4A-SD", "l6B-SDC", "oracle seed 3", "oracle seed 0 (a transport and a tank outage)"],
)
def test_instance_hash_is_pinned(make, digest):
    # `instance_hash` uses CPython's built-in SHA-256 module, not `hashlib`; the LP
    # header shows only 12 hex digits, so the full digest is checked against `hashlib` too
    inst = make()
    canonical = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    assert instance_hash(inst) == hashlib.sha256(canonical.encode("utf-8")).hexdigest() == digest


def _with_target(d, target):
    d["weights"]["beta"] = 1
    d["weights"]["distribution_targets"] = [{"site": "S", "product": "f", **target}]


REJECTED_EDGE_CASES = {
    "target form without target": lambda d: _with_target(d, {"weight": 2}),
    "signed and target forms mixed": lambda d: _with_target(d, {"signed_weight": 1, "weight": 2}),
    "min null": lambda d: d["sites"][1]["capacity"]["f"].update(min=None),
    "previous plan entry of 4": lambda d: d["weights"].update(previous_plan=[["e1", "r1:f:standard", 0, 1]]),
    "deltas entry of 3": lambda d: d["sites"][1]["capacity"]["f"].update(deltas=[[2, -1, 0]]),
    "extra key in a window": lambda d: d.update(
        throughput_limits=[{"edges": ["e1"], "product": "f", "times": {"start": 1, "end": 3, "step": 1}, "limit": 4}]
    ),
    "outage without kind": lambda d: d.update(outages=[{"site": "S", "product": "f", "reduction": 1, "times": [1]}]),
    "products [5]": lambda d: d.update(products=[5]),
}


@pytest.mark.parametrize("spoil", REJECTED_EDGE_CASES.values(), ids=REJECTED_EDGE_CASES.keys())
def test_format_edge_cases_rejected(spoil):
    data = minimal_dict()
    spoil(data)
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


# each value has the wrong JSON type for its key; none is coerced
WRONG_TYPES = {
    "integer true": lambda d: d["edges"][0].update(pipe_volume=True),
    "integer 2.5": lambda d: d["edges"][0].update(pipe_volume=2.5),
    "integer string": lambda d: d["edges"][0].update(pipe_volume="3"),
    "integer 2.0": lambda d: d["edges"][0].update(pipe_volume=2.0),
    "id null": lambda d: d["edges"][0].update(id=None),
    "id []": lambda d: d["edges"][0].update(id=[]),
    "edges a string": lambda d: d["regimes"][0].update(edges="e1"),
    "nominations {}": lambda d: d.update(nominations={}),
}


@pytest.mark.parametrize("spoil", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_values_of_the_wrong_json_type_rejected(tmp_path, spoil):
    data = minimal_dict()
    spoil(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InstanceFormatError):
        load_instance(path)


ACCEPTED_EDGE_CASES = {
    "max null": (
        lambda d: d["sites"][1]["capacity"]["f"].update(max=None),
        lambda inst: inst.site("S").profile("f").maximum is None,
    ),
    "flush volume null": (
        lambda d: d["regimes"][0].update(flush_volume=None),
        lambda inst: inst.regime("r1").flush_volume is None,
    ),
    "no name": (lambda d: d.pop("name"), lambda inst: inst.name == "unnamed"),
    "signed weight form": (
        lambda d: _with_target(d, {"signed_weight": "-1/2"}),
        lambda inst: inst.weights.distribution_targets == (DistributionTarget("S", "f", Fraction(-1, 2), None),),
    ),
}


@pytest.mark.parametrize("spoil, check", ACCEPTED_EDGE_CASES.values(), ids=ACCEPTED_EDGE_CASES.keys())
def test_format_edge_cases_accepted(spoil, check):
    data = minimal_dict()
    spoil(data)
    inst = instance_from_dict(data)
    assert check(inst)
    assert instance_from_dict(instance_to_dict(inst)) == inst
