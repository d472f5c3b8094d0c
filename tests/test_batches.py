"""Batch enumeration: lengths, size variants, chains, flush candidate sets."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from pipesched.batches import (
    FLUSH_FILL,
    STANDARD,
    catalog_to_csv,
    compute_batch_length,
    enumerate_batches,
    regime_batch_sizes,
)
from pipesched.generator import PathExperimentParams, generate_path_instance


def classifications(cat, batch: str) -> dict[str, str]:
    """edge -> chain position of `batch`, as `catalog_to_csv` writes it."""
    rows = csv.DictReader(catalog_to_csv(cat).splitlines())
    return {row["edge"]: row["classification"] for row in rows if row["batch"] == batch}


def test_reference_batch_lengths(ref1):
    cat = enumerate_batches(ref1)
    by_product = {s.product: s for s in cat.specs}
    assert by_product["flush"].length == 6
    assert by_product["stain"].length == 3
    assert by_product["flush"].volume == 100
    assert by_product["stain"].volume == 44


def test_length_is_ceiling_of_volume_over_rate(ref1):
    regime = ref1.regimes[0]
    assert compute_batch_length(regime, "flush", 100) == 6
    assert compute_batch_length(regime, "stain", 44) == 3
    assert compute_batch_length(regime, "stain", 45) == 4  # 45/(44/3) = 3.07 -> 4


def test_single_edge_catalog_shape(ref1):
    cat = enumerate_batches(ref1)
    assert len(cat.specs) == 2  # one size per product; fill equals standard here
    for spec in cat.specs:
        assert spec.size_variant == STANDARD
        assert cat.chains[spec.id] == ("e1",)
        assert classifications(cat, spec.id) == {"e1": "initial_final"}


def test_flush_candidates_accept_equal_volume(ref1):
    # flush batch volume 100 equals the regime flush volume: still qualifies
    cat = enumerate_batches(ref1)
    stain = next(s for s in cat.specs if s.product == "stain")
    flush = next(s for s in cat.specs if s.product == "flush")
    assert cat.flush_candidates[stain.id] == (flush.id,)


def test_fill_variant_appears_when_flush_volume_exceeds_standard():
    # raise r2's flush volume above the standard batch: a fill variant appears
    base = generate_path_instance(PathExperimentParams(vertices=3, setting="A"))
    regimes = tuple(
        replace(r, flush_volume=200) if r.id == "r2" else r for r in base.regimes
    )
    inst = replace(base, regimes=regimes)
    cat = enumerate_batches(inst)
    sizes_r2 = regime_batch_sizes(inst, inst.regime("r2"), "flush")
    assert sizes_r2 == (100, 200)  # standard plus line-filling variant
    fill = next(s for s in cat.specs if s.regime == "r2" and s.size_variant == FLUSH_FILL)
    assert fill.volume == 200
    assert fill.length == 12
    # staining products never grow a fill variant
    assert regime_batch_sizes(inst, inst.regime("r2"), "stain") == (44,)
    # the generator's path family itself keeps one flush size per regime
    assert regime_batch_sizes(base, base.regime("r2"), "flush") == (100,)


def test_chain_classifications_on_two_edge_regime():
    inst = generate_path_instance(PathExperimentParams(vertices=3, setting="A"))
    cat = enumerate_batches(inst)
    r2_flush = "r2:flush:standard"
    assert cat.chains[r2_flush] == ("e1", "e2")
    assert classifications(cat, r2_flush) == {"e1": "initial", "e2": "final"}
    # single-edge regime stays initial_final
    for bid in ("r1:flush:standard", "r1:stain:standard"):
        assert classifications(cat, bid) == {"e1": "initial_final"}


def test_transit_classification_needs_three_edges():
    inst = generate_path_instance(PathExperimentParams(vertices=4, setting="A"))
    cat = enumerate_batches(inst)
    r3 = "r3:flush:standard"
    assert classifications(cat, r3) == {"e1": "initial", "e2": "transit", "e3": "final"}


def test_cross_stain_exclusion_sets():
    inst = generate_path_instance(PathExperimentParams(vertices=3, setting="A"))
    cat = enumerate_batches(inst)
    # the only staining product has no other-product stains to exclude
    assert not cat.stain_exclusions.get(("e1", "stain"))


def test_catalog_csv_layout(ref1):
    text = catalog_to_csv(enumerate_batches(ref1))
    lines = text.strip().splitlines()
    assert lines[0] == "edge,batch,regime,product,volume,length,classification"
    assert len(lines) == 3
    assert any(line.startswith("e1,r1:flush:standard,r1,flush,100,6,") for line in lines)


def test_enumeration_order_is_deterministic(ref1):
    a = enumerate_batches(ref1)
    b = enumerate_batches(ref1)
    assert [s.id for s in a.specs] == [s.id for s in b.specs]
    assert catalog_to_csv(a) == catalog_to_csv(b)


@pytest.mark.parametrize(
    "vertices, setting, size, digest",
    [
        (4, "A", 581, "b19ebdf32aae7a4589be19f764a01f30aada04eabbbe521a26239aa514334ff0"),
        (6, "A", 1356, "dc96a7cd95e6c185afaedaa8a362dfea14e0a6ae19a09a0aa250cc515627cefd"),
        (6, "B", 1356, "dc96a7cd95e6c185afaedaa8a362dfea14e0a6ae19a09a0aa250cc515627cefd"),
        (8, "C", 2479, "eb5a33373749c87717021dda9f81e0502fb54b17ead7bbdf965a0c512f4ac8de"),
    ],
    ids=["l4A", "l6A", "l6B", "l8C"],
)
def test_catalog_csv_bytes_are_pinned(vertices, setting, size, digest):
    # settings A and B differ in capacities and nominations, not in the catalog
    inst = generate_path_instance(PathExperimentParams(vertices=vertices, setting=setting))
    text = catalog_to_csv(enumerate_batches(inst)).encode("utf-8")
    assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)
