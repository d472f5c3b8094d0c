"""Batch catalog: enumerate transportable batches and their edge placements.

Every (regime, product) pair yields at most two batch size variants: the
origin site's standard size, and, for flushing products whose regime flush
volume exceeds the standard size, a single enlarged "flush fill" that can
push a preceding batch through the whole path on its own.  A batch occupies
each edge of its regime for `length` slots, length = ceil(volume / flow).

The catalog also precomputes the relational sets the model emitters and the
validator share as *data* (never as constraint logic): per-edge placement
references with their chain classification, flush-candidate sets and
stain-exclusion sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .instance import FLUSH_FILL, STANDARD, Instance, PumpingRegime, batch_id

# chain position of a batch on an edge
INITIAL = "initial"
TRANSIT = "transit"
FINAL = "final"
INITIAL_FINAL = "initial_final"


@dataclass(frozen=True)
class BatchSpec:
    id: str  # "<regime>:<product>:<variant>"
    regime: str
    product: str
    volume: int  # volume units
    length: int  # slots each edge is occupied
    size_variant: str  # STANDARD | FLUSH_FILL


@dataclass(frozen=True)
class PlacedBatchRef:
    edge: str
    batch: str
    classification: str


@dataclass
class BatchCatalog:
    specs: tuple[BatchSpec, ...]
    spec_by_id: dict[str, BatchSpec] = field(init=False)
    chains: dict[str, tuple[str, ...]] = field(default_factory=dict)  # batch -> ordered edges
    refs_by_edge: dict[str, tuple[PlacedBatchRef, ...]] = field(default_factory=dict)
    # (edge, staining batch id) -> candidate flushing batch ids able to push it through
    flush_candidates: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    # (edge, staining product) -> staining batch ids of other products on that edge
    stain_exclusions: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.spec_by_id = {s.id: s for s in self.specs}

    def refs(self, edge_id: str) -> tuple[PlacedBatchRef, ...]:
        return self.refs_by_edge.get(edge_id, ())

    def initial_edge(self, batch_id: str) -> str:
        return self.chains[batch_id][0]

    def dispatches(self) -> Iterator[tuple[str, BatchSpec]]:
        """(edge, spec) of every batch on the first edge of its path, where it is dispatched;
        in edge order, then catalog order."""
        return self._on_path_end(0)

    def deliveries(self) -> Iterator[tuple[str, BatchSpec]]:
        """(edge, spec) of every batch on the last edge of its path, in the same order."""
        return self._on_path_end(-1)

    def _on_path_end(self, end: int) -> Iterator[tuple[str, BatchSpec]]:
        for eid, refs in self.refs_by_edge.items():
            for ref in refs:
                if self.chains[ref.batch][end] == eid:
                    yield eid, self.spec_by_id[ref.batch]


def compute_batch_length(regime: PumpingRegime, product: str, volume: int) -> int:
    """Slots one edge stays blocked: volume pumped at the regime's flow rate."""
    rate = regime.flow_rate[product]
    if rate <= 0:
        raise ValueError(f"regime {regime.id!r} has nonpositive flow for {product!r}")
    return math.ceil(Fraction(volume) / rate)


def regime_batch_sizes(inst: Instance, regime: PumpingRegime, product_id: str) -> tuple[int, ...]:
    """Sizes available on one specific regime (the authoritative set for batch creation)."""
    origin = inst.site(inst.regime_origin(regime))
    std = origin.standard_batch.get(product_id)
    if std is None or product_id not in regime.flow_rate:
        return ()
    sizes = [std]
    if inst.product(product_id).is_flushing:
        rv = inst.regime_flush_volume(regime)
        if rv > std:
            sizes.append(rv)
    return tuple(sizes)


def enumerate_batches(inst: Instance) -> BatchCatalog:
    """Build the full catalog in canonical (regime, product, variant) order."""
    specs: list[BatchSpec] = []
    chains: dict[str, tuple[str, ...]] = {}
    refs_by_edge: dict[str, list[PlacedBatchRef]] = {e.id: [] for e in inst.edges}

    for regime in inst.regimes:
        origin = inst.site(inst.regime_origin(regime))
        for product in inst.products:
            sizes = regime_batch_sizes(inst, regime, product.id)
            if not sizes:
                continue
            std = origin.standard_batch[product.id]
            for volume in sizes:
                variant = STANDARD if volume == std else FLUSH_FILL
                bid = batch_id(regime.id, product.id, variant)
                spec = BatchSpec(
                    id=bid,
                    regime=regime.id,
                    product=product.id,
                    volume=volume,
                    length=compute_batch_length(regime, product.id, volume),
                    size_variant=variant,
                )
                specs.append(spec)
                chains[bid] = regime.edges
                n = len(regime.edges)
                for i, eid in enumerate(regime.edges):
                    if n == 1:
                        cls = INITIAL_FINAL
                    elif i == 0:
                        cls = INITIAL
                    elif i == n - 1:
                        cls = FINAL
                    else:
                        cls = TRANSIT
                    refs_by_edge[eid].append(PlacedBatchRef(edge=eid, batch=bid, classification=cls))

    catalog = BatchCatalog(
        specs=tuple(specs),
        chains=chains,
        refs_by_edge={eid: tuple(refs) for eid, refs in refs_by_edge.items()},
    )

    # flush candidates: same edge, same regime, flushing product, volume >= regime flush volume
    # (equality qualifies); stain exclusions: staining batches of a different product on the edge
    for eid, refs in catalog.refs_by_edge.items():
        staining_here = [r for r in refs if not inst.product(catalog.spec_by_id[r.batch].product).is_flushing]
        for ref in staining_here:
            spec = catalog.spec_by_id[ref.batch]
            regime = inst.regime(spec.regime)
            rv = inst.regime_flush_volume(regime)
            cands = tuple(
                r.batch
                for r in refs
                if catalog.spec_by_id[r.batch].regime == spec.regime
                and inst.product(catalog.spec_by_id[r.batch].product).is_flushing
                and catalog.spec_by_id[r.batch].volume >= rv
            )
            catalog.flush_candidates[(eid, ref.batch)] = cands
        stain_products = {catalog.spec_by_id[r.batch].product for r in staining_here}
        for pid in sorted(stain_products):
            catalog.stain_exclusions[(eid, pid)] = tuple(
                r.batch for r in staining_here if catalog.spec_by_id[r.batch].product != pid
            )

    return catalog


def catalog_to_csv(catalog: BatchCatalog) -> str:
    """Flat dump of all edge placements, one row per (edge, batch)."""
    lines = ["edge,batch,regime,product,volume,length,classification"]
    for eid in catalog.refs_by_edge:
        for ref in catalog.refs_by_edge[eid]:
            s = catalog.spec_by_id[ref.batch]
            lines.append(f"{eid},{s.id},{s.regime},{s.product},{s.volume},{s.length},{ref.classification}")
    return "\n".join(lines) + "\n"


def batch_cost(inst: Instance, spec: BatchSpec) -> Fraction:
    """Pumping cost charged when the batch is dispatched (0 if not configured)."""
    return inst.regime(spec.regime).cost_per_batch.get(spec.id, Fraction(0))
