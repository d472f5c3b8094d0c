"""Batch catalog: enumerate transportable batches and their edge placements.

Every (regime, product) pair yields at most two batch size variants: the
origin site's standard size, and, for flushing products whose regime flush
volume exceeds the standard size, a single enlarged "flush fill" that can
push a preceding batch through the whole path on its own.  A batch occupies
each edge of its regime for `length` slots, length = ceil(volume / flow).

A batch's path is stored once, in `chains`; the per-edge batch lists and a
batch's position on an edge (initial, transit, final or both ends, which only
`catalog_to_csv` writes) are derived from it.  The catalog also precomputes
the relational sets the model emitters and the validator share as *data*
(never as constraint logic): flush-candidate sets, read where a staining
batch is dispatched, and stain-exclusion sets per (edge, product).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .instance import FLUSH_FILL, STANDARD, Instance, PumpingRegime, batch_id

@dataclass(frozen=True)
class BatchSpec:
    id: str  # "<regime>:<product>:<variant>"
    regime: str
    product: str
    volume: int  # volume units
    length: int  # slots each edge is occupied
    size_variant: str  # STANDARD | FLUSH_FILL


@dataclass
class BatchCatalog:
    specs: tuple[BatchSpec, ...]
    chains: dict[str, tuple[str, ...]]  # batch -> ordered edges of its path
    # edge -> ids of the batches whose path holds it, in catalog order; every edge of the instance is a key
    batches_by_edge: dict[str, tuple[str, ...]]
    spec_by_id: dict[str, BatchSpec] = field(init=False)
    # staining batch id -> flushing batch ids able to push it through, from its dispatch edge on
    flush_candidates: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # (edge, staining product) -> staining batch ids of other products on that edge
    stain_exclusions: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.spec_by_id = {s.id: s for s in self.specs}

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
        for eid, bids in self.batches_by_edge.items():
            for bid in bids:
                if self.chains[bid][end] == eid:
                    yield eid, self.spec_by_id[bid]


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
    by_edge: dict[str, list[str]] = {e.id: [] for e in inst.edges}

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
                for eid in regime.edges:
                    by_edge[eid].append(bid)

    catalog = BatchCatalog(
        specs=tuple(specs),
        chains=chains,
        batches_by_edge={eid: tuple(bids) for eid, bids in by_edge.items()},
    )

    # flush candidates: same regime (so the same path), flushing product, volume >= regime flush
    # volume (equality qualifies); stain exclusions: staining batches of a different product on the edge
    staining = {s.id for s in specs if not inst.product(s.product).is_flushing}
    for spec in specs:
        if spec.id in staining:
            rv = inst.regime_flush_volume(inst.regime(spec.regime))
            catalog.flush_candidates[spec.id] = tuple(
                s.id for s in specs if s.regime == spec.regime and s.id not in staining and s.volume >= rv
            )
    for eid, bids in catalog.batches_by_edge.items():
        staining_here = [bid for bid in bids if bid in staining]
        for pid in sorted({catalog.spec_by_id[bid].product for bid in staining_here}):
            catalog.stain_exclusions[(eid, pid)] = tuple(
                bid for bid in staining_here if catalog.spec_by_id[bid].product != pid
            )

    return catalog


def csv_text(rows: Iterable[Sequence]) -> str:
    """`rows` as CSV lines ending in "\\n"; a field holding a comma, a quote or a line break is quoted."""
    import csv  # here, not at the top: no solve writes CSV, and the module adds 0.13 MB to a solve's peak RSS

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _position(chain: tuple[str, ...], eid: str) -> str:
    """Where `eid` lies on a batch's path: initial, transit, final, or initial_final for a one-edge path."""
    first, last = eid == chain[0], eid == chain[-1]
    return "initial_final" if first and last else "initial" if first else "final" if last else "transit"


def catalog_to_csv(catalog: BatchCatalog) -> str:
    """Flat dump of all edge placements, one row per (edge, batch)."""
    rows = [("edge", "batch", "regime", "product", "volume", "length", "classification")]
    for eid, bids in catalog.batches_by_edge.items():
        for bid in bids:
            s = catalog.spec_by_id[bid]
            rows.append((eid, s.id, s.regime, s.product, s.volume, s.length, _position(catalog.chains[bid], eid)))
    return csv_text(rows)


def batch_cost(inst: Instance, spec: BatchSpec) -> Fraction:
    """Pumping cost charged when the batch is dispatched (0 if not configured)."""
    return inst.regime(spec.regime).cost_per_batch.get(spec.id, Fraction(0))
