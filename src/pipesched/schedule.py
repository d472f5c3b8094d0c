"""Schedule representation: a set of (edge, batch, start slot) placements.

A schedule stores the raw per-edge placement set, which is what both the
solver solution and the validator operate on.  `from_initial` expands
initial-edge dispatch decisions along each batch's edge chain, which is the
route-synchronized form every feasible schedule has.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .batches import BatchCatalog
from .instance import read_placements

Placement = tuple[str, str, int]  # (edge id, batch id, start slot)


@dataclass(frozen=True)
class Schedule:
    placements: frozenset[Placement]

    @classmethod
    def from_raw(cls, placements: Iterable[Placement]) -> "Schedule":
        return cls(frozenset((str(e), str(b), int(t)) for e, b, t in placements))

    @classmethod
    def from_initial(cls, catalog: BatchCatalog, initial: Iterable[Placement]) -> "Schedule":
        """Expand initial-edge dispatches along their full edge chains."""
        out: set[Placement] = set()
        for e, b, t in initial:
            chain = catalog.chains.get(b)
            if chain is None:
                raise KeyError(f"unknown batch {b!r}")
            if chain[0] != e:
                raise ValueError(f"placement ({e!r}, {b!r}, {t}) is not on the batch's initial edge {chain[0]!r}")
            for eid in chain:
                out.add((eid, b, int(t)))
        return cls(frozenset(out))

    @property
    def sorted_placements(self) -> list[Placement]:
        return sorted(self.placements)

    def __len__(self) -> int:
        return len(self.placements)

    def to_json_dict(self) -> dict:
        return {"placements": [list(p) for p in self.sorted_placements]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Schedule":
        """Raises ValueError unless `data` is {"placements": [[edge, batch, start], ...]}
        with string ids and an integer start."""
        try:
            return cls(frozenset(read_placements(data["placements"])))
        except (KeyError, TypeError, ValueError) as exc:
            shape = '{"placements": [[edge, batch, start], ...]}'
            raise ValueError(f"expected {shape} ({type(exc).__name__}: {exc})") from exc

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Schedule":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
