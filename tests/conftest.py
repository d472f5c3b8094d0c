"""Shared fixtures: the single-edge reference instance and its variants."""

from __future__ import annotations

import dataclasses
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from pipesched.batches import enumerate_batches
from pipesched.generator import PathExperimentParams, generate_path_instance
from pipesched.instance import Product
from pipesched.lp_io import write_lp
from pipesched.solver import SolverConfig


def single_edge_instance(horizon: int = 24, batches: int = 10, cmax: int | None = None):
    """Refinery feeding one storage site over one pipe: flush batches of
    volume 100 (6 slots), stain batches of volume 44 (3 slots), stock 120,
    tank size 600 unless overridden, nomination `batches` per product."""
    inst = generate_path_instance(
        PathExperimentParams(vertices=2, setting="A", horizon=horizon, nomination_batches=batches)
    )
    if cmax is not None:
        inst = with_capacity(inst, maximum=cmax)
    return inst


def with_capacity(inst, maximum):
    sites = []
    for s in inst.sites:
        if s.kind != "storage" or not s.capacity:
            sites.append(s)
            continue
        caps = {pid: dataclasses.replace(prof, maximum=maximum) for pid, prof in s.capacity.items()}
        sites.append(dataclasses.replace(s, capacity=caps))
    return dataclasses.replace(inst, sites=tuple(sites), name=f"{inst.name}-cmax{maximum}")


def with_dye(inst, nomination: int | None = None):
    """`inst` with a second staining product, `dye`, shipped like `stain`: the same standard batch,
    tank, flow rate and cost per batch, and the stain's nomination unless `nomination` is given.
    Every stain on an edge then excludes another."""
    sites = tuple(
        dataclasses.replace(
            s,
            standard_batch={**s.standard_batch, "dye": s.standard_batch["stain"]},
            capacity={**s.capacity, "dye": s.capacity["stain"]} if s.capacity else s.capacity,
        )
        for s in inst.sites
    )
    regimes = tuple(
        dataclasses.replace(
            r,
            flow_rate={**r.flow_rate, "dye": r.flow_rate["stain"]},
            cost_per_batch={**r.cost_per_batch, f"{r.id}:dye:standard": r.cost_per_batch[f"{r.id}:stain:standard"]},
        )
        for r in inst.regimes
    )
    nominations = tuple(
        dataclasses.replace(n, limits={**n.limits, "dye": n.limits["stain"] if nomination is None else nomination})
        for n in inst.nominations
    )
    return dataclasses.replace(
        inst,
        name=f"{inst.name}-dye",
        products=(*inst.products, Product("dye", "staining", unit_volume=Fraction("70.5"))),
        sites=sites,
        regimes=regimes,
        nominations=nominations,
    )


def lp_text(model) -> str:
    """The LP file `write_lp` writes for `model`, read back as text."""
    with tempfile.TemporaryDirectory(prefix="pipesched_test_") as tmp:
        return Path(write_lp(model, Path(tmp) / "m.lp")).read_text(encoding="utf-8")


TINY_LP = """\
Maximize
 obj: x + 2 y
Subject To
 c1: x + y <= 1
Bounds
 0 <= x <= 1
 0 <= y <= 1
Binary
 x
 y
End
"""


@pytest.fixture(scope="session")
def ref1():
    """Horizon 24 base variant; 19 flush + 22 stain placements fit."""
    return single_edge_instance()


@pytest.fixture(scope="session")
def ref1_small():
    """Horizon 12, one nominated batch per product; optimum known by hand."""
    return single_edge_instance(horizon=12, batches=1)


@pytest.fixture(scope="session")
def ref1_long():
    """Horizon 120 with a tank large enough to admit the full nomination."""
    return single_edge_instance(horizon=120, cmax=1200)


@pytest.fixture(scope="session")
def ref1_catalog(ref1):
    return enumerate_batches(ref1)


@pytest.fixture(scope="session")
def quick_cfg():
    """Exact solves for the small fixtures."""
    return SolverConfig(time_limit=120, gap=0.0)


ACCEPTANCE_LINES: list[str] = []
"""Verdict lines collected by the acceptance tests, echoed after the run."""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
