"""Benchmark workloads: path instances, seeded relabelling, reference optima.

Each workload names one path instance from `generator.generate_path_instance`
and the solve mode applied to it.  The seed draws a relabelling of that
instance: fresh site, edge and regime ids, with the `cost_per_batch` and
`pass_times` keys following.  Seed 0 is the generator's canonical output.

`relabel(..., shuffle_lists=True)` also shuffles the site, edge and regime
lists.  That changes the column and row order of the MILP, and HiGHS then
takes a different path: on the same instance, e2e time moved by up to 2x
and lazy round counts changed between orders (see README.md).  Timed runs
therefore keep the canonical order, so that a run's figures depend on the
code and not on the draw; `reference.py` uses shuffled orders to check that
the optimum does not depend on the labelling.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction

GAP = 1e-3  # requested relative MIP gap
THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int
    setting: str
    cost_mode: str
    lazy: bool  # solve_lazy_capacity on a capacity_lazy model, else solve
    reference: Fraction  # optimum of the canonical instance
    provenance: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="path4A-sd-lazy",
            vertices=4,
            setting="A",
            cost_mode="SD",
            lazy=True,
            reference=Fraction(1440),
            provenance="full nomination 10*100 + 10*44, an upper bound that the solver attains",
            why="quick-start command: small model, two lazy rounds, process start and LP text round trip dominate",
        ),
        Workload(
            name="path6B-sdc-lazy",
            vertices=6,
            setting="B",
            cost_mode="SDC",
            lazy=True,
            reference=Fraction(269937, 25),
            provenance="gap-0 monolithic solves (perfbench/reference.py), status optimal on shuffled seeds 0-2",
            why="heavy row generation: three lazy rounds, per-round LP rewrite, parse and validator simulation",
        ),
        Workload(
            name="path6B-sdc-mono",
            vertices=6,
            setting="B",
            cost_mode="SDC",
            lazy=False,
            reference=Fraction(269937, 25),
            provenance="gap-0 monolithic solves (perfbench/reference.py), status optimal on shuffled seeds 0-2",
            why="same instance solved monolithically: one spawn, HiGHS and the model build dominate",
        ),
    )
}


def canonical_instance_dict(workload: Workload) -> dict:
    from pipesched.generator import PathExperimentParams, generate_path_instance
    from pipesched.instance import instance_to_dict

    params = PathExperimentParams(vertices=workload.vertices, setting=workload.setting, cost_mode=workload.cost_mode)
    return instance_to_dict(generate_path_instance(params))


def _fresh_ids(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        token = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if token not in taken:
            taken.add(token)
            out.append(token)
    return out


def relabel(data: dict, seed: int, shuffle_lists: bool = False) -> dict:
    """Rename sites, edges and regimes, optionally shuffling their lists; seed 0 is the identity.

    Only the fields a path instance uses are rewritten.  Any other field that
    names a site, edge or regime would escape the renaming, so its presence
    is an error rather than a silent mismatch.
    """
    if seed == 0:
        return data
    unsupported = {"outages", "throughput_limits", "exclusion_groups", "fixed_transports"} & set(data)
    weights = data.get("weights", {})
    unsupported |= {"distribution_targets", "previous_plan", "executed"} & set(weights)
    if unsupported:
        raise ValueError(f"relabelling does not cover {sorted(unsupported)}")

    rng = random.Random(seed)
    taken = {p["id"] for p in data["products"]}
    site = dict(zip((s["id"] for s in data["sites"]), _fresh_ids(rng, len(data["sites"]), taken)))
    edge = dict(zip((e["id"] for e in data["edges"]), _fresh_ids(rng, len(data["edges"]), taken)))
    regime = dict(zip((r["id"] for r in data["regimes"]), _fresh_ids(rng, len(data["regimes"]), taken)))

    def batch_key(bid: str) -> str:
        rid, product, variant = bid.split(":")
        return f"{regime[rid]}:{product}:{variant}"

    out = dict(data)
    out["sites"] = [{**s, "id": site[s["id"]]} for s in data["sites"]]
    out["edges"] = [
        {**e, "id": edge[e["id"]], "origin": site[e["origin"]], "destination": site[e["destination"]]}
        for e in data["edges"]
    ]
    regimes = []
    for r in data["regimes"]:
        new = {**r, "id": regime[r["id"]], "edges": [edge[e] for e in r["edges"]]}
        if "cost_per_batch" in r:
            new["cost_per_batch"] = {batch_key(b): v for b, v in r["cost_per_batch"].items()}
        if "pass_times" in r:
            new["pass_times"] = {edge[e]: v for e, v in r["pass_times"].items()}
        regimes.append(new)
    out["regimes"] = regimes
    if "nominations" in data:
        out["nominations"] = [{**n, "refinery": site[n["refinery"]]} for n in data["nominations"]]
    if shuffle_lists:
        for key in ("sites", "edges", "regimes"):
            rng.shuffle(out[key])
    return out


def instance_dict(workload: Workload, seed: int, shuffle_lists: bool = False) -> dict:
    return relabel(canonical_instance_dict(workload), seed, shuffle_lists)
