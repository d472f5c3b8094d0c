"""Self-test of the benchmark harness on a micro instance.

    python3 perfbench/selftest.py

Every `run.py --trace 1` run also performs it.

Solves one oracle-sized instance through the traced operation and checks
that the harness itself measures and judges correctly:

- every span carries the operation's id and lies inside its parent;
- the layer calls made by the solver driver nest under `solver.solve`
  (or under `replay` for the in-process re-runs);
- the model counts match `MILPModel.family_counts()` of an in-process build;
- the gate passes the solver's schedule against the exhaustive optimum;
- mutated results each count as a failed operation, each rejected by the
  check meant for it: a dispatch dropped (gap to the optimum), a placement
  moved onto another (rule violation), a misreported objective (exact score).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ORACLE_SEED = 4  # two edges, two placements on each: every mutation below applies
NESTED_UNDER_SOLVE = ("lp_io.write", "lp_io.parse_solution", "solver_shim.child", "validator.check")


def _span_problems(spans: list[dict], op_id: str) -> list[str]:
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["op"] != op_id:
            problems.append(f"span {s['name']} has operation id {s['op']!r}, expected {op_id!r}")
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['name']} names a missing parent {s['parent']}")
        if parent is not None and not (parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
            problems.append(f"span {s['name']} is not inside its parent {parent['name']}")
    for name in NESTED_UNDER_SOLVE:
        found = [s for s in spans if s["name"] == name]
        if not found:
            problems.append(f"no {name} span recorded")
        for s in found:
            root = s
            while root["parent"] is not None:
                root = by_id[root["parent"]]
            if root["name"] not in ("solver.solve", "replay"):
                problems.append(f"span {name} is not nested under solver.solve or the replay")
    return problems


def _mutations(result: dict, inst, catalog) -> dict[str, tuple[dict, str]]:
    """Wrong results, each with the part of the gate's reason that must catch it."""
    from pipesched import Schedule, evaluate_objective

    placements = [tuple(p) for p in result["placements"]]
    H = inst.grid.horizon_len
    moved_from, onto = next(
        (p, q) for p in placements for q in placements
        if p != q and p[0] == q[0] and q[2] + catalog.spec_by_id[p[1]].length <= H
    )
    moved = [p for p in placements if p != moved_from] + [(moved_from[0], moved_from[1], onto[2])]
    _e, batch, start = placements[0]
    dropped = [p for p in placements if (p[1], p[2]) != (batch, start)]  # one dispatch, on every edge

    def rescored(changed: list) -> dict:
        """The changed schedule with its own exact score, so the score check cannot be what rejects it."""
        total = evaluate_objective(inst, catalog, Schedule.from_raw(changed))["total"]
        return {**result, "placements": changed, "objective": str(total)}

    return {
        "dispatch dropped": (rescored(dropped), "outside gap"),
        "placement moved onto another": (rescored(moved), "violation"),
        "objective misreported": (
            {**result, "objective": str(Fraction(result["objective"]) + 1)},
            "reported objective",
        ),
    }


def check_harness(work_root: Path) -> list[str]:
    import harness
    from pipesched import BuildOptions, brute_force_optimum, build_model, enumerate_batches, load_instance
    from pipesched.generator import generate_oracle_instance
    from pipesched.instance import save_instance

    work_root.mkdir(parents=True, exist_ok=True)
    path = work_root / "instance.json"
    save_instance(generate_oracle_instance(ORACLE_SEED), path)
    inst = load_instance(path)
    reference = brute_force_optimum(inst).objective
    record = harness.gate(harness.run_op(path, True, work_root / "op0", 60.0, trace=True), inst, True, reference)
    if record.result is None:
        return [f"micro operation failed: {record.error}"]
    problems = [f"micro operation failed the gate: {r}" for r in record.verdict.reasons]
    problems += _span_problems(record.result["spans"], "op0")

    model = build_model(inst, BuildOptions(capacity_lazy=True))
    counts = record.counts()
    for family, n in model.family_counts().items():
        if counts[f"milpmodel.rows.{family}"] != n:
            problems.append(f"rows.{family}: harness counted {counts[f'milpmodel.rows.{family}']}, model has {n}")
    if counts["milpmodel.rows"] != len(model.constraints):
        problems.append("row total differs from the model")

    if record.verdict.passed:
        catalog = enumerate_batches(inst)
        outcomes = []
        for label, (mutated, reason) in _mutations(record.result, inst, catalog).items():
            bad = harness.OpRecord(json.loads(json.dumps(mutated)), "", record.spawned)
            outcomes.append(harness.gate(bad, inst, True, reference))
            reasons = outcomes[-1].verdict.reasons
            if not any(reason in r for r in reasons):
                problems.append(f"mutation '{label}' was not rejected for '{reason}': {reasons}")
        if harness.count_failed(outcomes) != len(outcomes):
            problems.append("mutated operations were not all counted as failed")
    return problems


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    found = check_harness(here / "out" / "selftest")
    for p in found:
        print(f"problem: {p}")
    print("self-test " + ("failed" if found else "passed"))
    sys.exit(1 if found else 0)
