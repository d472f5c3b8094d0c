"""Per-layer metrics from the spans and replay of one traced operation.

A span's layer is its name up to the first dot.  A layer's self time is the
duration of its spans minus the part covered by their child spans.  Spans
under the `replay` root re-measure work the solver child already did, so
they feed the replay metrics and are kept out of the self times.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("pipesched", "instance", "batches", "milpmodel", "lp_io", "solver", "solver_shim", "validator")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _replayed(spans: list[dict]) -> set[int]:
    inside: set[int] = set()
    for s in spans:  # parents precede their children
        if s["name"] == "replay" or s["parent"] in inside:
            inside.add(s["id"])
    return inside


def totals(spans: list[dict]) -> dict[str, float]:
    """Summed duration per span name, replay excluded."""
    skip = _replayed(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["id"] not in skip:
            out[s["name"]] += _duration(s)
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    skip = _replayed(spans)
    own = {s["id"]: _duration(s) for s in spans if s["id"] not in skip}
    for s in spans:
        if s["id"] in own and s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s["id"] in own:
            out[s["name"].split(".", 1)[0]] += own[s["id"]]
    return out


def calls(spans: list[dict], name: str) -> list[dict]:
    """Spans called `name` outside the replay, in call order."""
    skip = _replayed(spans)
    return [s for s in spans if s["name"] == name and s["id"] not in skip]


def rounds_table(result: dict) -> list[dict]:
    """Per solver round: child wall time against its replayed parts."""
    spans = result["spans"]
    children = calls(spans, "solver_shim.child")
    writes = calls(spans, "lp_io.write")
    parses = calls(spans, "lp_io.parse_solution")
    table = []
    for k, rep in enumerate(result["replay"]):
        child = _duration(children[k])
        table.append(
            {
                **rep,
                "write_s": _duration(writes[k]),
                "child_s": child,
                "child_unaccounted_s": child - rep["spawn_s"] - rep["parse_lp_s"] - rep["highs_s"],
                "driver_parse_solution_s": _duration(parses[k]),
            }
        )
    return table


def traced_metrics(result: dict) -> dict[str, float]:
    """Layer timings and exact counts of one traced operation."""
    spans = result["spans"]
    t = totals(spans)
    replay = result["replay"]
    # validator calls the solver driver makes itself (nested ones are inside these)
    top_validator = [
        s for s in spans
        if s["name"].startswith("validator.") and s["parent"] is not None
        and spans[s["parent"]]["name"] == "solver.solve"
    ]
    validator_s = sum(_duration(s) for s in top_validator)
    spawn = sum(r["spawn_s"] for r in replay)
    parse_lp = sum(r["parse_lp_s"] for r in replay)
    highs = sum(r["highs_s"] for r in replay)
    accounted = t["lp_io.write"] + t["lp_io.parse_solution"] + validator_s + spawn + parse_lp + highs
    metrics = {
        "pipesched.import_s": t["pipesched.import"],
        "instance.load_s": t["instance.load"],
        "instance.validate_s": t["instance.validate"],
        "batches.enumerate_s": t["batches.enumerate"],
        "milpmodel.build_s": t["milpmodel.build"],
        "lp_io.write_s": t["lp_io.write"],
        "lp_io.parse_solution_s": t["lp_io.parse_solution"],
        "solver.child_s": t["solver_shim.child"],
        "solver.spawn_s": spawn,
        "solver.overhead_s": t["solver.solve"] - accounted,
        "solver_shim.parse_lp_s": parse_lp,
        "solver_shim.highs_s": highs,
        "solver_shim.mip_nodes": sum(r["mip_nodes"] for r in replay),
        "validator.check_s": t["validator.check"],
        "validator.simulate_s": t["validator.simulate"],
        "validator.objective_s": t["validator.objective"],
        # violations of checked schedules only; capacity-bound hits are the lazy loop's rows
        "validator.violations": sum(s.get("violations", 0) for s in top_validator if s["name"] == "validator.check"),
    }
    metrics.update({f"{layer}.self_s": v for layer, v in self_times(spans).items()})
    return metrics
