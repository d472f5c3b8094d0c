#!/usr/bin/env python3
"""Time from an instance JSON to a validated, exactly scored schedule.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One operation is one instance solved in a
fresh interpreter (`op.py`) and then re-checked here by the correctness
gate (`gate.py`).  Operations run one at a time, in a closed loop, as long
as the next one is expected to end within `--seconds` (at least MIN_OPS).
Every operation yields one value per metric; the run reports their median.

`--trace 0` prints the end-to-end metrics listed in BENCHMARK.json.
`--trace 1` runs the harness self-test, one untraced operation and then
traced operations, and prints the per-layer metrics; the spans and the
per-round breakdown go to perfbench/out/<workload>/seed<N>/trace.json.

The exact counts of every operation (model size, LP bytes, lazy rounds,
placements) must agree across the operations of the run; the run prints
them on its `counts` line, so two runs can be compared.  The last line of
standard output is one JSON object; the exit code is 0 only if every
operation passed the gate and every count repeated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

RUN_LIMIT = 160.0  # seconds; a run stops starting operations when this is near
OP_TIMEOUT = 120.0
MIN_OPS = 2  # timed operations per run, however long each takes


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def metric_specs(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]


def environment(record) -> dict:
    return {
        "solver_command": record.result["solver_command"] if record.result else None,
        "interpreter": sys.executable,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
    }


def check_counts(records) -> list[str]:
    """Exact counts must match across the run's operations."""
    counts = [r.counts() for r in records if r.verdict.passed]
    return [f"operation counts differ: {c} vs {counts[0]}" for c in counts[1:] if c != counts[0]]


def describe(i: int, r) -> str:
    if r.result is None or "status" not in r.result:
        return f"op {i}: FAIL {'; '.join(r.verdict.reasons)}"
    rows = [x["added_rows"] for x in r.result["rounds"]]
    verdict = "PASS" if r.verdict.passed else "FAIL " + "; ".join(r.verdict.reasons)
    return (
        f"op {i}: e2e {r.e2e_s:.3f} s  setup {r.setup_s:.3f} s  solve {r.solve_s:.3f} s  "
        f"rows/round {rows}  objective {r.verdict.objective}  {verdict}"
    )


def end_to_end_values(passed, reference) -> dict[str, float]:
    median = statistics.median
    return {
        "e2e_s": median(r.e2e_s for r in passed),
        "setup_s": median(r.setup_s for r in passed),
        "solve_s": median(r.solve_s for r in passed),
        "peak_rss_mb": median(r.result["peak_rss_kb"] / 1024 for r in passed),
        "solver_peak_rss_mb": median(r.result["solver_peak_rss_kb"] / 1024 for r in passed),
        "objective_ratio": float(median(r.verdict.objective / reference for r in passed)),
    }


def per_layer_values(traced, untraced, run_dir: Path) -> dict[str, float]:
    """Medians over the traced operations; prints the per-round table and writes the spans."""
    import layers

    per_op = [layers.traced_metrics(r.result) for r in traced]
    values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    values.update(traced[0].counts())
    values["trace.overhead_s"] = statistics.median(r.e2e_s for r in traced) - untraced.e2e_s
    values["objective_gap"] = float(statistics.median(r.verdict.gap for r in traced))
    table = layers.rounds_table(traced[0].result)
    for row in table:
        print("round " + json.dumps({k: round(v, 4) if isinstance(v, float) else v for k, v in row.items()}))
    print("self_s " + json.dumps({k: round(v, 4) for k, v in values.items() if k.endswith(".self_s")}))
    trace_file = run_dir / "trace.json"
    spans = [s for r in traced for s in r.result["spans"]]
    trace_file.write_text(json.dumps({"rounds": table, "spans": spans}) + "\n", encoding="utf-8")
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    return values


def run(args) -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "pipesched" / "__init__.py").is_file():
        return fail(f"no pipesched sources under {ROOT / 'src'}; run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import pipesched.solver_shim  # noqa: F401  (compiles the package before any timing)
    from pipesched import load_instance

    import harness
    import selftest
    from workloads import WORKLOADS, instance_dict

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run_dir = OUT / workload.name / f"seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    instance = run_dir / "instance.json"
    instance.write_text(json.dumps(instance_dict(workload, args.seed), indent=1) + "\n", encoding="utf-8")
    inst = load_instance(instance)

    def timeout() -> float:
        return min(OP_TIMEOUT, RUN_LIMIT - (time.monotonic() - started))

    def time_left() -> bool:
        return time.monotonic() - started < RUN_LIMIT - OP_TIMEOUT / 4

    def op(k: int, **kw):
        record = harness.run_op(instance, workload.lazy, run_dir / f"op{k}", timeout(), **kw)
        return harness.gate(record, inst, workload.lazy, workload.reference)

    problems: list[str] = []
    if args.trace:
        problems += [f"self-test: {p}" for p in selftest.check_harness(OUT / "selftest")]
    harness.warm_up()

    measure_from = time.monotonic()
    records = [op(0)]  # in a traced run, the untraced reference operation
    traced = []
    while time_left():
        elapsed = time.monotonic() - measure_from
        # start another operation only if it should end within --seconds
        expected_end = elapsed + elapsed / (len(records) + len(traced))
        if args.trace:
            if traced and expected_end > args.seconds:
                break
            traced.append(op(len(records) + len(traced), trace=True))
        else:
            if len(records) >= MIN_OPS and expected_end > args.seconds:
                break
            records.append(op(len(records)))

    everything = records + traced
    for i, r in enumerate(everything):
        print(describe(i, r))
    problems += check_counts(everything)
    print("env " + json.dumps(environment(everything[0])))
    if everything[0].verdict.passed:
        print("counts " + json.dumps(everything[0].counts(), sort_keys=True))
    failed = harness.count_failed(everything)

    # timings come from operations that passed; the failures are counted above
    values: dict[str, float] = {"failed_ops_ratio": failed / len(everything)}
    passed = [r for r in records if r.verdict.passed]
    if args.trace and passed and traced and harness.count_failed(traced) == 0:
        values.update(per_layer_values(traced, passed[0], run_dir))
    elif not args.trace and passed:
        values.update(end_to_end_values(passed, workload.reference))

    for p in problems:
        print(f"problem: {p}")
    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing and failed == 0:
        print(f"problem: metrics not measured: {missing}")
    correct = failed == 0 and not problems and not missing
    summary = {
        "correct": correct,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs if s["name"] in values},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
