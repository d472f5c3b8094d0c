#!/usr/bin/env python3
"""Supply-demand benchmark: solve the setting-A path instances to optimality.

Runs the SD experiment suite once per path length (default lengths 4 and 5),
then prints a status table from the collected summaries.  Every run names
the outtake policy because the achievable intake depends on it.

Artifacts land under --out-dir/l<length>/: the generated instance, the run
manifest, the schedule, and summary.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from pipesched.cli import main as pipesched
from pipesched.solver import SolverConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results/sd-suite")
    parser.add_argument("--lengths", type=int, nargs="+", default=[4, 5],
                        help="path lengths to run (vertices incl. the refinery)")
    parser.add_argument("--setting", default="A", choices=("A", "B", "C"))
    parser.add_argument("--outtake-policy", default="daily",
                        choices=("daily", "front_loaded", "uniform_hourly"))
    parser.add_argument("--gap", type=float, default=SolverConfig.gap)
    parser.add_argument("--time-limit", type=float, default=SolverConfig.time_limit)
    args = parser.parse_args(argv)

    summaries = []
    worst = 0
    for length in args.lengths:
        out = Path(args.out_dir) / f"l{length}"
        rc = pipesched(
            ["experiment", "--suite", "SD", "--out-dir", str(out),
             "--vertices", str(length), "--setting", args.setting,
             "--outtake-policy", args.outtake_policy,
             "--gap", str(args.gap), "--time-limit", str(args.time_limit)]
        )
        worst = max(worst, rc)
        summaries.append(json.loads((out / "summary.json").read_text(encoding="utf-8")))

    print(f"\nSD suite, setting {args.setting}, outtake policy {args.outtake_policy}")
    print(f"{'length':>6}  {'status':<12}  {'objective':>10}")
    for s in summaries:
        objective = "-" if s["objective"] is None else f"{s['objective']:.1f}"
        print(f"{s['vertices']:>6}  {s['status']:<12}  {objective:>10}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
