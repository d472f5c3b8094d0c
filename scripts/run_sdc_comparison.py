#!/usr/bin/env python3
"""Pumping-cost study: solve one path instance with and without cost terms.

Runs the SDC experiment suite (an intake-only solve followed by a
cost-aware solve of the same network) and reports the pumping-cost
improvement at equal intake.  Default is the four-vertex setting-B path,
where distant deliveries are quadratically more expensive and the
cost-aware mode shifts work onto short hauls.
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
    parser.add_argument("--out-dir", default="results/sdc-comparison")
    parser.add_argument("--length", type=int, default=4,
                        help="path length (vertices incl. the refinery)")
    parser.add_argument("--setting", default="B", choices=("A", "B", "C"))
    parser.add_argument("--outtake-policy", default="daily",
                        choices=("daily", "front_loaded", "uniform_hourly"))
    parser.add_argument("--gap", type=float, default=SolverConfig.gap)
    parser.add_argument("--time-limit", type=float, default=SolverConfig.time_limit)
    args = parser.parse_args(argv)

    rc = pipesched(
        ["experiment", "--suite", "SDC", "--out-dir", args.out_dir,
         "--vertices", str(args.length), "--setting", args.setting,
         "--outtake-policy", args.outtake_policy,
         "--gap", str(args.gap), "--time-limit", str(args.time_limit)]
    )
    if rc != 0:
        return rc

    s = json.loads((Path(args.out_dir) / "summary.json").read_text(encoding="utf-8"))
    print(f"\nSDC comparison, length {s['vertices']}, setting {s['setting']}, "
          f"outtake policy {s['outtake_policy']}")
    print(f"  intake volume: {s['extraction_sd']:.1f} (intake-only) vs "
          f"{s['extraction_sdc']:.1f} (cost-aware)")
    print(f"  pumping cost:  {s['pumping_cost_sd']:.1f} -> {s['pumping_cost_sdc']:.1f}")
    if s["cost_improvement"] is not None:
        print(f"  improvement:   {s['cost_improvement']:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
