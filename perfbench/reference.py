#!/usr/bin/env python3
"""Re-derive the workloads' reference optima and check them under relabelling.

    python3 perfbench/reference.py [--seeds 0 1 2]

For each distinct instance among the workloads and each seed, relabels the
instance with shuffled site, edge and regime lists, solves its monolithic
model at gap 0 with the default solver shim and re-scores the schedule with
the validator.  Exits 1 unless every solve proves optimality (status
`optimal`) at exactly the workload's recorded reference.  Takes about a
minute per seed on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out" / "reference"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)

    from harness import SRC, op_env

    sys.path.insert(0, str(SRC))
    os.environ.clear()
    os.environ.update(op_env())  # the solver child imports pipesched from SRC
    from pipesched import BuildOptions, SolverConfig, build_model, check_schedule, evaluate_objective, solve
    from pipesched.instance import instance_from_dict
    from workloads import WORKLOADS, instance_dict

    instances = {}
    for w in WORKLOADS.values():
        instances.setdefault((w.vertices, w.setting, w.cost_mode), w)
    bad = 0
    for w in instances.values():
        for seed in args.seeds:
            inst = instance_from_dict(json.loads(json.dumps(instance_dict(w, seed, shuffle_lists=True))))
            model = build_model(inst, BuildOptions())
            work = OUT / f"{w.name}-seed{seed}"
            t0 = time.monotonic()
            result = solve(model, SolverConfig(gap=0.0, time_limit=600.0, work_dir=work))
            wall = time.monotonic() - t0
            shutil.rmtree(work, ignore_errors=True)
            ok = result.status == "optimal" and result.objective == w.reference
            if result.schedule is not None:
                ok = ok and not check_schedule(inst, model.catalog, result.schedule)
                ok = ok and evaluate_objective(inst, model.catalog, result.schedule)["total"] == w.reference
            bad += not ok
            label = f"path{w.vertices}{w.setting}-{w.cost_mode.lower()}"
            print(
                f"{label} seed {seed}: status {result.status} objective {result.objective} bound {result.bound} "
                f"reference {w.reference} wall {wall:.1f} s {'OK' if ok else 'MISMATCH'}",
                flush=True,
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
