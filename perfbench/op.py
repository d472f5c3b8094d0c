"""One benchmark operation in a fresh interpreter: instance JSON to validated schedule.

    python perfbench/op.py INSTANCE.json {lazy,mono} WORK_DIR OUT.json [--trace]

Imports `pipesched`, loads and validates the instance, builds the model and
solves it with the default solver shim, keeping every round's LP and
solution file in WORK_DIR.  OUT.json receives CLOCK_MONOTONIC marks (which
the parent compares with its own spawn time), the result, the schedule,
exact model-size counts and peak memory of this process and its solver
children.

With --trace the public calls into each layer are wrapped in spans, from
outside the package: module globals that the package looks up at call time
are replaced by timing wrappers.  After the solve, each kept round is
replayed in process (`solver_shim.parse_lp`, `solver_shim.solve_lp`,
`lp_io.parse_solution`) and the solver command's start-up is timed once per
round, so the child's wall time can be split into start-up, LP parse and
HiGHS.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import GAP, THREADS

TIME_LIMIT = 60.0  # seconds per solver call
# what the default shim command imports before it can solve
SHIM_IMPORTS = "import pipesched.solver_shim, numpy; from scipy import optimize, sparse"


class Tracer:
    """In-memory spans: name, start, end, parent span and operation id."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.monotonic(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = original(*args, **kwargs)
                if annotate is not None:
                    rec.update(annotate(out))
                return out

        setattr(module, attr, traced)


class _TracedSubprocess:
    """Stands in for the `subprocess` module inside `pipesched.solver`."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def run(self, *args, **kwargs):
        with self._tracer.span("solver_shim.child"):
            return subprocess.run(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(subprocess, name)


def instrument(tracer: Tracer) -> None:
    import pipesched.milpmodel as milpmodel
    import pipesched.solver as solver
    import pipesched.validator as validator

    count = lambda out: {"violations": len(out)}  # noqa: E731
    tracer.wrap(milpmodel, "validate_instance", "instance.validate")
    tracer.wrap(milpmodel, "enumerate_batches", "batches.enumerate", lambda c: {"specs": len(c.specs)})
    tracer.wrap(solver, "write_lp", "lp_io.write", lambda text: {"lp_bytes": len(text.encode("utf-8"))})
    tracer.wrap(solver, "parse_solution", "lp_io.parse_solution")
    tracer.wrap(solver, "check_schedule", "validator.check", count)
    tracer.wrap(solver, "capacity_bound_violations", "validator.capacity_bounds", count)
    tracer.wrap(solver, "evaluate_objective", "validator.objective")
    for module in (solver, validator):
        tracer.wrap(module, "simulate_occupancy", "validator.simulate")
    tracer.wrap(validator, "capacity_bound_violations", "validator.capacity_bounds")
    solver.subprocess = _TracedSubprocess(tracer)


def model_counts(model) -> dict:
    from pipesched.milpmodel import FAMILIES

    counts = {
        "milpmodel.binaries": sum(1 for v in model.variables if v.binary),
        "milpmodel.variables": len(model.variables),
        "milpmodel.rows": len(model.constraints),
        "milpmodel.nnz": sum(len(c.terms) for c in model.constraints),
        "milpmodel.lazy_rows": sum(1 for c in model.constraints if c.lazy),
        "batches.specs": len(model.catalog.specs),
    }
    family = model.family_counts()
    counts.update({f"milpmodel.rows.{f}": family[f] for f in FAMILIES})
    return counts


def round_files(work_dir: Path, lazy: bool, rounds: int) -> list[tuple[Path, Path]]:
    tags = [f"iter{k}" for k in range(rounds)] if lazy else ["model"]
    return [(work_dir / f"{tag}.lp", work_dir / f"{tag}.sol") for tag in tags]


def replay(tracer: Tracer, model, files, command: str) -> list[dict]:
    """Re-run each kept round in process, plus one solver start-up per round."""
    import shlex

    from pipesched import lp_io, solver_shim
    from scipy import optimize, sparse  # noqa: F401  (imported before any timing)

    interpreter = shlex.split(command)[0]
    # the solver child starts with a small heap; keep this process's model out
    # of the collector's way so the replay runs under the same conditions
    gc.collect()
    gc.freeze()
    rounds = []
    with tracer.span("replay"):
        for k, (lp_path, sol_path) in enumerate(files):
            with tracer.span("solver.spawn", round=k) as spawn:
                subprocess.run([interpreter, "-c", SHIM_IMPORTS], check=True)
            lp_text = lp_path.read_text(encoding="utf-8")
            with tracer.span("solver_shim.parse_lp", round=k) as parse:
                lp = solver_shim.parse_lp(lp_text)
            with tracer.span("solver_shim.solve_lp", round=k) as highs:
                res, _cols = solver_shim.solve_lp(lp, TIME_LIMIT, GAP)
            with tracer.span("lp_io.parse_solution", round=k) as parse_sol:
                lp_io.parse_solution(sol_path.read_text(encoding="utf-8"), model)
            rounds.append(
                {
                    "round": k,
                    "lp_bytes": lp_path.stat().st_size,
                    "spawn_s": spawn["end"] - spawn["start"],
                    "parse_lp_s": parse["end"] - parse["start"],
                    "highs_s": highs["end"] - highs["start"],
                    "mip_nodes": int(res.mip_node_count or 0),
                    "parse_solution_s": parse_sol["end"] - parse_sol["start"],
                }
            )
    return rounds


def main(argv: list[str]) -> int:
    instance_path, mode, work_dir, out_path = argv[:4]
    trace = "--trace" in argv[4:]
    if mode not in ("lazy", "mono"):
        raise SystemExit(f"mode must be lazy or mono, not {mode!r}")
    lazy = mode == "lazy"
    tracer = Tracer(op_id=Path(work_dir).name)
    marks = {}
    with tracer.span("pipesched.import"):
        import pipesched
        from pipesched import BuildOptions, SolverConfig, build_model, load_instance, validate_instance
    if trace:
        instrument(tracer)

    with tracer.span("instance.load"):
        inst = load_instance(instance_path)
    with tracer.span("instance.validate"):
        issues = validate_instance(inst)
    if issues:
        raise SystemExit(f"invalid instance: {issues}")
    with tracer.span("milpmodel.build"):
        model = build_model(inst, BuildOptions(capacity_lazy=lazy))
    marks["setup_end"] = time.monotonic()

    config = SolverConfig(gap=GAP, threads=THREADS, time_limit=TIME_LIMIT, work_dir=work_dir, keep_files=True)
    runner = pipesched.solve_lazy_capacity if lazy else pipesched.solve
    with tracer.span("solver.solve"):
        result = runner(model, config)
    marks["solve_end"] = time.monotonic()

    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "marks": marks,
        "status": result.status,
        "message": result.message,
        "objective": None if result.objective is None else str(result.objective),
        "placements": None if result.schedule is None else [list(p) for p in result.schedule.sorted_placements],
        "rounds": [{"added_rows": it.added_rows, "status": it.status} for it in result.iterations],
        "counts": model_counts(model),
        "peak_rss_kb": self_usage.ru_maxrss,
        "solver_peak_rss_kb": child_usage.ru_maxrss,
        "solver_command": config.resolved_command(),
    }
    if trace:
        files = round_files(Path(work_dir), lazy, max(1, len(result.iterations)))
        out["replay"] = replay(tracer, model, files, config.resolved_command())
        out["spans"] = tracer.spans
    Path(out_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
