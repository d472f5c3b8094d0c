"""Command line interface.

Subcommands cover the full workflow: generate benchmark instances, inspect
the batch catalog, write the MILP to an LP file, solve it whole through an
external solver process, validate and score schedules independently of the
solver, run the exhaustive oracle on micro instances, drive the experiment
suites, and export Gantt tables.
The suites are one table, `SUITES`, of named generator settings; `experiment`
solves each of a suite's runs once per `--vertices` length and writes one
`summary.json` layout for every suite.  Build warnings go to stderr.

Exit codes: 0 success, 2 proven infeasible, 3 stopped at a limit (a
validated incumbent from a time-limited run is still written to
schedule.json), 4 validation or solver failure (a schedule that fails
validation is not written), 5 configuration, input or usage error, or an
output file that cannot be written.  A closed stdout is not an error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .batches import catalog_to_csv, csv_text, enumerate_batches
from .generator import (
    OUTTAKE_POLICIES,
    SETTINGS,
    PathExperimentParams,
    generate_oracle_instance,
    generate_path_instance,
    precheck_path_feasibility,
)
from .heuristic import Start
from .instance import load_instance, save_instance, validate_instance
from .lp_io import LPWriteError, write_lp
from .milpmodel import MILPModel, ModelBuildError, build_model
from .oracle import ORACLE_STATUS_BUDGET, ORACLE_STATUS_INFEASIBLE, OracleLimits, brute_force_optimum
from .schedule import Schedule
from .solver import STATUS_ERROR, STATUS_GAP, STATUS_INFEASIBLE, STATUS_TIME_LIMIT
from .solver import SolveResult, SolverConfig, solve
from .validator import check_schedule, evaluate_objective, simulate_occupancy

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_INVALID = 4
EXIT_CONFIG = 5


class CliError(Exception):
    """Bad input or configuration; maps to exit code 5."""


def _read(what: str, path: str, reader):
    try:
        return reader(path)
    except FileNotFoundError as exc:
        raise CliError(f"{what} file not found: {exc.filename}") from exc
    except OSError as exc:
        raise CliError(f"could not read {what} {path}: {exc}") from exc
    except ValueError as exc:  # a shape error of the reader's own, or json.JSONDecodeError
        raise CliError(f"could not parse {what} {path}: {exc}") from exc


def _load(path: str):
    inst = _read("instance", path, load_instance)
    issues = validate_instance(inst)
    if issues:
        lines = "\n".join(f"  - {i.code}: {i.message}" for i in issues)
        raise CliError(f"instance {path} failed validation:\n{lines}")
    return inst


def _load_schedule(path: str) -> Schedule:
    return _read("schedule", path, Schedule.load)


def _generate(params: PathExperimentParams):
    try:
        return generate_path_instance(params)
    except ValueError as exc:
        raise CliError(f"cannot generate an instance: {exc}") from exc


def _solver_config(args: argparse.Namespace, work_dir: Optional[Path] = None) -> SolverConfig:
    return SolverConfig(
        command=args.solver_cmd,
        time_limit=args.time_limit,
        gap=args.gap,
        threads=args.threads,
        work_dir=work_dir,
    )


def _fnum(value) -> Optional[float]:
    return None if value is None else float(value)


def _component_floats(components: Optional[dict]) -> Optional[dict]:
    if components is None:
        return None
    return {k: float(v) for k, v in components.items()}


def _print_or_write(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text, end="")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _warn(warnings: list[str]) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _build(inst) -> MILPModel:
    """The model of `inst`, its build warnings printed."""
    try:
        model = build_model(inst)
    except ModelBuildError as exc:
        raise CliError(str(exc)) from exc
    _warn(model.metadata["warnings"])
    return model


def _start_block(start: Optional[Start]) -> Optional[dict]:
    """The manifest's account of the MIP start: its exact objective and placement count, why the
    validator dropped it, or None without a plan (or without {start} in the solver template)."""
    if start is None:
        return None
    if start.schedule is None:
        families = ", ".join(sorted({v.family for v in start.violations}))
        return {"dropped": f"{len(start.violations)} violations ({families})"}
    return {"objective": float(start.objective), "placements": len(start.schedule)}


def _run_manifest(model: MILPModel, config: SolverConfig, result: SolveResult) -> dict:
    return {
        "tool": f"pipesched {__version__}",
        "instance": model.instance.name,
        "instance_hash": model.metadata["instance_hash"],
        "warnings": model.metadata["warnings"],
        "solver": {
            "command": config.resolved_command(),
            "time_limit": config.time_limit if math.isfinite(config.time_limit) else None,  # inf: no limit
            "gap_target": config.gap,
            "threads": config.threads,
            "seed": config.seed if config.names("seed") else None,  # None: the template passes no seed
            "nodes": result.nodes,
            "simplex_iterations": result.simplex_iterations,
        },
        "status": result.status,
        "objective": _fnum(result.objective),
        "bound": result.bound,
        "gap": result.gap,
        "components": _component_floats(result.components),
        "placements": None if result.schedule is None else len(result.schedule),
        "start": _start_block(result.start),
        "wall_time": result.wall_time,
        "message": result.message,
    }


_EXIT_CODES = {STATUS_INFEASIBLE: EXIT_INFEASIBLE, STATUS_TIME_LIMIT: EXIT_LIMIT, STATUS_GAP: EXIT_LIMIT}


def _solve_exit_code(result: SolveResult) -> int:
    return EXIT_OK if result.ok else _EXIT_CODES.get(result.status, EXIT_INVALID)


def _writes_schedule(result: SolveResult) -> bool:
    """A schedule the driver rejected (status error) is reported in the manifest, not written."""
    return result.schedule is not None and result.status != STATUS_ERROR


def _solve_and_record(inst, config: SolverConfig, out_dir: Path, prefix: str = "") -> SolveResult:
    """Build and solve `inst`, then write `<prefix>manifest.json` and, when
    `_writes_schedule`, `<prefix>schedule.json`; otherwise delete any
    `<prefix>schedule.json` an earlier run left there."""
    model = _build(inst)
    result = solve(model, config)
    _write_json(out_dir / f"{prefix}manifest.json", _run_manifest(model, config, result))
    schedule_path = out_dir / f"{prefix}schedule.json"
    if _writes_schedule(result):
        result.schedule.save(schedule_path)
    else:
        schedule_path.unlink(missing_ok=True)
    return result


def _print_result(result: SolveResult) -> None:
    print(f"status: {result.status}")
    if result.objective is not None:
        print(f"objective: {float(result.objective):.6f}")
    if result.bound is not None:
        print(f"bound: {result.bound:.6f}")
    if result.gap is not None:
        print(f"gap: {result.gap:.3g}")
    if result.components:
        parts = ", ".join(f"{k}={float(v):.4f}" for k, v in result.components.items())
        print(f"components: {parts}")
    if result.schedule is not None:
        print(f"placements: {len(result.schedule)}")
    if result.message:
        print(f"note: {result.message}")
    print(f"wall time: {result.wall_time:.2f}s")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    if args.oracle_seed is not None:
        inst, warnings = generate_oracle_instance(args.oracle_seed), []
    else:
        params = PathExperimentParams(
            vertices=args.vertices,
            setting=args.setting,
            cost_mode=args.cost_mode,
            outtake_policy=args.outtake_policy,
            nomination_batches=args.nomination_batches,
            horizon=args.horizon,
        )
        inst, warnings = _generate(params), precheck_path_feasibility(params)
    save_instance(inst, args.out)
    print(f"wrote {args.out} ({inst.name}, horizon {inst.grid.horizon_len})")
    _warn(warnings)
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    _print_or_write(catalog_to_csv(enumerate_batches(_load(args.instance))), args.out)
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    model = _build(_load(args.instance))
    try:
        write_lp(model, args.out)
    except LPWriteError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    counts = model.family_counts()
    print(f"wrote {args.out}")
    print(f"variables: {sum(b.count for b in model.variables.blocks)} ({model.metadata['binaries']} binary)")
    print(f"rows: {len(model.constraints.rhs)}")
    for family in sorted(counts):
        print(f"  {family}: {counts[family]}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _solver_config(args, work_dir=out_dir if args.keep_files else None)
    result = _solve_and_record(inst, config, out_dir)
    _print_result(result)
    if _writes_schedule(result):
        print(f"schedule: {out_dir / 'schedule.json'}")
    return _solve_exit_code(result)


def cmd_validate(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    catalog = enumerate_batches(inst)
    schedule = _load_schedule(args.schedule)
    try:
        violations = check_schedule(inst, catalog, schedule)
    except ValueError as exc:
        raise CliError(f"schedule does not match the instance: {exc}") from exc
    components = evaluate_objective(inst, catalog, schedule)
    print(f"placements: {len(schedule)}")
    for key in ("extraction", "distribution", "plan_change", "pumping_cost", "total"):
        print(f"{key}: {float(components[key]):.6f}")
    if args.occupancy:
        occ = simulate_occupancy(inst, catalog, schedule)
        Path(args.occupancy).write_text(occ.to_csv(), encoding="utf-8")
        print(f"occupancy: {args.occupancy}")
    if violations:
        print(f"INVALID: {len(violations)} violation(s)")
        for v in violations[: args.max_violations]:
            print(f"  - {v.family} {v.coordinate}: {v.message}")
        if len(violations) > args.max_violations:
            print(f"  ... and {len(violations) - args.max_violations} more")
        return EXIT_INVALID
    print("valid: all rule families satisfied")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    try:
        result = brute_force_optimum(inst, OracleLimits(node_budget=args.node_budget))
    except ValueError as exc:  # the instance exceeds an edge, horizon or candidate limit
        raise CliError(f"too large for the oracle: {exc}") from exc
    print(f"status: {result.status}")
    print(f"nodes: {result.nodes}, leaves checked: {result.leaves}")
    if result.status == ORACLE_STATUS_INFEASIBLE:
        return EXIT_INFEASIBLE
    if result.status == ORACLE_STATUS_BUDGET:
        return EXIT_LIMIT
    print(f"objective: {float(result.objective):.6f} (exact {result.objective})")
    parts = ", ".join(f"{k}={float(v):.4f}" for k, v in result.components.items())
    print(f"components: {parts}")
    print(f"placements: {len(result.schedule)}")
    if args.out:
        result.schedule.save(args.out)
        print(f"schedule: {args.out}")
    return EXIT_OK


def cmd_gantt(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    catalog = enumerate_batches(inst)
    schedule = _load_schedule(args.schedule)
    rows = [("edge", "batch", "product", "start", "end", "volume")]
    for edge, batch, t in schedule.sorted_placements:
        spec = catalog.spec_by_id.get(batch)
        if spec is None:
            raise CliError(f"schedule references unknown batch {batch!r}")
        rows.append((edge, batch, spec.product, t, t + spec.length, spec.volume))
    _print_or_write(csv_text(rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment suites


# Each suite is a table of runs: a run name and the PathExperimentParams fields it
# sets on top of --setting and --outtake-policy.  Every run is solved once per
# --vertices value and tagged `{run}-{setting}-l{vertices}`.
SUITES: dict[str, tuple[tuple[str, dict], ...]] = {
    "SD": (("sd", {"cost_mode": "SD"}),),
    "SDC": (("sd", {"cost_mode": "SD"}), ("sdc", {"cost_mode": "SDC"})),
    "large": (("large", {"setting": "C", "cost_mode": "SDC", "nomination_batches": 40, "horizon": 744}),),
}


def _solve_params(name: str, params: PathExperimentParams, inst, args: argparse.Namespace, out_dir: Path):
    """Save and solve one run of a suite as `<tag>.*`; return its result and its `summary.json` record."""
    tag = f"{name}-{params.setting}-l{params.vertices}"
    save_instance(inst, out_dir / f"{tag}.json")
    result = _solve_and_record(inst, _solver_config(args), out_dir, f"{tag}.")
    print(
        f"[{tag}] status={result.status} objective="
        f"{'-' if result.objective is None else f'{float(result.objective):.4f}'} "
        f"gap={'-' if result.gap is None else f'{result.gap:.2g}'} wall={result.wall_time:.1f}s"
    )
    record = {
        "tag": tag,
        "vertices": params.vertices,
        "setting": params.setting,
        "cost_mode": params.cost_mode,
        "horizon": inst.grid.horizon_len,
        "status": result.status,
        "objective": _fnum(result.objective),
        "gap": result.gap,
        "wall_time": result.wall_time,
        "components": _component_floats(result.components),
    }
    return result, record


def _cost_comparison(params: PathExperimentParams, sd: SolveResult, sdc: SolveResult) -> dict:
    """The pumping cost and extraction of one network solved without and with the cost term."""
    # components report cost as a negative contribution; compare magnitudes
    cost_sd = -sd.components["pumping_cost"]
    cost_sdc = -sdc.components["pumping_cost"]
    extraction_sd = sd.components["extraction"]
    extraction_sdc = sdc.components["extraction"]
    improvement = None if cost_sd == 0 else float((cost_sd - cost_sdc) / cost_sd)
    print(
        f"pumping cost {float(cost_sd):.2f} -> {float(cost_sdc):.2f}"
        + ("" if improvement is None else f" ({improvement:.1%} lower)")
        + f", extraction {float(extraction_sd):.1f} -> {float(extraction_sdc):.1f}"
    )
    return {
        "vertices": params.vertices,
        "setting": params.setting,
        "pumping_cost_sd": float(cost_sd),
        "pumping_cost_sdc": float(cost_sdc),
        "extraction_sd": float(extraction_sd),
        "extraction_sdc": float(extraction_sdc),
        "cost_improvement": improvement,
    }


def cmd_experiment(args: argparse.Namespace) -> int:
    chosen = {} if args.setting is None else {"setting": args.setting}
    for _name, overrides in SUITES[args.suite]:
        if chosen and overrides.get("setting", args.setting) != args.setting:
            raise CliError(f"suite {args.suite} runs setting {overrides['setting']}, not --setting {args.setting}")
    # generating an instance checks it, so a bad length fails before anything is solved
    plan = []
    for vertices in dict.fromkeys(args.vertices):
        runs = []
        for name, overrides in SUITES[args.suite]:
            params = PathExperimentParams(
                **{"vertices": vertices, "outtake_policy": args.outtake_policy, **chosen, **overrides}
            )
            runs.append((name, params, _generate(params)))
        plan.append(runs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"suite": args.suite, "outtake_policy": args.outtake_policy, "runs": [], "comparisons": []}
    worst = EXIT_OK
    for runs in plan:
        solved = {}
        for name, params, inst in runs:
            solved[name], record = _solve_params(name, params, inst, args, out_dir)
            summary["runs"].append(record)
            worst = max(worst, _solve_exit_code(solved[name]))
        if "sdc" in solved and solved["sd"].ok and solved["sdc"].ok:
            summary["comparisons"].append(_cost_comparison(params, solved["sd"], solved["sdc"]))
    _write_json(out_dir / "summary.json", summary)
    return worst


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(convert, low, strict: bool = False):
    """An argparse type: `convert`, then reject a value below `low` (or equal to it when `strict`)."""

    def parse(text: str):
        value = convert(text)
        if not (value > low if strict else value >= low):  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, not {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid float value"
    return parse


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--gap", type=_at_least(float, 0), default=SolverConfig.gap, help="relative gap target (default %(default)s)"
    )
    p.add_argument(
        "--time-limit", type=_at_least(float, 0, strict=True), default=SolverConfig.time_limit,
        help="seconds per solver call; inf for no limit",
    )
    p.add_argument("--threads", type=_at_least(int, 0), default=SolverConfig.threads, help="0 lets the solver choose")
    p.add_argument(
        "--solver-cmd", default=SolverConfig.command, help="solver command template, e.g. 'mysolver {model} {solution}'"
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG; argparse's own code, 2, means "proven infeasible" here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pipesched", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"pipesched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a benchmark instance as JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--vertices", type=int, default=4, help="path length incl. refinery (default 4)")
    p.add_argument("--setting", choices=sorted(SETTINGS), default="A")
    p.add_argument("--cost-mode", choices=("SD", "SDC"), default="SD")
    p.add_argument("--outtake-policy", choices=OUTTAKE_POLICIES, default="daily")
    p.add_argument("--nomination-batches", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--oracle-seed", type=int, default=None, help="draw a random micro instance instead")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("catalog", help="list every placeable batch as CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("build", help="compile the instance and write an LP file")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="compile, solve and validate")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--keep-files", action="store_true", help="keep the LP, start and solution files in the output dir")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check a schedule against every rule family and score it")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--occupancy", default=None, help="also write the simulated stock series as CSV")
    p.add_argument("--max-violations", type=_at_least(int, 0), default=20)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="exhaustive optimum for micro instances")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None, help="write the optimal schedule as JSON")
    p.add_argument("--node-budget", type=_at_least(int, 1), default=OracleLimits().node_budget)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="run a benchmark suite")
    p.add_argument("--suite", choices=tuple(SUITES), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--vertices", type=int, nargs="+", default=[4], help="path lengths incl. refinery; each runs the suite (default 4)"
    )
    p.add_argument(
        "--setting", choices=sorted(SETTINGS), default=None, help="default A; a suite run with its own setting takes no other"
    )
    p.add_argument("--outtake-policy", choices=OUTTAKE_POLICIES, default="daily")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("gantt", help="export a schedule as an edge/time table")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gantt)

    return parser


class _ClosedPipeGuard:
    """A stdout that drops what it is given once its reader has left; other write errors still raise."""

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def write(self, text: str) -> int:
        self._guard(self.stream.write, text)
        return len(text)

    def flush(self) -> None:
        self._guard(self.stream.flush)

    def _guard(self, call, *args) -> None:
        try:
            call(*args)
        except OSError as exc:  # the buffered rest, and the interpreter's flush at exit, go to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, self.stream.fileno())
            os.close(null)
            if not isinstance(exc, BrokenPipeError):
                raise


def main(argv: Optional[list[str]] = None) -> int:
    stdout = sys.stdout
    if stdout is not None:  # None when the process started without a stdout; print() then writes nothing
        sys.stdout = _ClosedPipeGuard(stdout)
    try:
        return _run(argv)
    except (CliError, OSError) as exc:  # reading inputs raises CliError, so an OSError is an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        sys.stdout = stdout


def _run(argv: Optional[list[str]]) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if "solver_cmd" in args:  # the flag's or the environment's template, checked before anything is built
            try:
                _solver_config(args).argv("model.lp", "model.sol")
            except ValueError as exc:
                parser.exit(EXIT_CONFIG, f"error: {exc}\n")
        return args.func(args)
    finally:
        print(end="", flush=True)  # now, so that an unwritable stdout is reported like any other output


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
