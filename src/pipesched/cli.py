"""Command line interface.

Subcommands cover the full workflow: generate benchmark instances, inspect
the batch catalog, write the MILP to an LP file, solve through an external
solver process (optionally with lazily activated capacity bounds), validate
and score schedules independently of the solver, run the exhaustive oracle
on micro instances, drive the experiment suites, and export Gantt tables.

Exit codes: 0 success, 2 proven infeasible, 3 stopped at a limit (a
validated incumbent from a time-limited run is still written to
schedule.json), 4 validation or solver failure, 5 configuration, input or
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import __version__
from .batches import catalog_to_csv, enumerate_batches
from .generator import (
    OUTTAKE_POLICIES,
    SETTINGS,
    PathExperimentParams,
    generate_oracle_instance,
    generate_path_instance,
    precheck_path_feasibility,
)
from .instance import instance_hash, load_instance, save_instance, validate_instance
from .lp_io import write_lp
from .milpmodel import BuildOptions, ModelBuildError, build_model
from .oracle import ORACLE_STATUS_BUDGET, ORACLE_STATUS_INFEASIBLE, OracleLimits, brute_force_optimum
from .schedule import Schedule
from .solver import STATUS_GAP, STATUS_INFEASIBLE, STATUS_TIME_LIMIT
from .solver import SolveResult, SolverConfig, solve, solve_lazy_capacity
from .validator import check_schedule, evaluate_objective, simulate_occupancy

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_INVALID = 4
EXIT_CONFIG = 5


class CliError(Exception):
    """Bad input or configuration; maps to exit code 5."""


def _load(path: str):
    try:
        inst = load_instance(path)
    except FileNotFoundError as exc:
        raise CliError(f"instance file not found: {exc.filename}") from exc
    except OSError as exc:
        raise CliError(f"could not read instance {path}: {exc}") from exc
    except ValueError as exc:  # InstanceFormatError or json.JSONDecodeError
        raise CliError(f"could not parse instance {path}: {exc}") from exc
    issues = validate_instance(inst)
    if issues:
        lines = "\n".join(f"  - {i.code}: {i.message}" for i in issues)
        raise CliError(f"instance {path} failed validation:\n{lines}")
    return inst


def _load_schedule(path: str) -> Schedule:
    try:
        return Schedule.load(path)
    except FileNotFoundError as exc:
        raise CliError(f"schedule file not found: {exc.filename}") from exc
    except OSError as exc:
        raise CliError(f"could not read schedule {path}: {exc}") from exc
    except ValueError as exc:  # Schedule.from_json_dict's shape error or json.JSONDecodeError
        raise CliError(f"could not parse schedule {path}: {exc}") from exc


def _generate(params: PathExperimentParams):
    try:
        return generate_path_instance(params)
    except ValueError as exc:
        raise CliError(f"cannot generate an instance: {exc}") from exc


def _build_options(args: argparse.Namespace, capacity_lazy: bool = False) -> BuildOptions:
    return BuildOptions(capacity_lazy, args.relax_terminal_flush, args.throughput_per_edge)


def _solver_config(args: argparse.Namespace, work_dir: Optional[Path] = None) -> SolverConfig:
    return SolverConfig(
        command=args.solver_cmd,
        time_limit=args.time_limit,
        gap=args.gap,
        threads=args.threads,
        work_dir=work_dir,
        keep_files=work_dir is not None,
    )


def _fnum(value) -> Optional[float]:
    return None if value is None else float(value)


def _component_floats(components: Optional[dict]) -> Optional[dict]:
    if components is None:
        return None
    return {k: float(v) for k, v in components.items()}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_manifest(inst, config: SolverConfig, result: SolveResult, options: BuildOptions) -> dict:
    return {
        "tool": f"pipesched {__version__}",
        "instance": inst.name,
        "instance_hash": instance_hash(inst),
        "options": asdict(options),
        "solver": {
            "command": config.resolved_command(),
            "time_limit": config.time_limit,
            "gap_target": config.gap,
            "threads": config.threads,
        },
        "status": result.status,
        "objective": _fnum(result.objective),
        "bound": result.bound,
        "gap": result.gap,
        "components": _component_floats(result.components),
        "placements": None if result.schedule is None else len(result.schedule),
        "wall_time": result.wall_time,
        "lazy_iterations": [asdict(it) for it in result.iterations],
        "message": result.message,
    }


_EXIT_CODES = {STATUS_INFEASIBLE: EXIT_INFEASIBLE, STATUS_TIME_LIMIT: EXIT_LIMIT, STATUS_GAP: EXIT_LIMIT}


def _solve_exit_code(result: SolveResult) -> int:
    return EXIT_OK if result.ok else _EXIT_CODES.get(result.status, EXIT_INVALID)


def _solve_and_record(
    inst, options: BuildOptions, config: SolverConfig, out_dir: Path, prefix: str = ""
) -> SolveResult:
    """Build and solve `inst` (lazily when `options.capacity_lazy`), then write
    `<prefix>manifest.json` and, when there is a schedule, `<prefix>schedule.json`."""
    try:
        model = build_model(inst, options)
    except ModelBuildError as exc:
        raise CliError(str(exc)) from exc
    runner = solve_lazy_capacity if options.capacity_lazy else solve
    result = runner(model, config)
    _write_json(out_dir / f"{prefix}manifest.json", _run_manifest(inst, config, result, options))
    if result.schedule is not None:
        result.schedule.save(out_dir / f"{prefix}schedule.json")
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
    if result.iterations:
        added = [it.added_rows for it in result.iterations]
        print(f"lazy rounds: {len(added)} (capacity rows activated per round: {added})")
    if result.message:
        print(f"note: {result.message}")
    print(f"wall time: {result.wall_time:.2f}s")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    if args.oracle_seed is not None:
        inst = generate_oracle_instance(args.oracle_seed)
        save_instance(inst, args.out)
        print(f"wrote {args.out} ({inst.name}, horizon {inst.grid.horizon_len})")
        return EXIT_OK
    params = PathExperimentParams(
        vertices=args.vertices,
        setting=args.setting,
        cost_mode=args.cost_mode,
        outtake_policy=args.outtake_policy,
        nomination_batches=args.nomination_batches,
        horizon=args.horizon,
    )
    inst = _generate(params)
    save_instance(inst, args.out)
    print(f"wrote {args.out} ({inst.name}, horizon {inst.grid.horizon_len})")
    for warning in precheck_path_feasibility(params):
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    csv_text = catalog_to_csv(enumerate_batches(inst))
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(csv_text, end="")
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    try:
        model = build_model(inst, _build_options(args, args.lazy))
    except ModelBuildError as exc:
        raise CliError(str(exc)) from exc
    text = write_lp(model)  # full model; lazy rows included for inspection
    Path(args.out).write_text(text, encoding="utf-8")
    counts = model.family_counts()
    print(f"wrote {args.out}")
    print(f"variables: {len(model.variables)} ({model.metadata['binaries']} binary)")
    print(f"rows: {len(model.constraints)} ({model.metadata['lazy_rows']} lazily activated)")
    for family in sorted(counts):
        print(f"  {family}: {counts[family]}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _solver_config(args, work_dir=out_dir if args.keep_files else None)
    result = _solve_and_record(inst, _build_options(args, args.lazy), config, out_dir)
    _print_result(result)
    if result.schedule is not None:
        print(f"schedule: {out_dir / 'schedule.json'}")
    return _solve_exit_code(result)


def cmd_validate(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    catalog = enumerate_batches(inst)
    schedule = _load_schedule(args.schedule)
    try:
        violations = check_schedule(inst, catalog, schedule, _build_options(args))
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
    limits = OracleLimits(node_budget=args.node_budget)
    result = brute_force_optimum(inst, limits, _build_options(args))
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
    lines = ["edge,batch,product,start,end,volume"]
    for edge, batch, t in schedule.sorted_placements:
        spec = catalog.spec_by_id.get(batch)
        if spec is None:
            raise CliError(f"schedule references unknown batch {batch!r}")
        lines.append(f"{edge},{batch},{spec.product},{t},{t + spec.length},{spec.volume}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment suites


def _solve_params(params: PathExperimentParams, args: argparse.Namespace, out_dir: Path, tag: str) -> SolveResult:
    inst = _generate(params)
    save_instance(inst, out_dir / f"{tag}.json")
    options = BuildOptions(capacity_lazy=not args.monolithic)
    result = _solve_and_record(inst, options, _solver_config(args), out_dir, f"{tag}.")
    print(
        f"[{tag}] status={result.status} objective="
        f"{'-' if result.objective is None else f'{float(result.objective):.4f}'} "
        f"gap={'-' if result.gap is None else f'{result.gap:.2g}'} wall={result.wall_time:.1f}s"
    )
    return result


def cmd_experiment(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = dict(vertices=args.vertices, outtake_policy=args.outtake_policy)

    if args.suite == "SD":
        params = PathExperimentParams(setting=args.setting, cost_mode="SD", **base)
        result = _solve_params(params, args, out_dir, f"sd-{args.setting}-l{args.vertices}")
        summary = {
            "suite": "SD",
            "setting": args.setting,
            "vertices": args.vertices,
            "outtake_policy": args.outtake_policy,
            "status": result.status,
            "objective": _fnum(result.objective),
            "components": _component_floats(result.components),
        }
        _write_json(out_dir / "summary.json", summary)
        return _solve_exit_code(result)

    if args.suite == "SDC":
        tag = f"l{args.vertices}-{args.setting}"
        params_sd = PathExperimentParams(setting=args.setting, cost_mode="SD", **base)
        params_sdc = PathExperimentParams(setting=args.setting, cost_mode="SDC", **base)
        res_sd = _solve_params(params_sd, args, out_dir, f"sd-{tag}")
        res_sdc = _solve_params(params_sdc, args, out_dir, f"sdc-{tag}")
        summary = {
            "suite": "SDC",
            "setting": args.setting,
            "vertices": args.vertices,
            "outtake_policy": args.outtake_policy,
            "sd": {"status": res_sd.status, "components": _component_floats(res_sd.components)},
            "sdc": {"status": res_sdc.status, "components": _component_floats(res_sdc.components)},
        }
        if res_sd.ok and res_sdc.ok:
            # components report cost as a negative contribution; compare magnitudes
            cost_sd = -res_sd.components["pumping_cost"]
            cost_sdc = -res_sdc.components["pumping_cost"]
            extraction_sd = res_sd.components["extraction"]
            extraction_sdc = res_sdc.components["extraction"]
            improvement = None if cost_sd == 0 else float((cost_sd - cost_sdc) / cost_sd)
            summary["pumping_cost_sd"] = float(cost_sd)
            summary["pumping_cost_sdc"] = float(cost_sdc)
            summary["extraction_sd"] = float(extraction_sd)
            summary["extraction_sdc"] = float(extraction_sdc)
            summary["cost_improvement"] = improvement
            print(
                f"pumping cost {float(cost_sd):.2f} -> {float(cost_sdc):.2f}"
                + ("" if improvement is None else f" ({improvement:.1%} lower)")
                + f", extraction {float(extraction_sd):.1f} -> {float(extraction_sdc):.1f}"
            )
        _write_json(out_dir / "summary.json", summary)
        if not (res_sd.ok and res_sdc.ok):
            return max(_solve_exit_code(res_sd), _solve_exit_code(res_sdc))
        return EXIT_OK

    if args.suite == "large":
        params = PathExperimentParams(
            setting="C",
            cost_mode="SDC",
            nomination_batches=40,
            horizon=744,
            **base,
        )
        result = _solve_params(params, args, out_dir, f"large-l{args.vertices}")
        summary = {
            "suite": "large",
            "vertices": args.vertices,
            "outtake_policy": args.outtake_policy,
            "horizon": 744,
            "status": result.status,
            "objective": _fnum(result.objective),
            "gap": result.gap,
            "components": _component_floats(result.components),
        }
        _write_json(out_dir / "summary.json", summary)
        return _solve_exit_code(result)

    raise CliError(f"unknown suite {args.suite!r}")


# ---------------------------------------------------------------------------
# argument parsing


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--relax-terminal-flush",
        action="store_true",
        help="drop flush obligations that no in-horizon follow-up could satisfy",
    )
    p.add_argument(
        "--throughput-per-edge",
        action="store_true",
        help="count every travelled edge (not just dispatches) against throughput windows",
    )


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gap", type=float, default=SolverConfig.gap, help="relative gap target (default %(default)s)")
    p.add_argument("--time-limit", type=float, default=SolverConfig.time_limit, help="seconds per solver call")
    p.add_argument("--threads", type=int, default=SolverConfig.threads)
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
    p.add_argument("--lazy", action="store_true", help="mark capacity bounds for lazy activation")
    _add_model_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="compile, solve and validate")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--keep-files", action="store_true", help="keep LP and solution files in the output dir")
    p.add_argument("--lazy", action="store_true", help="mark capacity bounds for lazy activation")
    _add_model_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check a schedule against every rule family and score it")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--occupancy", default=None, help="also write the simulated stock series as CSV")
    p.add_argument("--max-violations", type=int, default=20)
    _add_model_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="exhaustive optimum for micro instances")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None, help="write the optimal schedule as JSON")
    p.add_argument("--node-budget", type=int, default=OracleLimits().node_budget)
    _add_model_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="run a benchmark suite")
    p.add_argument("--suite", choices=("SD", "SDC", "large"), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--vertices", type=int, default=4)
    p.add_argument("--setting", choices=sorted(SETTINGS), default="A")
    p.add_argument("--outtake-policy", choices=OUTTAKE_POLICIES, default="daily")
    p.add_argument("--monolithic", action="store_true", help="solve with all capacity rows up front")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("gantt", help="export a schedule as an edge/time table")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gantt)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
