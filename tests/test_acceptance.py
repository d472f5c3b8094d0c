"""Release acceptance suite.

Eight checks gate a release, each with a pinned tolerance and runtime budget:

 1. generated flush batches occupy 6 slots and stain batches 3, exactly;
 2. the subprocess solver matches the exhaustive oracle on 25 seeded micro
    instances, objective for objective;
 3. the validator accepts every schedule the solver returns and flags ten
    defined schedule mutations, each in the matching rule family;
 5. the four-vertex setting-A path delivers its full nomination (1440 units)
    at a proven optimum;
 6. on the four-vertex setting-B path, allocation-aware costing keeps the
    intake volume and cuts pumping cost by at least 10 percent;
 7. the eight-vertex setting-B defaults are flagged by the nomination
    screen and proven infeasible by the solver, whose manifest names the
    stain shortfall;
 8. model building is deterministic, byte for byte, with per-family row
    counts and the binary count matching closed-form predictions;
 9. the six-vertex setting-A path solves to the gap target well inside the
    wall-clock budget, with gap and time recorded in the run manifest.

Each test emits one PASS/FAIL line; the lines are echoed after the run.
Check 4 compared a lazy bound-generation loop with the monolithic solve; it
went with the loop, and the other checks keep their numbers.
"""

from __future__ import annotations

import dataclasses
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pipesched.batches import enumerate_batches
from pipesched.cli import EXIT_INFEASIBLE, EXIT_OK
from pipesched.cli import main as cli_main
from pipesched.generator import (
    SETTINGS,
    PathExperimentParams,
    generate_oracle_instance,
    generate_path_instance,
)
from pipesched.instance import (
    FixedTransport,
    ThroughputLimit,
    TransportOutage,
    instance_from_dict,
    load_instance,
    save_instance,
)
from pipesched.milpmodel import build_model
from pipesched.oracle import ORACLE_STATUS_INFEASIBLE, ORACLE_STATUS_OPTIMAL, brute_force_optimum
from pipesched.schedule import Schedule
from pipesched.solver import (
    STATUS_GAP,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    SolverConfig,
    solve,
)
from pipesched.validator import check_schedule, nomination_shortfalls

from tests.conftest import ACCEPTANCE_LINES, lp_text, single_edge_instance

EXACT = SolverConfig(time_limit=300.0, gap=0.0)
ORACLE_SEEDS = range(25)


def _report(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'}  check {num}: {label} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return line


def _clean(inst, schedule) -> bool:
    return not check_schedule(inst, enumerate_batches(inst), schedule)


# ---------------------------------------------------------------------------
# shared solve artifacts, computed once


@pytest.fixture(scope="module")
def oracle_suite():
    """Per seed: instance, exhaustive optimum, solve."""
    started = time.monotonic()
    rows = []
    for seed in ORACLE_SEEDS:
        inst = generate_oracle_instance(seed)
        exhaustive = brute_force_optimum(inst)
        rows.append((seed, inst, exhaustive, solve(build_model(inst), EXACT)))
    return rows, time.monotonic() - started


@pytest.fixture(scope="module")
def l4a_run():
    inst = generate_path_instance(PathExperimentParams(vertices=4, setting="A", cost_mode="SD"))
    return inst, solve(build_model(inst), EXACT)


@pytest.fixture(scope="module")
def l4b_pair():
    results = {}
    for mode in ("SD", "SDC"):
        inst = generate_path_instance(PathExperimentParams(vertices=4, setting="B", cost_mode=mode))
        results[mode] = (inst, solve(build_model(inst), EXACT))
    return results


@pytest.fixture(scope="module")
def l8b_outcome(tmp_path_factory):
    """The screen's findings, then a solve through the command line: its exit code and manifest."""
    work = tmp_path_factory.mktemp("acceptance-l8b")
    inst = generate_path_instance(PathExperimentParams(vertices=8, setting="B"))
    save_instance(inst, work / "instance.json")
    out_dir = work / "run"
    rc = cli_main(
        ["solve", "--instance", str(work / "instance.json"), "--out-dir", str(out_dir), "--gap", "1e-3",
         "--time-limit", "1800"]
    )
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    return nomination_shortfalls(inst, enumerate_batches(inst)), rc, manifest


@pytest.fixture(scope="module")
def l6a_run(tmp_path_factory):
    """Solve through the command line so the manifest on disk is the artifact."""
    work = tmp_path_factory.mktemp("acceptance-l6a")
    inst_path = work / "instance.json"
    save_instance(
        generate_path_instance(PathExperimentParams(vertices=6, setting="A", cost_mode="SD")),
        inst_path,
    )
    out_dir = work / "run"
    rc = cli_main(
        ["solve", "--instance", str(inst_path), "--out-dir", str(out_dir), "--gap", "1e-3", "--time-limit", "1800"]
    )
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    schedule = Schedule.load(out_dir / "schedule.json") if (out_dir / "schedule.json").exists() else None
    return load_instance(inst_path), rc, manifest, schedule


# ---------------------------------------------------------------------------
# the nine checks


def test_01_generated_batch_lengths_are_six_and_three():
    started = time.monotonic()
    lengths = {"flush": set(), "stain": set()}
    for setting in sorted(SETTINGS):
        inst = generate_path_instance(PathExperimentParams(vertices=4, setting=setting))
        for spec in enumerate_batches(inst).specs:
            lengths[spec.product].add(spec.length)
    elapsed = time.monotonic() - started
    ok = lengths == {"flush": {6}, "stain": {3}} and elapsed < 1.0
    line = _report(
        1, "generated batch lengths",
        ok, f"flush {sorted(lengths['flush'])}, stain {sorted(lengths['stain'])}, {elapsed:.2f}s",
    )
    assert ok, line


def test_02_solver_matches_exhaustive_oracle_on_micro_suite(oracle_suite):
    rows, elapsed = oracle_suite
    mismatches = []
    agreed = 0
    for seed, inst, exhaustive, mono in rows:
        if exhaustive.status == ORACLE_STATUS_OPTIMAL and mono.status == STATUS_OPTIMAL:
            if mono.objective == exhaustive.objective:
                agreed += 1
            else:
                mismatches.append(f"seed {seed}: {mono.objective} != {exhaustive.objective}")
        elif exhaustive.status == ORACLE_STATUS_INFEASIBLE and mono.status == STATUS_INFEASIBLE:
            agreed += 1
        else:
            mismatches.append(f"seed {seed}: {mono.status} vs {exhaustive.status}")
    ok = agreed == len(rows) and elapsed < 300.0
    line = _report(
        2, "solver equals exhaustive oracle",
        ok, f"{agreed}/{len(rows)} seeds agree, suite {elapsed:.1f}s; {mismatches or 'no mismatches'}",
    )
    assert ok, line


def test_03_validator_clears_solver_output_and_flags_mutations(
    oracle_suite, l4a_run, l4b_pair, l6a_run, ref1, ref1_long
):
    started = time.monotonic()

    produced = []
    for _seed, inst, _exhaustive, mono in oracle_suite[0]:
        if mono.schedule is not None:
            produced.append((inst, mono.schedule))
    for inst, res in (l4a_run, *l4b_pair.values()):
        produced.append((inst, res.schedule))
    if l6a_run[3] is not None:
        produced.append((l6a_run[0], l6a_run[3]))
    dirty = sum(1 for inst, sched in produced if not _clean(inst, sched))

    three_products = instance_from_dict(
        {
            "name": "two-stains",
            "horizon": {"length": 12},
            "products": [
                {"id": "f", "kind": "flushing"},
                {"id": "a", "kind": "staining"},
                {"id": "b", "kind": "staining"},
            ],
            "sites": [
                {"id": "R", "kind": "refinery", "standard_batch": {"f": 4, "a": 2, "b": 2}},
                {
                    "id": "S",
                    "kind": "storage",
                    "standard_batch": {"f": 4, "a": 2, "b": 2},
                    "capacity": {
                        "f": {"initial": 5, "max": 30},
                        "a": {"initial": 5, "max": 30},
                        "b": {"initial": 5, "max": 30},
                    },
                },
            ],
            "edges": [{"id": "e1", "origin": "R", "destination": "S", "pipe_volume": 2}],
            "regimes": [{"id": "r1", "edges": ["e1"], "flow_rate": {"f": 2, "a": 1, "b": 1}}],
            "nominations": [{"refinery": "R", "limits": {"f": 8, "a": 4, "b": 4}}],
            "weights": {"alpha": 1},
        }
    )
    path3 = generate_path_instance(PathExperimentParams(vertices=3, setting="A", horizon=24))
    pinned = dataclasses.replace(
        ref1, fixed_transports=(FixedTransport(regime="r1", product="flush", start=0),)
    )
    executed = dataclasses.replace(
        ref1,
        weights=dataclasses.replace(
            ref1.weights,
            previous_plan=(("e1", "r1:flush:standard", 0),),
            executed=(("e1", "r1:flush:standard", 0),),
        ),
    )
    outaged = dataclasses.replace(
        ref1, outages=(TransportOutage(batches=(("e1", "r1:flush:standard"),), times=(4, 5)),)
    )
    throttled = dataclasses.replace(
        ref1,
        throughput_limits=(
            ThroughputLimit(edges=("e1",), product="flush", times=tuple(range(24)), limit=150),
        ),
    )
    mutations = [
        ("overlap shift", ref1,
         Schedule.from_raw([("e1", "r1:stain:standard", 4), ("e1", "r1:flush:standard", 6)]),
         "packing"),
        ("flush removal", ref1,
         Schedule.from_raw([("e1", "r1:stain:standard", 3)]), "flushing"),
        ("stain after different stain", three_products,
         Schedule.from_raw(
             [("e1", "r1:a:standard", 0), ("e1", "r1:b:standard", 2), ("e1", "r1:f:standard", 4)]
         ),
         "flushing"),
        ("capacity overfill", single_edge_instance(horizon=120),
         Schedule.from_raw([("e1", "r1:flush:standard", 6 * i) for i in range(6)]),
         "capacity_upper"),
        ("nomination overshoot", ref1_long,
         Schedule.from_raw([("e1", "r1:flush:standard", 6 * i) for i in range(11)]),
         "nomination"),
        ("outage violation", outaged,
         Schedule.from_raw([("e1", "r1:flush:standard", 4)]), "outage"),
        ("throughput overshoot", throttled,
         Schedule.from_raw([("e1", "r1:flush:standard", 0), ("e1", "r1:flush:standard", 6)]),
         "throughput"),
        ("route desync", path3,
         Schedule.from_raw([("e1", "r2:flush:standard", 0)]), "routes"),
        ("fixed transport drop", pinned, Schedule.from_raw([]), "fixed"),
        ("executed prefix drop", executed, Schedule.from_raw([]), "fixed"),
    ]
    missed = []
    for label, inst, schedule, family in mutations:
        families = {v.family for v in check_schedule(inst, enumerate_batches(inst), schedule)}
        if family not in families:
            missed.append(f"{label}: expected {family}, got {sorted(families)}")

    elapsed = time.monotonic() - started
    ok = dirty == 0 and not missed and elapsed < 60.0
    line = _report(
        3, "validator soundness and completeness",
        ok,
        f"{len(produced)} solver schedules clean ({dirty} dirty), "
        f"{len(mutations) - len(missed)}/{len(mutations)} mutations flagged, {elapsed:.1f}s"
        + (f"; {missed}" if missed else ""),
    )
    assert ok, line


def test_05_four_vertex_path_delivers_full_nomination(l4a_run):
    inst, mono = l4a_run
    nominated = sum(inst.nominations[0].limits.values())
    ok = (
        nominated == 1440
        and mono.status == STATUS_OPTIMAL
        and mono.objective == Fraction(1440)
        and mono.components["extraction"] == nominated
    )
    line = _report(
        5, "full nomination at proven optimum",
        ok,
        f"status {mono.status}, extracted "
        f"{float(mono.components['extraction']):g} of {float(nominated):g} nominated",
    )
    assert ok, line


def test_06_allocation_aware_costing_cuts_pumping_cost(l4b_pair):
    (inst_sd, res_sd), (inst_sdc, res_sdc) = l4b_pair["SD"], l4b_pair["SDC"]
    assert float(inst_sdc.weights.alpha) == 5.0 and float(inst_sdc.weights.theta) == 3e-3
    # the component breakdown reports cost as a negative contribution
    cost_sd = -res_sd.components["pumping_cost"]
    cost_sdc = -res_sdc.components["pumping_cost"]
    improvement = (cost_sd - cost_sdc) / cost_sd
    ok = (
        res_sd.status == STATUS_OPTIMAL
        and res_sdc.status == STATUS_OPTIMAL
        and res_sd.components["extraction"] == res_sdc.components["extraction"]
        and cost_sdc <= cost_sd
        and improvement >= Fraction(1, 10)
        and res_sd.wall_time < 1800.0
        and res_sdc.wall_time < 1800.0
    )
    line = _report(
        6, "cost-aware mode keeps intake and cuts pumping cost",
        ok,
        f"intake {float(res_sd.components['extraction']):g} vs "
        f"{float(res_sdc.components['extraction']):g}, pumping {float(cost_sd):g} -> "
        f"{float(cost_sdc):g} ({float(improvement):.1%} lower)",
    )
    assert ok, line


def test_07_overloaded_eight_vertex_defaults_proven_infeasible(l8b_outcome):
    warnings, rc, manifest = l8b_outcome
    warned = any(w.startswith("stain:") and "cannot be feasible" in w for w in warnings)
    ok = warned and manifest["warnings"] == warnings and manifest["status"] == STATUS_INFEASIBLE
    ok = ok and rc == EXIT_INFEASIBLE
    line = _report(
        7, "overloaded defaults flagged and proven infeasible",
        ok, f"screen warnings {len(warnings)}, manifest warnings {len(manifest['warnings'])}, "
        f"exit {rc}, solver status {manifest['status']}, {manifest['wall_time']:.1f}s",
    )
    assert ok, line


def _kept_capacities(stock: int, volume: int, length: int, horizon: int) -> int:
    """Capacity limits a generated path keeps for one (site, product), derived by hand.

    Blocked stock x starts at `stock`, falls by 10 at each day's end and
    rises by `volume` with each delivery, counted from its start t0 <=
    H - L.  Its rounded capacity is U_t = base_t + volume * q_t with
    q_t = floor((600 - base_t) / volume).  The stock never rises on its
    own, so x_t <= x_n - (base_n - base_t) implies U_t by the next limit
    U_n wherever q_n = q_t: of each run of equal q only the last slot
    stays.  q grows by at most one a day (10 < volume), so there are
    q_last - q_first + 1 runs.  A run's last limit also goes where no more
    deliveries can start within the run than q grows by over it (from 0,
    x_{-1}, for the first run), since so many cannot pass the capacity.
    Only the last run can be that short: the first when it is the whole
    horizon, or a last day that leaves fewer than two starts.
    """
    q = [(600 - stock + 10 * day) // volume for day in range((horizon - 1) // 24 + 1)]
    begin = q.index(q[-1])  # the day the last run begins
    starts = horizon - length + 1 - 24 * begin
    grows = q[-1] - (q[begin - 1] if begin else 0)
    return q[-1] - q[0] + 1 - (starts <= grows)


def _kept_minimums(stock: int, volume: int, horizon: int) -> int:
    """Minimum limits a generated path keeps for one (site, product), derived by hand.

    On-stock's minimum 0 rounds to M_t = base_t mod volume once a delivery
    can complete.  While base_t >= 0 the stock alone meets it (x_{-1} = 0
    and deliveries only add), so every such limit goes.  From the first day
    with base < 0 on, M falls by 10 with the base from day to day, implied
    by the day before, except where it wraps to M + volume - 10: one limit
    stays per value floor(base / volume) takes below zero, and the first of
    them is -1.
    """
    return max(0, -((stock - 10 * ((horizon - 1) // 24)) // volume))


def _expected_family_counts(vertices: int, horizon: int) -> dict[str, int]:
    """Row counts for a generated path instance, derived by hand.

    With k pipes, every slot gets one packing row, on the first pipe: every
    regime leaves through it, so its batch set holds every other pipe's and
    its rows imply theirs (`trunk_edges`).  Each storage site s_i holds
    120 + 10 (i - 1) of each product, fed by its own regime's deliveries:
    flush batches of 100 over 6 slots, stain batches of 44 over 3.  Each
    tank limit that can bind gets one occupancy column and one stock-balance
    row (`_kept_capacities`, `_kept_minimums`).  Every stain completion
    instant gets one flush-enforcement row per pumping regime, and each
    product has one nomination cap.  A batch has one binary per start on
    all the pipes of its regime, and the tank limits are column bounds, so
    the route, endpoint-link and bound families have no rows.
    """
    k = vertices - 1
    stain_starts = horizon - 2
    stocks = [120 + 10 * i for i in range(k)]
    products = ((100, 6), (44, 3))
    return {
        "packing": horizon,
        "capacity_def_upper": sum(_kept_capacities(s, v, n, horizon) for s in stocks for v, n in products),
        "capacity_def_lower": sum(_kept_minimums(s, v, horizon) for s in stocks for v, _n in products),
        "capacity_upper": 0,
        "capacity_lower": 0,
        "flushing_link": 0,
        "flushing_enforce": k * stain_starts,
        "routes": 0,
        "nomination": 2,
        "distribution": 0,
        "exclusion": 0,
        "flushing_exclusion": 0,
        "fixed": 0,
        "outage": 0,
        "throughput": 0,
    }


def _expected_binaries(vertices: int, horizon: int) -> int:
    """The sum over dispatched batches of their starts, H - L + 1: each of the k regimes of a
    generated path dispatches one flushing batch (6 slots) and one staining batch (3 slots)."""
    k = vertices - 1
    return k * ((horizon - 6 + 1) + (horizon - 3 + 1))


def test_08_model_build_is_deterministic_with_predicted_row_counts():
    started = time.monotonic()
    first = lp_text(build_model(single_edge_instance(horizon=36)))
    second = lp_text(build_model(single_edge_instance(horizon=36)))
    identical = first == second
    small_elapsed = time.monotonic() - started

    count_errors = []
    for vertices, horizon in ((2, 12), (2, 25), (2, 36), (4, 480)):
        params = PathExperimentParams(vertices=vertices, setting="A",
                                      horizon=None if horizon == 480 else horizon)
        model = build_model(generate_path_instance(params))
        counts = model.family_counts()
        for family, expected in _expected_family_counts(vertices, horizon).items():
            if counts.get(family, 0) != expected:
                count_errors.append(
                    f"l={vertices} H={horizon} {family}: {counts.get(family, 0)} != {expected}"
                )
        if model.metadata["binaries"] != _expected_binaries(vertices, horizon):
            count_errors.append(
                f"l={vertices} H={horizon} binaries: {model.metadata['binaries']} != {_expected_binaries(vertices, horizon)}"
            )

    ok = identical and not count_errors and small_elapsed < 1.0
    line = _report(
        8, "deterministic build with predicted row counts",
        ok, f"byte-identical {identical} in {small_elapsed:.2f}s"
        + (f"; {count_errors}" if count_errors else ", all family and binary counts match"),
    )
    assert ok, line


def test_09_six_vertex_path_reaches_gap_target_in_budget(l6a_run):
    _inst, rc, manifest, schedule = l6a_run
    ok = (
        rc == EXIT_OK
        and manifest["status"] in (STATUS_OPTIMAL, STATUS_GAP)
        and manifest["gap"] is not None
        and manifest["gap"] <= 1e-3
        and manifest["wall_time"] is not None
        and manifest["wall_time"] < 1800.0
        and schedule is not None
    )
    line = _report(
        9, "six-vertex path hits gap target inside wall budget",
        ok, f"status {manifest['status']}, gap {manifest['gap']}, "
        f"wall {manifest['wall_time']:.1f}s of 1800s",
    )
    assert ok, line
