"""Bundled LP-file solver: parsing, solving, and the file protocol."""

from __future__ import annotations

import re
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import pytest

import pipesched.solver_shim as shim
from pipesched.generator import PathExperimentParams, generate_oracle_instance, generate_path_instance
from pipesched.heuristic import plan_start
from pipesched.lp_io import write_lp, write_start
from pipesched.milpmodel import FAMILIES, FAMILY_SENSE, GE, LE, build_model, column_letters
from pipesched.solver_shim import main, parse_lp, solve_lp
from tests.conftest import TINY_LP, lp_text

INF = float("inf")

def _model_arrays(highs) -> dict:
    lp = highs.getLp()
    matrix = lp.a_matrix_
    return {
        "col_names": list(lp.col_names_),
        "col_cost": list(lp.col_cost_),
        "sense": lp.sense_,
        "offset": lp.offset_,
        "col_lower": list(lp.col_lower_),
        "col_upper": list(lp.col_upper_),
        "integrality": [int(kind) for kind in lp.integrality_],
        "row_lower": list(lp.row_lower_),
        "row_upper": list(lp.row_upper_),
        "format": matrix.format_,
        "start": list(matrix.start_),
        "index": list(matrix.index_),
        "value": list(matrix.value_),
    }


def test_parse_tiny_lp():
    lp = _model_arrays(parse_lp(TINY_LP))
    assert lp["sense"] == shim._highs_core().ObjSense.kMaximize
    assert lp["col_names"] == ["x", "y"]
    assert lp["col_cost"] == [1.0, 2.0]
    assert (lp["row_lower"], lp["row_upper"]) == ([-INF], [1.0])
    assert (lp["start"], lp["index"], lp["value"]) == ([0, 1, 2], [0, 0], [1.0, 1.0])
    assert lp["integrality"] == [1, 1]
    assert (lp["col_lower"], lp["col_upper"]) == ([0.0, 0.0], [1.0, 1.0])


def test_parse_signs_and_implicit_coefficients():
    lp = _model_arrays(
        parse_lp("Minimize\n obj: - 2 a + b\nSubject To\n r0: a - b >= -3\nBounds\n -1 <= a <= 4\nEnd\n")
    )
    assert lp["sense"] == shim._highs_core().ObjSense.kMinimize
    assert lp["col_names"] == ["a", "b"]
    assert lp["col_cost"] == [-2.0, 1.0]
    assert (lp["row_lower"], lp["row_upper"]) == ([-3.0], [INF])
    assert lp["value"] == [1.0, -1.0]
    assert (lp["col_lower"], lp["col_upper"]) == ([-1.0, 0.0], [4.0, INF])


def test_parse_accepts_model_lp_output(ref1):
    # the shim must accept every LP file the writer emits
    model = build_model(ref1)
    lp = _model_arrays(parse_lp(lp_text(model)))
    assert lp["sense"] == shim._highs_core().ObjSense.kMaximize
    assert len(lp["col_names"]) == len(model.variables)
    assert sum(lp["integrality"]) == sum(1 for v in model.variables if v.binary)
    assert len(lp["row_lower"]) == sum(1 for c in model.constraints if c.terms)


def _restyled(model, write_row) -> str:
    """The writer's LP text with every row rewritten by `write_row(name, terms, sense, rhs)`."""
    text = lp_text(model)
    head, rest = text.split("Subject To\n", 1)
    tail = rest.split("Bounds\n", 1)[1]
    letters = column_letters(model)
    rows = [
        write_row(c.name, [(coef, f"{letters[vid]}{vid}") for vid, coef in c.terms], FAMILY_SENSE[c.family], c.rhs)
        for c in model.constraints
        if c.terms
    ]
    return head + "Subject To\n" + "\n".join(rows) + "\nBounds\n" + tail


def _spaced_signs(name, terms, sense, rhs):
    return f" {name}: " + " ".join(f"{'+' if c >= 0 else '-'} {abs(c)} {v}" for c, v in terms) + f" {sense} {rhs}"


def _implicit_ones(name, terms, sense, rhs):
    parts = []
    for i, (c, v) in enumerate(terms):
        if c == 1:
            parts.append(v if i == 0 else f"+ {v}")
        elif c == -1:
            parts.append(f"- {v}")
        else:
            parts.append(f"{c:+d} {v}")
    return f" {name}: " + " ".join(parts) + f" {sense} {rhs}"


def _wrapped(name, terms, sense, rhs):
    return f"{name}:\n" + "\n".join(f"   {c:+d} {v}" for c, v in terms) + f"\n   {sense}\n   {rhs}"


def _other_senses(name, terms, sense, rhs):
    alias = {"<=": "<" if len(terms) % 2 else "=<", ">=": ">", "=": "="}[sense]
    return f" {name}: " + " ".join(f"{c:+d} {v}" for c, v in terms) + f" {alias} {rhs}"


def _lhs_constant(name, terms, sense, rhs):
    return f" {name}: " + " ".join(f"{c:+d} {v}" for c, v in terms) + f" + 7 {sense} {rhs + 7}"


@pytest.mark.parametrize("write_row", [_spaced_signs, _implicit_ones, _wrapped, _other_senses, _lhs_constant])
def test_hand_formatted_rows_parse_like_writer_output(ref1, write_row):
    model = build_model(ref1)
    variant = _restyled(model, write_row)
    assert variant != lp_text(model)
    if write_row in (_other_senses, _lhs_constant):
        # HiGHS's reader rejects `<`, `=<` and `>`; the guard refuses the constant
        with pytest.raises((RuntimeError, ValueError)):
            parse_lp(variant)
        return
    assert _model_arrays(parse_lp(variant)) == _model_arrays(parse_lp(lp_text(model)))


def test_row_without_operator_rejected(tmp_path):
    for text in (
        "Maximize\n obj: x\nSubject To\n c1: x + y\n c2: x <= 1\nEnd\n",
        "Maximize\n obj: x\nSubject To\n c1: x + y <= z\nEnd\n",
    ):
        rc, sol = _solve_file(tmp_path, text)
        assert rc == 1
        assert sol.startswith("# Status = error\n# Message = ")


def test_solve_tiny_maximization():
    res, names = solve_lp(parse_lp(TINY_LP), time_limit=60, gap=0.0)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)
    assert dict(zip(names, res.x)) == pytest.approx({"x": 0.0, "y": 1.0})


def test_solve_reports_infeasible():
    lp = parse_lp(
        "Maximize\n obj: x\nSubject To\n c1: x >= 2\nBounds\n x <= 1\nEnd\n"
    )
    res, _ = solve_lp(lp, time_limit=60, gap=0.0)
    assert res.status == "infeasible"
    assert res.objective is None


def test_in_process_solve_matches_main(tmp_path):
    """`solve_lp(parse_lp(text))`, as the benchmark replays a round, solves what `main` solves."""
    text = lp_text(build_model(generate_path_instance(PathExperimentParams(vertices=4, setting="A", cost_mode="SD"))))
    highs = parse_lp(text)
    res, _names = solve_lp(highs, 60, 1e-3)
    assert [highs.getOptionValue(key)[1] for key in ("time_limit", "mip_rel_gap", "threads")] == [60.0, 1e-3, 1]
    (tmp_path / "m.lp").write_text(text)
    assert main([str(tmp_path / "m.lp"), str(tmp_path / "m.sol"), "--time-limit", "60", "--gap", "1e-3"]) == 0
    head = dict(line[2:].split(" = ", 1) for line in (tmp_path / "m.sol").read_text().splitlines() if line.startswith("# "))
    assert res.status == head["Status"]
    assert res.objective == float(head["Objective value"])
    assert res.bound == float(head["Best bound"])
    assert res.mip_node_count == int(head["MIP nodes"])
    assert res.simplex_iterations == int(head["Simplex iterations"]) > 0


def test_every_solve_runs_with_probing_off(tmp_path, monkeypatch):
    # `main` and `parse_lp`/`solve_lp` both take their HiGHS from `_configured_highs`, which turns off
    # presolve's probing (bit 15 of `presolve_rule_off`) and nothing else
    seen = []
    configured = shim._configured_highs

    def spy(*args):
        highs = configured(*args)
        seen.append(highs.getOptionValue("presolve_rule_off")[1])
        return highs

    monkeypatch.setattr(shim, "_configured_highs", spy)
    (tmp_path / "m.lp").write_text(TINY_LP)
    assert main([str(tmp_path / "m.lp"), str(tmp_path / "m.sol")]) == 0
    res, _names = solve_lp(parse_lp(TINY_LP), 60, 0.0)
    assert res.status == "optimal"
    assert seen == [shim._PROBING_OFF] * 2 == [1 << 15] * 2


def test_main_writes_solution_file(tmp_path):
    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "m.sol"
    model_path.write_text(TINY_LP)
    rc = main([str(model_path), str(sol_path), "--time-limit", "60", "--gap", "0"])
    assert rc == 0
    text = sol_path.read_text()
    assert "# Status = optimal" in text
    assert "# Objective value = 2.0" in text
    assert "y 1.0" in text


def test_main_reports_errors_through_the_file(tmp_path):
    sol_path = tmp_path / "bad.sol"
    rc = main([str(tmp_path / "missing.lp"), str(sol_path)])
    assert rc == 1
    assert "# Status = error" in sol_path.read_text()


def test_main_refuses_a_missing_solution_directory_before_reading_the_model(tmp_path, monkeypatch, capsys):
    (tmp_path / "m.lp").write_text(TINY_LP)
    monkeypatch.setattr(shim, "_read_model", lambda *args: pytest.fail("the model was read"))
    assert main([str(tmp_path / "m.lp"), str(tmp_path / "missing" / "dir" / "m.sol")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver shim error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.lp"]


def test_module_is_invocable_as_subprocess(tmp_path):
    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "m.sol"
    model_path.write_text(TINY_LP)
    proc = subprocess.run(
        [sys.executable, "-m", "pipesched.solver_shim", str(model_path), str(sol_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "# Status = optimal" in sol_path.read_text()


def _solve_file(tmp_path, text: str, name: str = "m"):
    """`main` on `text` at gap 0: (exit code, solution text)."""
    model_path = tmp_path / f"{name}.lp"
    sol_path = tmp_path / f"{name}.sol"
    model_path.write_text(text)
    rc = main([str(model_path), str(sol_path), "--time-limit", "60", "--gap", "0"])
    return rc, sol_path.read_text()


def _assert_same_optimum_or_refused(rc: int, sol: str, reference: float) -> None:
    if rc == 1:
        assert sol.startswith("# Status = error\n# Message = ")
        return
    assert rc == 0
    assert "# Status = optimal" in sol
    objective = float(re.search(r"# Objective value = (\S+)", sol).group(1))
    assert objective == pytest.approx(reference, abs=1e-9)


# variants of TINY_LP: a replacement for its row c1 or, starting `obj:`, for
# its objective, and the optimum a reader must reach (x + y <= 1 in all)
TINY_VARIANTS = {
    "plain": (" c1: x + y <= 1", 2.0),
    "lhs constant last": (" c1: x + y + 1 <= 2", 2.0),
    "lhs constant first": (" c1: 1 + x + y <= 2", 2.0),
    "lhs constant glued": (" c1: x+y+1<=2", 2.0),
    "lhs constant negated": (" c1: x + y - -1 <= 2", 2.0),
    "lhs constant exponent": (" c1: x + y + 1e0 <= 2", 2.0),
    "two numbers": (" c1: 1 1 x + y <= 2", 2.0),
    "number after name": (" c1: x 1 + y <= 2", 2.0),
    "lt": (" c1: x + y < 1", 2.0),
    "eq lt": (" c1: x + y =< 1", 2.0),
    "gt": (" c1: - x - y > -1", 2.0),
    "eq gt": (" c1: - x - y => -1", 2.0),
    "spaced signs": (" c1: + 1 x + 1 y <= 1", 2.0),
    "glued terms": (" c1: x+y<=1", 2.0),
    "glued after a coefficient": (" c1: +1 x+y <= 1", 2.0),
    "double negation": (" c1: x - -1 y <= 1", 2.0),
    "wrapped": ("c1:\n  +1 x\n  +1 y\n  <=\n  1", 2.0),
    "unnamed rows": (" x + y <= 1\n - x <= 0", 2.0),
    "negative rhs then unnamed row": (" c1: - x - y >= -1\n - x <= 0", 2.0),
    "objective constant": (" obj: x + 2 y + 5", 7.0),
}


@pytest.mark.parametrize("change, optimum", TINY_VARIANTS.values(), ids=TINY_VARIANTS.keys())
def test_main_reaches_reference_optimum_or_refuses(tmp_path, change, optimum):
    replaced = " obj: x + 2 y" if change.startswith(" obj:") else " c1: x + y <= 1"
    _assert_same_optimum_or_refused(*_solve_file(tmp_path, TINY_LP.replace(replaced, change)), optimum)


def test_lhs_constant_refused_by_row_name(tmp_path):
    rc, sol = _solve_file(tmp_path, TINY_LP.replace("c1: x + y <= 1", "c1: x + y <= 1\n c2: x + y + 1 <= 2"))
    assert rc == 1
    assert "# Status = error" in sol
    assert "row c2 has a constant on its left-hand side" in sol


@pytest.mark.parametrize(
    "rows, row",
    [
        (" c1: x <= 1\n 3 + y <= 4", "(unnamed)"),
        (" c1: x >= -3\n - y >= -4\n c3: x + y + 2 <= 3", "c3"),
        (" c1: x <= 1e+2 \\ a comment: 5 + 6\n c2: 2 y <= 3", None),
        (" c1: x + 1e-5 >= 3", "c1"),
        (" c1: 1e5 x + 2E-3 y <= 1e+2\n c2: x >= -1.5e3", None),
    ],
)
def test_lhs_constant_scan_names_the_row(rows, row):
    text = TINY_LP.replace(" c1: x + y <= 1", rows).encode()
    assert shim._lhs_constant_row(text) == row


@pytest.mark.parametrize("write_row", [_spaced_signs, _implicit_ones, _wrapped, _other_senses, _lhs_constant])
def test_hand_formatted_rows_through_main(ref1, tmp_path, write_row):
    model = build_model(ref1)
    rc, sol = _solve_file(tmp_path, lp_text(model), "writer")
    assert rc == 0 and "# Status = optimal" in sol
    optimum = float(re.search(r"# Objective value = (\S+)", sol).group(1))
    rc, sol = _solve_file(tmp_path, _restyled(model, write_row))
    _assert_same_optimum_or_refused(rc, sol, optimum)
    if write_row in (_spaced_signs, _implicit_ones, _wrapped):
        assert rc == 0
    else:  # HiGHS's reader rejects `<`, `=<` and `>`; the guard refuses the constant
        assert rc == 1


def _equivalence_cases():
    l4a = build_model(generate_path_instance(PathExperimentParams(vertices=4, setting="A", cost_mode="SD")))
    yield "l4A-SD mono", l4a
    l6b_params = PathExperimentParams(vertices=6, setting="B", cost_mode="SDC")
    yield "l6B-SDC mono", build_model(generate_path_instance(l6b_params))
    for seed in range(6):
        yield f"oracle {seed}", build_model(generate_oracle_instance(seed))


def _store_arrays(model) -> dict:
    """The arrays HiGHS's reader must build from the file `write_lp(model, path)`
    writes, taken from the row store and the column blocks: columns in order of first appearance in the file
    (objective, written rows, then the Bounds and Binary sections in column order), each
    with its bounds, tank limits included, and the written rows
    as a column-wise matrix with rows ascending in each column."""
    rows, blocks = model.constraints, model.variables.blocks

    def terms(r: int):
        return zip(rows.col[rows.start[r] : rows.start[r + 1]], rows.coef[rows.start[r] : rows.start[r + 1]])

    written = [r for r in range(len(rows)) if rows.start[r] < rows.start[r + 1]]
    order = dict.fromkeys(vid for vid, _coef in model.objective)
    for r in written:
        order.update(dict.fromkeys(vid for vid, _coef in terms(r)))
    bounds = {b.start + i: b.column_bounds(i) for b in blocks for i in range(b.count)}
    order.update(dict.fromkeys(vid for vid, (binary, lb, ub) in bounds.items() if not binary and (lb, ub) != (0, None)))
    order.update(dict.fromkeys(vid for vid, (binary, _lb, _ub) in bounds.items() if binary))
    cols = list(order)
    position = {vid: j for j, vid in enumerate(cols)}
    entries = sorted((position[vid], i, coef) for i, r in enumerate(written) for vid, coef in terms(r))
    per_col = [0] * len(cols)
    for j, _i, _coef in entries:
        per_col[j] += 1
    cost = dict(model.objective)
    senses = [FAMILY_SENSE[FAMILIES[rows.family[r]]] for r in written]
    core = shim._highs_core()
    letters = column_letters(model)
    return {
        "col_names": [f"{letters[vid]}{vid}" for vid in cols],
        "col_cost": [float(cost.get(vid, 0)) for vid in cols],
        "sense": core.ObjSense.kMaximize,
        "offset": 0.0,
        "col_lower": [-INF if bounds[vid][1] is None else float(bounds[vid][1]) for vid in cols],
        "col_upper": [INF if bounds[vid][2] is None else float(bounds[vid][2]) for vid in cols],
        "integrality": [int(bounds[vid][0]) for vid in cols],
        "row_lower": [-INF if sense == LE else float(rows.rhs[r]) for r, sense in zip(written, senses)],
        "row_upper": [INF if sense == GE else float(rows.rhs[r]) for r, sense in zip(written, senses)],
        "format": core.MatrixFormat.kColwise,
        "start": [0, *accumulate(per_col)],
        "index": [i for _j, i, _coef in entries],
        "value": [float(coef) for _j, _i, coef in entries],
    }


def test_highs_reader_builds_the_row_store(tmp_path):
    """HiGHS's reader on the written file gives back the builder's own arrays."""
    for label, model in _equivalence_cases():
        path = tmp_path / "m.lp"
        write_lp(model, path)
        read = _model_arrays(shim._read_model(str(path), 60, 0.0))
        expected = _store_arrays(model)
        assert len(read["col_names"]) == len(model.variables), label
        for key in read:
            assert read[key] == expected[key], f"{label}: {key}"


SHIM_PATH = Path(shim.__file__).resolve()
LOAD_SHIM = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("solver_shim", {str(SHIM_PATH)!r})
shim = importlib.util.module_from_spec(spec)
sys.modules["solver_shim"] = shim
spec.loader.exec_module(shim)
"""


def _fresh_interpreter(code: str, tmp_path) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_shim_by_path_imports_neither_scipy_optimize_nor_dataclasses(tmp_path):
    # `dataclasses` would bring `inspect`, `ast`, `dis` and `tokenize` into every solver child
    (tmp_path / "m.lp").write_text(TINY_LP)
    code = (
        "import runpy, sys\n"
        f"sys.argv = [{str(SHIM_PATH)!r}, 'm.lp', 'm.sol']\n"
        "try:\n"
        f"    runpy.run_path({str(SHIM_PATH)!r}, run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    print(stop.code, 'scipy.optimize' in sys.modules, 'dataclasses' in sys.modules)\n"
    )
    assert _fresh_interpreter(code, tmp_path) == "0 False False"
    assert "# Status = optimal" in (tmp_path / "m.sol").read_text()


@pytest.mark.parametrize("optimize_first", [False, True], ids=["core first", "scipy.optimize first"])
def test_highs_core_is_the_module_scipy_optimize_uses(tmp_path, optimize_first):
    code = ("import scipy.optimize\n" if optimize_first else "") + LOAD_SHIM + (
        "core = shim._highs_core()\n"
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _highs_wrapper\n"
        "print(core is _highs_wrapper._h, core is sys.modules['scipy.optimize._highspy._core'])\n"
    )
    assert _fresh_interpreter(code, tmp_path) == "True True"


def test_main_hands_threads_to_highs(tmp_path):
    # HiGHS sizes its thread pool once per process, so this runs in a fresh one
    (tmp_path / "m.lp").write_text(TINY_LP)
    code = LOAD_SHIM + (
        "seen = []\n"
        "configured = shim._configured_highs\n"
        "def spy(*args):\n"
        "    highs = configured(*args)\n"
        "    seen.append(highs.getOptionValue('threads')[1])\n"
        "    return highs\n"
        "shim._configured_highs = spy\n"
        "print(shim.main(['m.lp', 'm.sol', '--threads', '2']), seen)\n"
    )
    assert _fresh_interpreter(code, tmp_path) == "0 [2]"
    assert "# Status = optimal" in (tmp_path / "m.sol").read_text()


def test_main_hands_the_seed_to_highs(tmp_path, monkeypatch):
    (tmp_path / "m.lp").write_text(TINY_LP)
    seen, configured = [], shim._configured_highs

    def spy(*args):
        highs = configured(*args)
        seen.append(highs.getOptionValue("random_seed")[1])
        return highs

    monkeypatch.setattr(shim, "_configured_highs", spy)
    for argv in ([], ["--seed", "5"]):
        assert main([str(tmp_path / "m.lp"), str(tmp_path / "m.sol"), *argv]) == 0
    assert seen == [0, 5]  # HiGHS's own default, then the flag's


def test_seed_zero_writes_the_values_written_without_a_seed(driver_files, tmp_path):
    # seed 0 is HiGHS's default: a file solved at --seed 0 holds the same values as one solved without the flag
    lp, start = driver_files["6B"]
    values = []
    for name, argv in (("none", []), ("zero", ["--seed", "0"])):
        assert main([str(lp), str(tmp_path / f"{name}.sol"), "--start", str(start), *argv]) == 0
        values.append([line for line in (tmp_path / f"{name}.sol").read_text().splitlines() if not line.startswith("#")])
    assert values[0] == values[1] and values[0]


def test_main_solves_again_with_another_thread_count(tmp_path):
    # HiGHS keeps one thread pool per process; a fresh one starts with none
    (tmp_path / "m.lp").write_text(TINY_LP)
    code = LOAD_SHIM + (
        "for threads in ('1', '2'):\n"
        "    rc = shim.main(['m.lp', f'm{threads}.sol', '--threads', threads])\n"
        "    print(rc, open(f'm{threads}.sol').readline().strip())\n"
    )
    assert _fresh_interpreter(code, tmp_path).splitlines() == ["0 # Status = optimal"] * 2


def test_main_adds_timing_lines_and_leaves_no_partial_file(tmp_path):
    rc, sol = _solve_file(tmp_path, TINY_LP)
    assert rc == 0
    assert re.search(r"^# MIP nodes = \d+\n# Simplex iterations = \d+$", sol, re.M)
    assert re.search(r"^# Read time = \d+\.\d{3}$", sol, re.M)
    assert re.search(r"^# Solve time = \d+\.\d{3}$", sol, re.M)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.lp", "m.sol"]


def test_main_leaves_out_an_infinite_bound(tmp_path, monkeypatch):
    # a run stopped before HiGHS has a bound reports it as infinite; the file protocol carries finite numbers only
    real = shim._run
    monkeypatch.setattr(shim, "_run", lambda *args: real(*args)._replace(status="time_limit", bound=INF))
    rc, sol = _solve_file(tmp_path, TINY_LP)
    assert rc == 0
    assert "# Status = time_limit\n# Objective value = 2.0\n# Wall time = " in sol
    assert "bound" not in sol.lower()


def _solve_with_start(tmp_path, start: str, *extra: str) -> tuple[int, str]:
    """`main` on TINY_LP with the start file `start`: (exit code, solution text)."""
    (tmp_path / "m.lp").write_text(TINY_LP)
    (tmp_path / "m.start").write_text(start)
    rc = main([str(tmp_path / "m.lp"), str(tmp_path / "m.sol"), "--start", str(tmp_path / "m.start"), *extra])
    return rc, (tmp_path / "m.sol").read_text()


def test_start_is_the_incumbent_of_a_run_stopped_at_once(tmp_path):
    # with no time to search, HiGHS reports the start it was given: x = 1 scores 1 (the optimum, y = 1, scores 2)
    rc, sol = _solve_with_start(tmp_path, "x 1\n", "--time-limit", "0")
    assert rc == 0 and "# Status = time_limit\n# Objective value = 1.0\n" in sol and "\nx 1.0\n" in sol
    rc, sol = _solve_file(tmp_path, TINY_LP)
    assert rc == 0 and "# Objective value = 2.0" in sol


def test_empty_start_file_is_a_cold_solve(tmp_path):
    rc, sol = _solve_with_start(tmp_path, "\n", "--time-limit", "0")
    assert rc == 0 and "Objective" not in sol
    rc, sol = _solve_with_start(tmp_path, "", "--gap", "0")
    assert rc == 0 and "# Status = optimal\n# Objective value = 2.0\n" in sol


@pytest.mark.parametrize(
    "start, problem",
    [
        ("z 1\n", "names 'z', which is no column"),
        ("x one\n", "'one', not a finite number"),
        ("x nan\n", "'nan', not a finite number"),
        ("x 1e400\n", "'1e400', not a finite number"),
        ("x inf\n", "'inf', not a finite number"),
        ("x 0.5\n", "the binary x the value '0.5', not 0 or 1"),
        ("y 2\n", "the binary y the value '2', not 0 or 1"),
        ("x\n", "is not 'name value'"),
    ],
)
def test_bad_start_file_exits_1_with_one_line_and_an_error_file(tmp_path, capsys, start, problem):
    rc, sol = _solve_with_start(tmp_path, start)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("solver shim error: ") and err.count("\n") == 1 and problem in err
    assert "Traceback" not in err
    assert sol.startswith("# Status = error\n")


def test_shim_by_path_with_a_start_imports_neither_numpy_nor_scipy_optimize(tmp_path):
    # the sparse setSolution overload would make pybind import numpy into the child
    (tmp_path / "m.lp").write_text(TINY_LP)
    (tmp_path / "m.start").write_text("y 1\n")
    code = (
        "import runpy, sys\n"
        f"sys.argv = [{str(SHIM_PATH)!r}, 'm.lp', 'm.sol', '--start', 'm.start']\n"
        "try:\n"
        f"    runpy.run_path({str(SHIM_PATH)!r}, run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    print(stop.code, 'numpy' in sys.modules, 'scipy.optimize' in sys.modules)\n"
    )
    assert _fresh_interpreter(code, tmp_path) == "0 False False"
    assert "# Status = optimal" in (tmp_path / "m.sol").read_text()


@pytest.fixture(scope="module")
def driver_files(tmp_path_factory):
    """The LP file and the driver's start file of l4A and 6B, by rung name."""
    folder = tmp_path_factory.mktemp("rungs")
    files = {}
    for rung, params in {"l4A": dict(vertices=4, setting="A"), "6B": dict(vertices=6, setting="B", cost_mode="SDC")}.items():
        model = build_model(generate_path_instance(PathExperimentParams(**params)))
        lp, start = folder / f"{rung}.lp", folder / f"{rung}.start"
        write_lp(model, lp)
        write_start(model, plan_start(model.instance, model.catalog).schedule, start)
        files[rung] = (lp, start)
    return files


def _spy_on_the_mip(monkeypatch) -> list[tuple[float, float]]:
    """Make `shim._run` record, for each MIP run (not an LP of the proof), the time limit it ran with
    and the HiGHS run time it started at."""
    runs, real = [], shim._run

    def spy(highs, time_limit):
        ran = highs.getRunTime()
        res = real(highs, time_limit)
        if not highs.getOptionValue("solve_relaxation")[1]:
            runs.append((highs.getOptionValue("time_limit")[1], ran))
        return res

    monkeypatch.setattr(shim, "_run", spy)
    return runs


def _head(sol: str) -> dict:
    return dict(line[2:].split(" = ", 1) for line in sol.splitlines() if line.startswith("# "))


@pytest.mark.parametrize("gap", ["1e-3", "0"])
@pytest.mark.parametrize("rung", ["l4A", "6B"])
def test_start_at_the_lp_bound_is_proven_without_a_mip_run(driver_files, tmp_path, monkeypatch, rung, gap):
    # the driver's start is the optimum on both rungs, and the LP relaxation's bound meets it
    lp, start = driver_files[rung]
    runs = _spy_on_the_mip(monkeypatch)
    assert main([str(lp), str(tmp_path / "m.sol"), "--start", str(start), "--gap", gap]) == 0
    sol = (tmp_path / "m.sol").read_text()
    head = _head(sol)
    assert runs == [] and head["Status"] == "optimal" and head["MIP nodes"] == "0"
    assert float(head["Best bound"]) >= float(head["Objective value"])  # both rungs maximise
    assert int(head["Simplex iterations"]) > 0
    dispatches = {name: float(value) for name, value in (line.split() for line in sol.splitlines() if line[0] == "v")}
    assert dispatches == {name: float(value) for name, value in (line.split() for line in start.read_text().splitlines())}


def test_start_below_the_relaxation_falls_back_to_the_mip(tmp_path, monkeypatch):
    # the relaxation's 2 against the start's 1 leaves the gap open at gap 0: the MIP runs from the start
    runs = _spy_on_the_mip(monkeypatch)
    rc, sol = _solve_with_start(tmp_path, "x 1\n", "--gap", "0")
    assert rc == 0 and len(runs) == 1
    assert "# Status = optimal\n# Objective value = 2.0\n" in sol and "\ny 1.0\n" in sol


def test_a_cold_solve_runs_with_the_whole_time_limit(tmp_path, monkeypatch):
    # HiGHS's run clock reads 0 before the first run, so the one helper that sets what is left of the
    # limit gives a cold solve the limit as given
    runs = _spy_on_the_mip(monkeypatch)
    rc, sol = _solve_file(tmp_path, TINY_LP)
    assert rc == 0 and "# Status = optimal\n# Objective value = 2.0\n" in sol
    assert runs == [(60.0, 0.0)]


@pytest.mark.parametrize("box", ["0 <= x <= 0", "1 <= x <= 1", "1 <= x <= 0"])
def test_a_binary_whose_box_a_fixing_narrowed_still_takes_only_0_or_1(tmp_path, capsys, box):
    # the writer boxes a fixed dispatch column in the Bounds section and keeps it in the Binary section
    text = TINY_LP.replace(" 0 <= x <= 1", f" {box}")
    (tmp_path / "m.lp").write_text(text)
    (tmp_path / "m.start").write_text("x 0.5\n")
    rc = main([str(tmp_path / "m.lp"), str(tmp_path / "m.sol"), "--start", str(tmp_path / "m.start")])
    assert rc == 1 and "the binary x the value '0.5', not 0 or 1" in capsys.readouterr().err
    _rc, sol = _solve_file(tmp_path, text)
    expected = {"0 <= x <= 0": "optimal\n# Objective value = 2.0", "1 <= x <= 1": "optimal\n# Objective value = 1.0"}
    assert f"# Status = {expected.get(box, 'infeasible')}\n" in sol


def test_start_that_breaks_a_row_falls_back_to_the_mip(tmp_path, monkeypatch):
    # x = y = 1 breaks x + y <= 1, so the start's own LP is infeasible
    runs = _spy_on_the_mip(monkeypatch)
    rc, sol = _solve_with_start(tmp_path, "x 1\ny 1\n", "--gap", "0")
    assert rc == 0 and len(runs) == 1
    assert "# Status = optimal\n# Objective value = 2.0\n" in sol and "\ny 1.0\n" in sol


@pytest.mark.parametrize(
    "bounds, start, optimum",
    [(" c1: x <= 3.5\nBounds\n 0 <= x <= 10", "x 3.5\n", 3.0), (" c1: x <= 20\nBounds\n 0 <= x <= 10", "x 12\n", 10.0)],
    ids=["off the lattice", "out of bounds"],
)
def test_start_no_mip_solution_is_left_to_the_mip(tmp_path, monkeypatch, bounds, start, optimum):
    # fixing a general integer at 3.5 would meet the relaxation's 3.5 exactly, and at 12 would pass a gap
    # of 0.5 against the relaxation's 10, yet neither is a solution of the model
    text = f"Maximize\n obj: x\nSubject To\n{bounds}\nGeneral\n x\nEnd\n"
    (tmp_path / "g.lp").write_text(text)
    (tmp_path / "g.start").write_text(start)
    runs = _spy_on_the_mip(monkeypatch)
    args = [str(tmp_path / "g.lp"), str(tmp_path / "g.sol"), "--start", str(tmp_path / "g.start"), "--gap", "0.5"]
    assert main(args) == 0 and len(runs) == 1
    assert float(_head((tmp_path / "g.sol").read_text())["Objective value"]) == optimum


def test_proof_cut_by_the_time_limit_leaves_the_mip_the_rest_of_it(driver_files, tmp_path, monkeypatch):
    # 6B's proof takes about 680 simplex iterations and 0.04-0.08 s on a 2-core VM, of which the fixed LP
    # takes 57 iterations and 5-10 ms, so it cannot end within 0.01 s; the MIP gets what is left of the
    # limit (HiGHS applies `time_limit` to each run but adds the run clock up over runs)
    lp, start = driver_files["6B"]
    runs = _spy_on_the_mip(monkeypatch)
    limit = 0.01
    assert main([str(lp), str(tmp_path / "m.sol"), "--start", str(start), "--time-limit", str(limit)]) == 0
    head = _head((tmp_path / "m.sol").read_text())
    [(left, ran)] = runs
    assert left == pytest.approx(max(0.0, limit - ran))
    assert head["Status"] == "time_limit" and float(head["Solve time"]) < limit + 1.0
    # the start's own LP, when it ran in time, completed the start, which the MIP then reports
    assert float(head.get("Objective value", 10797.48)) == pytest.approx(10797.48)


class _RunSpy:
    """A HiGHS that records its `presolve` and `solve_relaxation` options at each run."""

    def __init__(self, highs, seen: list[tuple[str, bool]]):
        self._highs, self._seen = highs, seen

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        self._seen.append(tuple(self._highs.getOptionValue(key)[1] for key in ("presolve", "solve_relaxation")))
        return self._highs.run()


def _spy_on_every_run(monkeypatch) -> list[tuple[str, bool]]:
    seen, configured = [], shim._configured_highs
    monkeypatch.setattr(shim, "_configured_highs", lambda *args: _RunSpy(configured(*args), seen))
    return seen


def test_the_proof_runs_without_presolve_and_the_mip_with_it(driver_files, tmp_path, monkeypatch):
    # the builder writes presolve's reductions itself (it takes 6B from 3,515 rows to 3,485 only), so the
    # two proof LPs run without it; the MIP, after a failed proof or cold, runs as it always did
    seen = _spy_on_every_run(monkeypatch)
    lp, start = driver_files["l4A"]
    assert main([str(lp), str(tmp_path / "m.sol"), "--start", str(start)]) == 0
    assert seen == [("off", True), ("off", True)]
    seen.clear()
    rc, sol = _solve_with_start(tmp_path, "x 1\n", "--gap", "0")  # the relaxation's 2 against the start's 1
    assert rc == 0 and "# Objective value = 2.0\n" in sol
    assert seen == [("off", True), ("off", True), ("choose", False)]
    seen.clear()
    rc, sol = _solve_with_start(tmp_path, "")
    assert rc == 0 and "# Objective value = 2.0\n" in sol
    assert seen == [("choose", False)]


def test_a_failed_proof_hands_the_mip_the_model_as_read(driver_files, tmp_path, monkeypatch):
    # the start without its first dispatch is no optimum: the MIP runs on the bounds and integrality read
    # from the file, not on the fixed LP's, and reaches 6B's optimum
    lp, start = driver_files["6B"]
    (tmp_path / "m.start").write_text("".join(start.read_text().splitlines(keepends=True)[1:]))
    read = _model_arrays(shim._read_model(str(lp), 1e30, 0.0))
    models, real = [], shim._run

    def spy(highs, time_limit):
        if not highs.getOptionValue("solve_relaxation")[1]:  # the MIP, not an LP of the proof
            models.append(_model_arrays(highs))
        return real(highs, time_limit)

    monkeypatch.setattr(shim, "_run", spy)
    assert main([str(lp), str(tmp_path / "m.sol"), "--start", str(tmp_path / "m.start")]) == 0
    [model] = models
    assert [model[key] for key in ("col_lower", "col_upper", "integrality")] == [
        read[key] for key in ("col_lower", "col_upper", "integrality")
    ]
    head = _head((tmp_path / "m.sol").read_text())
    assert head["Status"] == "optimal" and float(head["Objective value"]) == pytest.approx(10797.48)


def test_shim_by_path_proves_a_start_without_numpy_or_scipy_optimize(driver_files, tmp_path):
    # the bounds go to HiGHS as Python lists in one `passModel`: `changeColsBounds` would make pybind import numpy
    lp, start = driver_files["l4A"]
    code = (
        "import runpy, sys\n"
        f"sys.argv = [{str(SHIM_PATH)!r}, {str(lp)!r}, 'm.sol', '--start', {str(start)!r}]\n"
        "try:\n"
        f"    runpy.run_path({str(SHIM_PATH)!r}, run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    print(stop.code, 'numpy' in sys.modules, 'scipy.optimize' in sys.modules)\n"
    )
    assert _fresh_interpreter(code, tmp_path) == "0 False False"
    head = _head((tmp_path / "m.sol").read_text())
    assert (head["Status"], head["MIP nodes"]) == ("optimal", "0")


def test_help_exits_0_and_stays_short():
    proc = subprocess.run(
        [sys.executable, str(SHIM_PATH), "--help"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0 and "--start" in proc.stdout
    assert len(proc.stdout.splitlines()) <= 20, proc.stdout
