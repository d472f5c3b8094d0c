"""Bundled LP-file solver: parsing, solving, and the file protocol."""

from __future__ import annotations

import subprocess
import sys

import pytest

from pipesched.lp_io import write_lp
from pipesched.milpmodel import build_model
from pipesched.solver_shim import main, parse_lp, solve_lp, _status_of

TINY_LP = """\
Maximize
 obj: x + 2 y
Subject To
 c1: x + y <= 1
Bounds
 0 <= x <= 1
 0 <= y <= 1
Binary
 x
 y
End
"""


def test_parse_tiny_lp():
    lp = parse_lp(TINY_LP)
    assert lp.maximize
    assert lp.objective == {"x": 1.0, "y": 2.0}
    assert lp.rows == [("c1", {"x": 1.0, "y": 1.0}, "<=", 1.0)]
    assert lp.integers == {"x", "y"}
    assert lp.upper == {"x": 1.0, "y": 1.0}
    assert lp.order == ["x", "y"]


def test_parse_signs_and_implicit_coefficients():
    lp = parse_lp(
        "Minimize\n obj: - 2 a + b\nSubject To\n r0: a - b >= -3\n"
        "Bounds\n -1 <= a <= 4\nEnd\n"
    )
    assert not lp.maximize
    assert lp.objective == {"a": -2.0, "b": 1.0}
    assert lp.rows == [("r0", {"a": 1.0, "b": -1.0}, ">=", -3.0)]
    assert lp.lower["a"] == -1.0 and lp.upper["a"] == 4.0


def test_parse_accepts_model_lp_output(ref1):
    # the shim must accept every LP file the writer emits
    model = build_model(ref1)
    lp = parse_lp(write_lp(model))
    assert lp.maximize
    assert len(lp.order) == len(model.variables)
    assert len(lp.integers) == sum(1 for v in model.variables if v.binary)
    assert len(lp.rows) == sum(1 for c in model.constraints if c.terms)


def _restyled(model, write_row) -> str:
    """The writer's LP text with every row rewritten by `write_row(name, terms, sense, rhs)`."""
    text = write_lp(model)
    head, rest = text.split("Subject To\n", 1)
    tail = rest.split("Bounds\n", 1)[1]
    names = [v.lp_name for v in model.variables]
    rows = [
        write_row(c.name, [(coef, names[vid]) for vid, coef in c.terms], c.sense, c.rhs)
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
    reference = parse_lp(write_lp(model))
    variant = _restyled(model, write_row)
    assert variant != write_lp(model)
    assert parse_lp(variant) == reference


def test_row_without_operator_rejected():
    with pytest.raises(ValueError, match="comparison operator"):
        parse_lp("Maximize\n obj: x\nSubject To\n c1: x + y\n c2: x <= 1\nEnd\n")
    with pytest.raises(ValueError, match="right-hand side"):
        parse_lp("Maximize\n obj: x\nSubject To\n c1: x + y <= z\nEnd\n")


def test_solve_tiny_maximization():
    lp = parse_lp(TINY_LP)
    res, cols = solve_lp(lp, time_limit=60, gap=0.0)
    status, objective, bound = _status_of(res, lp.maximize, 0.0)
    assert status == "optimal"
    assert objective == pytest.approx(2.0)
    assert res.x[cols["y"]] == pytest.approx(1.0)
    assert res.x[cols["x"]] == pytest.approx(0.0)


def test_solve_reports_infeasible():
    lp = parse_lp(
        "Maximize\n obj: x\nSubject To\n c1: x >= 2\nBounds\n x <= 1\nEnd\n"
    )
    res, _ = solve_lp(lp, time_limit=60, gap=0.0)
    status, objective, bound = _status_of(res, lp.maximize, 0.0)
    assert status == "infeasible"
    assert objective is None


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
