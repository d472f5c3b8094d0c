"""LP serialization and solution parsing across solver output dialects."""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import pipesched.lp_io as lp_io
from pipesched.generator import PathExperimentParams, generate_oracle_instance, generate_path_instance
from pipesched.instance import ExclusionGroup, Product
from pipesched.lp_io import (
    INTEGRALITY_TOL,
    LPWriteError,
    SolutionFormatError,
    parse_solution,
    write_lp,
)
from pipesched.milpmodel import FAMILIES, PLACEMENT, BuildOptions, build_model, column_letters
from tests.conftest import lp_text, with_dye


@pytest.fixture(scope="module")
def ref_model(ref1):
    return build_model(ref1)


def test_lp_write_is_byte_deterministic(ref1):
    a = lp_text(build_model(ref1))
    b = lp_text(build_model(ref1))
    assert a == b


@pytest.mark.parametrize(
    "vertices, setting, cost_mode, size, digest",
    [
        (4, "A", "SD", 333_611, "c84217c21dbd65e133e86a021a2ae1c8b2ae21e1076721d172771768b3c488b3"),
        (6, "B", "SDC", 698_760, "eecf9fb8b29039696164a6dfac434ab9df9014693cab74f0dba28cff1ee18da0"),
    ],
    ids=["l4A-SD mono", "l6B-SDC mono"],
)
def test_lp_bytes_are_pinned(tmp_path, vertices, setting, cost_mode, size, digest):
    # the exact file the solver reads; a change to the model or the writer that is
    # meant to alter it updates these pins and says why.  Last re-recorded when the occupancy
    # columns and recurrences went to the slots whose tank limit can bind
    inst = generate_path_instance(PathExperimentParams(vertices=vertices, setting=setting, cost_mode=cost_mode))
    data = Path(write_lp(build_model(inst), tmp_path / "m.lp")).read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_lp_bytes_are_pinned_over_the_oracle_seeds(tmp_path):
    # the path pins above hold no exclusion, throughput or distribution rows and no fixed dispatch
    # column; the 40 oracle seeds hold every family that has rows, and 12 dispatch blocks with a start
    # that an outage or a fixed transport boxes.  One digest runs over the seeds' files in turn.  Last
    # re-recorded when outages and fixed starts became bounds
    digest = hashlib.sha256()
    families = set()
    fixed_blocks = 0
    for seed in range(40):
        model = build_model(generate_oracle_instance(seed))
        families |= {f for f, n in model.family_counts().items() if n}
        fixed_blocks += sum(1 for b in model.variables.blocks if b.kind == PLACEMENT and b.limits)
        digest.update(Path(write_lp(model, tmp_path / "m.lp")).read_bytes())
    # no model has rows of these: the other rows or the column bounds state their rules
    empty = {"routes", "flushing_link", "flushing_exclusion", "capacity_upper", "capacity_lower", "outage", "fixed"}
    assert families == set(FAMILIES) - empty
    assert fixed_blocks == 12
    assert digest.hexdigest() == "8969733d02c7fb09e6551cc1d16e728e8400ce834c021d907890d9706f99f1d7"


def test_capacity_lazy_option_leaves_the_file_unchanged(ref1):
    # the benchmark builds its lazy workload with BuildOptions(capacity_lazy=True); the option is ignored
    for inst in (ref1, generate_oracle_instance(5)):
        assert lp_text(build_model(inst, BuildOptions(capacity_lazy=True))) == lp_text(build_model(inst))


def second_stain_path():
    """The 4A-SDC path with a second staining product, `dye`, shipped like `stain` but nominated 220,
    and an exclusion group of its first and last regimes: every stain on e1 now excludes another.

    It is infeasible, and so is its LP relaxation.  The cause is volume, not the exclusion group: the
    nomination screen warns "dye: storage sites need at least 264 units but the nominations allow 220",
    and the dye's nomination is the stain's on the feasible two-stain paths (`tests/test_model.py`)."""
    inst = generate_path_instance(PathExperimentParams(vertices=4, setting="A", cost_mode="SDC"))
    return dataclasses.replace(
        with_dye(inst, nomination=220),
        name="path-l4-A-SDC-dye",
        exclusion_groups=(ExclusionGroup(members=("r1", "r3")),),
    )


@pytest.mark.parametrize(
    "size, digest",
    [(677_863, "65759fe6c374fc25e17c72c2e103d7db353ae85eb840fc076499c9bb5703adb8")],
    ids=["mono"],
)
def test_lp_bytes_are_pinned_with_two_stains_and_an_exclusion_group(tmp_path, size, digest):
    # re-recorded when the stain-exclusion rows went: packing and flush enforcement imply them
    model = build_model(second_stain_path())
    counts = model.family_counts()
    assert (counts["flushing_exclusion"], counts["exclusion"], len(model.constraints.rhs)) == (0, 480, 3_889)
    data = Path(write_lp(model, tmp_path / "m.lp")).read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_write_lp_holds_little_besides_its_text(tmp_path):
    # rows and names are formatted a chunk at a time and each chunk goes to the file as it is
    # made: the peak, column names included, stays below the 0.70 MB file, and nothing is
    # cached on the model
    model = build_model(generate_path_instance(PathExperimentParams(vertices=6, setting="B", cost_mode="SDC")))
    path = tmp_path / "m.lp"
    tracemalloc.start()
    try:
        written = write_lp(model, path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written == str(path) and not (tmp_path / "m.lp.part").exists()
    assert held < 50_000
    data = path.read_bytes()
    assert peak < len(data)
    digest = "eecf9fb8b29039696164a6dfac434ab9df9014693cab74f0dba28cff1ee18da0"  # the l6B-SDC mono pin
    assert (len(data), hashlib.sha256(data).hexdigest()) == (698_760, digest)


def test_built_model_holds_little_after_a_write(tmp_path):
    # the 6B model keeps its row arrays (column ids, row starts and ranks in 32 bits) and its
    # column blocks; writing the LP forms every column name and keeps none of them
    inst = generate_path_instance(PathExperimentParams(vertices=6, setting="B", cost_mode="SDC"))
    tracemalloc.start()
    try:
        model = build_model(inst)
        write_lp(model, tmp_path / "m.lp")
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.constraints.col) == 50_442
    assert held < 4_000_000


def test_write_text_file_writes_the_text_in_slices(ref_model, tmp_path, monkeypatch):
    # `write_lp` writes the text piece by piece as UTF-8; a text longer than one piece
    # and not all ASCII reaches the file whole, and no pieces leave an empty file
    lines = [f"line {i} \u00e9" for i in range(200_000)]
    path = tmp_path / "m.lp"
    monkeypatch.setattr(lp_io, "_lp_pieces", lambda model: iter(lines))
    write_lp(ref_model, path)
    assert path.read_bytes() == "".join(f"{line}\n" for line in lines).encode("utf-8")
    monkeypatch.setattr(lp_io, "_lp_pieces", lambda model: iter(()))
    write_lp(ref_model, path)
    assert path.read_bytes() == b""
    assert [p.name for p in tmp_path.iterdir()] == ["m.lp"]


def test_failed_write_keeps_the_earlier_file(ref_model, tmp_path, monkeypatch):
    path = tmp_path / "m.lp"
    path.write_text("earlier\n")
    real = lp_io._row_chunks

    def one_chunk_then_fail(*args):
        yield next(real(*args))
        raise LPWriteError("constraint throughput_0 has no terms and cannot hold (0 <= -1)")

    monkeypatch.setattr(lp_io, "_row_chunks", one_chunk_then_fail)
    with pytest.raises(LPWriteError, match="throughput_0"):
        write_lp(ref_model, path)
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.lp"]


def test_lp_sections_and_binary_count(ref_model):
    text = lp_text(ref_model)
    lines = text.splitlines()
    assert lines[0].startswith("\\ pipesched model")
    assert "Maximize" in lines and "Subject To" in lines and "Bounds" in lines
    assert lines[-1] == "End"
    binary_block = text.split("Binary\n", 1)[1].split("End", 1)[0]
    assert len(binary_block.split()) == 41


def test_lp_variable_names_match_kinds():
    # the four-vertex path keeps limits of both sides, so it has columns of every kind but deviations
    model = build_model(generate_path_instance(PathExperimentParams(vertices=4, setting="A")))
    text = lp_text(model)
    assert " v0" in text and " u" in text and " l" in text
    assert set(column_letters(model)) == {"v", "u", "l"}


def test_objective_constant_stays_out_of_the_file(ref1):
    import dataclasses

    # a previous plan with unplaceable entries folds into a constant term
    weights = dataclasses.replace(
        ref1.weights, gamma=1, previous_plan=(("e1", "r1:flush:standard", 0),)
    )
    inst = dataclasses.replace(ref1, weights=weights, name="prev")
    model = build_model(inst)
    assert model.objective_constant != 0 or model.objective
    text = lp_text(model)
    for token in text.split("Subject To", 1)[0].split():
        assert not token.lstrip("+-").replace(".", "").isdigit() or token.lstrip("+-") != str(
            model.objective_constant
        ), "constant must be re-added by the driver, not serialized"


def test_gurobi_style_solution_parses(ref_model):
    text = (
        "# Solution for model x\n"
        "# Objective value = 144\n"
        "v0 1\n"
        "v28 1.0000000000\n"
    )
    parsed = parse_solution(text, ref_model)
    assert parsed.objective == 144  # recomputed from the values, and the reported 144 agrees
    assert len(parsed.schedule.placements) == 2


def test_header_style_solution_parses(ref_model):
    text = (
        "solution status: optimal\n"
        "objective value: 100\n"
        "v0  1 \t(obj:100)\n"
    )
    parsed = parse_solution(text, ref_model)
    assert parsed.status_hint == "optimal"
    assert len(parsed.schedule.placements) == 1


def test_indexed_rows_with_reduced_costs_parse(ref_model):
    text = "Optimal - objective value 100.00000000\n      0 v0      1          0\n"
    parsed = parse_solution(text, ref_model)
    assert parsed.status_hint == "optimal"
    assert parsed.schedule.placements == frozenset({("e1", "r1:flush:standard", 0)})


def test_infeasible_report_yields_no_schedule(ref_model):
    parsed = parse_solution("# Status = infeasible\n", ref_model)
    assert parsed.status_hint == "infeasible"
    assert parsed.schedule is None


@pytest.mark.parametrize(
    "value, match", [("0.5", "fractional value 0.5"), ("2", r"value 2\.0 outside"), ("-1", r"value -1\.0 outside")],
    ids=["0.5", "2", "-1"],
)
def test_fractional_binary_rejected(ref1, value, match):
    # v0 has objective coefficient 0 here, so the objective check cannot catch a value other than 0 or 1
    import dataclasses

    model = build_model(dataclasses.replace(ref1, weights=dataclasses.replace(ref1.weights, alpha=0)))
    assert not dict(model.objective).get(0)
    with pytest.raises(SolutionFormatError, match=f"binary variable v0 has {match}"):
        parse_solution(f"# Objective value = 0\nv0 {value}\n", model)


def test_near_integral_values_round(ref_model):
    text = f"# Objective value = 100\nv0 {1 - INTEGRALITY_TOL / 2}\n"
    parsed = parse_solution(text, ref_model)
    assert ("e1", "r1:flush:standard", 0) in parsed.schedule.placements


def test_unknown_variable_names_rejected(ref_model):
    with pytest.raises(SolutionFormatError, match="zz9"):
        parse_solution("# Objective value = 0\nzz9 1\n", ref_model)


def test_names_that_are_no_column_are_rejected(ref_model):
    # a name is a kind prefix and the vid's ASCII digits, exactly as the writer spells it; "u3"
    # has the digits of a placement column, "v" + 5000 digits is past int()'s digit limit
    letters = column_letters(ref_model)
    assert letters[3] == "v"
    for name in ["v01", "v\u00b2", "q5", "v+5", "v", "v" + "9" * 5000, f"v{len(letters)}", "u3"]:
        with pytest.raises(SolutionFormatError, match="unparseable solution line"):
            parse_solution(f"# Objective value = 0\n{name} 1\n", ref_model)


def test_every_column_name_reads_back_as_its_vid(ref_model):
    text = "".join(f"{letter}{vid} {int(vid == 28)}\n" for vid, letter in enumerate(column_letters(ref_model)))
    parsed = parse_solution("# Status = optimal\n" + text, ref_model)
    block = next(b for b in ref_model.variables.blocks if b.start <= 28 < b.start + b.count)
    assert parsed.schedule.placements == frozenset({(*block.prefix, block.first + 28 - block.start)})


def test_garbage_line_rejected(ref_model):
    with pytest.raises(SolutionFormatError):
        parse_solution("# Objective value = 0\nhello world again extra\n", ref_model)


def test_reported_objective_cross_checked(ref_model):
    # v0 alone is worth 100 extraction units; claiming 500 must fail loudly
    with pytest.raises(SolutionFormatError, match="objective"):
        parse_solution("# Objective value = 500\nv0 1\n", ref_model)


@pytest.mark.parametrize(
    "text, value",
    [
        ("# Objective value = none\nv0 1\n", "none"),
        ("# Objective value = -\nv0 1\n", "-"),
        ("Optimal - objective value e\n      0 v0      1          0\n", "e"),
        ("objective value: 1,5\nv0 1\n", "1,5"),
        ("# Objective value = nan\nv0 1\n", "nan"),
        ("# Objective value = 1e999\nv0 1\n", "1e999"),
        ("# Objective value = 100\n# Best bound = inf\nv0 1\n", "inf"),
        ("# Objective value = 100\n# Best bound = -Infinity\nv0 1\n", "-Infinity"),
        ("# Objective value = 100\n# Best bound = NaN\nv0 1\n", "NaN"),
    ],
    ids=["none", "dash", "cbc e", "header comma", "nan", "overflow", "inf bound", "-Infinity bound", "NaN bound"],
)
def test_reported_objective_and_bound_are_finite_numbers(ref_model, text, value):
    # a nan objective would pass the cross-check, and an infinite bound would reach the manifest
    with pytest.raises(SolutionFormatError, match=f"reports {value!r}, not a finite number"):
        parse_solution(text, ref_model)


@pytest.mark.parametrize("value", ["1e400", "-1e400"])
@pytest.mark.parametrize("letter", ["v", "d"], ids=["binary", "objective"])
def test_column_values_are_finite_numbers(letter, value):
    # 1e400 reads as an infinite float, which no rounding of a binary and no recomputed objective
    # survives; oracle seed 9's objective holds dispatches v and a continuous deviation d
    model = build_model(generate_oracle_instance(9))
    letters = column_letters(model)
    vid = next(vid for vid, _coef in model.objective if letters[vid] == letter)
    with pytest.raises(SolutionFormatError, match=f"solution line 2 reports {value!r}, not a finite number"):
        parse_solution(f"# Status = optimal\n{letters[vid]}{vid} {value}\n", model)


def test_solution_file_that_is_not_utf8_is_rejected(ref_model, tmp_path):
    path = tmp_path / "m.sol"
    path.write_bytes(b"# Status = optimal\n# Message = caf\xe9\nv0 1\n")
    with open(path, encoding="utf-8") as solution:
        with pytest.raises(SolutionFormatError, match="solution file is not UTF-8 text: invalid continuation byte"):
            parse_solution(solution, ref_model)


def test_empty_rows_never_serialized():
    from pipesched.generator import generate_oracle_instance

    # seeds with vacuously-true rows (e.g. throughput windows nothing can hit)
    for seed in range(8):
        inst = generate_oracle_instance(seed)
        model = build_model(inst)
        text = lp_text(model)
        for line in text.splitlines():
            stripped = line.strip()
            if any(stripped.startswith(f"{fam}_") for fam in ("throughput", "exclusion")):
                lhs = stripped.split(":", 1)[1]
                assert any(ch in lhs for ch in ("v", "u", "l")), f"empty row written: {line}"


def test_shim_timing_lines_are_ignored(ref_model):
    # the two counts are read into fields of their own (next test); nothing else changes with these lines
    text = "# Status = optimal\n# Objective value = 144\n# Wall time = 0.5\nv0 1\nv28 1.0\n"
    counts = "# MIP nodes = 12\n# Simplex iterations = 889\n# Read time = 0.25\n# Solve time = 0.125\n"
    timed = text.replace("# Wall time = 0.5\n", "# Wall time = 0.5\n" + counts)
    parsed = parse_solution(timed, ref_model)
    assert dataclasses.replace(parsed, nodes=None, simplex_iterations=None) == parse_solution(text, ref_model)


@pytest.mark.parametrize(
    "lines, nodes, iterations",
    [
        ("# MIP nodes = 0\n# Simplex iterations = 743\n", 0, 743),
        ("", None, None),
        ("# MIP nodes = 1.5\n# Simplex iterations = -3\n", None, None),
        ("# MIP nodes = many\n# Simplex iterations = 1e3\n", None, None),
        ("# mip nodes: 7\n# Simplex iterations = " + "9" * 40 + "\n", 7, None),
    ],
    ids=["counts", "none", "negative or fractional", "no number", "colon, and too long"],
)
def test_shim_count_lines_are_read_and_decide_nothing(ref_model, lines, nodes, iterations):
    # informational only: a count that is no whole number leaves its field None and raises nothing
    text = "# Status = optimal\n# Objective value = 144\n" + lines + "v0 1\nv28 1.0\n"
    parsed = parse_solution(text, ref_model)
    assert (parsed.nodes, parsed.simplex_iterations) == (nodes, iterations)
    assert (parsed.status_hint, parsed.objective, len(parsed.schedule.placements)) == ("optimal", 144, 2)
    infeasible = parse_solution("# Status = infeasible\n" + lines, ref_model)
    assert (infeasible.schedule, infeasible.nodes, infeasible.simplex_iterations) == (None, nodes, iterations)


SOLUTION_TEXTS = {
    "gurobi": "# Solution for model x\n# Objective value = 144\nv0 1\nv28 1.0000000000\n",
    "header": "solution status: optimal\nobjective value: 100\nv0  1 \t(obj:100)\n",
    "indexed": "Optimal - objective value 100.00000000\n      0 v0      1          0\n",
    "infeasible": "# Status = infeasible\n",
    "timed": "# Status = optimal\n# Objective value = 144\n# Wall time = 0.5\n# MIP nodes = 12\nv0 1\nv28 1.0\n",
    "crlf": "# Status = optimal\r\n# Objective value = 144\r\nv0 1\r\n\r\nv28 1.0\r\n",
    "no final newline": "# Objective value = 100\nv0 1",
    "fractional": "# Objective value = 1\nv0 0.5\n",
    "garbage": "# Objective value = 0\nhello world again extra\n",
    "objective mismatch": "# Objective value = 500\nv0 1\n",
}


@pytest.mark.parametrize("text", list(SOLUTION_TEXTS.values()), ids=list(SOLUTION_TEXTS))
def test_solution_parses_alike_from_text_and_open_file(ref_model, tmp_path, text):
    path = tmp_path / "m.sol"
    path.write_bytes(text.encode("utf-8"))

    def outcome(source):
        try:
            return parse_solution(source, ref_model)
        except SolutionFormatError as exc:
            return str(exc)

    with open(path, encoding="utf-8") as solution:
        from_file = outcome(solution)
    assert from_file == outcome(text)
