"""LP serialization and solution parsing across solver output dialects."""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from pipesched.generator import PathExperimentParams, generate_path_instance

from pipesched.lp_io import (
    INTEGRALITY_TOL,
    LPWriteError,
    SolutionFormatError,
    parse_solution,
    write_lp,
    write_text_file,
)
from pipesched.milpmodel import BuildOptions, build_model


@pytest.fixture(scope="module")
def ref_model(ref1):
    return build_model(ref1)


def test_lp_write_is_byte_deterministic(ref1):
    a = write_lp(build_model(ref1))
    b = write_lp(build_model(ref1))
    assert a == b


@pytest.mark.parametrize(
    "vertices, setting, cost_mode, ship, size, digest",
    [
        (4, "A", "SD", None, 1_237_370, "f864c775cbd08559ec69e05a7dc4005c284f892c94dab8c2ee92aadd4b8ffbfd"),
        (4, "A", "SD", slice(0), 1_023_558, "3b4f4017490fc992793ce9156ad8a884a740322b25826900a07b9321e33ba6fd"),
        (6, "B", "SDC", None, 3_093_524, "1eb4ce281f393fec98f06928aa116bf93f99eda9932063104ffa581eb1730784"),
        (6, "B", "SDC", slice(0), 2_657_984, "bd92329d047c4ecaf6d37da82dcb97f4cafd216c76329fd51c62dcac7f7fb081"),
        (6, "B", "SDC", slice(None, None, 5), 2_745_091,
         "5564b69b6f0e142c3dcec021d4f4352cb49f85bdb0fcd3e06a1871f76a1e4dde"),
    ],
    ids=["l4A-SD mono", "l4A-SD lazy round 0", "l6B-SDC mono", "l6B-SDC lazy round 0", "l6B-SDC lazy every 5th bound"],
)
def test_lp_bytes_are_pinned(vertices, setting, cost_mode, ship, size, digest):
    # the exact file the solver reads; a change to the model or the writer that is
    # meant to alter it updates these pins and says why.  `ship` picks the lazy bound
    # rows activated, in row order (2304 of them for every 5th); None is the monolithic model
    inst = generate_path_instance(PathExperimentParams(vertices=vertices, setting=setting, cost_mode=cost_mode))
    model = build_model(inst, BuildOptions(capacity_lazy=ship is not None))
    activated = None if ship is None else set(sorted(model.lazy_bounds.values())[ship])
    text = write_lp(model, activated).encode("utf-8")
    assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)


def test_write_lp_holds_little_besides_its_text():
    # chunked formatting: the peak stays near the text and its chunks, and nothing is cached on the model
    model = build_model(generate_path_instance(PathExperimentParams(vertices=4, setting="A", cost_mode="SD")))
    model.lp_names  # built once per model, outside what is measured
    tracemalloc.start()
    try:
        text = write_lp(model)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
    assert held <= 1.1 * len(text)


def test_write_text_file_writes_the_text_in_slices(tmp_path):
    text = "".join(f"line {i} \u00e9\n" for i in range(200_000))  # longer than one slice, not all ASCII
    path = tmp_path / "m.lp"
    write_text_file(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    write_text_file(path, "")
    assert path.read_bytes() == b""


def test_lp_sections_and_binary_count(ref_model):
    text = write_lp(ref_model)
    lines = text.splitlines()
    assert lines[0].startswith("\\ pipesched model")
    assert "Maximize" in lines and "Subject To" in lines and "Bounds" in lines
    assert lines[-1] == "End"
    binary_block = text.split("Binary\n", 1)[1].split("End", 1)[0]
    assert len(binary_block.split()) == 41


def test_lp_variable_names_match_kinds(ref_model):
    text = write_lp(ref_model)
    assert " v0" in text and " w" in text and " u" in text and " l" in text


def test_objective_constant_stays_out_of_the_file(ref1):
    import dataclasses

    # a previous plan with unplaceable entries folds into a constant term
    weights = dataclasses.replace(
        ref1.weights, gamma=1, previous_plan=(("e1", "r1:flush:standard", 0),)
    )
    inst = dataclasses.replace(ref1, weights=weights, name="prev")
    model = build_model(inst)
    assert model.objective_constant != 0 or model.objective
    text = write_lp(model)
    for token in text.split("Subject To", 1)[0].split():
        assert not token.lstrip("+-").replace(".", "").isdigit() or token.lstrip("+-") != str(
            model.objective_constant
        ), "constant must be re-added by the driver, not serialized"


def test_lazy_rows_omitted_until_activated(ref1):
    model = build_model(ref1, BuildOptions(capacity_lazy=True))
    without = write_lp(model, activated_lazy=set())
    assert "capacity_upper" not in without and "capacity_lower" not in without
    some = next(iter(model.lazy_bounds.values()))
    partial = write_lp(model, activated_lazy={some})
    name = model.constraints[some].name
    assert name in partial
    full = write_lp(model, activated_lazy=None)
    assert full.count("capacity_upper_") == 48


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


def test_fractional_binary_rejected(ref_model):
    text = "# Objective value = 1\nv0 0.5\n"
    with pytest.raises(SolutionFormatError, match="fractional"):
        parse_solution(text, ref_model)


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
    names = ref_model.lp_names
    assert names[3] == "v3"
    for name in ["v01", "v\u00b2", "q5", "v+5", "v", "v" + "9" * 5000, f"v{len(names)}", "u3"]:
        with pytest.raises(SolutionFormatError, match="unparseable solution line"):
            parse_solution(f"# Objective value = 0\n{name} 1\n", ref_model)


def test_every_column_name_reads_back_as_its_vid(ref_model):
    text = "".join(f"{name} {int(vid == 28)}\n" for vid, name in enumerate(ref_model.lp_names))
    parsed = parse_solution("# Status = optimal\n" + text, ref_model)
    assert parsed.schedule.placements == frozenset({ref_model.variables[28].key})


def test_garbage_line_rejected(ref_model):
    with pytest.raises(SolutionFormatError):
        parse_solution("# Objective value = 0\nhello world again extra\n", ref_model)


def test_reported_objective_cross_checked(ref_model):
    # v0 alone is worth 100 extraction units; claiming 500 must fail loudly
    with pytest.raises(SolutionFormatError, match="objective"):
        parse_solution("# Objective value = 500\nv0 1\n", ref_model)


def test_empty_rows_never_serialized():
    from pipesched.generator import generate_oracle_instance

    # seeds with vacuously-true rows (e.g. throughput windows nothing can hit)
    for seed in range(8):
        inst = generate_oracle_instance(seed)
        model = build_model(inst)
        text = write_lp(model)
        for line in text.splitlines():
            stripped = line.strip()
            if any(stripped.startswith(f"{fam}_") for fam in ("throughput", "exclusion")):
                lhs = stripped.split(":", 1)[1]
                assert any(ch in lhs for ch in ("v", "w", "u", "l")), f"empty row written: {line}"


def test_cached_row_text_never_leaks_between_activation_sets(ref1):
    model = build_model(ref1, BuildOptions(capacity_lazy=True))
    bounds = sorted(model.lazy_bounds.values())
    set_a, set_b = set(bounds[:5]), set(bounds[-7:])
    first_a = write_lp(model, set_a)
    text_b = write_lp(model, set_b)
    assert write_lp(model, set_a) == first_a
    assert text_b == write_lp(build_model(ref1, BuildOptions(capacity_lazy=True)), set_b)
    assert first_a != text_b


def test_shim_timing_lines_are_ignored(ref_model):
    text = "# Status = optimal\n# Objective value = 144\n# Wall time = 0.5\nv0 1\nv28 1.0\n"
    timed = text.replace("# Wall time = 0.5\n", "# Wall time = 0.5\n# MIP nodes = 12\n# Read time = 0.25\n# Solve time = 0.125\n")
    assert parse_solution(timed, ref_model) == parse_solution(text, ref_model)
