from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import equicart
from equicart import cli
from equicart.algebra import Polynomial
from equicart.cli import TORSION_GYSIN_NOTE, run
from equicart.gcomplex import InvariantModel, Generator
from equicart.gysin import identity_map
from equicart.models import builtin, load_model, save_model

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# -- exit code conventions -------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    code, out, err = invoke(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "frobnicate")
    assert code == 1
    assert err


def test_unknown_builtin_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "cohomology", "--model", "builtin:nope")
    assert code == 1
    assert "available" in err


def test_missing_model_file_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "validate", "--model", "does_not_exist.json")
    assert code == 1
    assert "no such model file" in err
    code, out, err = invoke(capsys, "duality", "--model", "does_not_exist.json")
    assert code == 1
    code, out, err = invoke(capsys, "gysin", "--map", "does_not_exist.json#north")
    assert (code, out, err) == (1, "", "error: no such model file: does_not_exist.json\n")


def test_missing_required_argument(capsys):
    code, out, err = invoke(capsys, "pairing")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, err = invoke(capsys, "--help")
    assert code == 0
    assert "equicart" in out


# usage errors, help and two subcommands, run back to back in one process
BACK_TO_BACK = [
    [],
    ["frobnicate"],
    ["--help"],
    ["cohomology", "--model", "builtin:point(1)"],
    ["euler", "--weights", "1,0;0,1", "--format", "json"],
    ["pairing"],
]


def test_the_parser_is_built_once_and_reused(capsys, monkeypatch):
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    fresh = []
    for argv in BACK_TO_BACK:
        cli._shared_parser.cache_clear()  # as in a new process
        fresh.append(invoke(capsys, *argv))
    cli._shared_parser.cache_clear()
    built.clear()
    assert [invoke(capsys, *argv) for argv in BACK_TO_BACK] == fresh
    assert len(built) == 1
    assert [code for code, _, _ in fresh] == [1, 1, 0, 0, 0, 1]


# refused inputs that used to reach run()'s catch-all ValueError branch:
# each is a usage error (exit 1) with the same message as before
REFUSED_INPUTS = [
    (["cohomology", "--model", "builtin:point(1)", "--cutoff", "-1"], "cutoff must be >= 0"),
    (["classify", "--model", "builtin:s2_rotation", "--cutoff", "-3"], "cutoff must be >= 0"),
    (["euler", "--weights", "1,0;1"], "weight (1) has wrong rank"),
    (["euler", "--weights", "0"], "zero weight belongs in the trivial part"),
    (["euler", "--weights", "1", "--trivial", "-1"], "trivial multiplicity must be >= 0"),
    (["euler", "--weights", "1;0", "--split", "1"], "zero weight belongs in the trivial part"),
    (["thom", "--model", "builtin:s2_rotation", "--top", "t,vol"],
     "phi_top must be homogeneous in generator degree"),
    (["thom", "--model", "builtin:s2_rotation", "--top", "t"], "phi_top is not d-closed"),
    (["cohomology", "--model", "builtin:point(-1)"],
     "bad arguments in 'point(-1)': torus_rank must be >= 0"),
    (["lefschetz", "--dims=-1,2"], "dimensions must be >= 0"),
    (["lefschetz", "--dims=1,0,-1"], "dimensions must be >= 0"),
]


@pytest.mark.parametrize("argv, message", REFUSED_INPUTS)
def test_refused_inputs_are_usage_errors(capsys, argv, message):
    assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")


def test_an_unknown_generator_is_named_without_quotes(capsys):
    # the message of the KeyError, not its repr-quoted str()
    assert invoke(capsys, "thom", "--model", "builtin:s2_rotation", "--top", "nope") == (
        1, "", "error: model 's2_rotation' has no generator 'nope'\n"
    )


def test_an_untyped_library_fault_is_an_internal_error(capsys, monkeypatch):
    def fault(model):
        raise ValueError("u does not divide 1")

    monkeypatch.setattr(equicart.gcomplex, "cohomology_generic", fault)
    code, out, err = invoke(capsys, "cohomology", "--model", "builtin:point(1)")
    assert (code, out, err) == (3, "", "internal error: u does not divide 1\n")


def test_a_failed_internal_check_is_an_internal_error(capsys, monkeypatch):
    # the module classification signals its internal faults by AssertionError
    def fault(columns, row_degrees):
        raise AssertionError("unimodular matrix failed to invert")

    monkeypatch.setattr(equicart.duality, "_graded_pairs", fault)
    code, out, err = invoke(capsys, "classify", "--model", "builtin:circle_free")
    assert (code, out, err) == (
        3, "", "internal error: unimodular matrix failed to invert\n"
    )


# -- validate --------------------------------------------------------------------


def test_validate_builtin_passes(capsys):
    code, payload, _ = invoke_json(capsys, "validate", "--model",
                                   "builtin:s2_rotation")
    assert code == 0
    assert payload["ok"] is True
    assert payload["issues"] == []


def test_validate_rejects_broken_differential(capsys):
    code, payload, _ = invoke_json(
        capsys, "validate", "--model", str(FIXTURES / "broken_d_squared.json")
    )
    assert code == 2
    assert payload["ok"] is False
    assert "d o d = 0" in payload["error"]
    assert "1*b" in payload["error"]


def test_validate_rejects_bad_json_with_position(capsys):
    code, payload, _ = invoke_json(
        capsys, "validate", "--model", str(FIXTURES / "broken_parse.json")
    )
    assert code == 2
    assert ":2:11" in payload["error"]


BROKEN_D_SQUARED_JSON = """{
  "error": "tests/fixtures/broken_d_squared.json: model rejected:\\nmodel 'broken_d_squared': 1 violation(s)\\n  - [d o d = 0] at one: 1*b",
  "ok": false
}
"""


@pytest.mark.parametrize("command", ["validate", "cohomology"])
def test_a_rejected_model_file_prints_the_report_as_json(capsys, monkeypatch, command):
    # validate and every other subcommand share one path for a file the
    # loader rejects: the report is the payload, exit code 2
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    code, out, err = invoke(
        capsys, command, "--model", "tests/fixtures/broken_d_squared.json",
        "--format", "json",
    )
    assert (code, out, err) == (2, BROKEN_D_SQUARED_JSON, "")


@pytest.mark.parametrize(
    "argv, counted",
    [
        (["validate", "--model", "modelfiles/s2_rotation.json"], "gcomplex.validate_model"),
        (["gysin", "--map", "modelfiles/s2_rotation.json#identity"], "gysin.validate_map"),
    ],
)
def test_a_model_file_is_validated_once(capsys, count_calls, monkeypatch, argv, counted):
    # the handlers print the reports the loader computed
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    module, name = counted.split(".")
    calls = count_calls(getattr(getattr(equicart, module), name))
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_a_model_command_reads_no_maps(capsys, count_calls, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    calls = count_calls(equicart.gysin.validate_map)
    assert run(["duality", "--model", "modelfiles/point_with_s2_maps.json"]) == 0
    capsys.readouterr()
    assert len(calls) == 0


def test_the_loader_still_refuses_a_broken_map(capsys, count_calls):
    calls = count_calls(equicart.gysin.validate_map)
    code, payload, err = invoke_json(
        capsys, "gysin", "--map", f"{FIXTURES / 'broken_map.json'}#any"
    )
    assert (code, payload["ok"], err, len(calls)) == (2, False, "", 1)
    assert "map rejected" in payload["error"]


def test_validate_accepts_shipped_model_files(capsys):
    for name in ("s2_rotation.json", "circle_free.json",
                 "two_weighted_planes.json", "point_with_s2_maps.json"):
        path = Path(__file__).parent.parent / "modelfiles" / name
        code, payload, _ = invoke_json(capsys, "validate", "--model", str(path))
        assert code == 0, payload
        assert payload["ok"] is True


# -- cohomology -------------------------------------------------------------------


def test_cohomology_of_a_point(capsys):
    code, payload, _ = invoke_json(
        capsys, "cohomology", "--model", "builtin:point", "--cutoff", "6"
    )
    assert code == 0
    assert payload["hilbert"] == [1, 0, 1, 0, 1, 0, 1]
    assert payload["generic"]["even_rank"] == 1
    assert payload["free_prediction"]["matches"] is True


def test_cohomology_flags_the_free_prediction_gap(capsys):
    code, payload, _ = invoke_json(
        capsys, "cohomology", "--model", "builtin:circle_free", "--cutoff", "4",
        "--underlying",
    )
    assert code == 0
    assert payload["hilbert"] == [1, 0, 0, 0, 0]
    assert payload["free_prediction"]["matches"] is False
    assert payload["underlying_dims"] == [1, 1]


# -- classify ----------------------------------------------------------------------


def test_classify_sphere(capsys):
    code, payload, _ = invoke_json(
        capsys, "classify", "--model", "builtin:s2_rotation"
    )
    assert code == 0
    assert payload["free_rank"] == 2
    assert payload["free_degrees"] == [0, 2]
    assert payload["torsion"] == []
    assert payload["hilbert_agrees"] is True
    assert payload["dual"]["hom_degrees"] == [-2, 0]


def test_classify_torsion_model(capsys):
    code, payload, _ = invoke_json(
        capsys, "classify", "--model", "builtin:circle_free"
    )
    assert code == 0
    assert payload["free_rank"] == 0
    assert payload["torsion"] == [{"divisor": "u", "from_degree": 0}]
    assert payload["dual"]["hom_vanishes"] is True
    assert payload["dual"]["ext1"] == [{"divisor": "u", "twist": 2}]


def test_classify_needs_an_input(capsys):
    code, out, err = invoke(capsys, "classify")
    assert code == 1


def test_classify_rank_two_model_is_a_domain_error(capsys):
    code, out, err = invoke(capsys, "classify", "--model", "builtin:rema_adj")
    assert code == 1
    assert "rank" in err


def test_classify_matrix_snf(capsys):
    code, payload, _ = invoke_json(capsys, "classify", "--matrix", "u^2,1;0,u")
    assert code == 0
    assert payload["invariant_factors"] == ["1", "u^3"]
    assert payload["checks"]["uav_equals_d"] is True
    assert payload["checks"]["ranks_agree"] is True
    assert payload["checks"]["snf_rank"] == 2


def test_classify_matrix_hand_oracle(capsys):
    code, payload, _ = invoke_json(capsys, "classify", "--matrix", "u,u;0,u^2")
    assert code == 0
    assert payload["invariant_factors"] == ["u", "u^2"]


def test_classify_constant_matrix(capsys):
    code, payload, _ = invoke_json(capsys, "classify", "--matrix", "1,2;3,4")
    assert code == 0
    assert payload["invariant_factors"] == ["1", "1"]
    assert payload["checks"]["generic_rank"] == 2
    # no entry is homogeneous of positive degree, yet the rank is not constant
    code, payload, _ = invoke_json(capsys, "classify", "--matrix", "u^3-3u^2")
    assert code == 0
    assert payload["invariant_factors"] == ["u^3 - 3*u^2"]
    assert payload["checks"]["generic_rank"] == 1
    assert payload["checks"]["ranks_agree"] is True


@pytest.mark.parametrize("spec", [
    # nonsingular matrices that lose rank at the points the former seeded
    # specialization drew with its default seed (-8527/53, 6426/59, -4441/86)
    "u^2+968695/4558u+37868407/4558,0;0,u+4441/86",
    "u^2+162515/3127u-54794502/3127",
])
def test_classify_matrix_rank_is_exact(capsys, spec):
    code, payload, err = invoke_json(capsys, "classify", "--matrix", spec)
    assert (code, err) == (0, "")
    checks = payload["checks"]
    assert checks["generic_rank"] == checks["snf_rank"] == len(payload["invariant_factors"])
    assert checks["ranks_agree"] is True
    code, out, err = invoke(capsys, "classify", "--matrix", spec)
    assert (code, err) == (0, "")
    assert f"  generic_rank: {checks['snf_rank']}\n  ranks_agree: yes\n" in out


def test_classify_matrix_rejects_garbage(capsys):
    code, out, err = invoke(capsys, "classify", "--matrix", "u,oops")
    assert code == 1


def test_classify_matrix_rejects_a_zero_denominator(capsys):
    code, out, err = invoke(capsys, "classify", "--matrix", "1/0u")
    assert (code, out) == (1, "")
    assert err == "error: bad coefficient in '1/0u': Fraction(1, 0)\n"


@pytest.mark.parametrize(
    "argv, counted",
    [
        (["classify", "--model", "builtin:s2_rotation"], "duality._classification"),
        (["classify", "--matrix", "u,0;0,u"], "algebra.smith_normal_form"),
    ],
)
def test_classify_computes_its_decomposition_once(capsys, count_calls, argv, counted):
    module, name = counted.split(".")
    calls = count_calls(getattr(getattr(equicart, module), name))
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


# -- pairing and duality -------------------------------------------------------------


def test_pairing_sphere(capsys):
    code, payload, _ = invoke_json(capsys, "pairing", "--model",
                                   "builtin:s2_rotation")
    assert code == 0
    assert payload["basis"] == ["one", "w"]
    assert payload["matrix"] == [["0", "2"], ["2", "0"]]
    assert payload["rank"] == 2


def test_duality_perfect_and_torsion(capsys):
    code, payload, _ = invoke_json(capsys, "duality", "--model",
                                   "builtin:s2_rotation")
    assert code == 0
    assert payload["perfect"] is True and payload["is_torsion"] is False

    code, payload, _ = invoke_json(capsys, "duality", "--model",
                                   "builtin:circle_free")
    assert code == 0
    assert payload["perfect"] is True and payload["is_torsion"] is True


def _two_points_with_blind_spot() -> InvariantModel:
    # a valid compact model whose integration functional misses one class:
    # the pairing degenerates without breaking any structural axiom
    return InvariantModel(
        name="two_points",
        torus_rank=1,
        generators=(Generator("pa", 0), Generator("pb", 0)),
        d=({}, {}),
        contractions=(({}, {}),),
        top_degree=0,
        compact=True,
        integration={0: Fraction(1), 1: Fraction(0)},
        product_table={
            (0, 0): {0: Fraction(1)},
            (0, 1): {},
            (1, 1): {1: Fraction(1)},
        },
    )


def test_duality_degenerate_exits_two(capsys, tmp_path):
    path = tmp_path / "two_points.json"
    save_model(_two_points_with_blind_spot(), path)
    code, payload, _ = invoke_json(capsys, "duality", "--model", str(path))
    assert code == 2
    assert payload["perfect"] is False
    assert payload["pairing_rank"] == 1
    assert payload["generic_betti_total"] == 2


# -- gysin ----------------------------------------------------------------------------


def test_gysin_north_inclusion(capsys):
    code, payload, _ = invoke_json(
        capsys, "gysin", "--map", "builtin:s2_north_inclusion"
    )
    assert code == 0
    assert payload["map_ok"] is True
    assert payload["pullback_matrix"] == [["1", "u"]]
    assert payload["gysin"]["matrix"] == [["1/2*u"], ["1/2"]]
    assert payload["gysin"]["degree_shift"] == -2
    assert payload["checks"]["projection_formula"] is True


def test_gysin_composite_is_the_identity(capsys):
    code, payload, _ = invoke_json(
        capsys, "gysin", "--map", "builtin:s2_north_inclusion",
        "--compose", "builtin:s2_to_point",
    )
    assert code == 0
    assert payload["gysin"]["matrix"] == [["1"]]
    assert payload["gysin"]["degree_shift"] == 0


def test_gysin_torsion_target_prints_a_refusal_note(capsys, tmp_path):
    model = builtin("circle_free")
    path = tmp_path / "circle_free.json"
    save_model(model, path, maps={"id": identity_map(model)})
    code, payload, _ = invoke_json(capsys, "gysin", "--map", f"{path}#id")
    assert code == 0
    assert payload["note"] == TORSION_GYSIN_NOTE
    assert payload["gysin_shape"] == [0, 0]
    assert "gysin" not in payload


def test_gysin_unknown_map_selector(capsys):
    code, out, err = invoke(capsys, "gysin", "--map", "builtin:warp")
    assert code == 1
    assert "available" in err
    code, out, err = invoke(capsys, "gysin", "--map", "not_a_selector")
    assert code == 1


# -- thom -----------------------------------------------------------------------------


def test_thom_extension_of_the_volume_form(capsys):
    code, payload, _ = invoke_json(
        capsys, "thom", "--model", "builtin:s2_rotation", "--top", "vol"
    )
    assert code == 0
    assert payload["closed"] is True
    assert payload["total_degree"] == 2
    # the extension is the stored volume cocycle: vol + u*t
    assert "vol" in payload["extension"] and "t" in payload["extension"]


def test_thom_obstruction_exits_two(capsys):
    code, payload, _ = invoke_json(
        capsys, "thom", "--model", "builtin:obstruction_pair", "--top", "a"
    )
    assert code == 2
    assert payload["ok"] is False
    assert payload["obstructed_at_degree"] == -1


def test_thom_rejects_unknown_generator(capsys):
    code, out, err = invoke(
        capsys, "thom", "--model", "builtin:s2_rotation", "--top", "zilch"
    )
    assert code == 1


def test_thom_rejects_a_zero_denominator(capsys):
    code, out, err = invoke(
        capsys, "thom", "--model", "builtin:s2_rotation", "--top", "vol:1/0"
    )
    assert (code, out) == (1, "")
    assert err == "error: bad coefficient in 'vol:1/0': Fraction(1, 0)\n"


# -- euler, localize, lefschetz ----------------------------------------------------------


def test_euler_single_weight(capsys):
    code, payload, _ = invoke_json(capsys, "euler", "--weights", "3")
    assert code == 0
    assert payload["euler"] == str(Polynomial(1, {(1,): Fraction(3)}))
    assert payload["real_dimension"] == 2
    assert payload["nested_multiplicative"] is None


def test_euler_rank_two_with_split(capsys):
    code, payload, _ = invoke_json(
        capsys, "euler", "--weights", "1,0;0,1", "--split", "1"
    )
    assert code == 0
    assert payload["euler"] == "u1*u2"
    assert payload["nested_multiplicative"] is True


def test_euler_trivial_summand_kills_the_class(capsys):
    code, payload, _ = invoke_json(
        capsys, "euler", "--weights", "2", "--trivial", "1"
    )
    assert code == 0
    assert payload["euler"] == "0"


def test_localize_unit_class_sums_to_zero(capsys):
    code, payload, _ = invoke_json(
        capsys, "localize", "--model", "builtin:s2_rotation", "--class", "one"
    )
    assert code == 0
    assert payload["value"] == "0"
    assert payload["polynomial"] is True


def test_localize_volume_class(capsys):
    code, payload, _ = invoke_json(
        capsys, "localize", "--model", "builtin:s2_rotation", "--class", "w"
    )
    assert code == 0
    assert payload["value"] == "2"


def test_localize_consistency_table(capsys):
    code, payload, _ = invoke_json(
        capsys, "localize", "--model", "builtin:s2_rotation"
    )
    assert code == 0
    assert payload["ok"] is True
    assert {item["class"] for item in payload["classes"]} == {"one", "w"}


def test_localize_without_fixed_points_is_a_domain_error(capsys):
    code, out, err = invoke(
        capsys, "localize", "--model", "builtin:circle_free"
    )
    assert code == 1
    assert "fixed point" in err


def test_lefschetz_from_dims(capsys):
    code, payload, _ = invoke_json(capsys, "lefschetz", "--dims", "1,0,1")
    assert code == 0
    assert payload["lefschetz"] == "2"


def test_lefschetz_from_model(capsys):
    code, payload, _ = invoke_json(
        capsys, "lefschetz", "--model", "builtin:s2_rotation"
    )
    assert code == 0
    assert payload["dims"] == [1, 0, 1]
    assert payload["lefschetz"] == "2"


def test_lefschetz_needs_some_input(capsys):
    code, out, err = invoke(capsys, "lefschetz")
    assert code == 1


# -- restrict ------------------------------------------------------------------------


def test_restrict_two_torus_to_acting_circle(capsys):
    code, payload, _ = invoke_json(
        capsys, "restrict", "--model", "builtin:rema_adj", "--matrix", "0;1"
    )
    assert code == 0
    assert payload["torus_rank"] == 1
    assert payload["valid"] is True


def test_restrict_to_rank_zero_and_save(capsys, tmp_path):
    out_path = tmp_path / "plain.json"
    code, payload, _ = invoke_json(
        capsys, "restrict", "--model", "builtin:s2_rotation",
        "--matrix", "", "--output", str(out_path),
    )
    assert code == 0
    assert payload["torus_rank"] == 0
    assert payload["saved_to"] == str(out_path)
    reloaded = load_model(out_path)
    assert reloaded.torus_rank == 0


def test_restrict_to_an_unwritable_path_is_usage(capsys, tmp_path):
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = invoke(
        capsys, "restrict", "--model", "builtin:s2_rotation",
        "--matrix", "1,2", "--output", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {out_path}: No such file or directory\n"


def test_restrict_shape_error_is_usage(capsys):
    code, out, err = invoke(
        capsys, "restrict", "--model", "builtin:s2_rotation", "--matrix", "1;1"
    )
    assert code == 1


# -- determinism ----------------------------------------------------------------------


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["classify", "--matrix", "u,u;0,u^2", "--format", "json"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second

    argv = ["cohomology", "--model", "builtin:s2_rotation", "--format", "json"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_no_option_or_environment_variable_sets_a_seed(capsys, monkeypatch):
    # every rank is exact, so no subcommand takes a seed
    required = {
        "gysin": ["--map", "builtin:s2_to_point"],
        "thom": ["--model", "builtin:s2_rotation", "--top", "vol"],
        "euler": ["--weights", "1"],
        "restrict": ["--model", "builtin:s2_rotation", "--matrix", "1"],
    }
    for command in cli._HANDLERS:
        argv = required.get(command, ["--model", "builtin:point(1)"])
        assert invoke(capsys, command, *argv, "--seed", "7") == (
            1, "", "error: unrecognized arguments: --seed 7\n"
        )
    monkeypatch.setenv("EQUICART_SEED", "abc")
    code, out, err = invoke(capsys, "cohomology", "--model", "builtin:point")
    assert (code, err) == (0, "")


def test_text_format_is_the_default(capsys):
    code, out, err = invoke(capsys, "lefschetz", "--dims", "1,0,1")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "2" in out


# -- operation coverage -----------------------------------------------------------------

PUBLIC_OPERATIONS = {
    "algebra.rank_and_solve",
    "algebra.generic_specialized_rank",
    "algebra.smith_normal_form",
    "gcomplex.validate_model",
    "gcomplex.cartan_differential",
    "gcomplex.cohomology_generic",
    "gcomplex.cohomology_hilbert",
    "gcomplex.predict_free_hilbert",
    "duality.integrate",
    "duality.pairing_matrix",
    "duality.duality_check",
    "duality.classify_rank1",
    "duality.ext_rank1",
    "duality.is_torsion",
    "gysin.validate_map",
    "gysin.pullback_cohomology",
    "gysin.gysin_localized",
    "gysin.projection_formula_check",
    "gysin.thom_extend",
    "gysin.restrict_subtorus",
    "euler.euler_linear",
    "euler.localize_integral",
    "euler.localization_consistency",
    "euler.lefschetz_number",
    "euler.nested_euler_check",
    "models.builtin",
    "models.load_model",
    "models.save_model",
}


def test_advertised_operations_resolve_to_callables():
    import importlib

    for op in PUBLIC_OPERATIONS:
        module_name, _, attr = op.partition(".")
        module = importlib.import_module(f"equicart.{module_name}")
        assert callable(getattr(module, attr)), op


def test_package_exposes_run():
    assert equicart.run is run


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["cohomology", "--model", "builtin:s2_rotation"]
    code, out, err = invoke(capsys, *argv)
    src = str(Path(equicart.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "equicart", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# -- recorded reference output ----------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI_REFERENCE = json.loads(
    (REPO_ROOT / "perfbench" / "data" / "cli_reference.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("command", sorted(CLI_REFERENCE))
def test_cli_output_matches_the_recorded_reference(capsys, monkeypatch, command):
    # each key is the argv joined by spaces; model files are named relative
    # to the repository root
    monkeypatch.chdir(REPO_ROOT)
    assert list(invoke(capsys, *command.split(" "))) == CLI_REFERENCE[command]
