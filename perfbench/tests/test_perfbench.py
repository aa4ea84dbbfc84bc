"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check that every metric BENCHMARK.json names is emitted with its unit,
that each oracle rejects a deliberately corrupted answer, that a seed
regenerates identical inputs, and that the tracer reproduces known call
counts and leaves the library as it found it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(REPO, "src"), REPO]

import equicart as E  # noqa: E402
from equicart.algebra import Polynomial, RationalFunction  # noqa: E402

from perfbench import oracles as O  # noqa: E402
from perfbench import trace, workloads  # noqa: E402


def benchmark_json() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload: str, trace_flag: int, cwd: str = REPO):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace_flag)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- metrics and units -----------------------------------------------------------


@pytest.mark.parametrize("trace_flag, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace_flag, section):
    proc = run_bench("rank2-products", trace_flag)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_json()[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for name in ("setup_s", "pass_s", "query_ms.p50", "query_ms.p90", "failed_frac", "peak_rss_mb"):
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines()), name


def test_per_layer_list_matches_the_tracer():
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert declared == trace.per_layer_metric_units()


def test_predictions_name_only_real_metrics_and_workloads():
    bench = benchmark_json()
    names = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    names |= {"failed", "failed_frac", "query_ms.p90"}
    with open(os.path.join(BENCH, "predictions.json"), encoding="utf-8") as fh:
        pred = json.load(fh)
    for layer, row in pred["layers"].items():
        assert layer in names, layer
        assert set(row["on"]) <= set(workloads.NAMES), layer
    for item, row in pred["roadmap_items"].items():
        for entry in row["moves"] + row["unchanged"]:
            assert entry[0] in names and entry[1] in workloads.NAMES, (item, entry)


def test_benchmark_workloads_are_the_timed_ones():
    assert tuple(w["name"] for w in benchmark_json()["workloads"]) == workloads.TIMED


def test_without_the_library_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cli-builtins", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- seeds -------------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = workloads.build(name, 7).inputs_json()
    assert workloads.build(name, 7).inputs_json() == first
    assert workloads.build(name, 8).inputs_json() != first


# -- oracles reject corrupted answers -------------------------------------------------


def test_closed_formulas():
    assert O.hilbert_point(2, 6) == [1, 0, 2, 0, 3, 0, 4]
    s2s2 = O.betti_product(O.FACTOR_BETTI["s2"], O.FACTOR_BETTI["s2"])
    assert s2s2 == [1, 0, 2, 0, 1]
    assert O.hilbert_formal(s2s2, 1, 8) == [1, 0, 3, 0, 4, 0, 4, 0, 4]
    assert O.kunneth((1, 1), (2, 0)) == (2, 2)


def test_hilbert_oracle_rejects_a_changed_entry():
    table = E.cohomology_hilbert(E.point(3), 10)
    want = O.hilbert_point(3, 10)
    assert O.check_equal(table, want, "Hilbert table") is None
    table[4] += 1
    assert O.check_equal(table, want, "Hilbert table")


def test_generic_and_duality_oracles_reject_wrong_ranks():
    m = E.tensor_product(E.circle_trivial(1), E.s2_rotation())
    want = O.kunneth(O.FACTOR_GENERIC_RANKS["circle_trivial"], O.FACTOR_GENERIC_RANKS["s2"])
    g = E.cohomology_generic(m)
    assert O.check_generic(g, want) is None
    assert O.check_generic(dataclasses.replace(g, odd_rank=g.odd_rank + 1), want)
    d = E.duality_check(m)
    assert O.check_duality(d, sum(want)) is None
    assert O.check_duality(dataclasses.replace(d, pairing_rank=d.pairing_rank - 1), sum(want))


def test_pairing_oracle_rejects_a_degenerate_matrix():
    m = E.s2_rotation()
    p = E.pairing_matrix(m)
    assert O.check_pairing(p, 2, 1) is None
    rows = O.matrix_entries(p.matrix)
    rows[1] = list(rows[0])
    broken = dataclasses.replace(p, matrix=type(p.matrix).from_rows(rows))
    assert O.check_pairing(broken, 2, 1)


def test_classification_oracle_rejects_a_wrong_degree():
    c = E.classify_rank1(E.s2_rotation())
    assert O.check_classification(c, [0, 2]) is None
    assert O.check_classification(dataclasses.replace(c, free_degrees=(0, 4)), [0, 2])


def test_gysin_oracles_reject_a_changed_entry():
    m = E.s2_rotation()
    g = E.gysin_localized(E.identity_map(m))
    assert O.check_gysin_identity(g, 2, 1) is None
    rows = O.matrix_entries(g.matrix)
    rows[0][1] = RationalFunction(Polynomial(1, {(1,): Fraction(1)}))
    broken = dataclasses.replace(g, matrix=type(g.matrix).from_rows(rows))
    assert O.check_gysin_identity(broken, 2, 1)
    assert O.check_gysin_identity(dataclasses.replace(g, degree_shift=2), 2, 1)

    north = E.restrict_map(E.builtin_maps()["s2_north_inclusion"], [[2, 3]])
    pole = E.gysin_localized(north)
    assert workloads._check_gysin_pole(pole, 2, 3, 1) is None
    assert workloads._check_gysin_pole(pole, 3, 2, 1)
    assert workloads._check_gysin_pole(pole, 2, 3, -1)


def test_localization_oracle_rejects_an_unreduced_value():
    class Unreduced:
        def __str__(self):
            return "(u1*u2) / (u1*u2)"

    assert O.check_polynomial_value(Unreduced(), "1")
    u = Polynomial(2, {(1, 1): Fraction(1)})
    assert O.check_polynomial_value(RationalFunction(u), "u1*u2") is None
    items = E.localization_consistency(E.point(2))
    assert O.check_localization(items, {"one": "1"}) is None
    assert O.check_localization(items, {"one": "2"})


def test_validation_and_projection_oracles_reject_failures():
    ok = E.validate_model(E.s2_rotation())
    assert O.check_validation(ok) is None
    broken = dataclasses.replace(ok, issues=(object(),))
    assert O.check_validation(broken)
    report = E.projection_formula_check(E.identity_map(E.s2_rotation()))
    assert O.check_projection(report) is None

    class Failed:
        ok = False

    assert O.check_projection(Failed())


def test_snf_oracle_matches_a_known_matrix_and_rejects_a_wrong_factor():
    u = (Fraction(0), Fraction(1))
    matrix = [[O.p_mul(u, u), (Fraction(1),)], [(), u]]
    want = O.invariant_factors_oracle(matrix)
    assert want == [(Fraction(1),), (0, 0, 0, Fraction(1))]
    code, out, err = workloads.run_cli(["classify", "--matrix=u^2,1;0,u", "--format", "json"])
    assert workloads.check_classify_matrix((code, out, err), want) is None
    data = json.loads(out)
    data["invariant_factors"][1] = "u^2"
    assert workloads.check_classify_matrix((code, json.dumps(data), err), want)
    for p in ((), (Fraction(3, 2), 0, Fraction(-1)), (Fraction(-6), Fraction(1, 4))):
        assert O.parse_poly1(O.format_poly1(p)) == p


def test_cli_oracles_reject_changed_output():
    key = "duality --model builtin:s2_rotation"
    result = workloads.run_cli(key.split())
    assert workloads.check_cli_reference(key, result) is None
    code, out, err = result
    assert workloads.check_cli_reference(key, (code, out.replace("yes", "no"), err))
    assert workloads.check_cli_reference(key, (2, out, err))
    restrict = workloads.run_cli(
        ["restrict", "--model", "builtin:s2_rotation", "--matrix=1,2", "--format", "json"])
    assert workloads.check_restrict_s2(restrict) is None
    code, out, err = restrict
    assert workloads.check_restrict_s2((code, out.replace('"odd_rank": 0', '"odd_rank": 1'), err))


def test_cli_reference_covers_every_fixed_command_and_no_known_defect():
    reference = workloads.cli_reference()
    keys = {" ".join(argv) for argv in workloads.fixed_cli_commands()}
    assert keys == set(reference)
    for defect in workloads.CLI_DEFECTS:
        assert " ".join(defect) not in reference
    assert not any("/ (" in out for _code, out, _err in reference.values())


# -- tracer -------------------------------------------------------------------------


def test_tracer_reproduces_known_counts_and_restores_the_library():
    import equicart.algebra as algebra
    import equicart.gcomplex as gcomplex

    before = (algebra.rank_and_solve, gcomplex.rank_and_solve, E.cohomology_generic,
              Polynomial.__mul__, Polynomial.__rmul__, RationalFunction.__init__)
    s2 = E.s2_rotation()
    small = E.tensor_product(E.circle_trivial(1), s2)
    big = E.tensor_product(s2, s2)
    tracer = trace.Tracer()
    with tracer:
        assert gcomplex.rank_and_solve is not before[1]
        tracer.query_id = "generic"
        E.cohomology_generic(big)
        tracer.query_id = "gysin"
        E.gysin_localized(E.identity_map(small))
    counts = tracer.calls_by_query()
    assert counts["generic"]["algebra.rank_and_solve"] == 74
    assert counts["gysin"]["gcomplex.cohomology_generic"] == 8
    summary = tracer.summary({})
    assert summary["gcomplex.cohomology_generic.calls"] == 9
    assert summary["gcomplex.cohomology_generic.reuse"] == pytest.approx(2 / 9)
    assert summary["algebra.Polynomial.mul.calls"] > 0
    assert all(t >= -1e-9 for t in tracer.self_times())
    after = (algebra.rank_and_solve, gcomplex.rank_and_solve, E.cohomology_generic,
             Polynomial.__mul__, Polynomial.__rmul__, RationalFunction.__init__)
    assert all(a is b for a, b in zip(before, after))
