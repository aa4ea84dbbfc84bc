"""The benchmark's workloads: seeded inputs, a fixed query list, and an
independent oracle for every query.

``build(name, seed)`` imports equicart, builds the workload's models and
maps and draws its seeded inputs; everything it does is what ``setup_s``
measures.  The library only ever sees the generated models and argv lists.

Every query calls equicart through a module attribute at call time (for
example ``E.cohomology_generic``), so that the tracer's wrappers, installed
after set-up, see the call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from . import oracles as O

CLI_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                             "cli_reference.json")

# Per-query latency limit in seconds.  A query that fails or runs past it is
# charged at the limit.  Each is well above the slowest correct query on a
# 2-core x86-64 host at the commit that defined the benchmark (cli-builtins
# 0.25 s, generic-rank1 6.6 s, hilbert-ladder 2.4 s, rank2-products 0.4 s),
# also with tracing on.
LIMIT_S = {
    "cli-builtins": 5.0,
    "generic-rank1": 60.0,
    "hilbert-ladder": 30.0,
    "rank2-products": 10.0,
    "known-defects": 10.0,
}

# Workloads named in BENCHMARK.json.  "known-defects" gathers the rank >= 2
# queries that crash or print a non-reduced value at the commit that defined
# the benchmark; it runs through the same harness and oracles, so it reports
# each of them as a failure until the defect is fixed.
TIMED = ("cli-builtins", "generic-rank1", "hilbert-ladder", "rank2-products")
NAMES = TIMED + ("known-defects",)


@dataclass
class Query:
    qid: str
    label: str
    entry: str  # traced name of the library function the query calls
    call: Callable[[], object]
    check: Optional[Callable[[object], Optional[str]]]  # None: a refusal is expected
    refusal: Optional[str] = None  # exception type name the oracle expects


@dataclass
class Workload:
    name: str
    limit_s: float
    inputs: dict  # JSON-able record of everything drawn from the seed
    queries: List[Query] = field(default_factory=list)

    def add(self, label, entry, call, check=None, refusal=None) -> None:
        """Every query has an oracle: a check of its answer, or the name of
        the typed refusal it must raise."""
        if (check is None) == (refusal is None):
            raise ValueError(f"{label}: give exactly one of check and refusal")
        qid = f"q{len(self.queries):03d}"
        self.queries.append(Query(qid, label, entry, call, check, refusal))

    def inputs_json(self) -> str:
        return json.dumps(self.inputs, sort_keys=True, default=str)


def build(name: str, seed: int) -> Workload:
    if name not in NAMES:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    import equicart as E

    rng = random.Random(seed)
    wl = Workload(name, LIMIT_S[name], {"seed": seed})
    BUILDERS[name](E, rng, wl)
    wl.inputs["queries"] = [q.label for q in wl.queries]
    return wl


# -- cli-builtins ------------------------------------------------------------

CLI_MODELS = (
    "builtin:point(1)",
    "builtin:point(2)",
    "builtin:circle_trivial(1)",
    "builtin:circle_trivial(2)",
    "builtin:circle_free",
    "builtin:rema_adj",
    "builtin:s2_rotation",
    "builtin:obstruction_pair",
    "builtin:c_alpha(1)",
    "builtin:c_alpha(1;2)",
    "builtin:c_alpha(1,0;0,1)",
    "modelfiles/circle_free.json",
    "modelfiles/point_with_s2_maps.json",
    "modelfiles/s2_rotation.json",
    "modelfiles/two_weighted_planes.json",
)
CLI_MODEL_SUBCOMMANDS = (
    "validate", "cohomology", "classify", "pairing", "duality", "localize", "lefschetz",
)
CLI_MAPS = (
    "builtin:s2_north_inclusion",
    "builtin:s2_south_inclusion",
    "builtin:s2_to_point",
    "builtin:s2_identity",
    "builtin:point_identity",
    "modelfiles/point_with_s2_maps.json#north",
    "modelfiles/s2_rotation.json#identity",
)
# `localize` on the rank-2 weighted planes prints "(u1*u2) / (u1*u2)": a
# defect, so it is checked in known-defects and never pinned as a reference.
CLI_DEFECTS = (
    ("localize", "--model", "builtin:c_alpha(1,0;0,1)"),
    ("localize", "--model", "modelfiles/two_weighted_planes.json"),
)


def fixed_cli_commands() -> List[List[str]]:
    """Rank-1 and refusal commands whose output is pinned in
    data/cli_reference.json."""
    cmds = [
        [sub, "--model", model]
        for model in CLI_MODELS
        for sub in CLI_MODEL_SUBCOMMANDS
        if (sub, "--model", model) not in CLI_DEFECTS
    ]
    cmds += [["gysin", "--map", m] for m in CLI_MAPS]
    cmds += [
        ["gysin", "--map", "builtin:s2_north_inclusion", "--compose", "builtin:s2_to_point"],
        ["thom", "--model", "builtin:s2_rotation", "--top", "vol"],
        ["thom", "--model", "builtin:obstruction_pair", "--top", "a"],
        ["thom", "--model", "builtin:c_alpha(1)", "--top", "v"],
        ["euler", "--weights", "1,0;0,1"],
        ["euler", "--weights", "2;3", "--trivial", "1"],
        ["lefschetz", "--dims", "1,0,1"],
        ["localize", "--model", "builtin:s2_rotation", "--class", "w"],
    ]
    return cmds


def run_cli(argv):
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    from equicart import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


_reference_cache: dict = {}


def cli_reference() -> dict:
    if not _reference_cache:
        with open(CLI_REFERENCE, encoding="utf-8") as fh:
            _reference_cache.update(json.load(fh))
    return _reference_cache


def check_cli_reference(key: str, result) -> Optional[str]:
    want = cli_reference().get(key)
    if want is None:
        return f"no recorded reference for {key!r}"
    code, out, err = result
    if [code, out, err] != want:
        return f"output differs from the recorded reference (exit {code}, expected {want[0]})"
    return None


def random_poly1(rng: random.Random, max_degree: int) -> tuple:
    """Drawn like scripts/snf_stress.py: each coefficient present with
    probability 0.4, numerator in [-6, 6], denominator in [1, 4]."""
    coeffs = [Fraction(0)] * (max_degree + 1)
    for exp in range(max_degree + 1):
        if rng.random() < 0.4:
            num, den = rng.randint(-6, 6), rng.randint(1, 4)
            coeffs[exp] = Fraction(num, den)
    return O._trim(coeffs)


def random_monomial1(rng: random.Random, max_degree: int) -> tuple:
    """Zero with probability 0.3, else c*u^k with c drawn as above."""
    if rng.random() < 0.3:
        return ()
    num = rng.choice([x for x in range(-6, 7) if x])
    return (Fraction(0),) * rng.randint(0, max_degree) + (Fraction(num, rng.randint(1, 4)),)


def random_poly_matrix(rng, draw=random_poly1, max_size: int = 4, max_degree: int = 3):
    rows, cols = rng.randint(1, max_size), rng.randint(1, max_size)
    return [[draw(rng, max_degree) for _ in range(cols)] for _ in range(rows)]


def add_classify_matrix(wl: "Workload", matrix) -> str:
    spec = ";".join(",".join(O.format_poly1(e) for e in row) for row in matrix)
    # "--matrix=" keeps argparse from reading a leading "-" as an option
    argv = ["classify", f"--matrix={spec}", "--format", "json"]
    expected = functools.cache(lambda: O.invariant_factors_oracle(matrix))
    wl.add("classify --matrix " + spec, "cli.run", lambda: run_cli(argv),
           lambda r: check_classify_matrix(r, expected()))
    return spec


def check_classify_matrix(result, expected) -> Optional[str]:
    code, out, _err = result
    if code != 0:
        return f"classify --matrix exited {code}"
    got = [O.p_monic(O.parse_poly1(t)) for t in json.loads(out)["invariant_factors"]]
    return O.check_equal(got, expected, "invariant factors")


def check_restrict_s2(result) -> Optional[str]:
    code, out, _err = result
    if code != 0:
        return f"restrict exited {code}"
    data = json.loads(out)
    got = (data["torus_rank"], data["valid"], data["generic"]["even_rank"], data["generic"]["odd_rank"])
    return O.check_equal(got, (2, True) + O.FACTOR_GENERIC_RANKS["s2"], "(rank, valid, even, odd)")


def _cli_builtins(E, rng, wl: Workload) -> None:
    for argv in fixed_cli_commands():
        key = " ".join(argv)
        wl.add(key, "cli.run", lambda a=argv: run_cli(a),
               lambda r, k=key: check_cli_reference(k, r))
    # Homogeneous entries, as in presentations of graded modules.  Matrices
    # drawn like scripts/snf_stress.py (inhomogeneous entries) run in
    # known-defects: `classify --matrix` takes a matrix whose entries are all
    # constant or inhomogeneous for a constant one and reports a wrong
    # specialized rank.
    matrices = [random_poly_matrix(rng, random_monomial1) for _ in range(8)]
    specs = [add_classify_matrix(wl, m) for m in matrices]
    restrictions = [[rng.randint(1, 4), rng.randint(-4, 4)] for _ in range(2)]
    for a, b in restrictions:
        argv = ["restrict", "--model", "builtin:s2_rotation", f"--matrix={a},{b}",
                "--format", "json"]
        wl.add(" ".join(argv[:4]), "cli.run", lambda a=argv: run_cli(a), check_restrict_s2)
    wl.inputs.update(matrices=specs, restrictions=restrictions)


# -- generic-rank1 -------------------------------------------------------------


def _c_alpha_betti(n_weights: int) -> tuple:
    """Compactly supported Betti numbers of C^n: the Thom class in degree 2n."""
    return (0,) * (2 * n_weights) + (1,)


def _free_degrees(betti) -> List[int]:
    return [k for k, b in enumerate(betti) for _ in range(b)]


def _generic_rank1(E, rng, wl: Workload) -> None:
    w = rng.randint(1, 3)
    factors = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(4)]
    wl.inputs.update(w=w, scale_factors=[str(f) for f in factors])
    s2 = E.s2_rotation()
    R = O.FACTOR_GENERIC_RANKS
    models = [
        ("s2xs2", E.scale_contractions(E.tensor_product(s2, s2), factors[0]),
         O.kunneth(R["s2"], R["s2"]), O.betti_product(O.FACTOR_BETTI["s2"], O.FACTOR_BETTI["s2"])),
        (f"s2xc_alpha({w})", E.scale_contractions(E.tensor_product(s2, E.c_alpha([[w]])), factors[1]),
         O.kunneth(R["s2"], R["c_alpha"]), O.betti_product(O.FACTOR_BETTI["s2"], _c_alpha_betti(1))),
        ("circle_trivial(1)xs2", E.scale_contractions(E.tensor_product(E.circle_trivial(1), s2), factors[2]),
         O.kunneth(R["circle_trivial"], R["s2"]),
         O.betti_product(O.FACTOR_BETTI["circle_trivial"], O.FACTOR_BETTI["s2"])),
    ]
    # On s2xs2 only cohomology_generic (74 Bareiss runs) and duality_check
    # (which recomputes the pairing and the cohomology) run: validate_model,
    # pairing_matrix and classify_rank1 there add 10 s and would leave room
    # for a single pass per run.  The smaller products run every query.
    for label, m, ranks, betti in models:
        total = sum(ranks)
        big = m is models[0][1]
        if not big:
            wl.add(f"validate_model({label})", "gcomplex.validate_model",
                   lambda m=m: E.validate_model(m), O.check_validation)
        wl.add(f"cohomology_generic({label})", "gcomplex.cohomology_generic",
               lambda m=m: E.cohomology_generic(m), lambda r, want=ranks: O.check_generic(r, want))
        if not big:
            wl.add(f"pairing_matrix({label})", "duality.pairing_matrix",
                   lambda m=m: E.pairing_matrix(m), lambda r, t=total: O.check_pairing(r, t, 1))
        wl.add(f"duality_check({label})", "duality.duality_check",
               lambda m=m: E.duality_check(m), lambda r, t=total: O.check_duality(r, t))
        if not big:
            wl.add(f"classify_rank1({label})", "duality.classify_rank1",
                   lambda m=m: E.classify_rank1(m),
                   lambda r, d=_free_degrees(betti): O.check_classification(r, d))
    # gysin of the identity on the two smaller products only: on s2xs2 it
    # takes about 17 s and would swamp the pass
    for label, m, ranks, _betti in models[1:]:
        f = E.identity_map(m)
        wl.add(f"gysin_localized(identity {label})", "gysin.gysin_localized",
               lambda f=f: E.gysin_localized(f),
               lambda r, t=sum(ranks): O.check_gysin_identity(r, t, 1))
    # projection_formula_check raises DecompositionError on c_alpha factors
    # (thom*thom is not a cocycle); whether that refusal is right is open, so
    # it is not load here
    for label, m in (("s2_rotation", E.scale_contractions(s2, factors[3])),
                     ("circle_trivial(1)xs2", models[2][1])):
        f = E.identity_map(m)
        wl.add(f"projection_formula_check(identity {label})", "gysin.projection_formula_check",
               lambda f=f: E.projection_formula_check(f), O.check_projection)


# -- hilbert-ladder ------------------------------------------------------------


def _nonzero(rng, bound: int) -> int:
    return rng.choice([x for x in range(-bound, bound + 1) if x])


def _hilbert_ladder(E, rng, wl: Workload) -> None:
    a, b, c, d = (_nonzero(rng, 3) for _ in range(4))
    factor = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    wl.inputs.update(weights=[[a, b], [c, d]], scale_factor=str(factor))
    s2 = E.s2_rotation()
    s2b = O.FACTOR_BETTI["s2"]
    for r in range(7, 11):
        m = E.point(r)
        cutoff = m.default_cutoff()
        wl.add(f"cohomology_hilbert(point({r}))", "gcomplex.cohomology_hilbert",
               lambda m=m, k=cutoff: E.cohomology_hilbert(m, k),
               lambda h, r=r, k=cutoff: O.check_equal(h, O.hilbert_point(r, k), "Hilbert table"))
    cases = [
        ("s2xs2", E.scale_contractions(E.tensor_product(s2, s2), factor), 40, 1,
         O.betti_product(s2b, s2b)),
        (f"s2|[[{a},{b}]]xs2|[[{c},{d}]]",
         E.tensor_product(E.restrict_subtorus(s2, [[a, b]]), E.restrict_subtorus(s2, [[c, d]])),
         10, 2, O.betti_product(s2b, s2b)),
        (f"c_alpha([{a},{b}],[{c},{d}])xs2|[[{a},{b}]]",
         E.tensor_product(E.c_alpha([[a, b], [c, d]]), E.restrict_subtorus(s2, [[a, b]])),
         8, 2, O.betti_product(_c_alpha_betti(2), s2b)),
    ]
    for label, m, cutoff, rank, betti in cases:
        want = O.hilbert_formal(betti, rank, cutoff)
        wl.add(f"cohomology_hilbert({label}, {cutoff})", "gcomplex.cohomology_hilbert",
               lambda m=m, k=cutoff: E.cohomology_hilbert(m, k),
               lambda h, w=want: O.check_equal(h, w, "Hilbert table"))


# -- rank2-products and known-defects --------------------------------------------


def _rank2_inputs(E, rng, wl: Workload) -> dict:
    a, b, c, d = (rng.randint(1, 3) for _ in range(4))
    wl.inputs.update(weights=[[a, b], [c, d]])
    s2 = E.s2_rotation()
    r = E.restrict_subtorus(s2, [[a, b]])
    C = E.c_alpha([[a, b], [c, d]])
    return dict(
        a=a, b=b, c=c, d=d, r=r, C=C,
        rr=E.tensor_product(r, E.restrict_subtorus(s2, [[c, d]])),
        Cr=E.tensor_product(C, r),
        Rt=E.tensor_product(r, E.circle_trivial(2)),
        Rp=E.tensor_product(r, E.point(2)),
        p2=E.point(2),
        ct2=E.circle_trivial(2),
    )


def _gysin_pole(a, b, sign):
    """Rank-1 answer [[sign*u/2], [1/2]] with u -> a*u1 + b*u2."""
    return lambda p: [[sign * (a * p[0] + b * p[1]) / 2], [Fraction(1, 2)]]


def _check_gysin_pole(g, a, b, sign) -> Optional[str]:
    if g.degree_shift != -2:
        return f"pole Gysin degree shift {g.degree_shift}, expected -2"
    return O.check_matrix_values(g.matrix, _gysin_pole(a, b, sign), 2, "pole Gysin matrix")


def _rank2_products(E, rng, wl: Workload) -> None:
    x = _rank2_inputs(E, rng, wl)
    a, b, c, d = x["a"], x["b"], x["c"], x["d"]
    R = O.FACTOR_GENERIC_RANKS
    labelled = [
        (f"s2|[[{a},{b}]]", x["r"], R["s2"]),
        (f"c_alpha([{a},{b}],[{c},{d}])", x["C"], R["c_alpha"]),
        (f"s2|[[{a},{b}]]xcircle_trivial(2)", x["Rt"], O.kunneth(R["s2"], R["circle_trivial"])),
        (f"s2|[[{a},{b}]]xpoint(2)", x["Rp"], O.kunneth(R["s2"], R["point"])),
    ]
    for label, m, _ranks in labelled[:3]:
        wl.add(f"validate_model({label})", "gcomplex.validate_model",
               lambda m=m: E.validate_model(m), O.check_validation)
    for label, m, ranks in labelled:
        wl.add(f"cohomology_generic({label})", "gcomplex.cohomology_generic",
               lambda m=m: E.cohomology_generic(m), lambda r, want=ranks: O.check_generic(r, want))
        wl.add(f"duality_check({label})", "duality.duality_check",
               lambda m=m: E.duality_check(m), lambda r, t=sum(ranks): O.check_duality(r, t))
    maps = E.builtin_maps()
    for pole, sign, (p, q) in (("north", 1, (a, b)), ("south", -1, (c, d))):
        f = E.restrict_map(maps[f"s2_{pole}_inclusion"], [[p, q]])
        wl.add(f"gysin_localized(s2_{pole}_inclusion|[[{p},{q}]])", "gysin.gysin_localized",
               lambda f=f: E.gysin_localized(f),
               lambda g, p=p, q=q, s=sign: _check_gysin_pole(g, p, q, s))
    wl.add("localize_integral(point(2), one)", "euler.localize_integral",
           lambda: E.localize_integral(x["p2"].fixed_points, "one"),
           lambda v: O.check_polynomial_value(v.value, "1"))
    wl.add(f"localize_integral(s2|[[{a},{b}]], one)", "euler.localize_integral",
           lambda: E.localize_integral(x["r"].fixed_points, "one"),
           lambda v: O.check_polynomial_value(v.value, "0"))
    wl.add("localize_integral(circle_trivial(2), one)", "euler.localize_integral",
           lambda: E.localize_integral(x["ct2"].fixed_points, "one"),
           refusal="FixedPointDataError")
    wl.add("localization_consistency(point(2))", "euler.localization_consistency",
           lambda: E.localization_consistency(x["p2"]),
           lambda items: O.check_localization(items, {"one": "1"}))
    wl.add(f"localization_consistency({labelled[2][0]})", "euler.localization_consistency",
           lambda: E.localization_consistency(x["Rt"]), refusal="FixedPointDataError")
    s2b = O.FACTOR_BETTI["s2"]
    for label, m, betti in (
        (f"s2|[[{a},{b}]]xs2|[[{c},{d}]]", x["rr"], O.betti_product(s2b, s2b)),
        (f"c_alpha([{a},{b}],[{c},{d}])xs2|[[{a},{b}]]", x["Cr"],
         O.betti_product(_c_alpha_betti(2), s2b)),
        (labelled[2][0], x["Rt"], O.betti_product(s2b, O.FACTOR_BETTI["circle_trivial"])),
    ):
        want = O.hilbert_formal(betti, 2, 6)
        wl.add(f"cohomology_hilbert({label}, 6)", "gcomplex.cohomology_hilbert",
               lambda m=m: E.cohomology_hilbert(m, 6),
               lambda h, w=want: O.check_equal(h, w, "Hilbert table"))


def _check_cli_localized(result, expected: str) -> Optional[str]:
    code, out, _err = result
    if code != 0:
        return f"localize exited {code}"
    items = json.loads(out)["classes"]
    got = {i["class"]: i["localized"] for i in items}
    return O.check_equal(got, {"thom": expected}, "printed localization")


def _known_defects(E, rng, wl: Workload) -> None:
    x = _rank2_inputs(E, rng, wl)
    a, b, c, d = x["a"], x["b"], x["c"], x["d"]
    R = O.FACTOR_GENERIC_RANKS
    for label, m, ranks in (
        (f"s2|[[{a},{b}]]xs2|[[{c},{d}]]", x["rr"], O.kunneth(R["s2"], R["s2"])),
        (f"c_alpha([{a},{b}],[{c},{d}])xs2|[[{a},{b}]]", x["Cr"], O.kunneth(R["c_alpha"], R["s2"])),
        (f"c_alpha([{a},{b}],[{c},{d}])xpoint(2)", E.tensor_product(x["C"], x["p2"]),
         O.kunneth(R["c_alpha"], R["point"])),
    ):
        wl.add(f"cohomology_generic({label})", "gcomplex.cohomology_generic",
               lambda m=m: E.cohomology_generic(m), lambda r, want=ranks: O.check_generic(r, want))
        wl.add(f"duality_check({label})", "duality.duality_check",
               lambda m=m: E.duality_check(m), lambda r, t=sum(ranks): O.check_duality(r, t))
    wl.add(f"localize_integral(s2|[[{a},{b}]], w)", "euler.localize_integral",
           lambda: E.localize_integral(x["r"].fixed_points, "w"),
           lambda v: O.check_polynomial_value(v.value, "2"))
    wl.add(f"localization_consistency(s2|[[{a},{b}]])", "euler.localization_consistency",
           lambda: E.localization_consistency(x["r"]),
           lambda items: O.check_localization(items, {"one": "0", "w": "2"}))
    wl.add(f"localize_integral(c_alpha([{a},{b}],[{c},{d}]), thom)", "euler.localize_integral",
           lambda: E.localize_integral(x["C"].fixed_points, "thom"),
           lambda v: O.check_polynomial_value(v.value, "1"))
    u3 = (Fraction(0), Fraction(0), Fraction(-3), Fraction(1))  # u^3 - 3u^2
    wl.inputs["matrices"] = [add_classify_matrix(wl, m) for m in
                             [[[u3]]] + [random_poly_matrix(rng) for _ in range(4)]]
    for cmd in CLI_DEFECTS:
        argv = list(cmd) + ["--format", "json"]
        wl.add(" ".join(cmd), "cli.run", lambda a=argv: run_cli(a),
               lambda r: _check_cli_localized(r, "1"))


BUILDERS = {
    "cli-builtins": _cli_builtins,
    "generic-rank1": _generic_rank1,
    "hilbert-ladder": _hilbert_ladder,
    "rank2-products": _rank2_products,
    "known-defects": _known_defects,
}
