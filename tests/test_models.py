from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from equicart.algebra import Polynomial, RationalFunction
from equicart.cli import run
from equicart.duality import duality_check
from equicart.euler import Weight, euler_linear, localization_consistency
from equicart.gcomplex import (
    EquivariantElement,
    cartan_differential,
    cohomology_hilbert,
    element,
    element_product,
    named_cocycle_element,
    scale_contractions,
    validate_model,
)
from equicart.gysin import restrict_subtorus, validate_map
from equicart.models import (
    ModelFileError,
    UnknownModelError,
    builtin,
    builtin_map,
    builtin_map_names,
    builtin_names,
    c_alpha,
    load_model,
    load_model_file,
    model_to_dict,
    point,
    resolve_model,
    s2_rotation,
    save_model,
    tensor_product,
)

FIXTURES = Path(__file__).parent / "fixtures"
MODELFILES = Path(__file__).resolve().parent.parent / "modelfiles"
SHIPPED = ("circle_free.json", "point_with_s2_maps.json", "s2_rotation.json",
           "two_weighted_planes.json")

ALL_BUILTINS = ["point(1)", "point(2)", "circle_trivial(1)", "circle_trivial(2)",
                "circle_free", "rema_adj", "s2_rotation", "obstruction_pair",
                "c_alpha(1)", "c_alpha(2)", "c_alpha(1,0;0,1)", "c_alpha(1;1)"]


# -- the builtin catalogue ----------------------------------------------------


def test_builtin_selector_defaults():
    assert builtin("point") == point(1)
    assert builtin("point(3)").torus_rank == 3
    assert builtin("circle_trivial") == builtin("circle_trivial(1)")
    assert builtin("s2_rotation") == s2_rotation()


def test_builtin_selector_whitespace_tolerant():
    assert builtin(" c_alpha( 1 , 0 ; 0 , 1 ) ") == builtin("c_alpha(1,0;0,1)")


def test_unknown_builtin_lists_the_catalogue():
    with pytest.raises(UnknownModelError) as info:
        builtin("klein_bottle")
    message = str(info.value)
    for name in builtin_names():
        assert name in message


def test_builtin_argument_validation():
    # rank 0 is legal: the ordinary, nonequivariant complex of a point
    assert builtin("point(0)").torus_rank == 0
    with pytest.raises(UnknownModelError):
        builtin("point(x)")
    with pytest.raises(UnknownModelError):
        builtin("circle_free(2)")  # takes no arguments
    with pytest.raises(UnknownModelError):
        builtin("c_alpha()")
    with pytest.raises(UnknownModelError):
        builtin("c_alpha(1,0;1)")  # ragged weight rows
    with pytest.raises(UnknownModelError):
        builtin("c_alpha(0)")  # zero weight is not allowed


def test_c_alpha_rejects_zero_weight_directly():
    with pytest.raises(ValueError):
        c_alpha([[0, 0]])


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_every_builtin_is_self_certifying(name):
    model = builtin(name)
    report = validate_model(model)
    assert report.ok, str(report)
    if model.compact:
        assert duality_check(model).perfect
    if model.fixed_points and model.compact:
        for item in localization_consistency(model):
            assert item.ok


@pytest.mark.parametrize("name", builtin_map_names())
def test_every_builtin_map_is_valid(name):
    assert validate_map(builtin_map(name)).ok


def test_builtin_map_unknown_name():
    with pytest.raises(UnknownModelError):
        builtin_map("mystery_map")


# -- tensor products -----------------------------------------------------------


def test_tensor_product_of_weighted_planes_is_valid():
    a = builtin("c_alpha(1)")
    b = builtin("c_alpha(2)")
    prod = tensor_product(a, b)
    assert validate_model(prod).ok
    assert prod.torus_rank == 1
    assert prod.top_degree == a.top_degree + b.top_degree


def test_tensor_product_koszul_sign_in_the_differential():
    model = builtin("c_alpha(1;1)")
    names = [g.name for g in model.generators]
    dh_h, h_dh, dh_dh = (names.index(k) for k in ("dh.h", "h.dh", "dh.dh"))
    # d(dh x h) = -dh x dh, d(h x dh) = +dh x dh
    assert model.d[dh_h][dh_dh] == Fraction(-1)
    assert model.d[h_dh][dh_dh] == Fraction(1)
    # a square of an odd factor is declared zero
    left = element(model, {dh_h: 1})
    assert element_product(model, left, left).is_zero


def _graded_table_product(model, i, j):
    """Dense vector of generator i times generator j, or None when the
    partial table has no entry for the pair."""
    key = (min(i, j), max(i, j))
    if key not in model.product_table:
        return None
    sign = (-1) ** (model.generators[i].degree * model.generators[j].degree) if i > j else 1
    out = [Fraction(0)] * len(model.generators)
    for k, v in model.product_table[key].items():
        out[k] += sign * v
    return out


def _dense(columns):
    """The rows of a square matrix given by its columns."""
    return [[column.get(h, 0) for column in columns] for h in range(len(columns))]


def _columns_of(rows):
    """The columns of a dense square matrix: per column, its nonzero
    entries {row: value}."""
    return tuple({h: row[g] for h, row in enumerate(rows) if row[g]} for g in range(len(rows)))


def _kronecker_reference(a, b):
    """d, each c_i, integration and products of a (x) b, written out densely
    from dense copies of the factors' matrices, the operators then given by
    their columns: operators as M (x) 1 + eps (x) M with eps = (-1)^{|x|} on
    the left factor, products with the Koszul sign (-1)^{|x2||y1|}."""
    na, nb = len(a.generators), len(b.generators)
    pairs = [(i, j) for i in range(na) for j in range(nb)]
    degree = [a.generators[i].degree + b.generators[j].degree for i, j in pairs]

    sign = [(-1) ** gen.degree for gen in a.generators]

    def leibniz(ma, mb):
        ma, mb = _dense(ma), _dense(mb)
        return _columns_of([
            [
                (ma[h][g] if k == l else 0) + (sign[g] * mb[k][l] if h == g else 0)
                for g, l in pairs
            ]
            for h, k in pairs
        ])

    d = leibniz(a.d, b.d)
    contractions = tuple(
        leibniz(ca, cb) for ca, cb in zip(a.contractions, b.contractions)
    )
    integration = {}
    if a.compact and b.compact:
        top = a.top_degree + b.top_degree
        for x, (i, j) in enumerate(pairs):
            if degree[x] == top:
                integration[x] = a.integration.get(i, 0) * b.integration.get(j, 0)
    products = {}
    for p, (p1, p2) in enumerate(pairs):
        for q, (q1, q2) in enumerate(pairs):
            if p > q:
                continue
            left = _graded_table_product(a, p1, q1)
            right = _graded_table_product(b, p2, q2)
            if left is None or right is None:
                continue
            koszul = (-1) ** (b.generators[p2].degree * a.generators[q1].degree)
            products[(p, q)] = {
                k1 * nb + k2: koszul * x * y
                for k1, x in enumerate(left)
                if x
                for k2, y in enumerate(right)
                if y
            }
    return d, contractions, integration, products


def _restricted_s2():
    from equicart.gysin import restrict_subtorus

    return restrict_subtorus(s2_rotation(), [[1, 2]])


TENSOR_CASES = {
    "s2 x s2": lambda: (s2_rotation(), s2_rotation()),
    "s2 x c_alpha(2)": lambda: (s2_rotation(), builtin("c_alpha(2)")),
    "c_alpha(1,0;0,1) x s2|[[1,2]]": lambda: (builtin("c_alpha(1,0;0,1)"), _restricted_s2()),
    "circle_trivial(2) x rema_adj": lambda: (builtin("circle_trivial(2)"), builtin("rema_adj")),
    # a right factor whose table has a nonzero product of odd generators
    "circle_free x circle_free^2": lambda: (
        builtin("circle_free"), tensor_product(builtin("circle_free"), builtin("circle_free"))
    ),
}


@pytest.mark.parametrize("label", sorted(TENSOR_CASES))
def test_tensor_product_matches_a_dense_kronecker_reference(label):
    a, b = TENSOR_CASES[label]()
    model = tensor_product(a, b)
    d, contractions, integration, products = _kronecker_reference(a, b)
    assert model.d == d
    assert model.contractions == contractions
    assert all(list(col) == sorted(col) for op in (model.d, *model.contractions) for col in op)
    assert dict(model.integration) == integration
    assert {key: dict(value) for key, value in model.product_table.items()} == products


CONSTRUCTOR_FACTORS = {
    1: ["point(1)", "circle_trivial(1)", "circle_free", "s2_rotation",
        "obstruction_pair", "c_alpha(1)", "c_alpha(2)"],
    2: ["point(2)", "circle_trivial(2)", "rema_adj", "c_alpha(1,0;0,1)"],
}


def _polynomials(n):
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    return st.dictionaries(exponents, st.integers(-3, 3), max_size=3).map(
        lambda terms: Polynomial(n, terms)
    )


@st.composite
def constructor_cases(draw):
    """(a, b, weights, x): two builtins over one torus of rank 1 or 2, both
    restricted along one matrix to rank 0, 1 or 2 or left as they are, each
    possibly rescaled; a restriction matrix of their product to rank 0, 1
    or 2; and an element of the product with a few Polynomial and
    RationalFunction coefficients."""
    n = draw(st.sampled_from(sorted(CONSTRUCTOR_FACTORS)))
    a = builtin(draw(st.sampled_from(CONSTRUCTOR_FACTORS[n])))
    b = builtin(draw(st.sampled_from(CONSTRUCTOR_FACTORS[n])))
    if draw(st.booleans()):
        r = draw(st.integers(0, 2))
        weights = [[draw(st.sampled_from([1, -2, 0, 2, -1])) for _ in range(r)] for _ in range(n)]
        a, b = restrict_subtorus(a, weights), restrict_subtorus(b, weights)
    scales = st.sampled_from([None, Fraction(-1), Fraction(2), Fraction(-3, 2)])
    a, b = [m if s is None else scale_contractions(m, s)
            for m, s in ((a, draw(scales)), (b, draw(scales)))]
    n = a.torus_rank
    r = draw(st.integers(0, 2))
    # mostly nonzero weights, so that c'_j sums several c_i where they meet
    weights = [[draw(st.sampled_from([1, -2, 0, 2, -1])) for _ in range(r)] for _ in range(n)]
    size = len(a.generators) * len(b.generators)
    terms = {}
    for g in draw(st.lists(st.integers(0, size - 1), max_size=4, unique=True)):
        coeff = draw(_polynomials(n))
        denominator = draw(_polynomials(n))
        if draw(st.booleans()) and not denominator.is_zero:
            coeff = RationalFunction(coeff, denominator)
        terms[g] = coeff
    return a, b, weights, terms


def _overlapping_case():
    """Rank-2 factors whose c_1 and c_2 share every entry, restricted along
    [[1], [1]]: each new entry sums two old ones."""
    along = [[1, 2]]
    a = restrict_subtorus(s2_rotation(), along)
    b = restrict_subtorus(builtin("circle_free"), along)
    u1, u2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    terms = {5: u1 * u2, 9: RationalFunction(u1 + u2 * 3, u1 - u2)}
    return a, b, [[1], [1]], terms


@seed(20261018)
@settings(max_examples=40)
@given(constructor_cases())
@example(_overlapping_case())
def test_constructors_and_the_differential_match_dense_references(case):
    a, b, weights, terms = case
    model = tensor_product(a, b)
    d, contractions, integration, products = _kronecker_reference(a, b)
    assert model.d == d
    assert model.contractions == contractions
    assert all(list(col) == sorted(col) for op in (model.d, *model.contractions) for col in op)
    assert dict(model.integration) == integration
    # keys in the order of a loop over all pairs (left, right)
    assert [(key, dict(row)) for key, row in model.product_table.items()] == list(
        products.items()
    )

    n, size, r = model.torus_rank, len(model.generators), len(weights[0]) if weights else 0
    d, contractions = _dense(d), [_dense(c) for c in contractions]
    restricted = restrict_subtorus(model, weights)
    assert restricted.contractions == tuple(
        _columns_of([
            [
                sum((weights[i][j] * contractions[i][h][g] for i in range(n)), Fraction(0))
                for g in range(size)
            ]
            for h in range(size)
        ])
        for j in range(r)
    )

    x = EquivariantElement(model, terms)
    variables = [Polynomial.variable(n, i) for i in range(n)]
    expected = {}
    for h in range(size):
        total = RationalFunction.zero(n)
        for g, coeff in x.terms.items():
            entry = Polynomial.constant(n, d[h][g])
            for u, c in zip(variables, contractions):
                entry = entry + u * c[h][g]
            total = total + RationalFunction.coerce(coeff, n) * RationalFunction.coerce(entry, n)
        expected[h] = total
    assert cartan_differential(model, x) == EquivariantElement(model, expected)


def test_tensor_product_integration_is_multiplicative():
    from equicart.duality import integrate

    a = builtin("c_alpha(1)")
    model = tensor_product(a, a)
    top = [g for g in model.generators if g.degree == model.top_degree]
    assert len(top) == 1
    value = integrate(model, element(model, {top[0].name: 1}))
    assert value == Polynomial.one(1) or value == Fraction(1)


def test_weighted_plane_thom_class_restricts_to_the_euler_class():
    for spec in ["c_alpha(1)", "c_alpha(3)", "c_alpha(1,0;0,1)", "c_alpha(1;1)"]:
        model = builtin(spec)
        origin = model.fixed_points[0]
        assert origin.restrictions["thom"] == euler_linear(origin.tangent)


def test_weighted_plane_hilbert_shifts_with_total_weight_count():
    assert cohomology_hilbert(builtin("c_alpha(1)"), 4) == [0, 0, 1, 0, 1]
    assert cohomology_hilbert(builtin("c_alpha(1;1)"), 6) == [0, 0, 0, 0, 1, 0, 1]


# -- serialization ----------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_save_load_save_is_byte_identical(name, tmp_path):
    model = builtin(name)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(model, first)
    reloaded = load_model(first)
    assert reloaded == model
    save_model(reloaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_saved_file_is_sorted_json_with_schema_version(tmp_path):
    path = tmp_path / "m.json"
    save_model(s2_rotation(), path)
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1
    assert path.read_text() == json.dumps(data, sort_keys=True, indent=2) + "\n"


def _export_script():
    script = Path(__file__).resolve().parent.parent / "scripts" / "export_builtin_models.py"
    spec = importlib.util.spec_from_file_location("export_builtin_models", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_shipped_model_files_are_what_the_export_script_writes(tmp_path):
    # the script regenerates modelfiles/; written here into tmp_path, every
    # file must equal the shipped one byte for byte
    _export_script().export(str(tmp_path))
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in MODELFILES.glob("*.json")) == list(SHIPPED)
    for name in written:
        assert (tmp_path / name).read_bytes() == (MODELFILES / name).read_bytes(), name


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--typo"], 2), (["out"], 2)])
def test_the_export_script_takes_no_arguments_and_then_writes_nothing(
    capsys, monkeypatch, argv, code
):
    module = _export_script()
    monkeypatch.setattr(module, "export", lambda out_dir: pytest.fail("export ran"))
    with pytest.raises(SystemExit) as exit_info:
        module.main(argv)
    assert exit_info.value.code == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err).startswith("usage: ")


def test_declared_zero_products_survive_round_trip(tmp_path):
    from equicart.gcomplex import MissingProductError

    path = tmp_path / "m.json"
    save_model(s2_rotation(), path)
    model = load_model(path)
    # (s, s) is declared zero: multiplying must succeed and give zero
    s = element(model, {"s": 1})
    assert element_product(model, s, s).is_zero
    # (t, q) is genuinely absent: multiplying must still raise
    with pytest.raises(MissingProductError):
        element_product(model, element(model, {"t": 1}), element(model, {"q": 1}))


def test_map_round_trip_with_self_and_builtin_endpoints(tmp_path):
    path = tmp_path / "m.json"
    sphere = s2_rotation()
    maps = {
        "identity": builtin_map("s2_identity"),
        "north": builtin_map("s2_north_inclusion"),
    }
    # re-anchor the maps on the model instance being saved
    from equicart.gysin import ModelMap

    anchored = {
        "identity": ModelMap(
            name="identity", source=sphere, target=sphere,
            pullback=maps["identity"].pullback,
        ),
        "north": ModelMap(
            name="north", source=builtin("point(1)"), target=sphere,
            pullback=maps["north"].pullback,
        ),
    }
    save_model(sphere, path, maps=anchored)
    loaded = load_model_file(path)
    assert loaded.model == sphere
    assert set(loaded.maps) == {"identity", "north"}
    north = loaded.maps["north"]
    assert north.source == builtin("point(1)")
    assert north.target == loaded.model
    assert validate_map(north).ok
    # and the file itself is stable under a second save
    second = tmp_path / "n.json"
    save_model(loaded.model, second, maps=loaded.maps)
    assert path.read_bytes() == second.read_bytes()


def test_foreign_map_endpoints_are_rejected_at_save_time():
    from equicart.gysin import identity_map

    stranger = tensor_product(builtin("c_alpha(1)"), builtin("c_alpha(2)"))
    with pytest.raises(ValueError):
        model_to_dict(s2_rotation(), maps={"bad": identity_map(stranger)})


def test_resolve_model_selectors(tmp_path):
    path = tmp_path / "m.json"
    save_model(builtin("circle_free"), path)
    assert resolve_model(str(path)) == builtin("circle_free")
    assert resolve_model("builtin:circle_free") == builtin("circle_free")
    with pytest.raises(UnknownModelError):
        resolve_model("builtin:no_such_model")
    # a bare name is a path; a missing path surfaces as the usual OS error
    with pytest.raises(FileNotFoundError):
        resolve_model("no_such_model_or_file")


# -- rejection of defective files ---------------------------------------------------


def _expect_rejection(filename: str, *needles: str):
    with pytest.raises(ModelFileError) as info:
        load_model_file(FIXTURES / filename)
    message = str(info.value)
    for needle in needles:
        assert needle in message, f"{needle!r} not in {message!r}"


def test_rejects_broken_differential():
    _expect_rejection("broken_d_squared.json", "d o d = 0", "1*b")


def test_rejects_broken_anticommutation():
    _expect_rejection("broken_anticommute.json", "d o c + c o d = 0")


def test_rejects_unknown_schema_version():
    _expect_rejection("broken_schema_version.json", "schema_version")


def test_rejects_malformed_json_with_position():
    _expect_rejection("broken_parse.json", ":2:11")


def test_rejects_invalid_map():
    _expect_rejection("broken_map.json", "pullback")


def test_rejects_duplicate_matrix_entries():
    _expect_rejection("broken_duplicate_entry.json", "duplicate")


def test_missing_file_surfaces_as_file_not_found():
    with pytest.raises(FileNotFoundError):
        load_model_file(FIXTURES / "no_such_file.json")


_DROP = object()


def _edit(document, path, value):
    """Set the item at path (object keys and list positions) to value, or
    remove it for _DROP."""
    *parents, last = path
    node = document
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value


# (shipped file, path, value) of one malformed edit each
MALFORMED = {
    "string index in a pullback": (
        "point_with_s2_maps.json", ("maps", "north", "pullback", 1, 1), "x"),
    "string index in product_table": ("s2_rotation.json", ("product_table", 1, 1), "x"),
    "string index in named_cocycles": (
        "s2_rotation.json", ("named_cocycles", "w", 0, 0), "x"),
    "fixed point without a name": ("s2_rotation.json", ("fixed_points", 0, "name"), _DROP),
    "maps a list": ("s2_rotation.json", ("maps",), [1]),
    "contractions a number": ("s2_rotation.json", ("contractions",), 5),
    "weight multiplicity 0": (
        "s2_rotation.json", ("fixed_points", 0, "tangent", "weights", 0, 1), 0),
    # the truncated (0, 1) -> {1: 1} is circle_free's own entry
    "float index in product_table": (
        "circle_free.json", ("product_table", 1), [0, 1.7, [[1.2, "1"]]]),
    "duplicate pullback entry": (
        "point_with_s2_maps.json", ("maps", "north", "pullback"),
        [[0, 0, "1"], [0, 1, "1"], [0, 1, "1"]]),
    # flags and names are read as they are, never through bool() or str()
    "compact a string": ("circle_free.json", ("compact",), "false"),
    "compact a number": ("circle_free.json", ("compact",), 0),
    "model name a number": ("circle_free.json", ("name",), 7),
    "generator name a number": ("circle_free.json", ("generators", 1, "name"), 1),
    "note a number": ("circle_free.json", ("notes", 0), 3),
    "fixed point name a list": ("s2_rotation.json", ("fixed_points", 0, "name"), ["north"]),
    "proper a string": ("point_with_s2_maps.json", ("maps", "north", "proper"), "true"),
}
# malformed files that are not a shipped file with one edit
RAW = {
    "not UTF-8": b'{"name": "\xff"}',
    "integer too long to convert": b'{"schema_version": 1' + b"0" * 5000 + b"}",
    "nesting too deep": b"[" * 100000 + b"]" * 100000,
}
PROBES = sorted(MALFORMED) + sorted(RAW)


def _write_malformed(tmp_path, probe: str) -> Path:
    path = tmp_path / "malformed.json"
    if probe in RAW:
        path.write_bytes(RAW[probe])
        return path
    name, where, value = MALFORMED[probe]
    document = json.loads((MODELFILES / name).read_text())
    _edit(document, where, value)
    path.write_text(json.dumps(document))
    return path


@pytest.mark.parametrize("probe", PROBES)
def test_a_malformed_file_is_a_model_file_error(probe, tmp_path):
    with pytest.raises(ModelFileError):
        load_model_file(_write_malformed(tmp_path, probe))


@pytest.mark.parametrize("probe", PROBES + ["a directory"])
def test_the_cli_refuses_a_malformed_file_with_a_typed_error(probe, tmp_path, capsys):
    path = tmp_path if probe == "a directory" else _write_malformed(tmp_path, probe)
    code = run(["validate", "--model", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    if probe == "a directory":
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: ")
    else:
        payload = json.loads(out)
        assert (code, err, payload["ok"]) == (2, "", False)
        assert payload["error"].startswith(str(path))


def _nodes(node, path=()):
    """(path, value) of every item below node."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


WRONG_TYPES = (None, True, 2.5, "x", [], {}, 3)


@seed(20261018)
@settings(max_examples=40)
@given(data=st.data())
def test_a_mutated_shipped_file_loads_or_is_refused(data, tmp_path_factory):
    document = json.loads((MODELFILES / data.draw(st.sampled_from(SHIPPED))).read_text())
    nodes = list(_nodes(document))
    kind = data.draw(st.sampled_from(["drop", "retype", "duplicate", "out of range"]))
    if kind == "duplicate":
        lists = [(p, v) for p, v in nodes if isinstance(v, list) and v]
        path, value = data.draw(st.sampled_from(lists))
        value.append(copy.deepcopy(data.draw(st.sampled_from(value))))
    elif kind == "out of range":
        ints = [(p, v) for p, v in nodes if type(v) is int]
        path, _ = data.draw(st.sampled_from(ints))
        _edit(document, path, data.draw(st.sampled_from([-1, 1000])))
    else:
        path, value = data.draw(st.sampled_from(nodes))
        if kind == "drop":
            _edit(document, path, _DROP)
        else:
            others = [v for v in WRONG_TYPES if type(v) is not type(value)]
            _edit(document, path, data.draw(st.sampled_from(others)))
    target = tmp_path_factory.getbasetemp() / "mutated.json"
    target.write_text(json.dumps(document))
    try:
        load_model_file(target)
    except (ModelFileError, UnknownModelError):
        pass
