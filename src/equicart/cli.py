"""Command-line front end: every library operation behind one subcommand.

Exit codes: 0 success, 1 usage or domain-precondition error (diagnostic on
standard error), 2 a validation or consistency check failed (report still
printed on standard output in the requested format), 3 an internal fault
(an untyped ValueError, or an AssertionError from one of the library's
internal consistency checks; "internal error: ..." on standard error).

Output formats: `--format text` (default, human-readable) and `--format
json` (stable schema, sorted keys, two-space indent, one trailing newline —
identical invocations produce byte-identical output).  Every check is exact:
`classify --matrix` compares its Smith normal form's rank with the rank over
Q(u) from the echelon core, and no check draws random points.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import duality, euler, gcomplex, gysin, models
from .algebra import Echelon, Polynomial, RationalFunction, matmul, smith_normal_form

TORSION_GYSIN_NOTE = (
    "target has torsion equivariant cohomology: the localized Gysin matrix "
    "is zero-dimensional, and no integral Gysin morphism is determined by "
    "the adjunction; refusing to print a misleading zero map"
)


class UsageError(ValueError):
    """Raised for malformed invocations; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns the codes."""

    def error(self, message):
        raise UsageError(message)


# -- small parsers ----------------------------------------------------------


def _parse_int_matrix(spec: str, what: str) -> List[List[int]]:
    """Rows split on ';', entries on ','.  Empty rows are allowed (used for
    rank-0 restriction matrices)."""
    rows = []
    for row_text in spec.split(";"):
        row_text = row_text.strip()
        if not row_text:
            rows.append([])
            continue
        try:
            rows.append([int(x) for x in row_text.split(",")])
        except ValueError as exc:
            raise UsageError(f"bad {what} entry in {row_text!r}: {exc}") from exc
    return rows


_TERM_PATTERN = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(u(?:\^(\d+))?)?$")


def _parse_poly1(text: str) -> Polynomial:
    """Univariate polynomial in u with rational coefficients, e.g.
    'u^2+3/2u-1'."""
    compact = text.replace(" ", "")
    if not compact:
        raise UsageError("empty polynomial")
    terms: Dict[tuple, Fraction] = {}
    chunks = compact.replace("-", "+-").split("+")
    for chunk in chunks:
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk[0] == "-":
            sign = Fraction(-1)
            chunk = chunk[1:]
        match = _TERM_PATTERN.match(chunk)
        if not match or (match.group(1) is None and match.group(2) is None):
            raise UsageError(f"cannot parse polynomial term {chunk!r}")
        try:
            coeff = Fraction(match.group(1)) if match.group(1) else Fraction(1)
        except ZeroDivisionError as exc:
            raise UsageError(f"bad coefficient in {chunk!r}: {exc}") from exc
        exp = 0
        if match.group(2):
            exp = int(match.group(3)) if match.group(3) else 1
        key = (exp,)
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff
    return Polynomial(1, terms)


def _parse_poly_matrix(spec: str) -> List[List[Polynomial]]:
    rows = []
    for row_text in spec.split(";"):
        entries = [e for e in row_text.split(",")]
        rows.append([_parse_poly1(e) for e in entries])
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise UsageError("ragged matrix: all rows need the same number of entries")
    return rows


def _parse_element(model, spec: str):
    """Comma-separated generator terms 'name' or 'name:coeff'."""
    terms = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, raw = chunk.partition(":")
        try:
            coeff = Fraction(raw) if raw else Fraction(1)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad coefficient in {chunk!r}: {exc}") from exc
        try:
            idx = model.generator_index(name.strip())
        except KeyError as exc:
            raise UsageError(exc.args[0]) from exc
        terms[idx] = terms.get(idx, Fraction(0)) + coeff
    if not terms:
        raise UsageError("empty element specification")
    return gcomplex.element(model, terms)


def _resolve_map(selector: str, table: Dict[str, gysin.ModelMap]):
    """(map, report): 'builtin:NAME' from the shared builtin table with no
    report, or 'PATH#NAME' from a model file's maps section with the report
    the loader computed."""
    if selector.startswith("builtin:"):
        name = selector[len("builtin:"):]
        if name not in table:
            raise UsageError(
                f"unknown builtin map {name!r}; available: "
                + ", ".join(models.builtin_map_names())
            )
        return table[name], None
    path, sep, name = selector.partition("#")
    if not sep:
        raise UsageError(
            "map selector must be 'builtin:NAME' or 'PATH#NAME'"
        )
    mf = models.load_model_file(path)
    if name not in mf.maps:
        raise UsageError(
            f"file {path!r} has no map {name!r}; available: "
            + ", ".join(sorted(mf.maps))
        )
    return mf.maps[name], mf.map_reports[name]


# -- rendering ----------------------------------------------------------------


def _format_element(x) -> str:
    if x.is_zero:
        return "0"
    parts = []
    for idx in sorted(x.terms):
        coeff = x.terms[idx]
        name = x.model.generators[idx].name
        parts.append(f"({coeff})*{name}")
    return " + ".join(parts)


def _matrix_strings(matrix) -> List[List[str]]:
    return [
        [str(matrix[(i, j)]) for j in range(matrix.cols)]
        for i in range(matrix.rows)
    ]


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, list):
        return "[" + ", ".join(_render_scalar(v) for v in value) + "]"
    return str(value)


def _render_text(payload: dict, indent: int = 0) -> List[str]:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and all(
            isinstance(v, dict) for v in value
        ):
            lines.append(f"{pad}{key}:")
            for v in value:
                lines.extend(_render_text(v, indent + 1))
                lines.append("")
            lines.pop()
        else:
            lines.append(f"{pad}{key}: {_render_scalar(value)}")
    return lines


def _emit(fmt: str, payload: dict) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(payload)))


# -- subcommand handlers --------------------------------------------------------


def _cmd_validate(args) -> Tuple[int, dict]:
    if args.model.startswith("builtin:"):
        model = models.builtin(args.model[len("builtin:"):])
        report, map_reports = gcomplex.validate_model(model), {}
    else:
        loaded = models.load_model_file(args.model)
        model, report, map_reports = loaded.model, loaded.report, loaded.map_reports
    payload = {
        "model": model.name,
        "ok": report.ok,
        "issues": [
            {"axiom": i.axiom, "where": i.where, "witness": i.witness}
            for i in report.issues
        ],
    }
    if map_reports:
        # the reports of the maps the loader validated (and accepted)
        payload["maps"] = {name: {"ok": map_reports[name].ok} for name in sorted(map_reports)}
    return (0 if report.ok else 2), payload


def _cutoff(args, model) -> int:
    cutoff = args.cutoff if args.cutoff is not None else model.default_cutoff()
    if cutoff < 0:
        raise UsageError("cutoff must be >= 0")
    return cutoff


def _cmd_cohomology(args) -> Tuple[int, dict]:
    model = models.resolve_model(args.model)
    cutoff = _cutoff(args, model)
    comparison = gcomplex.predict_free_hilbert(model, cutoff)
    generic = gcomplex.cohomology_generic(model)
    payload = {
        "model": model.name,
        "cutoff": cutoff,
        "hilbert": list(comparison.actual),
        "generic": {
            "even_rank": generic.even_rank,
            "odd_rank": generic.odd_rank,
            "representatives": {
                name: _format_element(el) for name, el in generic.representatives
            },
        },
        "free_prediction": {
            "predicted": list(comparison.predicted),
            "actual": list(comparison.actual),
            "matches": comparison.matches,
            "flag": comparison.flag,
        },
    }
    if args.underlying:
        payload["underlying_dims"] = gcomplex.underlying_cohomology_dims(model)
    return 0, payload


def _cmd_classify(args) -> Tuple[int, dict]:
    if args.matrix is not None:
        return _classify_matrix(args)
    if args.model is None:
        raise UsageError("classify needs --model or --matrix")
    model = models.resolve_model(args.model)
    classification = duality.classify_rank1(model)
    ext = classification.dual
    cutoff = _cutoff(args, model)
    implied = classification.implied_hilbert(cutoff)
    actual = gcomplex.cohomology_hilbert(model, cutoff)
    payload = {
        "model": model.name,
        "summary": str(classification),
        "free_rank": classification.free_rank,
        "free_degrees": list(classification.free_degrees),
        "torsion": [
            {"divisor": str(p), "from_degree": b}
            for p, b in zip(classification.divisors, classification.torsion_degrees)
        ],
        "implied_hilbert": implied,
        "hilbert_agrees": implied == actual,
        "dual": {
            "hom_degrees": list(ext.ext0.free_degrees),
            "hom_vanishes": ext.dual_hom_vanishes,
            "ext1": [
                {"divisor": str(p), "twist": t} for p, t in ext.ext1
            ],
        },
    }
    return (0 if implied == actual else 2), payload


def _classify_matrix(args) -> Tuple[int, dict]:
    matrix = _parse_poly_matrix(args.matrix)
    u_mat, d_mat, v_mat = smith_normal_form(matrix)
    # the parser never yields an empty matrix (see "cols" below)
    diagonal = [d_mat[i][i] for i in range(min(len(d_mat), len(d_mat[0])))]
    factors = [entry for entry in diagonal if not entry.is_zero]
    zero = Polynomial.zero(1)
    product = matmul(matmul(u_mat, matrix, zero), v_mat, zero)
    uav_ok = all(
        product[i][j] == d_mat[i][j]
        for i in range(len(d_mat))
        for j in range(len(d_mat[0]) if d_mat else 0)
    )
    echelon = Echelon(len(matrix[0]), torus_rank=1)  # the rank over Q(u)
    for row in matrix:
        echelon.add_row(row)
    ranks_agree = echelon.rank == len(factors)
    payload = {
        "rows": len(matrix),
        "cols": len(matrix[0]),
        "invariant_factors": [str(p) for p in factors],
        "diagonal": [str(entry) for entry in diagonal],
        "checks": {
            "uav_equals_d": uav_ok,
            "snf_rank": len(factors),
            "generic_rank": echelon.rank,
            "ranks_agree": ranks_agree,
        },
    }
    return (0 if (uav_ok and ranks_agree) else 2), payload


def _cmd_pairing(args) -> Tuple[int, dict]:
    model = models.resolve_model(args.model)
    pairing = duality.pairing_matrix(model)
    payload = {
        "model": model.name,
        "basis": list(pairing.names),
        "matrix": _matrix_strings(pairing.matrix),
        "rank": duality.duality_check(model).pairing_rank,
    }
    return 0, payload


def _cmd_duality(args) -> Tuple[int, dict]:
    model = models.resolve_model(args.model)
    report = duality.duality_check(model)
    payload = {
        "model": model.name,
        "pairing_rank": report.pairing_rank,
        "generic_betti_total": report.generic_betti_total,
        "perfect": report.perfect,
        "is_torsion": duality.is_torsion(model),
    }
    return (0 if report.perfect else 2), payload


def _cmd_gysin(args) -> Tuple[int, dict]:
    table = models.builtin_maps()
    f, report = _resolve_map(args.map, table)
    if args.compose:
        second, _ = _resolve_map(args.compose, table)
        f, report = gysin.compose_maps(second, f), None
    if report is None:  # a file map arrives with the report the loader computed
        report = gysin.validate_map(f)
    payload = {
        "map": f.name,
        "source": f.source.name,
        "target": f.target.name,
        "map_ok": report.ok,
    }
    if not report.ok:
        payload["issues"] = [
            {"law": i.law, "where": i.where, "witness": i.witness}
            for i in report.issues
        ]
        return 2, payload
    pullback = gysin.pullback_cohomology(f)
    payload["pullback_matrix"] = _matrix_strings(pullback)
    if duality.is_torsion(f.target):
        payload["note"] = TORSION_GYSIN_NOTE
        payload["gysin_shape"] = [0, pullback.rows]
        return 0, payload
    g = gysin.gysin_localized(f)
    projection = gysin.projection_formula_check(f)
    payload["gysin"] = {
        "source_basis": list(g.source_basis),
        "target_basis": list(g.target_basis),
        "matrix": _matrix_strings(g.matrix),
        "degree_shift": g.degree_shift,
    }
    payload["checks"] = {
        "adjunction_residuals_zero": True,  # enforced inside gysin_localized
        "projection_formula": projection.ok,
    }
    return (0 if projection.ok else 2), payload


def _cmd_thom(args) -> Tuple[int, dict]:
    model = models.resolve_model(args.model)
    phi = _parse_element(model, args.top)
    try:
        extended = gysin.thom_extend(model, phi)
    except gysin.ObstructionError as exc:
        payload = {
            "model": model.name,
            "input": _format_element(phi),
            "ok": False,
            "obstructed_at_degree": exc.component_degree,
            "detail": str(exc),
        }
        return 2, payload
    residual = gcomplex.cartan_differential(model, extended)
    payload = {
        "model": model.name,
        "input": _format_element(phi),
        "extension": _format_element(extended),
        "total_degree": extended.total_degree(),
        "closed": residual.is_zero,
        "ok": residual.is_zero,
    }
    return (0 if residual.is_zero else 2), payload


def _representation(rank: int, weights, trivial: int = 0):
    """The representation with these weights; the checks on them are usage
    errors, since the weights come from the command line."""
    try:
        return euler.LinearRepresentation.from_weights(
            rank, [tuple(w) for w in weights], trivial=trivial
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_euler(args) -> Tuple[int, dict]:
    weights = _parse_int_matrix(args.weights, "weight")
    if not weights or any(not row for row in weights):
        raise UsageError("euler needs at least one nonempty weight vector")
    rank = len(weights[0])
    rep = _representation(rank, weights, trivial=args.trivial)
    value = euler.euler_linear(rep)
    payload = {
        "torus_rank": rank,
        "weights": weights,
        "trivial_real_multiplicity": args.trivial,
        "real_dimension": rep.real_dimension,
        "euler": str(value),
    }
    if len(weights) >= 2:
        split = args.split
        if not 0 < split < len(weights):
            raise UsageError("--split must cut the weight list in two")
        inner = _representation(rank, weights[:split])
        outer = _representation(rank, weights[split:], trivial=args.trivial)
        payload["nested_multiplicative"] = euler.nested_euler_check(inner, outer)
    else:
        payload["nested_multiplicative"] = None
    return 0, payload


def _cmd_localize(args) -> Tuple[int, dict]:
    model = models.resolve_model(args.model)
    if args.class_name is not None:
        result = euler.localize_integral(model.fixed_points, args.class_name)
        payload = {
            "model": model.name,
            "class": args.class_name,
            "value": str(result.value),
            "polynomial": result.is_polynomial,
        }
        return 0, payload
    items = euler.localization_consistency(model)
    payload = {
        "model": model.name,
        "classes": [
            {
                "class": item.class_name,
                "localized": str(item.localized),
                "integrated": str(item.integrated),
                "residual": str(item.residual),
                "ok": item.ok,
            }
            for item in items
        ],
        "ok": all(item.ok for item in items),
    }
    return (0 if payload["ok"] else 2), payload


def _cmd_lefschetz(args) -> Tuple[int, dict]:
    if args.dims is not None:
        try:
            dims = [int(x) for x in args.dims.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --dims: {exc}") from exc
        if any(d < 0 for d in dims):
            raise UsageError("dimensions must be >= 0")
        source = args.dims
    elif args.model is not None:
        model = models.resolve_model(args.model)
        dims = gcomplex.underlying_cohomology_dims(model)
        source = model.name
    else:
        raise UsageError("lefschetz needs --model or --dims")
    action = [
        [
            [Fraction(1) if i == j else Fraction(0) for j in range(d)]
            for i in range(d)
        ]
        for d in dims
    ]
    value = euler.lefschetz_number(action)
    payload = {
        "source": source,
        "dims": dims,
        "action": "identity",
        "lefschetz": str(value),
    }
    return 0, payload


def _cmd_restrict(args) -> Tuple[int, dict]:
    model = models.resolve_model(args.model)
    matrix = _parse_int_matrix(args.matrix, "restriction")
    try:
        restricted = gysin.restrict_subtorus(model, matrix)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = gcomplex.validate_model(restricted)
    generic = gcomplex.cohomology_generic(restricted)
    payload = {
        "model": model.name,
        "restricted": restricted.name,
        "torus_rank": restricted.torus_rank,
        "valid": report.ok,
        "generic": {
            "even_rank": generic.even_rank,
            "odd_rank": generic.odd_rank,
        },
    }
    if args.output:
        try:
            models.save_model(restricted, args.output)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc
        payload["saved_to"] = args.output
    return (0 if report.ok else 2), payload


_HANDLERS = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "classify": _cmd_classify,
    "pairing": _cmd_pairing,
    "duality": _cmd_duality,
    "gysin": _cmd_gysin,
    "thom": _cmd_thom,
    "euler": _cmd_euler,
    "localize": _cmd_localize,
    "lefschetz": _cmd_lefschetz,
    "restrict": _cmd_restrict,
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="equicart",
        description="Exact equivariant cohomology workbench for finite "
        "invariant torus models.",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def common(p, model=True, model_required=True, cutoff=False):
        if model:
            p.add_argument(
                "--model",
                required=model_required,
                default=None,
                help="'builtin:NAME' or a path to a model file",
            )
        if cutoff:
            p.add_argument("--cutoff", type=int, default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check all structural axioms")
    common(p)

    p = sub.add_parser("cohomology", help="Hilbert table and generic ranks")
    common(p, cutoff=True)
    p.add_argument("--underlying", action="store_true")

    p = sub.add_parser(
        "classify", help="module decomposition over Q[u], or SNF of a matrix"
    )
    common(p, model_required=False, cutoff=True)
    p.add_argument(
        "--matrix",
        default=None,
        help="polynomial matrix 'u^2,1;0,u' to put in Smith normal form",
    )

    p = sub.add_parser("pairing", help="Poincare pairing on the generic basis")
    common(p)

    p = sub.add_parser("duality", help="pairing rank against generic Betti total")
    common(p)

    p = sub.add_parser("gysin", help="wrong-way matrix solved from adjunction")
    common(p, model=False)
    p.add_argument("--map", required=True, help="'builtin:NAME' or 'PATH#NAME'")
    p.add_argument(
        "--compose",
        default=None,
        help="second map applied after --map; reports the composite",
    )

    p = sub.add_parser("thom", help="extend a closed top form equivariantly")
    common(p)
    p.add_argument(
        "--top",
        required=True,
        help="element spec 'vol' or 'vol:2,tvol:1/2' over the model generators",
    )

    p = sub.add_parser("euler", help="Euler class of a linear representation")
    common(p, model=False)
    p.add_argument("--weights", required=True, help="'1,0;0,1': one vector per ';'")
    p.add_argument("--trivial", type=int, default=0)
    p.add_argument("--split", type=int, default=1)

    p = sub.add_parser("localize", help="fixed-point sums against integration")
    common(p)
    p.add_argument("--class", dest="class_name", default=None)

    p = sub.add_parser("lefschetz", help="alternating trace of a degree action")
    common(p, model_required=False)
    p.add_argument("--dims", default=None, help="'1,0,1': dims per degree")

    p = sub.add_parser("restrict", help="restrict the torus along an integer matrix")
    common(p)
    p.add_argument(
        "--matrix",
        required=True,
        help="n rows ';'-separated, entries ','-separated; '' rows for rank 0",
    )
    p.add_argument("--output", default=None, help="write the restricted model here")

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser, built on first use and reused by every later run():
    parsing leaves it unchanged, and help and usage are formatted per call."""
    return build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handler = _HANDLERS[args.command]
    try:
        code, payload = handler(args)
    except FileNotFoundError as exc:
        print(f"error: no such model file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:  # a model file that exists but cannot be read
        print(f"error: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except models.ModelFileError as exc:
        # a file that fails validation: the report is the message
        _emit(args.format, {"ok": False, "error": str(exc)})
        return 2
    except (
        UsageError,
        models.UnknownModelError,
        duality.NonCompactModelError,
        duality.UnsupportedRankError,
        gcomplex.MissingProductError,
        gcomplex.ModelStructureError,
        gysin.MapStructureError,
        gysin.DecompositionError,
        gysin.ThomInputError,
        euler.FixedPointDataError,
        euler.NonIsolatedFixedPointError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError) as exc:  # no typed refusal: a fault of the library
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    _emit(args.format, payload)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
