"""Spans and counters around equicart's public functions, recorded from the
benchmark's own code.

``Tracer.install()`` replaces every binding of a traced function, in every
loaded ``equicart`` module and class namespace, with a wrapper; for example
``rank_and_solve`` is bound in ``algebra``, ``gcomplex``, ``duality``,
``gysin`` and the package itself, and all of those bindings are wrapped.
``uninstall()`` puts the originals back.

A span records its name, start, end, parent span and query id; spans stay
in memory until ``summary()`` and ``dump()`` at the end of the run.  The
innermost kernels (polynomial multiplication, gcd, rational-function
normalisation) run hundreds of thousands of times per query, so they only
count calls and record no span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

# module -> public functions that get a span, named "<module>.<function>"
SPANNED = {
    "algebra": (
        "rank_and_solve", "rank_rational", "solve_rational",
        "smith_normal_form", "invariant_factors", "generic_specialized_rank",
    ),
    "gcomplex": ("validate_model", "cohomology_generic", "cohomology_hilbert"),
    "duality": ("pairing_matrix", "duality_check", "classify_rank1", "presentation_from_model"),
    "gysin": (
        "gysin_localized", "pullback_cohomology", "adjunction_residuals",
        "projection_formula_check", "restrict_subtorus",
    ),
    "euler": ("localize_integral", "localization_consistency"),
    "models": ("builtin", "tensor_product", "load_model"),
    "cli": ("run",),
}

# name -> (class in equicart.algebra or None for the module, attribute):
# call counts only
COUNTED = {
    "algebra.poly_gcd": (None, "poly_gcd"),
    "algebra.RationalFunction.new": ("RationalFunction", "__init__"),
    "algebra.Polynomial.mul": ("Polynomial", "__mul__"),
}

# Functions a workload calls directly as a query; they also report `.failed`.
ENTRY_POINTS = (
    "gcomplex.validate_model", "gcomplex.cohomology_generic", "gcomplex.cohomology_hilbert",
    "duality.pairing_matrix", "duality.duality_check", "duality.classify_rank1",
    "gysin.gysin_localized", "gysin.projection_formula_check",
    "euler.localize_integral", "euler.localization_consistency", "cli.run",
)


def span_names() -> List[str]:
    return [f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns]


def per_layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in ENTRY_POINTS:
            units[f"{name}.failed"] = "count"
    units["algebra.rank_and_solve.cells"] = "count"
    units["gcomplex.cohomology_generic.reuse"] = "ratio"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def _namespaces():
    """Every loaded equicart module and the classes defined in them."""
    for modname, module in list(sys.modules.items()):
        if modname == "equicart" or modname.startswith("equicart."):
            yield module.__dict__, lambda k, v, m=module: setattr(m, k, v)
            for obj in list(vars(module).values()):
                if isinstance(obj, type) and obj.__module__ == modname:
                    yield obj.__dict__, lambda k, v, c=obj: setattr(c, k, v)


class Tracer:
    """One traced pass.  Not thread-safe: the benchmark is single-threaded."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, query id, raised]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.query_id = ""
        self.counts: Counter = Counter()
        self.cells = 0
        self._generic_keys: set = set()
        self._generic_models: list = []  # keep models alive so ids stay unique
        self._patched: List[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.query_id, False])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[index][5] = True
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_cells(self, matrix, *_args, cols=None, **_kwargs) -> None:
        rows = len(matrix)
        self.cells += rows * (len(matrix[0]) if rows else (cols or 0))

    def _note_model(self, model, *_args, **_kwargs) -> None:
        self._generic_models.append(model)
        self._generic_keys.add((self.query_id, id(model)))

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        algebra = sys.modules["equicart.algebra"]
        notes = {
            "algebra.rank_and_solve": self._note_cells,
            "gcomplex.cohomology_generic": self._note_model,
        }
        wrappers = {}
        for mod, fns in SPANNED.items():
            module = sys.modules[f"equicart.{mod}"]
            for fn in fns:
                name, original = f"{mod}.{fn}", getattr(module, fn)
                wrappers[id(original)] = self._spanned(name, original, notes.get(name))
        for name, (cls, attr) in COUNTED.items():
            owner = getattr(algebra, cls) if cls else algebra
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            wrappers[id(original)] = self._counted(name, original)
        for namespace, assign in _namespaces():
            for key, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((assign, key, value))
                    assign(key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            assign, key, value = self._patched.pop()
            assign(key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Duration of each span minus the time its direct children cover
        (spans nest and do not overlap in a single thread)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, failed_by_entry: Dict[str, int]) -> Dict[str, float]:
        """Per-layer metrics for the traced pass (overhead added by caller)."""
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            calls[s[0]] += 1
            self_s[s[0]] += own
        out: Dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            if name in ENTRY_POINTS:
                out[f"{name}.failed"] = failed_by_entry.get(name, 0)
        out["algebra.rank_and_solve.cells"] = self.cells
        generic_calls = calls["gcomplex.cohomology_generic"]
        out["gcomplex.cohomology_generic.reuse"] = (
            len(self._generic_keys) / generic_calls if generic_calls else 1.0
        )
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        return out

    def calls_by_query(self) -> Dict[str, Dict[str, int]]:
        """For each query id, how often each spanned function ran inside it."""
        table: Dict[str, Counter] = defaultdict(Counter)
        for s in self.spans:
            table[s[4]][s[0]] += 1
        return {q: dict(c) for q, c in table.items()}

    def dump(self, path: str, labels: Optional[Dict[str, str]] = None) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "query", "raised"],
                    "queries": labels or {},
                    "spans": [
                        [s[0], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], s[4], s[5]]
                        for s in self.spans
                    ],
                },
                fh,
            )
