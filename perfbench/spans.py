"""Layer tracing from outside the package.

``install()`` wraps each layer's public functions with span recorders.
``from .x import y`` copies the reference, so a function is replaced in
every loaded ``bibounds`` namespace that holds it, and methods are replaced
on their class, each alias (``__radd__`` and ``__add__``) on its own.
``QComplex`` arithmetic is counted, not spanned: it runs millions of times
and a span each would swamp what it measures.

Spans live in memory as compact columns (name, start, end, parent) and are
reduced once, at the end: a span's self time is its duration minus the
durations of its direct children, which tile it because calls nest.
Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# Module-level functions per layer.  The four private ``bounds`` helpers are
# called across the layer boundary by ``harness``; wrapping them keeps that
# time in ``bounds``.
FUNCTIONS = {
    "classes": (
        "functional", "sample_caratheodory", "triple", "inverse_triple",
        "expansion_f", "expansion_g", "invert_schlicht", "subordinate_compose",
        "caratheodory_kernel", "target_preset",
    ),
    "solver": (
        "linked_b1", "sigma_tilde", "elimination_denominator", "rhs_pair",
        "eliminate", "solve_forward", "consistency_residual", "implied_b2",
    ),
    "bounds": (
        "theorem_pair", "printed_sigma", "derived_sigma", "printed_a2_bound",
        "printed_a3_bound", "pm_display_variant_a2_bound", "generic_a2_bound",
        "generic_a3_bound", "report", "audit", "reduction_table",
        "_printed_a2_sq", "_generic_a2_sq", "_printed_a3_value",
        "_generic_a3_value",
    ),
    "harness": (
        "sweep_a2", "sweep_a3", "check_bounds_random", "end_to_end",
        "run_identity_suites",
    ),
    "cli": ("main", "render_json"),
}

# (module, class) -> {method: span name}.
METHODS = {
    ("classes", "MindaTarget"): {"series": "classes.target_series"},
    ("classes", "SchlichtCoeffs"): {"series": "classes.schlicht_series"},
    ("solver", "PairSpec"): {
        "triple_f": "solver.triple_f",
        "triple_g_inverse": "solver.triple_g_inverse",
        "swapped": "solver.swapped",
    },
}

# TruncatedSeries methods; the span name gets the series mode appended.
SERIES_METHODS = {
    "__add__": "series.add", "__radd__": "series.add",
    "__sub__": "series.sub", "__rsub__": "series.sub",
    "__neg__": "series.neg",
    "__mul__": "series.mul", "__rmul__": "series.mul",
    "__truediv__": "series.div", "__rtruediv__": "series.div",
    "derivative": "series.derivative",
    "shift_up": "series.shift", "shift_down": "series.shift",
    "compose": "series.compose",
    "pow_unit": "series.pow_unit",
    "revert": "series.revert",
    "truncated": "series.truncated",
    "agrees_with": "series.agrees_with",
}

QCOMPLEX_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "abs2",
)

# Span names that belong to no module function: how to name a function span.
_FUNCTION_SPAN = {
    ("harness", "sweep_a2"): "harness.sweep",
    ("harness", "sweep_a3"): "harness.sweep",
    ("harness", "check_bounds_random"): "harness.random_check",
    ("harness", "run_identity_suites"): "harness.suites",
    ("classes", "sample_caratheodory"): "classes.sample",
    ("cli", "main"): "cli",
}


class Tracer:
    """In-memory span store plus the QComplex op counter."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.qcomplex_ops = 0
        self._originals: list[tuple] = []  # (owner, attribute, original)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, choose_id):
        """Span recorder around fn; choose_id(args) picks the span name id."""
        name, start, end, parent, stack = (
            self.name, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            name.append(choose_id(args))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            self.qcomplex_ops += 1
            return fn(*args)

        return wrapper

    def _replace(self, owner, attr, original, wrapped):
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self):
        """Wrap every traced function, method and QComplex operator."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "bibounds" or key.startswith("bibounds.")]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"bibounds.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                span = _FUNCTION_SPAN.get(
                    (layer, attr), f"{layer}.{attr.lstrip('_')}")
                nid = self.name_id(span)
                wrapped = self._wrap(original, lambda args, nid=nid: nid)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, original, wrapped)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"bibounds.{layer}"], cls_name)
            for attr, span in methods.items():
                nid = self.name_id(span)
                original = cls.__dict__[attr]
                self._replace(cls, attr, original,
                              self._wrap(original, lambda args, nid=nid: nid))
        series = sys.modules["bibounds.series"]
        for attr, span in SERIES_METHODS.items():
            ids = {mode: self.name_id(f"{span}:{mode}")
                   for mode in (series.EXACT, series.FLOAT)}
            original = series.TruncatedSeries.__dict__[attr]
            self._replace(series.TruncatedSeries, attr, original, self._wrap(
                original, lambda args, ids=ids: ids[args[0].mode]))
        for attr in QCOMPLEX_METHODS:
            original = series.QComplex.__dict__[attr]
            self._replace(series.QComplex, attr, original, self._counted(original))

    def uninstall(self):
        """Put back everything ``install`` replaced; spans and counts stay."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def reduce(self) -> dict:
        """Per span name: {"calls": n, "self_s": seconds}."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i in range(count):
            entry = totals[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - child[i]
        return dict(totals)


def layer_metrics(totals: dict, qcomplex_ops: int, rounds: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, per round of the op list."""

    def pick(match):
        hits = [v for k, v in totals.items() if match(k)]
        return (sum(v["self_s"] for v in hits) / rounds,
                sum(v["calls"] for v in hits) / rounds)

    def exact_name(name):
        return lambda k: k == name

    def prefix(text):
        return lambda k: k.startswith(text)

    def mode(text):
        return lambda k: k.startswith("series.") and k.endswith(":" + text)

    out = {}
    for label, match in (("series.exact", mode("exact")),
                         ("series.float", mode("float"))):
        self_s, calls = pick(match)
        out[f"{label}.self_s"] = (self_s, "s")
        out[f"{label}.calls"] = (calls, "count")
    out["scalar.qcomplex.ops"] = (qcomplex_ops / rounds, "count")
    for op in ("mul", "div", "compose", "pow_unit", "revert"):
        out[f"series.{op}.self_s"] = (pick(prefix(f"series.{op}:"))[0], "s")
    self_s, calls = pick(exact_name("classes.functional"))
    out["classes.functional.self_s"] = (self_s, "s")
    out["classes.functional.calls"] = (calls, "count")
    out["classes.sample.self_s"] = (pick(exact_name("classes.sample"))[0], "s")
    out["classes.triple.calls"] = (pick(exact_name("classes.triple"))[1], "count")
    self_s, calls = pick(prefix("solver."))
    out["solver.self_s"] = (self_s, "s")
    out["solver.calls"] = (calls, "count")
    out["bounds.self_s"] = (pick(prefix("bounds."))[0], "s")
    out["bounds.report.calls"] = (pick(exact_name("bounds.report"))[1], "count")
    drawn = pick(exact_name("solver.implied_b2"))[1]
    kept = pick(exact_name("solver.eliminate"))[1]
    out["solver.accept_ratio"] = (kept / drawn if drawn else 0.0, "ratio")
    for span in ("harness.sweep", "harness.random_check", "harness.end_to_end",
                 "harness.suites"):
        out[f"{span}.self_s"] = (pick(exact_name(span))[0], "s")
    out["cli.self_s"] = (pick(exact_name("cli"))[0], "s")
    out["cli.render_json.self_s"] = (pick(exact_name("cli.render_json"))[0], "s")
    return out
