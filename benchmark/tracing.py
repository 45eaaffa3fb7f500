"""Spans around the package's public functions, installed from outside.

Each traced function is replaced by a wrapper under every name that refers
to it in every loaded `butterflyshift` module (so `critical.lambda_1` and
`oracle._lambda_1` are traced as well as `spectral.lambda_1`).  Spans are
kept in memory with parent links and written out as JSONL when the run ends;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module, function: the layers the per-layer metrics speak of
TARGETS = (
    ("series", "tail_sum"),
    ("roots", "bisect_log_offset"),
    ("spectral", "lambda_1"),
    ("spectral", "composition_boundary"),
    ("critical", "critical_set"),
    ("critical", "pressure_full"),
    ("critical", "equilibrium_report"),
    ("oracle", "periodic_orbit_pressure"),
    ("oracle", "enumerate_returns_to_1"),
    ("oracle", "enumerate_returns_to_32"),
    ("oracle", "check_Ln"),
    ("oracle", "incidence_entropy"),
    ("model", "build_graph"),
    ("cli", "main"),
)

PACKAGE = "butterflyshift"


def _tail_sum_regime(tracer, i, args, kwargs, result):
    """Name the regime that answered: W = 0 is the zeta value, and of the two
    W > 0 regimes only direct summation reports the terms it used."""
    W = args[1] if len(args) > 1 else kwargs["W"]
    if result.divergent:
        regime = "divergent"
    elif W == 0.0:
        regime = "zeta"
    else:
        regime = "polylog" if result.terms_used == 0 else "direct"
    tracer.name[i] = f"series.tail_sum.{regime}"
    tracer.value[i] = result.terms_used


def _edge_count(tracer, i, args, kwargs, graph):
    tracer.value[i] = len(graph.edges)


HOOKS = {"series.tail_sum": {"after": _tail_sum_regime},
         "model.build_graph": {"after": _edge_count},
         "roots.bisect_log_offset": {"count_evals": True}}


class Tracer:
    """Spans in columns (span i is parent[i], name[i], t0[i], ...): plain
    numbers in lists, so that a long run adds no work to the garbage collector."""

    COLUMNS = ("parent", "name", "t0", "t1", "item", "value")

    def __init__(self):
        for column in self.COLUMNS:
            setattr(self, column, [])
        self._stack = [-1]
        self._item = -1
        self._patched = []

    # -- recording ---------------------------------------------------------

    def run_item(self, index, fn):
        """fn() under an "item" span, the root of the item's other spans."""
        self._item = index
        try:
            return self._wrap("item", fn)()
        finally:
            self._item = -1

    def _wrap(self, label, fn, after=None, count_evals=False):
        """fn with a span around each call; after(tracer, span, args, kwargs,
        result) may rename the span or set its value."""
        tracer, stack, perf = self, self._stack, time.perf_counter
        parent, name, t0, t1, item, value = (getattr(self, c) for c in self.COLUMNS)

        def wrapper(*args, **kwargs):
            i = len(t0)
            parent.append(stack[-1])
            name.append(label)
            item.append(tracer._item)
            value.append(0)
            t1.append(0.0)
            stack.append(i)
            if count_evals:  # the map a root solver evaluates is its first argument
                f = args[0]

                def counted(w):
                    value[i] += 1
                    return f(w)

                args = (counted,) + args[1:]
            t0.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = perf()
                stack.pop()
            if after is not None:
                after(tracer, i, args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            label = "cli" if mod_name == "cli" else f"{mod_name}.{fn_name}"
            wrapper = self._wrap(label, original, **HOOKS.get(label, {}))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, row in enumerate(zip(*(getattr(self, c) for c in self.COLUMNS))):
                fh.write(json.dumps({"id": i, **dict(zip(self.COLUMNS, row))}) + "\n")

    def summary(self):
        """{name: (calls, self seconds, summed value)} over all spans."""
        covered = [0.0] * len(self.t0)
        for p, a, b in zip(self.parent, self.t0, self.t1):
            if p >= 0:
                covered[p] += b - a
        out = defaultdict(lambda: [0, 0.0, 0])
        for n, a, b, c, v in zip(self.name, self.t0, self.t1, covered, self.value):
            entry = out[n]
            entry[0] += 1
            entry[1] += (b - a) - c
            entry[2] += v
        return {k: tuple(v) for k, v in out.items()}


def per_layer_metrics(summary, items):
    """The per-layer metrics, normalised per item (times in ms per item)."""
    def calls(name):
        return summary.get(name, (0, 0.0, 0))[0]

    def ms(*names):
        return 1e3 * sum(summary.get(n, (0, 0.0, 0))[1] for n in names) / items

    def per_call(name):
        c, _, v = summary.get(name, (0, 0.0, 0))
        return v / c if c else 0.0

    m = {}
    for regime in ("polylog", "direct", "zeta"):
        name = f"series.tail_sum.{regime}"
        m[f"{name}.calls_per_item"] = (calls(name) / items, "count")
        m[f"{name}.ms"] = (ms(name), "ms")
    m["series.tail_sum.direct.terms_per_call"] = (per_call("series.tail_sum.direct"), "count")
    name = "roots.bisect_log_offset"
    m[f"{name}.calls_per_item"] = (calls(name) / items, "count")
    m[f"{name}.evals_per_call"] = (per_call(name), "count")
    m[f"{name}.ms"] = (ms(name), "ms")
    for name in ("spectral.lambda_1", "spectral.composition_boundary",
                 "oracle.periodic_orbit_pressure"):
        m[f"{name}.calls_per_item"] = (calls(name) / items, "count")
        m[f"{name}.ms"] = (ms(name), "ms")
    for name in ("critical.critical_set", "critical.pressure_full",
                 "critical.equilibrium_report", "oracle.check_Ln",
                 "oracle.incidence_entropy", "model.build_graph"):
        m[f"{name}.ms"] = (ms(name), "ms")
    m["oracle.enumerate_returns.ms"] = (ms("oracle.enumerate_returns_to_1",
                                           "oracle.enumerate_returns_to_32"), "ms")
    m["model.build_graph.edges_per_item"] = (
        summary.get("model.build_graph", (0, 0.0, 0))[2] / items, "count")
    m["cli.ms"] = (ms("cli"), "ms")
    return m
