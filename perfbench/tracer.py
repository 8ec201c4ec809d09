"""Per-layer tracing of thueff, installed from outside the package.

``Tracer.install()`` replaces each public function of the seven thueff
modules with a wrapper that records a span (name, start, end, parent,
op id).  The wrapper is written into every module namespace that binds
the function, because a caller looks a name up in its own module:
``valuations`` calls the ``quartic_roots`` it imported, not
``laurent.quartic_roots``.  ``uninstall()`` puts every original back.

The hot dunders (``Poly.__mul__``, ``RatFunc`` add and multiply,
``LaurentSeries.__mul__`` and ``inv``) and ``search.budget_cost`` get a
counting wrapper without timestamps, so their time stays in the span
that called them.  Two private names are wrapped for counts the public
functions cannot see: ``search._scan_chunk`` (triples scanned and
survivors) and ``valuations._root_powers`` (the working order of a
valuation).

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time

LAYERS = ("cli", "search", "laurent", "quartic", "valuations", "polynomials", "bounds")

#: (module, class, attribute) -> counter name.  Aliases such as
#: ``__rmul__ = __mul__`` are found by identity and share the counter.
COUNTED_METHODS = {
    ("polynomials", "Poly", "__mul__"): "polynomials.poly_mul",
    ("polynomials", "RatFunc", "__mul__"): "polynomials.ratfunc_mul",
    ("polynomials", "RatFunc", "__add__"): "polynomials.ratfunc_add",
    ("laurent", "LaurentSeries", "__mul__"): "laurent.series_mul",
    ("laurent", "LaurentSeries", "inv"): "laurent.series_inv",
}

#: Public functions too hot for a span: called ~18k times per verify.
COUNTED_FUNCTIONS = {("search", "budget_cost")}

#: Laurent entry points whose ``order`` argument sets ``laurent.max_order``.
ORDER_FUNCTIONS = ("quartic_roots", "hensel_lift", "expand_ratfunc")


def _order_index(fn) -> int:
    return list(inspect.signature(fn).parameters).index("order")


class Tracer:
    """Records spans and counts while installed; aggregates them per op."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.max_order = {"laurent": 0, "valuations": 0}
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, order_keys=(), order_at=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        max_order = self.max_order

        def traced(*args, **kwargs):
            if order_keys:
                order = kwargs["order"] if "order" in kwargs else args[order_at]
                for key in order_keys:
                    if order > max_order[key]:
                        max_order[key] = order
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return self._like(traced, fn)

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return self._like(counted, fn)

    def _scan(self, fn):
        counts = self.counts

        def scan_chunk(payload):
            found = fn(payload)
            counts["search.triples_scanned"] += len(payload[1])
            counts["search.survivors"] += len(found)
            return found

        return self._like(scan_chunk, fn)

    def _root_powers(self, fn):
        max_order = self.max_order

        def root_powers(order):
            if order > max_order["valuations"]:
                max_order["valuations"] = order
            return fn(order)

        return self._like(root_powers, fn)

    @staticmethod
    def _like(wrapper, fn):
        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"thueff.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("thueff"), *modules.values()]

        for (layer, cls_name, attr), counter in COUNTED_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            wrapper = self._count(counter, original)
            for alias, value in list(vars(cls).items()):
                if value is original:
                    self._set(cls, alias, wrapper)

        # original function -> (span name, wrapper kind)
        plan = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                # Functions, and lru_cache wrappers of them; not classes and
                # not callable values such as the polynomial ``LAM``.
                if (
                    name.startswith("_")
                    or not inspect.isfunction(inspect.unwrap(obj))
                    or obj.__module__ != mod.__name__
                ):
                    continue
                plan[obj] = (layer, name)
        search, valuations = modules["search"], modules["valuations"]

        for ns in namespaces:
            ns_layer = ns.__name__.rpartition(".")[2]
            for name, obj in list(vars(ns).items()):
                try:
                    entry = plan.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if entry is None:
                    continue
                layer, fname = entry
                if (layer, fname) in COUNTED_FUNCTIONS:
                    wrapper = self._count(f"{layer}.{fname}", obj)
                elif layer == "laurent" and fname in ORDER_FUNCTIONS:
                    # valuations asks laurent for roots at its working order
                    # (expand_ratfunc gets a fixed margin on top of it).
                    via_valuations = ns_layer == "valuations" and fname == "quartic_roots"
                    keys = ("laurent", "valuations") if via_valuations else ("laurent",)
                    wrapper = self._span(f"{layer}.{fname}", obj, keys, _order_index(obj))
                else:
                    wrapper = self._span(f"{layer}.{fname}", obj)
                self._set(ns, name, wrapper)

        self._set(search, "_scan_chunk", self._scan(search._scan_chunk))
        self._set(valuations, "_root_powers", self._root_powers(valuations._root_powers))

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- aggregation ------------------------------------------------------------

    def take(self) -> dict:
        """Per-name stats for everything recorded since the last call.

        Returns ``{"spans": {name: [calls, self_s]}, "counts": {...},
        "max_order": {...}}`` and resets the recorder.
        """
        if self._stack:
            raise RuntimeError("take() inside an open span")
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, list] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[idx]
        out = {
            "spans": stats,
            "counts": dict(self.counts),
            "max_order": dict(self.max_order),
        }
        self.spans.clear()
        self.counts.clear()
        for key in self.max_order:
            self.max_order[key] = 0
        return out


def merge(samples: list[tuple[dict, float]]) -> dict:
    """Sum per-op ``take()`` results, each op's times multiplied by its
    scale factor; orders take the maximum."""
    spans: dict[str, list] = {}
    counts: collections.Counter = collections.Counter()
    max_order = {"laurent": 0, "valuations": 0}
    for s, scale in samples:
        for name, (calls, self_s) in s["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s * scale
        counts.update(s["counts"])
        for key, value in s["max_order"].items():
            max_order[key] = max(max_order[key], value)
    return {"spans": spans, "counts": dict(counts), "max_order": max_order}
