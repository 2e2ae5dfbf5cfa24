"""Spans around cottonkit's public functions, for the traced run only.

``install`` wraps every public function of each layer module and rebinds
every ``from .x import f`` copy of it in the other cottonkit modules; the
Cauchy product, ``compose_univariate`` and ``derivative`` are wrapped on
their classes.  ``restore`` puts the originals back.  Nothing here runs in
the untraced runs that give the end-to-end numbers.

A span is (name, start, end, self time, parent span, item, size).  Self
time is the span's duration minus the time its child calls cover.  Counts
come from the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

LAYERS = ("jets", "exprlang", "geometry", "symmetry", "reduction", "kink", "oracles", "suite")

# Functions reported together under one name.  A call made from inside a
# call of the same name (recursion, or eval_jet calling eval_jet_bindings)
# belongs to the outer span.
GROUPS = {
    "exprlang.parse_expr": "exprlang.parse",
    "exprlang.eval_jet": "exprlang.eval",
    "exprlang.eval_jet_bindings": "exprlang.eval",
    "exprlang.eval_real": "exprlang.eval",
    "exprlang.eval_array": "exprlang.eval",
    "geometry.curvature_grid": "geometry.curvature",
    "geometry.curvature_at": "geometry.curvature",
    "geometry.cotton_grid": "geometry.cotton",
    "geometry.cotton_at": "geometry.cotton",
    "geometry.cotton_identities_check": "geometry.identities",
    "geometry.pullback_metric_at": "geometry.pullback",
    "symmetry.killing_dimension_estimate": "symmetry.killing_dim",
    "symmetry.killing_residual": "symmetry.killing_residual",
    "symmetry.killing_residual_values": "symmetry.killing_residual",
    "reduction.eom_grid": "reduction.eom_grid",
    "reduction.lattice_variation_check_2d": "reduction.lattice_2d",
    "reduction.lattice_cotton_variation_check_3d": "reduction.lattice_3d",
    "kink.solve_kink_ode": "kink.solve",
    "kink.lift_flat_kink": "kink.lift",
    "kink.lift_residuals": "kink.lift",
    "kink.lift_curvature_check": "kink.lift",
    "oracles.fd_partial": "oracles.fd",
    "oracles.fd_gradient": "oracles.fd",
    "oracles.fd_partial_telescoped": "oracles.fd",
}

# Private or foreign names counted in the module that uses them.
EXTRA = {
    ("reduction", "_patch_gradient"): "reduction.site_variation",
    ("kink", "solve_ivp"): "kink.ivp",
}

JET_METHODS = (
    ("JetSpace", "mul_coeffs", "jets.mul"),
    ("Jet", "compose_univariate", "jets.compose"),
    ("Jet", "derivative", "jets.derivative"),
)

# Called too often to keep one span each (one Killing query makes ~10^5
# Cauchy products, parsing makes a call per syntax node): their wrappers
# only count calls, add up self time and charge their duration to the
# enclosing span.
LEAF_LAYERS = ("jets.", "exprlang.")
LEAVES = {"oracles.fd"}


def _mul_layout(args, kwargs):
    space, a = args[0], args[1]
    return len(space._mul_i), space.ncoeff, a.size // a.shape[0], a.itemsize


def _npts(args, kwargs, default_order: int):
    """Points of a batched geometry call at its default jet order; calls at
    another order (the identities' order-4 Cotton) get no size."""
    if kwargs.get("order", default_order) != default_order or len(args) > 2:
        return None
    return len(args[1])


SIZE_OF = {
    "jets.mul_coeffs": _mul_layout,
    "geometry.curvature_grid": lambda a, k: _npts(a, k, 2),
    "geometry.cotton_grid": lambda a, k: _npts(a, k, 3),
    "geometry.cotton_identities_check": lambda a, k: len(a[1]),
    "geometry.curvature_at": lambda a, k: 1,
    "geometry.cotton_at": lambda a, k: 1,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.leaf_calls: Counter = Counter()
        self.leaf_self_s: Counter = Counter()
        self.leaf_sizes: defaultdict = defaultdict(Counter)
        self.item = "setup"
        self.nested = 0  # calls made inside an open call of the same name
        # frames of open calls: [time covered by children, span index]
        self._stack: list = [[0.0, -1]]
        self._open: set = set()

    def wrap(self, name: str, fn: Callable, size_of: Optional[Callable] = None) -> Callable:
        leaf = name in LEAVES or name.startswith(LEAF_LAYERS)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in tracer._open:
                tracer.nested += 1
                return fn(*args, **kwargs)
            size = size_of(args, kwargs) if size_of is not None else None
            index = -1
            if not leaf:
                index = len(tracer.spans)
                tracer.spans.append(None)
            parent = tracer._stack[-1]
            frame = [0.0, index]
            tracer._stack.append(frame)
            tracer._open.add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.discard(name)
                tracer._stack.pop()
                parent[0] += end - start
                self_s = end - start - frame[0]
                if leaf:
                    tracer.leaf_calls[name] += 1
                    tracer.leaf_self_s[name] += self_s
                    if size is not None:
                        tracer.leaf_sizes[name][size] += 1
                else:
                    tracer.spans[index] = (name, start, end, self_s, parent[1], tracer.item, size)

        return wrapper

    def chrome_trace(self) -> str:
        """Chrome trace-event JSON; the counted-only calls go in ``otherData``."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"item": item, "parent": parent, "self_us": self_s * 1e6, "size": size},
            }
            for name, start, end, self_s, parent, item, size in self.spans
        ]
        other = {name: {"calls": self.leaf_calls[name], "self_s": self.leaf_self_s[name]} for name in self.leaf_calls}
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "otherData": other})


def wrapped_calls(tracer: Tracer) -> dict:
    """Wrapped calls of a traced run by kind of wrapper."""
    sized = sum(sum(sizes.values()) for sizes in tracer.leaf_sizes.values())
    return {
        "span": len(tracer.spans),
        "leaf": sum(tracer.leaf_calls.values()) - sized,
        "sized_leaf": sized,
        "nested": tracer.nested,
    }


def wrapper_cost_s(repeats: int = 5, calls: int = 20000) -> dict:
    """Seconds one wrapped call adds to the bare call, by kind of wrapper:
    the median over ``repeats`` of ``calls`` calls of a no-op, wrapped in a
    scratch tracer, minus as many bare calls."""
    import numpy as np

    from cottonkit.jets import JetSpace

    space = JetSpace.get(3, 4)
    a = np.zeros((space.ncoeff, 1))

    def noop(*args):
        return None

    probe = Tracer()
    kinds = {
        "span": (probe.wrap("geometry.probe", noop), ()),
        "leaf": (probe.wrap("exprlang.probe", noop), ()),
        "sized_leaf": (probe.wrap("jets.mul", noop, _mul_layout), (space, a, a)),
        "nested": (probe.wrap("geometry.nested", noop), ()),
    }
    probe._open.add("geometry.nested")  # every call of it is a nested one
    cost = {}
    for kind, (wrapped, args) in kinds.items():
        diffs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop(*args)
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped(*args)
            diffs.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
        cost[kind] = max(0.0, statistics.median(diffs))
    return cost


def _targets():
    """(function, metric name, size function, only module) to wrap."""
    for layer in LAYERS:
        mod = importlib.import_module(f"cottonkit.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                key = f"{layer}.{attr}"
                yield obj, GROUPS.get(key, key), SIZE_OF.get(key), None
    for (layer, attr), name in EXTRA.items():
        yield getattr(importlib.import_module(f"cottonkit.{layer}"), attr), name, None, f"cottonkit.{layer}"


def install(tracer: Tracer) -> list:
    """Wrap the layer functions; returns what ``restore`` needs."""
    saved = []
    modules = [m for n, m in sys.modules.items() if n == "cottonkit" or n.startswith("cottonkit.")]
    for fn, name, size_of, only in _targets():
        wrapper = tracer.wrap(name, fn, size_of)
        for mod in modules:
            if only is not None and mod.__name__ != only:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
    jets = importlib.import_module("cottonkit.jets")
    for cls_name, attr, name in JET_METHODS:
        cls = getattr(jets, cls_name)
        fn = cls.__dict__[attr]
        saved.append((cls, attr, fn))
        setattr(cls, attr, tracer.wrap(name, fn, SIZE_OF.get(f"jets.{attr}")))
    return saved


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------------

GRID_SIZES = (1, 343, 4096)


def layer_metrics(tracer: Tracer) -> dict:
    """name -> (value, unit) for every layer metric the trace yields."""
    spans = tracer.spans
    calls, self_s, total_s = Counter(tracer.leaf_calls), Counter(tracer.leaf_self_s), Counter()
    for name, start, end, own, _, _, _ in spans:
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
    out = {}
    for name in sorted(set(GROUPS.values()) | set(EXTRA.values()) | {m[2] for m in JET_METHODS}):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, v in self_s.items() if k.startswith(layer + ".")), "s")

    # computed from the pair table and operand shapes, not from counters:
    # P products and P - K additions per point; each array touched once:
    # operands (2K), two gathers written and read (4P), product written and
    # read (2P), result (K) -- 3K + 6P elements per point
    flops = bytes_ = 0
    for (P, K, pts, itemsize), n in tracer.leaf_sizes["jets.mul"].items():
        flops += n * pts * (2 * P - K)
        bytes_ += n * pts * itemsize * (3 * K + 6 * P)
    out["jets.mul.flops"] = (flops, "flop")
    out["jets.mul.bytes"] = (bytes_, "B")
    out["jets.mul.flops_per_byte"] = (flops / bytes_ if bytes_ else 0.0, "flop/B")

    for name in ("geometry.curvature", "geometry.cotton", "geometry.identities"):
        for n in GRID_SIZES:
            hit = [s for s in spans if s[0] == name and s[6] == n]
            if hit:
                out[f"{name}.us_per_pt.n{n}"] = (sum(s[2] - s[1] for s in hit) / (n * len(hit)) * 1e6, "us")
    if calls["symmetry.killing_dim"]:
        out["symmetry.killing_dim.ms_per_pt"] = (total_s["symmetry.killing_dim"] / calls["symmetry.killing_dim"] * 1e3, "ms")
    if calls["kink.solve"]:
        out["kink.solve.ms_per_solve"] = (total_s["kink.solve"] / calls["kink.solve"] * 1e3, "ms")
    for lattice in ("reduction.lattice_2d", "reduction.lattice_3d"):
        sites = sum(1 for s in spans if s[0] == "reduction.site_variation" and spans[s[4]][0] == lattice)
        out[f"{lattice}.sites"] = (sites, "count")
        if sites:
            out[f"{lattice}.ms_per_site"] = (total_s[lattice] / sites * 1e3, "ms")
    return out
