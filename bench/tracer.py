"""Outside-in tracer for the riccati2d benchmark.

The tracer changes no file of the program.  ``install`` rebinds the public
functions of each riccati2d module in every module namespace that imported
them (the modules import each other's functions by name), wraps the public
evaluation methods of the field classes and ``ev``/``diff`` of every
expression node class, and wraps the integrand handed to
``quadrature.adaptive_segment_integral`` so that quadrature time and
integrand time separate.  It also wraps the private
``quadrature._composite_gl`` to read each refinement level's estimate, which
is how a call is classed as capped.  ``uninstall`` restores every binding.

Spans (name, layer, start, end, parent) and counters stay in memory until
``summary`` turns them into per-layer metrics and ``span_log`` lists them for
the run's span file.  A span's self time is its duration minus the time its
direct child spans cover.  Only traced runs
(``--trace 1``) install a tracer.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import time

import numpy as np

LAYERS = ("cli", "oracle", "theorems", "riccati", "field", "expressions", "quadrature")

# public evaluation entry points of the field layer; field.points_sampled counts
# the points of the outermost one, field.sample_self_s is their self time
_FIELD_SAMPLERS = {
    "ScalarField": ("sample", "__call__", "evaluate", "to_grid"),
    "ComplexField": ("sample", "__call__", "evaluate"),
}
_ORACLE_FAMILIES = ("exp_family", "separable_family", "harmonic_family")
_FLOAT_BYTES = 8


class Tracer:
    """Span and counter recorder for one operation of one workload."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[list] = []  # [name, layer, start, end, parent, outermost-of-name]
        self.stack: list[int] = []
        self.open_names: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.node_visits = 0
        self.diff_calls = 0
        self._ev_depth = 0
        self._diff_depth = 0
        self._field_depth = 0
        self._roots: dict[int, list] = {}  # id -> [root expression, outermost ev calls]
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        outermost = not self.open_names.get(name)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, outermost])
        self.stack.append(idx)
        self.open_names[name] = self.open_names.get(name, 0) + 1
        self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0) + 1
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self.stack.pop()
        self.open_names[span[0]] -= 1

    def _add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _max(self, key: str, n: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), n)

    # -- wrappers ----------------------------------------------------------
    def _wrap_span(self, fn, name: str, layer: str, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = tracer._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _wrap_sampler(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = tracer._field_depth == 0
            tracer._field_depth += 1
            idx = tracer._open(name, "field")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._field_depth -= 1
            if outermost:
                tracer._add("field.points_sampled", int(np.size(result)))
            return result

        return wrapper

    def _wrap_ev(self, fn):
        tracer = self

        @functools.wraps(fn)
        def ev(node, *args, **kwargs):
            tracer.node_visits += 1
            if tracer._ev_depth:
                tracer._ev_depth += 1
                try:
                    return fn(node, *args, **kwargs)
                finally:
                    tracer._ev_depth -= 1
            seen = tracer._roots.setdefault(id(node), [node, 0])
            seen[1] += 1
            idx = tracer._open("expressions.ev", "expressions")
            tracer._ev_depth = 1
            try:
                return fn(node, *args, **kwargs)
            finally:
                tracer._ev_depth = 0
                tracer._close(idx)

        return ev

    def _wrap_diff(self, fn):
        tracer = self

        @functools.wraps(fn)
        def diff(node, *args, **kwargs):
            tracer.diff_calls += 1
            if tracer._diff_depth:
                tracer._diff_depth += 1
                try:
                    return fn(node, *args, **kwargs)
                finally:
                    tracer._diff_depth -= 1
            idx = tracer._open("expressions.diff", "expressions")
            tracer._diff_depth = 1
            try:
                return fn(node, *args, **kwargs)
            finally:
                tracer._diff_depth = 0
                tracer._close(idx)

        return diff

    def _wrap_adaptive(self, fn, quad):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def adaptive(integrand, *args, **kwargs):
            record = {"points": 0, "levels": []}

            def traced_integrand(s):
                size = int(np.size(s))
                record["points"] += size
                tracer._max("quadrature.max_batch_points", size)
                idx = tracer._open("quadrature.integrand", "field")
                try:
                    return integrand(s)
                finally:
                    tracer._close(idx)

            traced_integrand._bench_record = record
            bound = signature.bind(traced_integrand, *args, **kwargs)
            bound.apply_defaults()
            rel_tol = bound.arguments.get("rel_tol", getattr(quad, "SEGMENT_REL_TOL", 0.0))
            idx = tracer._open("quadrature.adaptive", "quadrature")
            try:
                result = fn(traced_integrand, *args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._finish_adaptive(record, rel_tol)
            return result

        return adaptive

    def _finish_adaptive(self, record: dict, rel_tol: float) -> None:
        self._add("quadrature.adaptive_calls", 1)
        self._add("quadrature.integrand_points", record["points"])
        levels = record["levels"]
        if levels:
            self._max("quadrature.max_panels", max(level[0] for level in levels))
            self._add("quadrature.accepted_level_points", levels[-1][2])
            # the call stopped without meeting the tolerance when its last two
            # refinement levels disagree by more than its own rel_tol
            converged = False
            if len(levels) >= 2:
                last, prev = levels[-1][1], levels[-2][1]
                delta = float(np.max(np.abs(np.asarray(last) - np.asarray(prev))))
                converged = delta <= rel_tol * (float(np.max(np.abs(last))) + 1.0)
            self._add("quadrature.capped_calls", 0 if converged else 1)

    def _wrap_levels(self, fn):
        """Wraps quadrature._composite_gl to read each refinement level's estimate."""

        @functools.wraps(fn)
        def composite(integrand, a, b, panels, *args, **kwargs):
            record = getattr(integrand, "_bench_record", None)
            before = record["points"] if record is not None else 0
            value = fn(integrand, a, b, panels, *args, **kwargs)
            if record is not None:
                record["levels"].append((panels, value, record["points"] - before))
            return value

        return composite

    def _note_contour(self, args, kwargs):
        gamma = args[1] if len(args) > 1 else kwargs.get("gamma")
        if getattr(gamma, "kind", None) == "circle":
            nodes = gamma.n_nodes
        else:
            nodes = gamma.n_per_segment * 8 * (len(gamma.vertices) - 1)
        self._add("quadrature.contour_nodes", int(nodes))

    # -- expression sharing ------------------------------------------------
    def _distinct_subtrees(self, root) -> int:
        """Number of structurally distinct subtrees of an expression tree."""
        expr_cls = self.pkg.expressions.Expr
        canon: dict[int, int] = {}
        keys: dict[tuple, int] = {}
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in canon:
                continue
            if dataclasses.is_dataclass(node):
                values = [getattr(node, f.name) for f in dataclasses.fields(node)]
            else:
                values = list(vars(node).values())
            if not expanded:
                stack.append((node, True))
                stack.extend((v, False) for v in values if isinstance(v, expr_cls))
                continue
            key = (type(node),) + tuple(
                ("node", canon[id(v)]) if isinstance(v, expr_cls) else v for v in values
            )
            canon[id(node)] = keys.setdefault(key, len(keys))
        return len(keys)

    # -- install / uninstall -----------------------------------------------
    def install(self) -> None:
        pkg = self.pkg
        quad = pkg.quadrature
        replacements: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if layer == "quadrature" and name == "adaptive_segment_integral":
                    wrapper = self._wrap_adaptive(obj, quad)
                elif layer == "quadrature" and name == "line_integral_dz":
                    wrapper = self._wrap_span(obj, f"{layer}.{name}", layer, self._note_contour)
                else:
                    wrapper = self._wrap_span(obj, f"{layer}.{name}", layer)
                replacements[id(obj)] = (obj, wrapper)
        composite = getattr(quad, "_composite_gl", None)
        if inspect.isfunction(composite):
            replacements[id(composite)] = (composite, self._wrap_levels(composite))
        for mod in [pkg] + [getattr(pkg, layer) for layer in LAYERS]:
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

        field = pkg.field
        for cls_name, methods in _FIELD_SAMPLERS.items():
            cls = getattr(field, cls_name)
            for meth in methods:
                if meth in cls.__dict__:
                    self._patch(cls, meth, self._wrap_sampler(cls.__dict__[meth], f"field.{meth}"))

        pending = [pkg.expressions.Expr]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "ev" in cls.__dict__:
                self._patch(cls, "ev", self._wrap_ev(cls.__dict__["ev"]))
            if "diff" in cls.__dict__:
                self._patch(cls, "diff", self._wrap_diff(cls.__dict__["diff"]))

    def _patch(self, owner, name: str, replacement) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self.stack.clear()

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        """Raw per-operation sums; ``layer_metrics`` turns them into metrics."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, outermost in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        self_by_name: dict[str, float] = {}
        total_by_name: dict[str, float] = {}  # outermost spans of each name only
        for i, (name, layer, start, end, parent, outermost) in enumerate(self.spans):
            own = end - start - covered[i]
            self_by_layer[layer] += own
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            if outermost:
                total_by_name[name] = total_by_name.get(name, 0.0) + end - start
        return {
            "counts": dict(self.counts),
            "node_visits": self.node_visits,
            # the roots are held in _roots while the op runs, so ids are unique
            "distinct_nodes": sum(
                self._distinct_subtrees(root) * calls for root, calls in self._roots.values()
            ),
            "diff_calls": self.diff_calls,
            "self_by_layer": self_by_layer,
            "self_by_name": self_by_name,
            "total_by_name": total_by_name,
        }

    def span_log(self) -> list[list]:
        """Spans as [name, layer, start, end, parent], times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        return [[n, layer, a - origin, b - origin, p] for n, layer, a, b, p, _ in self.spans]


def merge(summaries: list[dict]) -> dict:
    """Sum per-operation summaries (maxima for the max_* counters)."""
    out = {"counts": {}, "node_visits": 0, "distinct_nodes": 0, "diff_calls": 0}
    for key in ("self_by_layer", "self_by_name", "total_by_name"):
        out[key] = {}
    for s in summaries:
        for key in ("node_visits", "distinct_nodes", "diff_calls"):
            out[key] += s[key]
        for name, value in s["counts"].items():
            if name.startswith("quadrature.max_"):
                out["counts"][name] = max(out["counts"].get(name, 0), value)
            else:
                out["counts"][name] = out["counts"].get(name, 0) + value
        for key in ("self_by_layer", "self_by_name", "total_by_name"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0.0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict, report_bytes: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a merged summary."""
    c = s["counts"]
    sbn, tbn = s["self_by_name"], s["total_by_name"]
    points = c.get("quadrature.integrand_points", 0)
    batch = c.get("quadrature.max_batch_points", 0)
    oracle_calls = sum(c.get(f"oracle.{name}.calls", 0) for name in _ORACLE_FAMILIES)
    oracle_s = sum(tbn.get(f"oracle.{name}", 0.0) for name in _ORACLE_FAMILIES)
    sample_self = sum(sbn.get(f"field.{m}", 0.0) for m in _FIELD_SAMPLERS["ScalarField"])
    m = {
        "expressions.node_visits": (s["node_visits"], "count"),
        "expressions.ev_self_s": (sbn.get("expressions.ev", 0.0), "s"),
        "expressions.distinct_node_share": (_ratio(s["distinct_nodes"], s["node_visits"]), "ratio"),
        "expressions.diff_calls": (s["diff_calls"], "count"),
        "quadrature.adaptive_calls": (c.get("quadrature.adaptive_calls", 0), "count"),
        "quadrature.integrand_points": (points, "count"),
        "quadrature.max_panels": (c.get("quadrature.max_panels", 0), "count"),
        "quadrature.useful_point_share": (_ratio(c.get("quadrature.accepted_level_points", 0), points), "ratio"),
        "quadrature.adaptive_self_s": (sbn.get("quadrature.adaptive", 0.0), "s"),
        "quadrature.capped_calls": (c.get("quadrature.capped_calls", 0), "count"),
        "quadrature.max_batch_points": (batch, "count"),
        "quadrature.max_batch_bytes": (batch * _FLOAT_BYTES, "bytes_computed"),
        "quadrature.line_integral_calls": (c.get("quadrature.line_integral_dz.calls", 0), "count"),
        "quadrature.contour_nodes": (c.get("quadrature.contour_nodes", 0), "count"),
        "quadrature.line_integral_s": (tbn.get("quadrature.line_integral_dz", 0.0), "s"),
        "quadrature.compat_check_s": (tbn.get("quadrature.compatibility_check", 0.0), "s"),
        "field.points_sampled": (c.get("field.points_sampled", 0), "count"),
        "field.sample_self_s": (sample_self, "s"),
        "oracle.calls": (oracle_calls, "count"),
        "oracle.construct_s": (oracle_s, "s"),
        "cli.parse_s": (tbn.get("cli.parse_config", 0.0), "s"),
        "cli.report_s": (sbn.get("cli.main", 0.0), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (s["self_by_layer"].get(layer, 0.0), "s")
    return m
