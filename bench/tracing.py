"""Traced runs: spans around calls into conekit's public functions.

``Tracer.install`` replaces each public function behind a layer metric with
a wrapper, in every conekit module that holds it, including the copies that
other modules import by name, and in the property-suite table.  A wrapper
records one span (layer, start, end, parent) in flat arrays kept in memory;
``write`` saves them when the run ends.  The layers are named after the
modules; ``layer_metrics`` turns the spans into the per-layer metrics.

A layer's self time is the duration of its spans minus the time their child
spans cover.  ``calls`` counts spans entered from outside the layer, so a
layer function calling another of the same layer counts once.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import Counter
from time import perf_counter_ns

# layer -> public functions ("module:qualname"), each optionally with a
# counter that is bumped on every call of that function.
LAYERS = {
    "numerics.quad": ["numerics:SymMatrix.quad"],
    "numerics.elim": ["numerics:exact_rank", "numerics:exact_det", "numerics:exact_solve", "numerics:exact_inverse"],
    "numerics.lp": ["numerics:lp_nonneg_solve"],
    "lorentz.classify": ["lorentz:classify"],
    "lorentz.gram": ["lorentz:gram_from_cone_basis", "lorentz:minkowski_form", "lorentz:GramForm.__init__"],
    "lorentz.frame": [
        ("lorentz:LorentzFrame.__init__", "lorentz.frame.builds"),
        "lorentz:minkowski_frame",
        "lorentz:frame_from_unit_vector",
    ],
    "lorentz.wick": [
        "lorentz:decompose",
        "lorentz:wick_inner",
        "lorentz:wick_norm",
        ("lorentz:wick_orthogonal_basis", "lorentz.wick_basis.calls"),
        "lorentz:spatial_basis",
        "lorentz:causal_class",
        "lorentz:future_defect",
        "lorentz:future_defect_exact",
    ],
    "cone.contains": ["cone:contains", "cone:leq", "cone:dual_contains", "cone:is_proper"],
    "cone.in_core": ["cone:in_core"],
    "cone.sample": ["cone:sample_future_causal"],
    "cone.self_duality": ["cone:self_duality_report"],
    "hypnorm": [
        "hypnorm:cone_of",
        "hypnorm:norm_eval",
        "hypnorm:norm_sq_eval",
        "hypnorm:reverse_triangle_residual",
        "hypnorm:polarizability_residual",
        "hypnorm:polar_inner",
        "hypnorm:reverse_cs_residual",
        "hypnorm:reverse_triangle_holds_exact",
        "hypnorm:equality_is_collinear",
    ],
    "span": [
        "span:FormalDifference.__init__",
        "span:embed",
        "span:equiv",
        "span:canonicalize",
        "span:extend_linear",
        "span:future_decompose",
        "span:future_decompose_is_minimal",
    ],
    "order": [
        "order:OrderedSequence.geometric",
        "order:OrderedSequence.affine",
        "order:is_nondecreasing",
        "order:is_bounded_above",
        "order:completeness_certificate",
        "order:monotone_wick_check",
    ],
    "properties": [
        "properties:rand_fraction",
        "properties:rand_vector",
        "properties:sample_p2_cone_point",
        "properties:sample_p2_interior_point",
        "properties:sample_independent_cone_basis",
        "properties:suite_polarizability",
        "properties:suite_reverse_cs",
        "properties:suite_nondegenerate",
        "properties:suite_wick",
        "properties:suite_future_decompose",
        "properties:suite_self_duality",
        "properties:suite_order",
        "properties:suite_span",
        "properties:run_suite",
    ],
    # extended_norm gets the layer of the branch its problem takes
    "extension": ["extension:extended_norm", "extension:equivalence_constant"],
    "extension.oracle": ["extension:grid_oracle"],
    "cli.run": ["cli:main", "cli:load_scenario", "cli:run_scenario", "cli:run_task", "cli:write_report"],
}

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
METRICS = [
    ("numerics.quad.calls", "count"),
    ("numerics.quad.self_s", "s"),
    ("numerics.elim.calls", "count"),
    ("numerics.elim.self_s", "s"),
    ("numerics.lp.calls", "count"),
    ("numerics.lp.self_s", "s"),
    ("numerics.lp.infeasible", "count"),
    ("lorentz.classify.self_s", "s"),
    ("lorentz.gram.self_s", "s"),
    ("lorentz.frame.builds", "count"),
    ("lorentz.wick_basis.calls", "count"),
    ("lorentz.wick.self_s", "s"),
    ("cone.contains.self_s", "s"),
    ("cone.in_core.calls", "count"),
    ("cone.in_core.self_s", "s"),
    ("cone.sample.self_s", "s"),
    ("cone.self_duality.self_s", "s"),
    ("hypnorm.self_s", "s"),
    ("span.self_s", "s"),
    ("order.self_s", "s"),
    ("properties.self_s", "s"),
    ("extension.wick.self_s", "s"),
    ("extension.wick.iterations", "count"),
    ("extension.square.self_s", "s"),
    ("extension.square.iterations", "count"),
    ("extension.general.self_s", "s"),
    ("extension.general.iterations", "count"),
    ("extension.general.capped", "count"),
    ("extension.oracle.calls", "count"),
    ("extension.oracle.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
]

OP_LAYER = "bench.op"


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def layer_id(self, layer: str) -> int:
        if layer not in self.ids:
            self.ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self.ids[layer]

    def span(self, fn, layer, counter=None):
        """Wrap fn so each call records a span of `layer`."""
        names, parents, starts, ends, stack, counts = (
            self.name, self.parent, self.start, self.end, self.stack, self.counts,
        )
        layer_id = self.layer_id(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(perf_counter_ns())
            ends.append(0)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counts[counter] += 1
            return out

        return traced

    def install(self, ck_modules) -> None:
        """Wrap every target in place; ck_modules maps short names to modules."""
        import conekit

        everywhere = [conekit] + list(ck_modules.values())
        for layer, targets in LAYERS.items():
            for target in targets:
                target, counter = target if isinstance(target, tuple) else (target, None)
                mod_name, qual = target.split(":")
                mod = ck_modules[mod_name]
                if "." in qual:
                    self._wrap_method(mod, qual, layer, counter)
                    continue
                original = getattr(mod, qual)
                if qual == "extended_norm":
                    wrapped = self._extended_norm(original)
                elif qual == "lp_nonneg_solve":
                    wrapped = self._count_infeasible(self.span(original, layer))
                else:
                    wrapped = self.span(original, layer, counter)
                for m in everywhere:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
                suites = ck_modules["properties"].SUITES
                for key, value in list(suites.items()):
                    if value is original:
                        suites[key] = wrapped

    def _wrap_method(self, mod, qual, layer, counter):
        cls_name, meth = qual.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self.span(raw.__func__, layer, counter)))
        else:
            setattr(cls, meth, self.span(raw, layer, counter))

    def _count_infeasible(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def lp(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is None:
                counts["numerics.lp.infeasible"] += 1
            return out

        return lp

    def _extended_norm(self, fn):
        """One layer per solver branch, with its iteration and cap counts."""
        counts = self.counts
        by_branch = {b: self.span(fn, b) for b in ("extension.wick", "extension.square", "extension.general")}

        @functools.wraps(fn)
        def solve(problem):
            branch = _extension_branch(problem)
            res = by_branch[branch](problem)
            counts[branch + ".iterations"] += res.iterations
            if branch == "extension.general" and res.iterations == problem.max_iters:
                counts["extension.general.capped"] += 1
            return res

        return solve

    # ------------------------------------------------------------ results

    def self_times(self):
        """(self ns per layer, calls per layer) from the recorded spans."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns, calls = Counter(), Counter()
        for i in range(n):
            layer = self.layers[self.name[i]]
            self_ns[layer] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            if p < 0 or self.name[p] != self.name[i]:
                calls[layer] += 1
        return self_ns, calls

    def layer_metrics(self) -> dict:
        self_ns, calls = self.self_times()
        values = {}
        for name, unit in METRICS:
            layer, _, what = name.rpartition(".")
            if what == "self_s":
                values[name] = self_ns[layer] / 1e9
            elif what == "calls" and name not in ("lorentz.wick_basis.calls",):
                values[name] = calls[layer]
            else:
                values[name] = self.counts[name]
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: index, layer, parent, start_ns, end_ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tlayer\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.layers[self.name[i]]}\t{self.parent[i]}\t{self.start[i]}\t{self.end[i]}\n")

    def op_span(self):
        """Context for one benchmark operation: the root of its spans."""
        return _OpSpan(self)


class _OpSpan:
    __slots__ = ("tracer", "i")

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        self.i = len(t.name)
        t.name.append(t.layer_id(OP_LAYER))
        t.parent.append(-1)
        t.start.append(perf_counter_ns())
        t.end.append(0)
        t.stack.append(self.i)

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.i] = perf_counter_ns()
        t.stack.pop()
        return False


def _extension_branch(problem) -> str:
    """Which solver branch extended_norm takes, read from the problem."""
    c = problem.cone
    if hasattr(c, "generators"):
        return "extension.square" if len(c.generators) == c.ambient_dim else "extension.general"
    wick = type(problem.base_norm).__name__ == "WickBaseNorm"
    return "extension.wick" if wick else "extension.square"


def conekit_modules() -> dict:
    from conekit import cli, cone, extension, hypnorm, lorentz, numerics, order, properties, span

    return {
        "numerics": numerics,
        "lorentz": lorentz,
        "cone": cone,
        "hypnorm": hypnorm,
        "span": span,
        "order": order,
        "properties": properties,
        "extension": extension,
        "cli": cli,
    }

