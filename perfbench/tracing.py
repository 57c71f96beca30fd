"""Layer spans recorded from outside the package.

``Tracer.install`` wraps each traced function of ``mstdim`` in every module
that binds it (so ``from .mst import build_mst_prim`` in ``cli`` is wrapped
too) and ``Lp.one_to_many`` / ``Lp.pairs`` on the class. Every composite
distance spec ends in ``Lp``, so each distance row is counted once.

A span records its name, start, end, parent span and run id. Row-kernel
calls are too many for one span each (box-fractal makes about 360k), so
their calls, evaluations and time accumulate into the enclosing span. A
span's self time is its duration minus its child spans and the row-kernel
time accumulated into it. Spans stay in memory; ``run.py`` writes them out
when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

# (module, attribute, span name): functions wrapped wherever they are bound
FUNCTIONS = (
    ("mstdim.metric", "diameter", "metric.diameter"),
    ("mstdim.metric", "read_cloud", "metric.read_cloud"),
    ("mstdim.metric", "write_cloud", "metric.write_cloud"),
    ("mstdim.generators", "builtin_shape", "generators.builtin_shape"),
    ("mstdim.generators", "generate_uniform", "generators.generate_uniform"),
    ("mstdim.mst", "build_mst_prim", "mst.build_mst_prim"),
    ("mstdim.mst", "build_mst_kruskal", "mst.build_mst_kruskal"),
    ("mstdim.mst", "write_tree", "mst.write_tree"),
    ("mstdim.mst", "read_tree", "mst.read_tree"),
    ("mstdim.energy", "energy", "energy.energy"),
    ("mstdim.dimension", "greedy_packing", "dimension.greedy_packing"),
    ("mstdim.dimension", "box_dimension", "dimension.box_dimension"),
    ("mstdim.dimension", "mst_dimension", "dimension.mst_dimension"),
    ("mstdim.lemma_checks", "lemma4_check", "lemma_checks.lemma4_check"),
    ("mstdim.cli", "_manifest", "cli.manifest"),
    ("mstdim.cli", "_finish", "cli.manifest"),
)
# (module, class, method, span name): methods wrapped on the class
METHODS = (("mstdim.generators", "ShapeFamily", "generate", "generators.ShapeFamily.generate"),)
# row kernels whose calls accumulate into the enclosing span
KERNELS = (("one_to_many", "o2m"), ("pairs", "pairs"))

GENERATORS = ("generators.builtin_shape", "generators.generate_uniform", "generators.ShapeFamily.generate")
BUILDERS = ("mst.build_mst_prim", "mst.build_mst_kruskal")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run_id", "counters",
                 "o2m_calls", "o2m_evals", "o2m_bytes", "o2m_s", "pairs_evals", "pairs_s")

    def __init__(self, id, name, parent, run_id):
        self.id, self.name, self.parent, self.run_id = id, name, parent, run_id
        self.start = self.end = 0.0
        self.counters = {}
        self.o2m_calls = self.o2m_evals = self.o2m_bytes = self.pairs_evals = 0
        self.o2m_s = self.pairs_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _tree_counters(span, args, result):
    span.counters["points"] = args[0].n
    span.counters["edges"] = len(result.edges)


def _packing_counters(span, args, result):
    span.counters["centers"] = result.count


def _box_counters(span, args, result):
    span.counters["scales"] = len(result.details["series"])
    span.counters["used"] = len(result.details["used"])


COUNTERS = {
    "mst.build_mst_prim": _tree_counters,
    "mst.build_mst_kruskal": _tree_counters,
    "dimension.greedy_packing": _packing_counters,
    "dimension.box_dimension": _box_counters,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._restore = []
        # row-kernel calls made outside every span land here
        self.orphan = Span(-1, "orphan", None, None)

    # ------------------------------------------------------------- spans

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span):
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _function(self, fn, name):
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counters is not None:
                counters(span, args, result)
            return result

        return wrapper

    def _kernel(self, fn, field):
        # explicit signatures: a *args/**kwargs wrapper costs three times as much per call
        stack, orphan = self._stack, self.orphan

        if field == "o2m":
            @functools.wraps(fn)
            def wrapper(spec, a, pts, out=None):
                t0 = perf_counter()
                result = fn(spec, a, pts, out)
                dt = perf_counter() - t0
                span = stack[-1] if stack else orphan
                evals = result.shape[0]
                span.o2m_calls += 1
                span.o2m_evals += evals
                span.o2m_bytes += evals * (len(a) + 1) * 8
                span.o2m_s += dt
                return result
        else:
            @functools.wraps(fn)
            def wrapper(spec, lhs, rhs):
                t0 = perf_counter()
                result = fn(spec, lhs, rhs)
                dt = perf_counter() - t0
                span = stack[-1] if stack else orphan
                span.pairs_evals += result.shape[0]
                span.pairs_s += dt
                return result

        return wrapper

    # ------------------------------------------------------- install

    def install(self):
        """Wrap every traced function in every ``mstdim`` module binding it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "mstdim" or n.startswith("mstdim.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._function(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._function(original, name))
            self._restore.append((cls, meth, original))
        lp = sys.modules["mstdim.metric"].Lp
        for meth, field in KERNELS:
            original = lp.__dict__[meth]
            setattr(lp, meth, self._kernel(original, field))
            self._restore.append((lp, meth, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


# ----------------------------------------------------------- per-pass metrics


def self_times(spans):
    """Self time of each span, by id."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child.get(s.id, 0.0) - s.o2m_s - s.pairs_s for s in spans}


def pass_metrics(spans):
    """Per-layer metrics of one traced pass."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in named.get(name, ()))

    def self_total(name):
        return sum(own[s.id] for s in named.get(name, ()))

    def counter(name, key):
        return sum(s.counters.get(key, 0) for s in named.get(name, ()))

    builder_evals = sum(s.o2m_evals for b in BUILDERS for s in named.get(b, ()))
    builder_edges = sum(counter(b, "edges") for b in BUILDERS)
    packings = named.get("dimension.greedy_packing", ())
    last_scale = {}
    for s in packings:
        last_scale[s.parent] = s  # spans are in start order, so the last wins
    scales = counter("dimension.box_dimension", "scales")
    commands = [s for s in spans if s.parent is None and s.name.startswith("cli.")]
    return {
        "metric.one_to_many.calls": sum(s.o2m_calls for s in spans),
        "metric.one_to_many.evals": sum(s.o2m_evals for s in spans),
        "metric.one_to_many.s": sum(s.o2m_s for s in spans),
        "metric.one_to_many.bytes_computed": sum(s.o2m_bytes for s in spans),
        "metric.pairs.evals": sum(s.pairs_evals for s in spans),
        "metric.diameter.s": total("metric.diameter"),
        "metric.read_cloud.s": total("metric.read_cloud"),
        "metric.write_cloud.s": total("metric.write_cloud"),
        "generators.s": sum(
            s.duration for g in GENERATORS for s in named.get(g, ())
            if s.parent is None or by_id[s.parent].name not in GENERATORS
        ),
        "mst.build_mst_prim.s": total("mst.build_mst_prim"),
        "mst.build_mst_prim.self_s": self_total("mst.build_mst_prim"),
        "mst.build_mst_prim.calls": len(named.get("mst.build_mst_prim", ())),
        "mst.build_mst_prim.points": counter("mst.build_mst_prim", "points"),
        "mst.build_mst_kruskal.s": total("mst.build_mst_kruskal"),
        "mst.build_mst_kruskal.self_s": self_total("mst.build_mst_kruskal"),
        "mst.evals_per_edge": builder_evals / builder_edges if builder_edges else 0.0,
        "mst.write_tree.s": total("mst.write_tree"),
        "mst.read_tree.s": total("mst.read_tree"),
        "energy.energy.s": total("energy.energy"),
        "dimension.greedy_packing.s": total("dimension.greedy_packing"),
        "dimension.greedy_packing.self_s": self_total("dimension.greedy_packing"),
        "dimension.greedy_packing.calls": len(packings),
        "dimension.greedy_packing.centers": counter("dimension.greedy_packing", "centers"),
        "dimension.greedy_packing.last_scale_s": sum(s.duration for s in last_scale.values()),
        "dimension.box.useful_scale_frac": counter("dimension.box_dimension", "used") / scales if scales else 0.0,
        "dimension.box_dimension.s": total("dimension.box_dimension"),
        "dimension.mst_dimension.s": total("dimension.mst_dimension"),
        "lemma_checks.lemma4_check.s": total("lemma_checks.lemma4_check"),
        "lemma_checks.lemma4_check.calls": len(named.get("lemma_checks.lemma4_check", ())),
        "cli.manifest.s": total("cli.manifest"),
        "cli.self_s": sum(own[s.id] for s in commands),
    }


# counts that must repeat exactly between two traced passes at one seed
EXACT_COUNTS = (
    "metric.one_to_many.calls",
    "metric.one_to_many.evals",
    "mst.build_mst_prim.calls",
    "dimension.greedy_packing.calls",
    "dimension.greedy_packing.centers",
)


def accounting_problems(spans, measured, tolerance=0.02):
    """Per command span: self times of every span under it (plus its
    row-kernel time) must account for the command time measured outside the
    span within ``tolerance``. ``measured`` maps command span id to seconds."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    accounted = {}
    for s in spans:
        root = s
        while root.parent is not None:
            root = by_id[root.parent]
        accounted[root.id] = accounted.get(root.id, 0.0) + own[s.id] + s.o2m_s + s.pairs_s
    problems = []
    for span_id, seconds in measured.items():
        got = accounted.get(span_id, 0.0)
        if abs(got - seconds) > tolerance * seconds:
            problems.append(f"{by_id[span_id].name}: layers account for {got:.4f} s of {seconds:.4f} s")
    return problems


def median_metrics(per_pass):
    """Median over passes; counts stay whole numbers."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        ints = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if ints else statistics.median(values)
    return out
