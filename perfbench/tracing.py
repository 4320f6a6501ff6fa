"""Span tracing of proxigraph from outside the package.

`Tracer.install` wraps the public functions and methods listed in `SPANS`
(or, with counts=True, those in `COUNTS`) and rebinds every name that refers
to them: the defining module, each proxigraph module that imported the name,
and the benchmark's own modules.  A spanned call records (name, parent,
start, end) in arrays.  The calls in `COUNTS` run so often (a distance lookup
per pair) that a wrapper on them would inflate the spans around them, so
they are only counted, in rounds of their own.  `uninstall` restores every
binding.

Spans are tagged with a phase (0 set-up, 1 span rounds, 2 count rounds),
kept in memory and written out with `save`.  `layer_metrics` turns them into the per-layer
metrics: time and calls per category (outermost spans only, so a category
nested in itself is not counted twice), and each layer's self time, a span's
duration minus the durations of its child spans.
"""
from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

from proxigraph import bpp_solver, cli, corpus, cyclic_contraction, fixed_point
from proxigraph import metric_graph, pbvp

# layer -> (module, {category: names}); category "other" adds only self time
SPANS = {
    "metric_graph": (metric_graph, {
        "construct": ["FiniteMetricGraph.from_coords", "FiniteMetricGraph.from_table",
                      "FiniteMetricGraph.from_dict", "FiniteMetricGraph.from_json"],
        "pair_distance": ["pair_distance"],
        "predicates": ["is_sharp_proximal", "is_g_chebyshev", "has_property_uc",
                       "check_property_star", "is_weakly_connected"],
        "components": ["component_of", "components"],
    }),
    "cyclic_contraction": (cyclic_contraction, {
        "sweep": ["verify_g_cyclic_contraction"],
        "other": ["verify_t2_preserves_edges", "verify_gauge_classes", "check_pair",
                  "load_map", "load_gauge_pair", "CyclicMapTable.validate"],
    }),
    "bpp_solver": (bpp_solver, {
        "solve": ["solve_bpp"],
        "orbit": ["iterate_orbit"],
        "scan": ["enumerate_bpps", "x_t2_a_set"],
        "equivalence": ["check_equivalence_theorem"],
        "cardinality": ["check_cardinality"],
    }),
    "fixed_point": (fixed_point, {
        "solve": ["solve_common_fixed_point"],
        "psi_verify": ["verify_g_psi_contraction"],
        "uniqueness": ["check_uniqueness_regime"],
        "other": ["PairMaps.validate", "psi_from_phi"],
    }),
    "pbvp": (pbvp, {
        "kernel": ["kernel_matrix"],
        "operator": ["integral_operator"],
        "checks": ["is_lower_solution", "verify_condition_iv"],
        "other": ["solve_pbvp", "solve_common_pbvp"],
    }),
    "cli": (cli, {"main": ["main"]}),
    "corpus": (corpus, {
        "build": ["build", "build_random_chain", "build_ex22_kappa",
                  "build_ex33_dyadic_l1", "build_ex35_not_bpo",
                  "build_ex41_fixed_point", "build_ex53_pbvp"],
    }),
}

# counter -> (module, name): calls counted, never spanned
COUNTS = {
    "metric_graph.d_calls": (metric_graph, "FiniteMetricGraph.d"),
    "cyclic_contraction.gauge_evals": (cyclic_contraction, "eval_gauge"),
}


def _report_kb(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv") or []
    if "--out" in argv:
        return os.path.getsize(argv[argv.index("--out") + 1]) / 1024.0
    return 0.0


# span name -> (counter, how, value of (args, kwargs, result)) read off the call
DERIVED = {
    "cyclic_contraction.verify_g_cyclic_contraction":
        ("cyclic_contraction.pairs_checked", "sum", lambda a, k, r: r.checked_pairs),
    "bpp_solver.iterate_orbit": ("bpp_solver.orbit_steps", "sum", lambda a, k, r: len(r.gaps)),
    "bpp_solver.solve_bpp": ("bpp_solver.orbit_steps", "sum", lambda a, k, r: r.iterations),
    "fixed_point.solve_common_fixed_point":
        ("fixed_point.orbit_steps", "sum", lambda a, k, r: len(r[1].gaps)),
    "pbvp.solve_pbvp": ("pbvp.picard_iters", "sum", lambda a, k, r: r[1].iterations),
    "pbvp.solve_common_pbvp": ("pbvp.picard_iters", "sum", lambda a, k, r: r[1].iterations),
    # three dense n x n float64 arrays (two branches and the weights), computed from n
    "pbvp.kernel_matrix": ("pbvp.kernel_mb", "max", lambda a, k, r: 3 * 8 * a[1].n ** 2 / 2**20),
    "cli.main": ("cli.report_kb", "sum", _report_kb),
}

PHASES = 3  # 0: set-up, 1: span rounds, 2: count rounds

# the per-layer metrics reported, with their units
PER_LAYER = {
    "metric_graph.construct_ms": "ms", "metric_graph.construct_calls": "count",
    "metric_graph.pair_distance_ms": "ms", "metric_graph.pair_distance_calls": "count",
    "metric_graph.predicates_ms": "ms", "metric_graph.predicates_calls": "count",
    "metric_graph.components_ms": "ms", "metric_graph.components_calls": "count",
    "metric_graph.d_calls": "count", "metric_graph.self_ms": "ms",
    "cyclic_contraction.sweep_ms": "ms", "cyclic_contraction.sweep_calls": "count",
    "cyclic_contraction.pairs_checked": "count", "cyclic_contraction.gauge_evals": "count",
    "cyclic_contraction.self_ms": "ms",
    "bpp_solver.solve_ms": "ms", "bpp_solver.solve_calls": "count",
    "bpp_solver.orbit_ms": "ms", "bpp_solver.orbit_steps": "count",
    "bpp_solver.scan_ms": "ms", "bpp_solver.equivalence_ms": "ms",
    "bpp_solver.cardinality_ms": "ms", "bpp_solver.self_ms": "ms",
    "fixed_point.solve_ms": "ms", "fixed_point.solve_calls": "count",
    "fixed_point.orbit_steps": "count", "fixed_point.psi_verify_ms": "ms",
    "fixed_point.uniqueness_ms": "ms", "fixed_point.self_ms": "ms",
    "pbvp.kernel_ms": "ms", "pbvp.kernel_calls": "count", "pbvp.kernel_mb": "MiB_computed",
    "pbvp.operator_ms": "ms", "pbvp.operator_calls": "count", "pbvp.picard_iters": "count",
    "pbvp.checks_ms": "ms", "pbvp.self_ms": "ms",
    "cli.main_ms": "ms", "cli.self_ms": "ms", "cli.report_kb": "KiB",
    "corpus.build_ms": "ms", "corpus.build_calls": "count",
    "trace.overhead_pct": "%",
}


def _resolve(module, qualname):
    """(owner, attribute, raw attribute) for 'func' or 'Class.method'."""
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, vars(owner)[attr]
    return module, qualname, getattr(module, qualname)


class Tracer:
    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.category_of: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.open_by_category: dict[str, int] = {}
        self.phase = 0
        self.counts = {key: [0.0] * PHASES for key in
                       list(COUNTS) + [d[0] for d in DERIVED.values()]}
        self._restore: list[tuple] = []
        self._wrappers: dict[tuple, object] = {}

    # ----- wrapping -----------------------------------------------------

    def _span_wrapper(self, fn, layer, category, qualname):
        name_id = len(self.names)
        full = f"{layer}.{qualname.split('.')[-1]}"
        self.names.append(f"{layer}.{qualname}")
        self.layer_of.append(layer)
        key = f"{layer}.{category}"
        self.category_of.append(key)
        self.open_by_category.setdefault(key, 0)
        derived = DERIVED.get(full)
        tr = self

        def wrapper(*args, **kwargs):
            idx = len(tr.start)
            tr.name_id.append(name_id)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.outer.append(tr.open_by_category[key] == 0)
            tr.phase_of.append(tr.phase)
            tr.end.append(0.0)
            tr.open_by_category[key] += 1
            tr.stack.append(idx)
            tr.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = time.perf_counter()
                tr.stack.pop()
                tr.open_by_category[key] -= 1
            if derived is not None:
                counter, how, value = derived
                slot = tr.counts[counter]
                v = value(args, kwargs, result)
                slot[tr.phase] = slot[tr.phase] + v if how == "sum" else max(slot[tr.phase], v)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter):
        slot = self.counts[counter]
        tr = self

        def wrapper(*args, **kwargs):
            slot[tr.phase] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bind(self, module, qualname, make):
        owner, attr, raw = _resolve(module, qualname)
        key = (module.__name__, qualname)
        if key not in self._wrappers:
            self._wrappers[key] = (classmethod(make(raw.__func__))
                                   if isinstance(raw, classmethod) else make(raw))
        new = self._wrappers[key]
        if isinstance(owner, type):
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        modules = [m for name, m in list(sys.modules.items())
                   if name == "proxigraph" or name.startswith("proxigraph.")]
        for m in modules + list(self.extra_modules):
            for name, value in list(vars(m).items()):
                if value is raw:
                    self._restore.append((m, name, raw))
                    setattr(m, name, new)

    def install(self, counts: bool = False) -> None:
        """Wrap the spanned functions, or with counts=True the counted ones."""
        self.uninstall()
        if counts:
            for counter, (module, qualname) in COUNTS.items():
                self._bind(module, qualname, lambda fn, c=counter: self._count_wrapper(fn, c))
            return
        for layer, (module, categories) in SPANS.items():
            for category, names in categories.items():
                for qualname in names:
                    self._bind(module, qualname,
                               lambda fn, q=qualname, c=category, l=layer:
                               self._span_wrapper(fn, l, c, q))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # ----- results ------------------------------------------------------

    def _arrays(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        return (np.frombuffer(self.name_id, dtype=np.int32, count=n), parent,
                start, end, np.frombuffer(self.outer, dtype=np.int8, count=n),
                np.frombuffer(self.phase_of, dtype=np.int8, count=n))

    def layer_metrics(self, per_phase: list[float]) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one round: phase p's totals
        are divided by per_phase[p] (set-up repetitions, span rounds, count
        rounds)."""
        name_id, parent, start, end, outer, phase = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        scale = np.array(per_phase, dtype=float)[phase]
        layer = np.array(self.layer_of)[name_id]
        category = np.array(self.category_of)[name_id]
        out: dict[str, float] = {}
        for lay, (_, categories) in SPANS.items():
            for cat in categories:
                if cat == "other":
                    continue
                sel = (category == f"{lay}.{cat}") & (outer == 1)
                out[f"{lay}.{cat}_ms"] = float(np.sum(dur[sel] / scale[sel])) * 1e3
                out[f"{lay}.{cat}_calls"] = float(np.sum(1.0 / scale[sel]))
            sel = layer == lay
            out[f"{lay}.self_ms"] = float(np.sum(self_time[sel] / scale[sel])) * 1e3
        for counter, slots in self.counts.items():
            how = next((d[1] for d in DERIVED.values() if d[0] == counter), "sum")
            if how == "max":
                out[counter] = max(slots)
            else:
                out[counter] = sum(v / k for v, k in zip(slots, per_phase))
        return {name: out[name] for name in PER_LAYER if name in out}

    def save(self, path: str) -> int:
        """Write the spans as numpy arrays; returns how many."""
        name_id, parent, start, end, _, phase = self._arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, phase=phase,
                            start_us=(start - t0) * 1e6, end_us=(end - t0) * 1e6)
        return len(start)
