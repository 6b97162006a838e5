"""Spans around the calls into each layer, and the per-layer report.

The traced run replaces each layer's public functions, in every
``gradedroots`` module that holds a reference to them, by a wrapper that
records a span: name, start, end, parent span and operation id.  Spans
stay in memory and are written out when the run ends.  A few wrappers
record a count only (points enumerated, levels labelled), where a span
would split a layer's time across two names.

A layer's self time is the duration of its spans minus the part covered by
their child spans; ``cli.self_s`` is therefore the part of each command
that no library span covers.

``trace.overhead_s`` is the time the span wrappers add to a batch: the
spans per batch times the cost of one wrapper, measured on a wrapped no-op.
The difference between a traced and an untraced round is smaller than the
host's round-to-round noise, so it is not measured that way.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# span name -> (module, function) wrapped
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.verify_oracle_graph": ("cli", "verify_oracle_graph"),
    "plumbing.build_graph": ("plumbing", "build_graph"),
    "plumbing.build_form": ("plumbing", "_build_form"),
    "plumbing.casson_walker": ("plumbing", "casson_walker"),
    "plumbing.k_squared_plus_s": ("plumbing", "k_squared_plus_s"),
    "engine.classify": ("engine", "classify"),
    "engine.analyze_all": ("engine", "analyze_all"),
    "engine.analyze_orbit": ("engine", "analyze_orbit"),
    "engine.tau": ("engine", "tau"),
    "spinc.enumerate_spinc": ("spinc", "enumerate_spinc"),
    "spinc.distinguished_rep": ("spinc", "distinguished_rep"),
    "roots.root_from_tau": ("roots", "root_from_tau"),
    "roots.root_from_minima": ("roots", "root_from_minima"),
    "roots.module_of_root": ("roots", "module_of_root"),
    "oracle.root_oracle": ("oracle", "root_oracle"),
    "oracle.enumerate_sublevel": ("oracle", "enumerate_sublevel"),
    "lens.verify_lens_sweep": ("lens", "verify_lens_sweep"),
    "lens.lens_invariants": ("lens", "lens_invariants"),
    "lens.torsion_fourier_all": ("lens", "torsion_fourier_all"),
    "seifert.verify_sw_identity": ("seifert", "verify_sw_identity"),
    "seifert.enumerate_seifert_spinc": ("seifert", "enumerate_seifert_spinc"),
    "seifert.seifert_tau": ("seifert", "seifert_tau"),
    "seifert.seifert_torsion_limit": ("seifert", "seifert_torsion_limit"),
    "seifert.torsion_limit_numeric": ("seifert", "torsion_limit_numeric"),
}

# count-only wrappers: (module, function) -> counter name
COUNTS = {
    ("oracle", "_enumerate_points"): "oracle.points",
    ("_kernels", "sublevel_labels"): "oracle.levels",
}

# self-time metric -> span names it sums
TIME_METRICS = {
    "cli.self_s": ("cli.main", "cli.verify_oracle_graph"),
    "plumbing.form_s": ("plumbing.build_graph", "plumbing.build_form"),
    "plumbing.invariants_s": ("plumbing.casson_walker", "plumbing.k_squared_plus_s"),
    "engine.classify_s": ("engine.classify",),
    "engine.orbit_s": ("engine.analyze_all", "engine.analyze_orbit"),
    "engine.tau_s": ("engine.tau",),
    "spinc.enumerate_s": ("spinc.enumerate_spinc", "spinc.distinguished_rep"),
    "roots.root_s": ("roots.root_from_tau", "roots.root_from_minima"),
    "roots.module_s": ("roots.module_of_root",),
    "oracle.root_s": ("oracle.root_oracle",),
    "oracle.sublevel_s": ("oracle.enumerate_sublevel",),
    "lens.sweep_s": ("lens.verify_lens_sweep",),
    "lens.table_s": ("lens.lens_invariants",),
    "lens.fourier_s": ("lens.torsion_fourier_all",),
    "seifert.enumerate_s": ("seifert.enumerate_seifert_spinc",),
    "seifert.limit_s": ("seifert.seifert_torsion_limit",),
    "seifert.numeric_s": ("seifert.torsion_limit_numeric",),
    "seifert.verify_s": ("seifert.verify_sw_identity", "seifert.seifert_tau"),
}


COUNT_METRICS = ("plumbing.forms", "spinc.orbits", "engine.tau_terms", "roots.vertices",
                 "oracle.points", "oracle.levels", "lens.sweep_orbits", "seifert.orbits")
UNITS = {"spinc.us_per_orbit": "us", "engine.tau_useful_ratio": "ratio",
         "oracle.points_per_s": "1/s", "trace.spans": "count", "trace.overhead_s": "s"}
UNITS.update({k: "s" for k in TIME_METRICS})
UNITS.update({k: "count" for k in COUNT_METRICS})


def unit(name):
    return UNITS[name]


def _last_descent_terms(values):
    """Terms of tau up to and including its last strict descent."""
    last = 0
    for i in range(len(values) - 1):
        if values[i + 1] < values[i]:
            last = i + 1
    return last + 1


def _count_result(counts, name, result):
    """Counters read off the return value of a wrapped call."""
    if name == "plumbing.build_form":
        counts["plumbing.forms"] += 1
    elif name == "spinc.distinguished_rep":
        counts["spinc.orbits"] += 1
    elif name == "engine.tau":
        counts["engine.tau_terms"] += len(result.values)
        counts["engine.tau_useful_terms"] += _last_descent_terms(result.values)
    elif name in ("roots.root_from_tau", "roots.root_from_minima"):
        counts["roots.vertices"] += len(result.chi)
    elif name == "lens.verify_lens_sweep":
        counts["lens.sweep_orbits"] += result["orbits"]
    elif name == "seifert.enumerate_seifert_spinc":
        counts["seifert.orbits"] += len(result)
    elif name == "oracle.points":
        counts[name] += len(result[1])
    elif name == "oracle.levels":
        counts[name] += result.shape[0]


def span_cost():
    """Seconds that a span wrapper adds to one call: the median over five
    timings of 10 000 calls to a wrapped and a bare no-op."""
    calls = 10000
    def noop():
        return None

    wrapped = Tracer()._span("calibration", noop)

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls
    return statistics.median(per_call(wrapped) - per_call(noop) for _ in range(5))


class Tracer:
    """Installs the wrappers, records spans and counts, removes the wrappers."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._installed = []     # (module, attribute, original)

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            _count_result(counts, name, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            _count_result(counts, name, result)
            return result
        return wrapper

    def _replace(self, module, attr, make):
        """Swap ``module.attr`` for make(original) in every gradedroots module
        that holds the same object, so imported names are wrapped too."""
        original = getattr(sys.modules[f"gradedroots.{module}"], attr)
        wrapped = make(original)
        for modname, mod in list(sys.modules.items()):
            if modname == "gradedroots" or modname.startswith("gradedroots."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, original))

    def install(self):
        for name, (module, attr) in SPANS.items():
            self._replace(module, attr, lambda fn, name=name: self._span(name, fn))
        for (module, attr), name in COUNTS.items():
            self._replace(module, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def self_times(self):
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[idx]
        return out

    def metrics(self, rounds):
        """Per-layer metrics, per batch (totals divided by ``rounds``)."""
        selft = self.self_times()
        c = self.counts
        m = {k: sum(selft[n] for n in names) / rounds for k, names in TIME_METRICS.items()}
        per_round = {k: c[k] / rounds for k in COUNT_METRICS}
        m.update(per_round)
        m["spinc.us_per_orbit"] = (m["spinc.enumerate_s"] / per_round["spinc.orbits"] * 1e6
                                   if c["spinc.orbits"] else 0.0)
        m["engine.tau_useful_ratio"] = (c["engine.tau_useful_terms"] / c["engine.tau_terms"]
                                        if c["engine.tau_terms"] else 0.0)
        oracle_s = m["oracle.root_s"] + m["oracle.sublevel_s"]
        m["oracle.points_per_s"] = per_round["oracle.points"] / oracle_s if oracle_s else 0.0
        m["trace.spans"] = len(self.spans) / rounds
        m["trace.overhead_s"] = m["trace.spans"] * span_cost()
        return m

    def dump(self, path, meta):
        with open(path, "w") as f:
            json.dump({"meta": meta,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, f)
