"""Per-layer spans and counters, installed from outside the package.

Spans wrap the package's module-level functions by rebinding every module
attribute that refers to them, so calls between modules are seen too.  A
span's self time is its duration minus the time of the spans it encloses.
Counters are kept at the same seams.  A seam that a refactor removed is
recorded as missing and its metrics are reported as null.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy

# (module, attribute, span name) of every wrapped seam
SEAMS = [
    ("config", "validated", "config.validated"),
    ("config", "load_config", "config.load_config"),
    ("combinatorics", "thermal_weights", "combinatorics.thermal_weights"),
    ("dynamics", "_sector_arrays", "dynamics.sector_arrays"),
    ("dynamics", "p12_thermal", "dynamics.p12_thermal"),
    ("dynamics", "correlated_ground_state", "dynamics.correlated_ground_state"),
    ("dynamics", "delta0_correlated", "dynamics.delta0_correlated"),
    ("sweeps", "sweep", "sweeps.sweep"),
    ("sweeps", "max_over_time", "sweeps.max_over_time"),
    ("sweeps", "_golden_max", "sweeps.golden_max"),
    ("sweeps", "_zero_temp_peak", "sweeps.zero_temp_peak"),
    ("oracle", "build_hamiltonian", "oracle.build_hamiltonian"),
    ("oracle", "thermal_ensemble", "oracle.thermal_ensemble"),
    ("oracle", "evolve_probability", "oracle.evolve_probability"),
    ("cli", "main", "cli.main"),
    ("cli", "emit_curve_csv", "cli.emit_curve_csv"),
    ("cli", "write_manifest", "cli.write_manifest"),
]
EIGH = "oracle.eigh"   # numpy.linalg.eigh as called from the oracle module

# per-layer metrics: name -> (unit, span the metric needs, or None)
PER_LAYER = {
    "config.validated.calls": ("count", "config.validated"),
    "config.validated.self_s": ("s", "config.validated"),
    "config.load_config.self_s": ("s", "config.load_config"),
    "combinatorics.thermal_weights.calls": ("count", "combinatorics.thermal_weights"),
    "combinatorics.thermal_weights.self_s": ("s", "combinatorics.thermal_weights"),
    "combinatorics.sectors": ("count", None),
    "dynamics.sector_arrays.calls": ("count", "dynamics.sector_arrays"),
    "dynamics.sector_arrays.self_s": ("s", "dynamics.sector_arrays"),
    "dynamics.distinct_detunings": ("count", None),
    "dynamics.p12_thermal.calls": ("count", "dynamics.p12_thermal"),
    "dynamics.p12_thermal.self_s": ("s", "dynamics.p12_thermal"),
    "dynamics.p12_thermal.points": ("count", "dynamics.p12_thermal"),
    "dynamics.correlated_ground_state.calls": ("count", "dynamics.correlated_ground_state"),
    "dynamics.correlated_ground_state.self_s": ("s", "dynamics.correlated_ground_state"),
    "dynamics.delta0_correlated.self_s": ("s", "dynamics.delta0_correlated"),
    "dynamics.sin_evals": ("count", None),
    "dynamics.branch_label_mismatch_frac": ("ratio", None),
    "sweeps.sweep.self_s": ("s", "sweeps.sweep"),
    "sweeps.max_over_time.calls": ("count", "sweeps.max_over_time"),
    "sweeps.max_over_time.self_s": ("s", "sweeps.max_over_time"),
    "sweeps.golden_max.calls": ("count", "sweeps.golden_max"),
    "sweeps.golden_max.self_s": ("s", "sweeps.golden_max"),
    "sweeps.golden_max.evals": ("count", "sweeps.golden_max"),
    "sweeps.refine_useful_frac": ("ratio", "sweeps.golden_max"),
    "sweeps.zero_temp_peak.calls": ("count", "sweeps.zero_temp_peak"),
    "sweeps.zero_temp_peak.self_s": ("s", "sweeps.zero_temp_peak"),
    "oracle.build_hamiltonian.calls": ("count", "oracle.build_hamiltonian"),
    "oracle.build_hamiltonian.self_s": ("s", "oracle.build_hamiltonian"),
    "oracle.eigh.self_s": ("s", EIGH),
    "oracle.thermal_ensemble.self_s": ("s", "oracle.thermal_ensemble"),
    "oracle.evolve_probability.self_s": ("s", "oracle.evolve_probability"),
    "oracle.dimension": ("count", None),
    "cli.main.self_s": ("s", "cli.main"),
    "cli.load_config.self_s": ("s", "config.load_config"),
    "cli.emit_curve_csv.self_s": ("s", "cli.emit_curve_csv"),
    "cli.emit_curve_csv.bytes": ("bytes", "cli.emit_curve_csv"),
    "cli.write_manifest.self_s": ("s", "cli.write_manifest"),
    "trace.overhead_frac": ("ratio", None),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []                 # open spans: [name, start, child seconds]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.self_under_cli = defaultdict(float)  # self time while cli.main is open
        self.counts = Counter()
        self.missing = set()
        self._golden_result = None

    # -- spans -----------------------------------------------------------------

    def _enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name):
        _, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if any(frame[0] == "cli.main" for frame in self.stack):
            self.self_under_cli[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- seam hooks --------------------------------------------------------------

    def _golden_before(self, args, kwargs):
        f = args[0]

        def counted(t):
            self.counts["sweeps.golden_max.evals"] += 1
            return f(t)
        return (counted,) + tuple(args[1:]), kwargs

    def _golden_after(self, args, kwargs, result):
        self._golden_result = result

    def _max_before(self, args, kwargs):
        self._golden_result = None
        return args, kwargs

    def _max_after(self, args, kwargs, result):
        if self._golden_result is not None:
            self.counts["refined"] += 1
            self.counts["refine_useful"] += tuple(result) == tuple(self._golden_result)

    def _p12_before(self, args, kwargs):
        t = args[1] if len(args) > 1 else kwargs["t"]
        self.counts["dynamics.p12_thermal.points"] += int(numpy.size(t))
        return args, kwargs

    def _csv_after(self, args, kwargs, result):
        self.counts["cli.emit_curve_csv.bytes"] += os.path.getsize(args[0])

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every seam that exists; call once per process."""
        hooks = {
            "sweeps.golden_max": (self._golden_before, self._golden_after),
            "sweeps.max_over_time": (self._max_before, self._max_after),
            "dynamics.p12_thermal": (self._p12_before, None),
            "cli.emit_curve_csv": (None, self._csv_after),
        }
        modules = [m for n, m in sys.modules.items()
                   if (n == "dimerbath" or n.startswith("dimerbath.")) and m is not None]
        for mod_name, attr, name in SEAMS:
            original = getattr(sys.modules.get("dimerbath." + mod_name), attr, None)
            if original is None:
                self.missing.add(name)
                continue
            before, after = hooks.get(name, (None, None))
            wrapped = self.span(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        proxy = _NumpyProxy(self)
        for mod in modules:
            if vars(mod).get("np") is numpy:
                mod.np = proxy

    # -- report --------------------------------------------------------------------

    def metrics(self, extra):
        """Every per-layer metric; extra holds the ones computed outside spans."""
        values = {
            "dynamics.sin_evals": self.counts["dynamics.sin_evals"],
            "dynamics.p12_thermal.points": self.counts["dynamics.p12_thermal.points"],
            "sweeps.golden_max.evals": self.counts["sweeps.golden_max.evals"],
            "cli.emit_curve_csv.bytes": self.counts["cli.emit_curve_csv.bytes"],
            "sweeps.refine_useful_frac": (
                self.counts["refine_useful"] / self.counts["refined"]
                if self.counts["refined"] else 0.0),
            "cli.load_config.self_s": self.self_under_cli["config.load_config"],
        }
        out = {}
        for metric, (unit, seam) in PER_LAYER.items():
            if seam is not None and seam in self.missing:
                value = None
            elif metric in extra:
                value = extra[metric]
            elif metric in values:
                value = values[metric]
            elif metric.endswith(".calls"):
                value = self.calls[metric[:-len(".calls")]]
            elif metric.endswith(".self_s"):
                value = self.self_s[metric[:-len(".self_s")]]
            else:
                raise KeyError(metric)
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            out[metric] = {"value": value, "unit": unit}
        return out


class _LinalgProxy:
    def __init__(self, tracer):
        self.eigh = tracer.span(EIGH, numpy.linalg.eigh)

    def __getattr__(self, name):
        return getattr(numpy.linalg, name)


class _NumpyProxy:
    """Stands in for `np` inside the package: counts sin elements, times eigh."""

    def __init__(self, tracer):
        self._tracer = tracer
        self.linalg = _LinalgProxy(tracer)

    def __getattr__(self, name):
        return getattr(numpy, name)

    def sin(self, x, *args, **kwargs):
        if self._tracer.active:
            self._tracer.counts["dynamics.sin_evals"] += int(numpy.size(x))
        return numpy.sin(x, *args, **kwargs)
