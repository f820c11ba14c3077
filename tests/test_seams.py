"""The benchmark's tracer times named package functions; keep them all."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import dimerbath
from dimerbath import ThermalSpec, TimeWindow, max_over_time
from conftest import make_config

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the window-edge peak of test_window_edge_peak_takes_golden_section, traced;
# a subprocess, since Tracer.install rebinds the package for the whole process
_TRACED_EDGE_PEAK = """
import importlib.util, json, sys
import dimerbath
import dimerbath.cli  # the tracer wraps the seams of loaded modules only
from dimerbath import (BathParams, CorrelationParams, DimerParams, SystemConfig,
                       ThermalSpec, TimeWindow)
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
tracer.active = True
config = SystemConfig(dimer=DimerParams(epsilon1=0.0, epsilon2=20.0, J=10.0),
                      bath1=BathParams(N=1, alpha=250.0, gamma=0.0),
                      bath2=BathParams(N=20, alpha=250.0, gamma=0.0),
                      correlation=CorrelationParams(q=0.0),
                      thermal=ThermalSpec.kelvin(300.0))
t, p = dimerbath.max_over_time(config, TimeWindow(t_max=0.1, coarse_steps=200))
print(json.dumps({"missing": sorted(tracer.missing), "peak": [t.hex(), p.hex()],
                  "evals": tracer.counts["sweeps.golden_max.evals"]}))
"""


def test_traced_golden_section_sees_every_evaluation_and_changes_no_bit():
    # test_traced_seams_keep_the_arguments_the_hooks_read checks names only;
    # this run calls the golden hook's wrapped f as the search calls it
    src = str(Path(dimerbath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_EDGE_PEAK, str(_TRACING)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["missing"] == []
    assert traced["evals"] > 0
    t, p = max_over_time(make_config(gamma2=0.0, thermal=ThermalSpec.kelvin(300.0)),
                         TimeWindow(t_max=0.1, coarse_steps=200))
    assert traced["peak"] == [t.hex(), p.hex()]


def test_every_traced_seam_resolves():
    # a seam that is gone makes the traced benchmark report its metrics as null
    for module, attr, name in _tracing().SEAMS:
        target = getattr(importlib.import_module("dimerbath." + module), attr, None)
        assert callable(target), f"{name}: dimerbath.{module}.{attr} is missing"


def _parameters(module, attr):
    fn = getattr(importlib.import_module("dimerbath." + module), attr)
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD]


def test_traced_seams_keep_the_arguments_the_hooks_read():
    # the golden hook wraps args[0] as the evaluated function, the p12 hook
    # counts the points of args[1] or t=, the CSV hook sizes the file at args[0]
    assert _parameters("sweeps", "_golden_max")[0] == "f"
    assert _parameters("dynamics", "p12_thermal") == ["config", "t"]
    assert _parameters("cli", "emit_curve_csv")[0] == "path"
