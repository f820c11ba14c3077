"""The benchmark's tracer times named package functions; keep them all."""

import importlib
import importlib.util
import inspect
from pathlib import Path


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
