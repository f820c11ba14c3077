"""The benchmark's tracer times named package functions; keep them all."""

import importlib
import importlib.util
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
