"""Quick self-test of the benchmark: python3 -m pytest bench/test_bench.py

Runs every workload at a tiny size, checks metric names and units against
BENCHMARK.json, and confirms that corrupted outputs count as failed ops.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import worker  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, GridSpec, OracleSpec, _config  # noqa: E402

import dimerbath as db  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name):
    """The named workload at a size that runs in well under a second."""
    w = WORKLOADS[name]()
    if name == "thermal-grid":
        w.n_gamma, w.n_q = 1, 2
    elif name == "zero-temp-grid":
        w.n_gamma, w.n_q = 3, 4
    elif name == "cli-curve":
        w.steps = 300
    w.n_specs = 2
    return w


def tiny_specs(w, workdir):
    if w.name == "oracle-check":
        config = _config(20.0, 10.0, 2, 2, 250.0, 250.0, 2.0, 5.0,
                         db.ThermalSpec.kelvin(300.0))
        specs = [OracleSpec(config, np.linspace(0.0, 2.0, 20))]
    else:
        specs = w.make_specs(np.random.default_rng(3))
    w.prepare(specs, str(workdir))
    return specs


@pytest.fixture(params=sorted(WORKLOADS))
def setup(request, tmp_path):
    w = tiny(request.param)
    return w, tiny_specs(w, tmp_path)


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in PER_LAYER.items()}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m


def test_workload_runs_tiny_and_passes_its_check(setup):
    w, specs = setup
    res = worker.measure(w, specs, seconds=0.0, setup_s=0.1)
    assert res["correct"] and res["attempted"] >= 1
    assert 1 <= res["completed"] <= res["attempted"]
    notes = res["notes"]
    if w.name == "thermal-grid":
        # every p* is P(t*); a cell may fail only by stopping on a peak up to
        # ~1e-5 below the window's highest one
        assert notes["value_fail"] == 0 and notes["max_shortfall"] < 1e-4
    else:
        # zero-T failures are all the known branch-classifier defect
        assert res["failed"] == notes.get("known_defect", 0)
    assert res["measured_s"] > 0 and res["peak_rss_mb"] > 0
    assert len(res["latencies"]) >= 1 and min(res["latencies"]) > 0


def test_traced_run_reports_every_layer_metric(setup):
    w, specs = setup
    w.trace_calls = lambda seconds: len(specs)
    res = worker.trace(w, specs, seconds=0.0)
    assert res["correct"]
    assert set(res["per_layer"]) == set(PER_LAYER)
    for name, m in res["per_layer"].items():
        assert NAME.match(name) and UNIT.match(m["unit"])
        assert m["value"] is None or isinstance(m["value"], (int, float))


def test_missing_seam_reports_null(monkeypatch):
    import dimerbath.sweeps
    monkeypatch.delattr(dimerbath.sweeps, "_golden_max")
    tracer = Tracer()
    tracer.install()
    metrics = tracer.metrics({k: 0 for k, (_, seam) in PER_LAYER.items() if seam is None})
    for name in ("sweeps.golden_max.calls", "sweeps.golden_max.self_s",
                 "sweeps.golden_max.evals", "sweeps.refine_useful_frac"):
        assert metrics[name]["value"] is None
    assert metrics["sweeps.max_over_time.calls"]["value"] == 0


def _corrupt(w, out):
    if w.name in ("thermal-grid", "zero-temp-grid"):
        out.values[0, 0] -= 1e-6
        return out
    if w.name == "oracle-check":
        analytic, numeric = out
        return analytic, numeric + 1e-6
    with open(out) as fh:
        lines = fh.readlines()
    for k in range(1, len(lines)):      # every row, so any sample hits one
        t, p = lines[k].strip().split(",")
        lines[k] = f"{t},{float(p) + 1e-6!r}\n"
    with open(out, "w") as fh:
        fh.writelines(lines)
    return out


def test_corrupted_output_counts_as_failed_op(setup):
    w, specs = setup
    spec = specs[0]
    out = _corrupt(w, w.call(spec))
    attempted, _, failed, correct, _ = worker.check_all(w, [(spec, out)])
    assert failed >= 1 and not correct
    assert attempted == w.ops(spec)


def test_raised_call_counts_every_op_failed(setup):
    w, specs = setup
    attempted, checked, failed, correct, notes = worker.check_all(
        w, [(specs[0], ValueError("boom"))])
    assert failed == checked == attempted == w.ops(specs[0])
    assert not correct and "boom" in notes[0]["error"]


def test_raised_calls_are_not_completed_ops(setup, monkeypatch):
    w, specs = setup

    def boom(spec):
        raise ValueError("boom")
    monkeypatch.setattr(w, "call", boom)
    res = worker.measure(w, specs, seconds=0.0, setup_s=0.1)
    assert res["completed"] == 0 and res["failed"] == res["attempted"] >= 1
    assert not res["correct"]


def _classifier_defect_specs():
    """A zero-T grid cell and an oracle config where the branch label is wrong.

    alpha1 > alpha2 makes the package flip bath 2, but alpha1*N1 < alpha2*N2,
    so enumeration flips bath 1 (ROADMAP, known defects).
    """
    grid = _config(20.0, 10.0, 20, 24, 260.0, 250.0, 0.0, 0.0, db.ThermalSpec.zero())
    q0 = db.q_threshold(260.0, 250.0, 20, 24)
    small = _config(20.0, 10.0, 3, 5, 260.0, 250.0, 2.0, 1.5 * db.q_threshold(260.0, 250.0, 3, 5),
                    db.ThermalSpec.zero())
    return (GridSpec(grid, np.array([0.0, 2.0]), np.array([0.5 * q0, 1.5 * q0])),
            OracleSpec(small, np.linspace(0.0, 2.0, 20)))


@pytest.mark.parametrize("name", ["zero-temp-grid", "oracle-check"])
def test_known_defect_fails_ops_but_keeps_values_correct(name):
    w = WORKLOADS[name]()
    spec = _classifier_defect_specs()[name == "oracle-check"]
    out = w.call(spec)
    res = w.check(spec, out)
    # zero-T grid: only the cell above q0 with gamma != 0 has a wrong detuning
    assert res.failed == res.notes["known_defect"] == 1 and not res.wrong_value
    if name == "zero-temp-grid":
        out.values[1, 1] += 1e-6    # the defect cell itself
    else:
        out = _corrupt(w, out)
    assert w.check(spec, out).wrong_value


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(100))
    value, label = run.tail_percentile(samples)
    assert sum(s > value for s in samples) == 10 and label == "p90"
    assert run.tail_percentile(list(range(20))) == (19, "max")


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "thermal-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
