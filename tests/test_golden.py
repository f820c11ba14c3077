"""Bit-identity gate: the package's outputs on fixed inputs, as recorded.

golden/values.npz holds every output as raw float64 (whole up to _SAMPLE
entries, else _SAMPLE evenly spaced ones), the p columns of the curve
commands' CSVs among them, and the drawn inputs of the benchmark-spec
cases.  golden/digests.json holds the SHA-256 of every
output's full bytes, of every CLI file and stdout, and the numpy version,
BLAS and CPU features of the machine that recorded them.  Where those
match this machine, every digest must match: the outputs are bit for bit
the recorded ones.  Elsewhere only the probabilities are compared, to
_TOLERANCE, since rounding may move peak times at near-ties, the argmax
and 17-digit text; the test prints which mode ran.

A change meant to move outputs records the files again, and the recorder
prints the entries that moved:  PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from dimerbath import (ThermalSpec, TimeWindow, config_to_dict, evolve_probability,
                       max_over_time, p12, sweep)
from dimerbath.cli import main
from conftest import make_config, random_config

GOLDEN = Path(__file__).resolve().parent / "golden"
_SAMPLE = 4096      # raw values kept per output
_TOLERANCE = 1e-9   # on probabilities, where the machine differs
# elements of one kernel block (dynamics._KERNEL_BLOCK when recorded): the
# p12 lengths straddle a block of times, and span several
_BLOCK = 1 << 16
# rows of one write of the CSV writer (cli._CSV_CHUNK, or a multiple of it):
# the long CLI curve and time axis span several writes
_CSV_ROWS = 4096


def _machine() -> dict:
    """What the bits of the outputs can depend on besides the code."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def _config_row(config) -> list:
    b1, b2, th = config.bath1, config.bath2, config.thermal
    return [config.dimer.epsilon1, config.dimer.epsilon2, config.dimer.J,
            b1.N, b1.alpha, b1.gamma, b2.N, b2.alpha, b2.gamma, config.correlation.q,
            math.nan if th.is_zero_temperature else th.temperature_kelvin]


def _row_config(row):
    e1, e2, J, N1, a1, g1, N2, a2, g2, q, kelvin = row.tolist()
    return make_config(eps1=e1, eps2=e2, J=J, N1=int(N1), alpha1=a1, gamma1=g1,
                       N2=int(N2), alpha2=a2, gamma2=g2, q=q,
                       thermal=ThermalSpec.zero() if math.isnan(kelvin)
                       else ThermalSpec.kelvin(kelvin))


def _draw_inputs() -> dict:
    """The thermal-grid and zero-temp-grid call specs of benchmark seeds 1 and 2.

    Zero-temp-grid keeps every q but only gammas 0, 33, 66 and 99 of 100: a
    cell's result does not depend on the cells around it, and the full
    grids would take seconds.
    """
    path = GOLDEN.parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    inputs = {}
    for workload, gammas in ((workloads.ThermalGrid(), slice(None)),
                             (workloads.ZeroTempGrid(), slice(None, None, 33))):
        specs = [s for seed in (1, 2)
                 for s in workload.make_specs(np.random.default_rng(seed))]
        inputs[f"in/{workload.name}/config"] = np.array([_config_row(s.config) for s in specs])
        inputs[f"in/{workload.name}/gammas"] = np.array([s.gammas[gammas] for s in specs])
        inputs[f"in/{workload.name}/qs"] = np.array([s.qs for s in specs])
    return inputs


def _put_grid(out: dict, name: str, grid, argmax=False):
    out[f"{name}/p"], out[f"{name}/t"] = grid.values, grid.t_star
    if argmax:
        a = grid.argmax
        out[f"{name}/argmax"] = np.array([*a["indices"], *a["parameters"].values(),
                                          a["t_star"], a["p_star"]])


def _outputs(inputs: dict) -> dict:
    """Every library output of the gate, by name; a name ending in /p is a probability."""
    out = {}
    hot = make_config(N1=22, gamma1=1.3, N2=20, gamma2=1.3 * math.sqrt(2.0), q=12.0,
                      thermal=ThermalSpec.kelvin(77.0))
    cold = make_config(N1=4, gamma1=1.3, N2=5, gamma2=2.0)
    # 23 x 21 distinct detunings at finite T, one at zero T
    for tag, cfg, block in (("finite", hot, _BLOCK // 483), ("zero", cold, _BLOCK)):
        for n in (0, 1, block - 1, block, block + 1, 3 * block + 7):
            out[f"p12/{tag}/{n}/p"] = p12(cfg, np.linspace(0.0, 2.0, n))
    correlated = make_config(N1=4, gamma1=1.3, N2=5, gamma2=2.0, q=150.0)
    out["p12/zero-correlated/p"] = p12(correlated, np.linspace(0.0, 2.0, 1000))

    # time-axis sweeps: every axis kind, on either side of t, in both regimes
    base = make_config(N1=6, gamma1=1.3, N2=5, gamma2=0.7, q=5.0)
    ts = np.linspace(0.0, 1.5, 41)
    others = [("gamma1", [0.0, -0.0, 1.5]), ("gamma2", [-0.0, 2.0]),
              ("gamma_both", [0.5, 2.5]), ("q", [0.0, 30.0, 120.0]),
              ("temperature", [77.0, 300.0]), ("J", [3.0, -10.0])]
    for tag, thermal in (("finite", ThermalSpec.kelvin(77.0)), ("zero", ThermalSpec.zero())):
        cfg = replace(base, thermal=thermal)
        _put_grid(out, f"time/{tag}/t", sweep(cfg, [("t", ts)]), argmax=True)
        for i, axis in enumerate(others):
            axes = [("t", ts), axis] if i % 2 else [axis, ("t", ts)]
            _put_grid(out, f"time/{tag}/{axis[0]}", sweep(cfg, axes), argmax=True)
    long_ts = np.linspace(0.0, 2.0, 3 * (_BLOCK // 483) + 7)
    _put_grid(out, "time/finite/long", sweep(hot, [("q", [0.0, 30.0]), ("t", long_ts)]))

    # the headline grids of criterion 06
    for kelvin in (77.0, 300.0):
        cfg = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(kelvin))
        grid = sweep(cfg, [("gamma_both", np.linspace(0.0, 4.0, 41)),
                           ("q", np.linspace(0.0, 40.0, 41))], TimeWindow())
        _put_grid(out, f"headline/{kelvin:g}K", grid, argmax=True)

    rng = np.random.default_rng(18)
    for tag in ("finite", "zero"):
        configs = [random_config(rng, n_max=30, zero_temp=tag == "zero") for _ in range(10)]
        for w, window in enumerate((TimeWindow(), TimeWindow(0.3, 1.1, 500))):
            peaks = np.array([max_over_time(cfg, window) for cfg in configs])
            out[f"max/{tag}/{w}/t"], out[f"max/{tag}/{w}/p"] = peaks.T

    # the oracle at N <= 6, both regimes
    for tag in ("finite", "zero"):
        configs = [random_config(rng, n_max=6, zero_temp=tag == "zero") for _ in range(4)]
        out[f"oracle/{tag}/p"] = [evolve_probability(cfg, np.linspace(0.0, 2.0, 50))
                                  for cfg in configs]

    for name in ("thermal-grid", "zero-temp-grid"):
        rows = zip(inputs[f"in/{name}/config"], inputs[f"in/{name}/gammas"],
                   inputs[f"in/{name}/qs"])
        grids = [sweep(_row_config(row), [("gamma_both", g), ("q", q)]) for row, g, q in rows]
        out[f"bench/{name}/p"] = np.array([g.values for g in grids])
        out[f"bench/{name}/t"] = np.array([g.t_star for g in grids])
    return {name: np.asarray(v, dtype=np.float64) for name, v in out.items()}


def _cli_outputs(workdir: Path) -> tuple[dict, dict]:
    """The p column of every curve CSV, by name, and the CSV, sidecar and
    stdout bytes of the curve, max and sweep commands."""
    configs = {
        "hot": make_config(N1=22, gamma1=1.3, N2=20, gamma2=1.3, thermal=ThermalSpec.kelvin(77.0)),
        "cold": make_config(N1=6, gamma1=1.3, N2=5, gamma2=0.7),
        "correlated": make_config(N1=6, gamma1=1.3, N2=5, gamma2=0.7, q=150.0),
    }
    for name, cfg in configs.items():
        (workdir / f"{name}.json").write_text(json.dumps(config_to_dict(cfg)))
    runs = {
        "thermal": ["thermal", "hot", "--steps", "3000"],
        "zero-temp": ["zero-temp", "cold", "--steps", "500"],
        "correlated-zero-temp": ["correlated-zero-temp", "correlated", "--steps", "500"],
        "thermal-late": ["thermal", "hot", "--t-min", "0.7", "--t-max", "1.9", "--steps", "1001"],
        "thermal-long": ["thermal", "hot", "--t-max", "12", "--steps", str(3 * _CSV_ROWS + 7)],
        "max-hot": ["max", "hot"],
        "max-cold": ["max", "cold", "--t-min", "0.3", "--t-max", "1.1"],
        "sweep-1d": ["sweep", "hot", "--axis", "gamma_both=0:4:6"],
        "sweep-1d-cold": ["sweep", "cold", "--axis", "q=0:160:5"],
        "sweep-2d": ["sweep", "hot", "--axis", "gamma_both=0:4:5", "--axis", "q=0:40:4"],
        "sweep-t": ["sweep", "hot", "--axis", "t=0:1:50", "--axis", "q=0:40:3"],
        "sweep-t-cold": ["sweep", "cold", "--axis", "temperature=77:300:2", "--axis", "t=0:1:50"],
        "sweep-t-long": ["sweep", "hot", "--axis", f"t=0:2:{2 * _CSV_ROWS + 5}"],
    }
    columns, out = {}, {}
    for name, (command, config, *rest) in runs.items():
        path = workdir / f"{name}.out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--config", str(workdir / f"{config}.json"),
                         *rest, "--out", str(path)])
        assert code == 0, name
        out[f"cli/{name}/stdout"] = stdout.getvalue().encode()
        out[f"cli/{name}/out"] = path.read_bytes()
        if command in ("thermal", "zero-temp", "correlated-zero-temp"):
            columns[f"cli/{name}/p"] = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
        sidecar = workdir / f"{name}.argmax.txt"
        if sidecar.exists():
            out[f"cli/{name}/argmax"] = sidecar.read_bytes()
    return columns, out


def _sample(a: np.ndarray) -> np.ndarray:
    flat = a.ravel()
    if flat.size <= _SAMPLE:
        return flat
    return flat[np.linspace(0, flat.size - 1, _SAMPLE).round().astype(np.intp)]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(outputs: dict, cli_bytes: dict) -> dict:
    entries = {name: {"shape": list(a.shape), "sha256": _digest(a.tobytes())}
               for name, a in outputs.items()}
    entries.update({name: {"sha256": _digest(b)} for name, b in cli_bytes.items()})
    return entries


def test_outputs_equal_the_recorded_ones(tmp_path):
    recorded = json.loads((GOLDEN / "digests.json").read_text())
    with np.load(GOLDEN / "values.npz") as npz:
        stored = dict(npz)
    outputs = _outputs({k: v for k, v in stored.items() if k.startswith("in/")})
    columns, cli_bytes = _cli_outputs(tmp_path)
    outputs.update(columns)
    entries = _digests(outputs, cli_bytes)
    assert entries.keys() == recorded["entries"].keys()
    if recorded["machine"] == _machine():
        print(f"golden: bit-exact mode, {len(entries)} entries")
        moved = [name for name, e in entries.items() if e != recorded["entries"][name]]
        assert not moved, f"outputs differ from the recorded ones: {moved}"
        return
    print(f"golden: tolerance mode ({_TOLERANCE:g} on probabilities); "
          f"recorded on {recorded['machine']}, running on {_machine()}")
    for name, a in outputs.items():
        assert list(a.shape) == recorded["entries"][name]["shape"], name
        if name.endswith("/p"):
            np.testing.assert_allclose(_sample(a), stored[name], rtol=0,
                                       atol=_TOLERANCE, err_msg=name)


def _change(new, kept) -> str:
    """How a moved numeric entry moved: its changed values and their max |delta|,
    among the values the npz keeps of it; "" for bytes or a new entry."""
    if new is None or kept is None:
        return ""
    new = _sample(new)
    if new.shape != kept.shape:
        return f"(shape {kept.shape} -> {new.shape})"
    changed = new.view(np.uint64) != kept.view(np.uint64)
    delta = np.abs(new[changed] - kept[changed])
    return (f"({int(changed.sum())} of {new.size} kept values changed, "
            f"max |delta| {delta.max(initial=0.0):.3g})")


def _record():
    inputs = _draw_inputs()
    outputs = _outputs(inputs)
    with tempfile.TemporaryDirectory() as workdir:
        columns, cli_bytes = _cli_outputs(Path(workdir))
    outputs.update(columns)
    entries = _digests(outputs, cli_bytes)
    old = GOLDEN / "digests.json"
    if old.exists():
        before = json.loads(old.read_text())["entries"]
        with np.load(GOLDEN / "values.npz") as npz:
            stored = dict(npz)
        for name in sorted(entries.keys() | before.keys()):
            if entries.get(name) != before.get(name):
                print("moved:", name, _change(outputs.get(name), stored.get(name)))
    GOLDEN.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN / "values.npz", **inputs,
                        **{name: _sample(a) for name, a in outputs.items()})
    old.write_text(json.dumps({"machine": _machine(), "entries": entries},
                              indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} entries in {GOLDEN}")


if __name__ == "__main__":
    sys.exit(_record())
