import json
import math

import numpy as np
import pytest

from dimerbath import config_from_dict, evolve_probability, load_config, p12, sweep
from dimerbath.cli import _CSV_CHUNK, emit_curve_csv, main

FIG2_FREE = {
    "epsilon1": 0.0, "epsilon2": 20.0, "J": 10.0,
    "N1": 1, "alpha1": 250.0, "gamma1": 0.0,
    "N2": 20, "alpha2": 250.0, "gamma2": 0.0,
    "q": 0.0, "zero_temperature": True,
}


@pytest.fixture
def config_file(tmp_path):
    def write(name="config.json", **overrides):
        data = dict(FIG2_FREE, **overrides)
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


def read_curve(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_ps,p12"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    return rows


def test_validate_ok(config_file, capsys):
    assert main(["validate", "--config", config_file()]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_all_errors(config_file, capsys):
    path = config_file(J=0.0, N2=0)
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "J" in err and "N" in err


@pytest.mark.parametrize("overrides, message", [
    (dict(J=True), "J must be a finite number, got True"),
    (dict(N1=True), "bath1.N must be a positive integer, got True"),
    (dict(zero_temperature=1), "zero_temperature must be true or false, got 1"),
])
def test_validate_rejects_a_json_bool_as_a_number_and_a_number_as_the_tag(
        config_file, capsys, overrides, message):
    assert main(["validate", "--config", config_file(**overrides)]) == 2
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("overrides", [
    dict(beta=1e305, q=5.0), dict(temperature_kelvin=77.0, q=1e307),
    dict(temperature_kelvin=1e-306, q=5.0)])
def test_an_overflowing_boltzmann_exponent_exits_2(config_file, tmp_path, capsys, overrides):
    # the parent printed ok, and p_star = nan from max
    path = config_file(N1=22, gamma1=1.0, gamma2=1.0, zero_temperature=None, **overrides)
    for command in (["validate"], ["max"], ["sweep", "--axis", "gamma_both=0:4:3",
                                             "--out", str(tmp_path / "grid.csv")]):
        assert main([command[0], "--config", path] + command[1:]) == 2
        assert "overflows" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("axis", ["q=0:1e307:3", "temperature=1e-306:77:2"])
def test_an_overflowing_sweep_axis_exits_2(config_file, tmp_path, capsys, axis):
    path = config_file(N1=22, gamma1=1.0, gamma2=1.0, zero_temperature=None,
                       temperature_kelvin=77.0)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", path, "--axis", axis, "--out", str(out)]) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_unknown_key(config_file, capsys):
    path = config_file(gama2=1.0)
    assert main(["validate", "--config", path]) == 2
    assert "unknown" in capsys.readouterr().err


def test_zero_temp_curve_baseline(config_file, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["zero-temp", "--config", config_file(), "--t-max", "0.8",
                 "--steps", "800", "--out", str(out)]) == 0
    rows = read_curve(out)
    assert len(rows) == 800
    peak = max(p for _, p in rows)
    assert peak == pytest.approx(0.5, abs=1e-4)  # bare-dimer ceiling
    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "zero-temp"
    assert manifest["summary"]["p_star"] == peak


def test_empty_curve_request(config_file, tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["zero-temp", "--config", config_file(), "--steps", "0",
                 "--out", str(out)]) == 0
    assert out.read_text() == "t_ps,p12\n"


def check_curve(path, out, t_min, t_max, steps):
    """The curve CSV's t column is np.linspace bit for bit, its p column the
    uniform-grid scan bit for bit (so %.17g round-trips), and every p is
    within the scan's tolerance of p12 at the printed t."""
    from dimerbath.dynamics import _detuning_groups, _kernel_table, _uniform_scan
    from dimerbath.sweeps import TimeWindow, _scan_tolerance
    config = load_config(path)
    [(J, detunings, _, w)] = _detuning_groups(config)
    ts, _, [ps] = _uniform_scan(_kernel_table(J, detunings), w, t_min, t_max, steps)
    rows = np.array(read_curve(out)).reshape(-1, 2)
    assert rows[:, 0].tobytes() == np.linspace(t_min, t_max, steps).tobytes() == ts.tobytes()
    assert rows[:, 1].tobytes() == ps.tobytes()
    tol = _scan_tolerance(J, TimeWindow(t_max=t_max))  # the bound's t_end is t_max
    assert np.all(np.abs(ps - p12(config, rows[:, 0])) <= tol)


def test_curve_round_trips_doubles(config_file, tmp_path):
    out = tmp_path / "three.csv"
    assert main(["zero-temp", "--config", config_file(), "--t-max", "1.0",
                 "--steps", "3", "--out", str(out)]) == 0
    check_curve(config_file(), out, 0.0, 1.0, 3)


def test_thermal_curve(config_file, tmp_path):
    path = config_file(gamma2=2.0, zero_temperature=False,
                       temperature_kelvin=77.0)
    out = tmp_path / "thermal.csv"
    assert main(["thermal", "--config", path, "--t-max", "0.8",
                 "--steps", "400", "--out", str(out)]) == 0
    peak = max(p for _, p in read_curve(out))
    assert peak > 0.9  # resonant coupling assists at 77 K


def test_sweep_grid_deterministic(config_file, tmp_path):
    path = config_file(zero_temperature=False, temperature_kelvin=77.0)
    args = ["sweep", "--config", path,
            "--axis", "gamma2=0:4:5", "--axis", "q=0:10:3",
            "--steps", "800", "--out", None]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args[-1] = str(out1)
    assert main(args) == 0
    args[-1] = str(out2)
    assert main(args) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.argmax.txt").exists()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["axes"][0]["name"] == "gamma2"
    assert "p_star" in manifest["summary"]


def test_sweep_grid_format(config_file, tmp_path):
    path = config_file(zero_temperature=False, temperature_kelvin=77.0)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", path, "--axis", "gamma2=0:4:3",
                 "--axis", "q=0:10:2", "--steps", "800",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "q\\gamma2"
    assert [float(x) for x in header[1:]] == [0.0, 2.0, 4.0]
    assert len(lines) == 3  # header + one row per q value


def test_sweep_one_axis(config_file, tmp_path):
    path = config_file(zero_temperature=False, temperature_kelvin=77.0)
    out = tmp_path / "line.csv"
    assert main(["sweep", "--config", path, "--axis", "gamma2=0:4:9",
                 "--steps", "800", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma2,p_max,t_star"
    assert len(lines) == 10


def test_sweep_time_axis_writes_t_and_p12(config_file, tmp_path, capsys):
    path = config_file(gamma2=2.0)
    out = tmp_path / "line.csv"
    assert main(["sweep", "--config", path, "--axis", "t=0:1:4",
                 "--out", str(out)]) == 0
    ts = np.linspace(0.0, 1.0, 4)
    ps = p12(load_config(path), ts)
    assert out.read_text().splitlines() == (
        ["t,p12"] + [f"{t:.17g},{p:.17g}" for t, p in zip(ts, ps)])
    i = int(ps.argmax())
    assert capsys.readouterr().out == f"global max p = {ps[i]:.17g} at t={ts[i]:.17g} ps\n"
    sidecar = (tmp_path / "line.argmax.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in sidecar] == ["t", "t_star", "p_star"]


@pytest.mark.parametrize("axes", [["gamma2=0:2:3", "t=0:1:4"], ["t=0:1:4", "gamma2=0:2:3"]])
def test_sweep_grid_with_time_axis_names_t_once(config_file, tmp_path, capsys, axes):
    path = config_file()
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", path, "--axis", axes[0], "--axis", axes[1],
                 "--out", str(out)]) == 0
    grid = sweep(load_config(path), [("gamma2", np.linspace(0.0, 2.0, 3)),
                                     ("t", np.linspace(0.0, 1.0, 4))])
    g, t = grid.argmax["parameters"]["gamma2"], grid.argmax["t_star"]
    assert capsys.readouterr().out == (
        f"global max p = {grid.argmax['p_star']:.17g} at gamma2={g:.17g}, t={t:.17g} ps\n")
    names = [axis.split("=")[0] for axis in axes]
    assert out.read_text().splitlines()[0].startswith(f"{names[1]}\\{names[0]},")
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert set(manifest["summary"]["parameters"]) == {"gamma2", "t"}


def test_sweep_bad_axis(config_file, tmp_path, capsys):
    assert main(["sweep", "--config", config_file(),
                 "--axis", "gamma5=0:1:2",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_max_command(config_file, capsys):
    path = config_file(gamma2=2.0)
    assert main(["max", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "p_star = 1" in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("thermal", [{"zero_temperature": True},
                                     {"zero_temperature": None, "temperature_kelvin": 77.0}])
def test_max_command_with_underflowing_rabi_frequency(config_file, capsys, thermal):
    # J^2 + D^2 == 0.0 in floating point: P is 0 throughout, t* is t_min
    path = config_file(epsilon2=0.0, J=1e-170, N1=4, N2=4, **thermal)
    assert main(["max", "--config", path, "--t-min", "0.25"]) == 0
    assert capsys.readouterr().out == "t_star = 0.25 ps\np_star = 0\n"


def _per_line_csv(path, ts, ps):
    """The curve CSV written one formatted row at a time."""
    with open(path, "w") as fh:
        fh.write("t_ps,p12\n")
        for t, p in zip(np.atleast_1d(ts), np.atleast_1d(ps)):
            fh.write(f"{format(float(t), '.17g')},{format(float(p), '.17g')}\n")


def test_curve_csv_bytes_equal_the_per_line_writer(tmp_path):
    from dimerbath.cli import _CSV_CHUNK, emit_curve_csv
    rng = np.random.default_rng(5)
    special = np.array([-0.0, 5e-324, 1e308, 2.0, 0.1, 0.0, -1e-300, np.pi])
    n = 2 * _CSV_CHUNK + 3
    cases = [
        (special, special[::-1]),
        (np.linspace(0.0, 2.0, n), rng.random(n)),
        (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n), rng.random(n)),
        (np.arange(_CSV_CHUNK + 5.0), rng.random(_CSV_CHUNK + 2)),   # zip stops at the shorter
        (np.float64(0.5), np.float64(-0.0)),
        (np.empty(0), np.empty(0)),
    ]
    for ts, ps in cases:
        emit_curve_csv(str(tmp_path / "new.csv"), ts, ps)
        _per_line_csv(str(tmp_path / "old.csv"), ts, ps)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _witness_values(rng):
    """Doubles at the edges of %.17g's rounding, in random order."""
    bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
    moderate = rng.standard_normal(20000) * 10.0 ** rng.uniform(-5.0, 17.0, 20000)
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    near = [powers]
    for n in (1, 2):
        near += [_step(powers, n), _step(powers, -n)]
    ties = []  # n + c/2**m with 18 significant digits, the last a 5
    for X in range(-4, 15):
        m = 17 - X
        if X >= 0:
            n = rng.integers(10 ** X, 10 ** (X + 1), 40)
            c = 2 * rng.integers(0, 2 ** (m - 1), 40) + 1
            ties.append((n * 2 ** m + c) / 2.0 ** m)
        else:
            lo, hi = -(-2 ** m // 10 ** -X), 2 ** m // 10 ** (-X - 1)
            ties.append((2 * rng.integers(lo // 2, hi // 2, 40) + 1) / 2.0 ** m)
    integers = [c + np.arange(-40.0, 41.0) * np.spacing(c) for c in (2.0 ** 53, 1e16, 1e17)]
    integers += [c + np.arange(-40.0, 41.0) for c in (2.0 ** 53, 1e16, 1e17)]
    subnormal = rng.integers(1, 2 ** 52, 500, dtype=np.uint64).view(np.float64)
    special = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                        np.nextafter(0.001, 0.0), 123456789012345.125, 0.1, 1e-4,
                        np.inf, np.nan])
    values = np.concatenate([bits[np.isfinite(bits)], moderate, *near, *ties, *integers,
                             subnormal, special])
    values = np.concatenate([values, -values])
    return values[rng.permutation(len(values))]


def _step(x, n):
    """x moved n ulps."""
    for _ in range(abs(n)):
        x = np.nextafter(x, np.copysign(np.inf, n))
    return x


def test_csv_writer_matches_percent_17g_on_every_rounding_edge(tmp_path):
    import dimerbath.cli as cli
    # log10 gives exactly -3 for the first; the second is a tie, rounded to even
    cli._emit_csv(str(tmp_path / "w.csv"), "h",
                  [[np.nextafter(0.001, 0.0)], [123456789012345.125]])
    assert (tmp_path / "w.csv").read_text() == "h\n0.0009999999999999998,123456789012345.12\n"
    values = _witness_values(np.random.default_rng(21))
    fast = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)
    for cols in (2, 3):
        rows = values[:len(values) // cols * cols].reshape(-1, cols)
        kinds = fast[:rows.size].reshape(-1, cols)
        assert (kinds.any(axis=1) & ~kinds.all(axis=1)).sum() > 1000  # mixed rows
        assert len(rows) > 2 * cli._CSV_CHUNK
        cli._emit_csv(str(tmp_path / "w.csv"), "h", list(rows.T))
        expected = "h\n" + "".join(",".join("%.17g" % x for x in row) + "\n"
                                   for row in rows.tolist())
        assert (tmp_path / "w.csv").read_bytes() == expected.encode()


def test_csv_writer_matches_percent_17g_on_short_decimals(tmp_path):
    """Dyadic values k/2**m have short decimals, so their trailing zeros end
    in every digit group, at every place of the point, on both sides of it;
    the same values times powers of ten are the usual 17 digits."""
    import dimerbath.cli as cli
    rng = np.random.default_rng(8)
    k = np.concatenate([rng.integers(1, 10 ** r, 300) for r in range(1, 18)])
    m = rng.integers(0, 15, len(k))
    values = np.ldexp(k.astype(np.float64), -m)
    values = np.concatenate([values, -values, values * 10.0 ** rng.integers(-3, 3, len(k))])
    X = np.floor(np.log10(np.abs(values)))
    assert set(range(-4, 16)) <= set(X.tolist())
    rows = values[rng.permutation(len(values))].reshape(-1, 3)
    assert len(rows) > cli._CSV_CHUNK
    cli._emit_csv(str(tmp_path / "w.csv"), "h", list(rows.T))
    expected = "h\n" + "".join(",".join("%.17g" % x for x in row) + "\n"
                               for row in rows.tolist())
    assert (tmp_path / "w.csv").read_bytes() == expected.encode()


def test_csv_writer_memory_does_not_grow_with_the_curve(tmp_path):
    """The writer holds one block of rows at a time: its peak allocation
    at 4e5 rows is that at 1e5 rows, within 64 KiB, and under 4 MiB."""
    import tracemalloc
    from dimerbath.cli import emit_curve_csv
    emit_curve_csv(str(tmp_path / "curve.csv"), [1.0], [0.5])  # lookup tables, built once
    peaks = []
    for n in (100_000, 400_000):
        ts = np.linspace(0.0, 20.0, n)
        ps = np.random.default_rng(n).random(n)
        tracemalloc.start()
        try:
            emit_curve_csv(str(tmp_path / "curve.csv"), ts, ps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 1024
    assert max(peaks) < 4 * 2 ** 20, peaks


def test_main_parses_each_call_with_its_own_axes(config_file, tmp_path, monkeypatch):
    """The parser is built once per process, and argparse's append default
    is not shared between calls: each sweep sees only its own axes."""
    import dimerbath.cli as cli
    cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built again"))
    calls = [["gamma2=0:4:3", "q=0:40:2"], ["gamma1=0:1:2"], ["q=0:10:3"]]
    for i, axes in enumerate(calls):
        out = tmp_path / f"grid{i}.csv"
        argv = ["sweep", "--config", config_file(), "--out", str(out)]
        assert main(argv + [a for axis in axes for a in ("--axis", axis)]) == 0
        manifest = json.loads((tmp_path / f"grid{i}.csv.manifest.json").read_text())
        assert [a["name"] for a in manifest["axes"]] == [axis.split("=")[0] for axis in axes]


def _per_value_grid_csv(path, grid):
    """A sweep CSV written one formatted value at a time."""
    f = lambda x: format(float(x), ".17g")
    with open(path, "w") as fh:
        if grid.axis1_name == "t" and grid.axis2_name is None:
            fh.write("t,p12\n")
            for t, p in zip(grid.axis1_values, grid.values):
                fh.write(f"{f(t)},{f(p)}\n")
            return
        if grid.axis2_name is None:
            fh.write(f"{grid.axis1_name},p_max,t_star\n")
            for v, p, t in zip(grid.axis1_values, grid.values, grid.t_star):
                fh.write(f"{f(v)},{f(p)},{f(t)}\n")
            return
        fh.write(",".join([f"{grid.axis2_name}\\{grid.axis1_name}"]
                          + [f(v) for v in grid.axis1_values]) + "\n")
        for j, v2 in enumerate(grid.axis2_values):
            fh.write(",".join([f(v2)] + [f(x) for x in grid.values[:, j]]) + "\n")


# each case has a -0.0 row value (the stop of a descending range) and more
# rows than one write of the CSV writer holds
@pytest.mark.parametrize("axes", [
    [f"gamma2=-2:-0:{_CSV_CHUNK + 76}"],
    ["gamma1=-0.5:-0:3", f"gamma2=-2:-0:{_CSV_CHUNK + 176}"],
    [f"t=-1:-0:{_CSV_CHUNK + 1076}"],
    ["gamma2=-2:-0:3", f"t=-1:-0:{_CSV_CHUNK + 176}"],
    ["t=0:1:4", f"q=-600:-0:{_CSV_CHUNK + 77}"],
])
def test_sweep_csv_bytes_equal_the_per_value_writer(config_file, tmp_path,
                                                     monkeypatch, axes):
    import dimerbath.cli as cli
    grids = []
    monkeypatch.setattr(cli, "sweep", lambda *args: grids.append(sweep(*args)) or grids[-1])
    out = tmp_path / "grid.csv"
    argv = ["sweep", "--config", config_file(gamma2=2.0), "--out", str(out)]
    assert main(argv + [a for axis in axes for a in ("--axis", axis)]) == 0
    [grid] = grids
    rows = len(grid.axis1_values) if grid.axis2_name is None else len(grid.axis2_values)
    assert rows > cli._CSV_CHUNK
    assert "-0," in out.read_text()
    _per_value_grid_csv(str(tmp_path / "old.csv"), grid)
    assert out.read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_sweep_rejects_axes_that_set_one_field(config_file, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", config_file(), "--axis", "gamma1=0:1:2",
                 "--axis", "gamma_both=0:2:3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "axes gamma1 and gamma_both set the same field\n"
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    ("{not json", "Expecting property name"),
    ("[1, 2]", "config file must contain a JSON object"),
])
def test_validate_unreadable_config_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    assert main(["validate", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and err.count("\n") == 1


def test_resonance_command(config_file, capsys):
    assert main(["resonance", "--config", config_file(), "--free",
                 "gamma2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gamma2 = 2")


def test_resonance_command_without_a_nonnegative_solution_exits_2(config_file, capsys):
    # bath2_up (q above q0 = 125, alpha1 > alpha2) takes gamma2 = -11 here
    path = config_file(N1=4, alpha1=300.0, gamma1=1.0, N2=4, q=150.0)
    assert main(["resonance", "--config", path, "--free", "gamma2"]) == 2
    assert capsys.readouterr() == ("", "no resonant coupling exists for the active branch\n")


def test_ground_state_command(config_file, capsys):
    path = config_file(q=30.0, alpha1=300.0, N1=4, N2=4)
    assert main(["ground-state", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "branch" in out and "q0" in out


def test_oracle_check_passes(config_file, capsys):
    path = config_file(gamma1=1.0, gamma2=2.0, q=5.0,
                       zero_temperature=False, temperature_kelvin=77.0)
    assert main(["oracle-check", "--config", path, "--n1", "3", "--n2", "3",
                 "--points", "25"]) == 0
    assert "max |dP|" in capsys.readouterr().out


def test_oracle_check_writes_the_numeric_curve_and_its_deviation(config_file, tmp_path,
                                                                 capsys):
    overrides = dict(gamma1=1.0, gamma2=2.0, q=5.0, zero_temperature=False,
                     temperature_kelvin=77.0)
    out = tmp_path / "oracle.csv"
    assert main(["oracle-check", "--config", config_file(**overrides), "--n1", "3",
                 "--n2", "3", "--points", "25", "--t-max", "1.5", "--out", str(out)]) == 0
    assert "max |dP|" in capsys.readouterr().out
    config = config_from_dict(dict(FIG2_FREE, N1=3, N2=3, **overrides))
    ts = np.linspace(0.0, 1.5, 25)
    numeric = evolve_probability(config, ts)
    emit_curve_csv(str(tmp_path / "witness.csv"), ts, numeric)
    assert out.read_bytes() == (tmp_path / "witness.csv").read_bytes()
    manifest = json.loads((tmp_path / "oracle.csv.manifest.json").read_text())
    assert manifest["summary"] == {
        "max_abs_deviation": float(np.abs(p12(config, ts) - numeric).max()),
        "tolerance": 1e-8}


def test_oracle_check_disagreement_exit_code(config_file):
    path = config_file(gamma2=2.0, zero_temperature=False,
                       temperature_kelvin=77.0)
    # an absurd tolerance forces the disagreement path
    assert main(["oracle-check", "--config", path, "--n1", "2", "--n2", "2",
                 "--points", "10", "--tol", "0"]) == 3


def test_oracle_check_size_guard(config_file, capsys, monkeypatch):
    calls = _no_curves(monkeypatch)
    assert main(["oracle-check", "--config", config_file(), "--n1", "12",
                 "--n2", "12"]) == 2
    assert capsys.readouterr().err == (
        "bath sizes N1+N2=24 exceed the oracle limit of 23 spins\n")
    assert calls == []


@pytest.mark.parametrize("points", ["0", "-3"])
def test_oracle_check_rejects_empty_time_grid(config_file, capsys, monkeypatch, points):
    import dimerbath.cli as cli
    calls = []
    monkeypatch.setattr(cli, "evolve_probability", lambda *args: calls.append(args))
    assert main(["oracle-check", "--config", config_file(), "--n1", "3",
                 "--n2", "3", "--points", points]) == 2
    assert "--points must be >= 1" in capsys.readouterr().err
    assert calls == []


def _no_curves(monkeypatch):
    """Record any call of the oracle-check's two curves instead of computing it."""
    import dimerbath.cli as cli
    calls = []
    monkeypatch.setattr(cli, "p12", lambda *args: calls.append("p12"))
    monkeypatch.setattr(cli, "evolve_probability", lambda *args: calls.append("oracle"))
    return calls


@pytest.mark.parametrize("t_max", ["inf", "nan", "-inf"])
def test_oracle_check_rejects_a_non_finite_window(config_file, tmp_path, capsys,
                                                  monkeypatch, t_max):
    calls = _no_curves(monkeypatch)
    out = tmp_path / "check.csv"
    assert main(["oracle-check", "--config", config_file(), "--n1", "3", "--n2", "3",
                 f"--t-max={t_max}", "--out", str(out)]) == 2
    assert "--t-max must be finite" in capsys.readouterr().err
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-0.5e-300"])
def test_oracle_check_rejects_a_tolerance_that_is_not_finite_and_nonnegative(
        config_file, capsys, monkeypatch, tol):
    calls = _no_curves(monkeypatch)
    assert main(["oracle-check", "--config", config_file(), "--n1", "3", "--n2", "3",
                 f"--tol={tol}"]) == 2
    assert "--tol must be finite and >= 0" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("n1, n2, message", [
    ("0", None, "bath1.N must be a positive integer"),
    ("3", "-2", "bath2.N must be a positive integer"),
])
def test_oracle_check_validates_the_overridden_sizes(config_file, capsys, monkeypatch,
                                                     n1, n2, message):
    calls = _no_curves(monkeypatch)
    argv = ["oracle-check", "--config", config_file(), "--n1", n1]
    assert main(argv + (["--n2", n2] if n2 else [])) == 2
    assert message in capsys.readouterr().err
    assert calls == []


CURVE_COMMANDS = [
    ("zero-temp", {}),
    ("thermal", dict(zero_temperature=False, temperature_kelvin=77.0)),
    ("correlated-zero-temp", dict(q=30.0)),
]


@pytest.mark.parametrize("command, overrides", CURVE_COMMANDS)
@pytest.mark.parametrize("option", ["--t-min", "--t-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_curve_commands_reject_a_non_finite_window(config_file, tmp_path, capsys,
                                                   command, overrides, option, value):
    path = config_file(**overrides)
    out = tmp_path / "curve.csv"
    assert main([command, "--config", path, f"{option}={value}", "--out", str(out)]) == 2
    assert f"{option} must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("command, overrides", CURVE_COMMANDS)
@pytest.mark.parametrize("t_min", ["-0.5", "-1e-300"])
def test_curve_commands_reject_a_negative_t_min(config_file, tmp_path, capsys,
                                                command, overrides, t_min):
    out = tmp_path / "curve.csv"
    assert main([command, "--config", config_file(**overrides), f"--t-min={t_min}",
                 "--out", str(out)]) == 2
    assert "--t-min must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("command, overrides", CURVE_COMMANDS)
@pytest.mark.parametrize("t_max", ["-1", "0.5"])
def test_curve_commands_reject_a_reversed_window(config_file, tmp_path, capsys,
                                                 command, overrides, t_max):
    out = tmp_path / "curve.csv"
    assert main([command, "--config", config_file(**overrides), "--t-min", "1",
                 f"--t-max={t_max}", "--steps", "3", "--out", str(out)]) == 2
    assert "--t-max must be >= --t-min" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_one_point_curve(config_file, tmp_path):
    from dimerbath import p12_zero_temp
    out = tmp_path / "one.csv"
    assert main(["zero-temp", "--config", config_file(), "--t-min", "0.5",
                 "--t-max", "0.5", "--steps", "1", "--out", str(out)]) == 0
    assert read_curve(out) == [(0.5, p12_zero_temp(load_config(config_file()), 0.5))]


@pytest.mark.parametrize("t_max", ["-1", "-1e-300"])
def test_oracle_check_rejects_a_negative_t_max(config_file, tmp_path, capsys,
                                               monkeypatch, t_max):
    calls = _no_curves(monkeypatch)
    out = tmp_path / "check.csv"
    assert main(["oracle-check", "--config", config_file(), "--n1", "3", "--n2", "3",
                 f"--t-max={t_max}", "--out", str(out)]) == 2
    assert "--t-max must be >= 0" in capsys.readouterr().err
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("overrides", [{}, dict(zero_temperature=False,
                                                temperature_kelvin=77.0)])
@pytest.mark.parametrize("command", [["max"], ["sweep", "--axis", "gamma2=0:4:3"]])
def test_peak_commands_reject_an_infinite_t_max(config_file, tmp_path, capsys,
                                                monkeypatch, overrides, command):
    import dimerbath.cli as cli
    calls = []
    monkeypatch.setattr(cli, "max_over_time", lambda *args: calls.append("max"))
    monkeypatch.setattr(cli, "sweep", lambda *args: calls.append("sweep"))
    out = tmp_path / "peak.csv"
    assert main(command + ["--config", config_file(**overrides), "--t-max", "inf",
                           "--out", str(out)]) == 2
    assert capsys.readouterr().err == "--t-max must be finite, got inf\n"
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("command", [["max"], ["sweep", "--axis", "gamma2=0:4:3"],
                                     ["sweep", "--axis", "t=0:1:3"]])
@pytest.mark.parametrize("options, message", [
    (["--steps", "1"], "--steps must be >= 2, got 1"),
    (["--t-min", "nan"], "--t-min must be finite, got nan"),
    (["--t-min", "-0.5"], "--t-min must be >= 0, got -0.5"),
    (["--t-min", "1", "--t-max", "1"], "--t-max must be > --t-min, got 1.0 <= 1.0"),
    (["--t-min", "1", "--t-max", "0.5"], "--t-max must be > --t-min, got 0.5 <= 1.0"),
])
def test_peak_commands_name_the_bad_window_option(config_file, tmp_path, capsys,
                                                  monkeypatch, command, options, message):
    path = config_file()
    calls = _no_work(monkeypatch)
    assert main(command + ["--config", path, *options, "--out", str(tmp_path / "peak.csv")]) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_sweep_without_an_axis_fails_before_reading_the_config(config_file, tmp_path,
                                                              capsys, monkeypatch):
    path = config_file()
    calls = _no_work(monkeypatch)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "grid.csv")]) == 2
    assert capsys.readouterr() == ("", "at least one --axis is required\n")
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("axis, message", [
    ("q=1:2", "bad axis spec 'q=1:2'; expected name=min:max:count"),
    ("q=0:1:0", "axis count must be >= 1 in 'q=0:1:0'"),
])
def test_a_bad_axis_spec_fails_before_reading_the_config(config_file, tmp_path, capsys,
                                                        monkeypatch, axis, message):
    path = config_file()
    calls = _no_work(monkeypatch)
    assert main(["sweep", "--config", path, "--axis", axis,
                 "--out", str(tmp_path / "grid.csv")]) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_thermal_curve_rejects_zero_temperature(config_file, tmp_path, capsys):
    assert main(["thermal", "--config", config_file(),
                 "--out", str(tmp_path / "curve.csv")]) == 2
    assert "finite temperature" in capsys.readouterr().err


def test_unwritable_output(config_file):
    assert main(["zero-temp", "--config", config_file(),
                 "--out", "/nonexistent-dir/x.csv"]) == 2


def _no_work(monkeypatch):
    """Record any config load or computation a command starts."""
    import dimerbath.cli as cli
    calls = []
    for name in ("load_config", "p12", "_check_regime", "_detuning_groups",
                 "_uniform_scan", "max_over_time", "sweep", "evolve_probability"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kw: calls.append(name))
    return calls


OUT_COMMANDS = [["zero-temp"], ["thermal"], ["correlated-zero-temp"], ["max"],
                ["sweep", "--axis", "gamma2=0:4:3"],
                ["oracle-check", "--n1", "3", "--n2", "3"]]


@pytest.mark.parametrize("command", OUT_COMMANDS)
@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_a_bad_out_fails_before_any_work(config_file, tmp_path, capsys, monkeypatch,
                                         command, out):
    path = config_file()
    calls = _no_work(monkeypatch)
    target = str(tmp_path / out)
    assert main(command + ["--config", path, "--out", target]) == 2
    assert capsys.readouterr() == (
        "", f"--out must be a file in an existing, writable directory, got {target}\n")
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("command, overrides", CURVE_COMMANDS)
def test_curve_commands_reject_negative_steps(config_file, tmp_path, capsys,
                                              monkeypatch, command, overrides):
    path = config_file(**overrides)
    calls = _no_work(monkeypatch)
    assert main([command, "--config", path, "--steps", "-3",
                 "--out", str(tmp_path / "curve.csv")]) == 2
    assert capsys.readouterr().err == "--steps must be >= 0, got -3\n"
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def _scan_run(steps: int) -> int:
    """B = 2h + 1, the samples of one angle-addition run at this many steps."""
    return 2 * (math.isqrt(8 * steps) // 2) + 1


# 8, 9 and 10 steps are one run less one, one run and one run plus one;
# 398, 399 and 400 straddle seven runs of 57
_RUN_EDGES = [8, 9, 10, 398, 399, 400]


@pytest.mark.parametrize("command, overrides", [
    ("zero-temp", dict(gamma2=2.0)),
    ("correlated-zero-temp", dict(q=300.0, alpha1=300.0, N1=4, N2=4,
                                  gamma1=1.0, gamma2=3.0)),
    ("thermal", dict(gamma1=1.0, gamma2=2.0, q=5.0, N1=3, N2=4,
                     zero_temperature=False, temperature_kelvin=77.0)),
])
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 301, *_RUN_EDGES])
@pytest.mark.parametrize("t_min, t_max", [(0.0, 1.5), (0.7, 0.7), (0.35, 1.9)])
def test_curve_rows_match_p12(config_file, tmp_path, command, overrides, steps, t_min, t_max):
    assert steps <= 3 or steps == 301 or steps % _scan_run(steps) in (0, 1, _scan_run(steps) - 1)
    path = config_file(**overrides)
    out = tmp_path / "curve.csv"
    assert main([command, "--config", path, "--t-min", repr(t_min), "--t-max", repr(t_max),
                 "--steps", str(steps), "--out", str(out)]) == 0
    check_curve(path, out, t_min, t_max, steps)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_curve_straddling_a_detuning_block(config_file, tmp_path, extra):
    # equal couplings of 0.5 give N1 + N2 + 1 distinct detunings, each exact,
    # so no two round apart; at 20000 steps a detuning block of _uniform_scan
    # holds _KERNEL_BLOCK // (n_coarse + h + 1) of them
    from dimerbath.dynamics import _KERNEL_BLOCK, _detuning_groups
    steps = 20000
    half = math.isqrt(8 * steps) // 2
    width = _KERNEL_BLOCK // (-(-steps // _scan_run(steps)) + half + 1)
    n1 = (width + extra - 1) // 2
    path = config_file(N1=n1, N2=width + extra - 1 - n1, gamma1=0.5, gamma2=0.5,
                       zero_temperature=False, temperature_kelvin=300.0)
    [(_, detunings, _, _)] = _detuning_groups(load_config(path))
    assert detunings.size == width + extra
    out = tmp_path / "curve.csv"
    assert main(["thermal", "--config", path, "--t-max", "1.0", "--steps", str(steps),
                 "--out", str(out)]) == 0
    check_curve(path, out, 0.0, 1.0, steps)


@pytest.mark.parametrize("command, overrides, message", [
    ("thermal", {}, "p12_thermal requires a finite temperature"),
    ("zero-temp", dict(q=30.0), "correlated baths: use p12_correlated_zero_temp"),
    ("zero-temp", dict(zero_temperature=False, temperature_kelvin=77.0),
     "p12_zero_temp requires the zero-temperature tag"),
    ("correlated-zero-temp", dict(zero_temperature=False, temperature_kelvin=77.0),
     "p12_correlated_zero_temp requires the zero-temperature tag"),
])
def test_curve_regime_checks_exit_2_before_any_kernel_work(config_file, tmp_path, capsys,
                                                           monkeypatch, command, overrides,
                                                           message):
    import dimerbath.cli as cli
    calls = []
    for name in ("_detuning_groups", "_uniform_scan", "p12"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    out = tmp_path / "curve.csv"
    assert main([command, "--config", config_file(**overrides), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("command, overrides", CURVE_COMMANDS)
def test_curve_commands_run_no_direct_kernel(config_file, tmp_path, monkeypatch,
                                             command, overrides):
    import dimerbath.dynamics as dynamics
    calls = []
    monkeypatch.setattr(dynamics, "_rabi_average_paired", lambda *args, **kw: calls.append(1))
    assert main([command, "--config", config_file(**overrides),
                 "--out", str(tmp_path / "curve.csv")]) == 0
    assert calls == []


@pytest.mark.parametrize("overrides", [
    dict(q=0.0),
    dict(q=300.0, alpha1=300.0),
    dict(q=5.0, zero_temperature=False, temperature_kelvin=300.0),
])
def test_oracle_check_compares_p12(config_file, capsys, overrides):
    from dataclasses import replace

    from dimerbath import evolve_probability, load_config, p12
    path = config_file(gamma1=1.0, gamma2=2.0, **overrides)
    assert main(["oracle-check", "--config", path, "--n1", "3", "--n2", "3",
                 "--points", "40"]) == 0
    cfg = load_config(path)
    cfg = replace(cfg, bath1=replace(cfg.bath1, N=3),
                  bath2=replace(cfg.bath2, N=3))
    ts = np.linspace(0.0, 2.0, 40)
    dev = np.abs(p12(cfg, ts) - evolve_probability(cfg, ts)).max()
    assert f"max |dP| = {format(float(dev), '.17g')} " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["zero-temp", "correlated-zero-temp"])
def test_nonpositive_alpha_at_zero_temperature_exits_2(config_file, tmp_path,
                                                       capsys, command):
    out = tmp_path / "curve.csv"
    assert main([command, "--config", config_file(alpha1=-250.0),
                 "--out", str(out)]) == 2
    assert "positive" in capsys.readouterr().err


def test_theta_option_is_gone(config_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["correlated-zero-temp", "--config", config_file(q=30.0),
              "--theta", "0.3", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_curve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the scan's products run in BLAS; 1e5 steps at N = 22/20 make each
    # product large enough for OpenBLAS to split it over two threads
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dimerbath
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(FIG2_FREE, N1=22, gamma1=1.3, N2=20, gamma2=1.3, q=12.0,
                                    zero_temperature=False, temperature_kelvin=77.0)))
    src = str(Path(dimerbath.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"curve{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "dimerbath.cli", "thermal", "--config", str(path),
                        "--t-max", "20", "--steps", "100000", "--out", str(out)],
                       env=env, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
