import json

import numpy as np
import pytest

from dimerbath import load_config, p12, sweep
from dimerbath.cli import main

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


def test_curve_round_trips_doubles(config_file, tmp_path):
    from dimerbath import load_config, p12_zero_temp
    out = tmp_path / "three.csv"
    assert main(["zero-temp", "--config", config_file(), "--t-max", "1.0",
                 "--steps", "3", "--out", str(out)]) == 0
    rows = read_curve(out)
    cfg = load_config(config_file())
    ts = np.linspace(0, 1.0, 3)
    for (t, p), t_ref in zip(rows, ts):
        assert t == t_ref and p == p12_zero_temp(cfg, t_ref)


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
    ["gamma2=-2:-0:600"],
    ["gamma1=-0.5:-0:3", "gamma2=-2:-0:700"],
    ["t=-1:-0:1100"],
    ["gamma2=-2:-0:3", "t=-1:-0:700"],
    ["t=0:1:4", "q=-600:-0:601"],
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


def test_oracle_check_disagreement_exit_code(config_file):
    path = config_file(gamma2=2.0, zero_temperature=False,
                       temperature_kelvin=77.0)
    # an absurd tolerance forces the disagreement path
    assert main(["oracle-check", "--config", path, "--n1", "2", "--n2", "2",
                 "--points", "10", "--tol", "0"]) == 3


def test_oracle_check_size_guard(config_file, capsys):
    assert main(["oracle-check", "--config", config_file(), "--n1", "12",
                 "--n2", "12"]) == 2
    assert "23" in capsys.readouterr().err


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
    assert "need 0 <= t_min < t_max < inf" in capsys.readouterr().err
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_thermal_curve_rejects_zero_temperature(config_file, tmp_path, capsys):
    assert main(["thermal", "--config", config_file(),
                 "--out", str(tmp_path / "curve.csv")]) == 2
    assert "finite temperature" in capsys.readouterr().err


def test_unwritable_output(config_file):
    assert main(["zero-temp", "--config", config_file(),
                 "--out", "/nonexistent-dir/x.csv"]) == 2


@pytest.mark.parametrize("command, overrides", [
    ("zero-temp", dict(gamma2=2.0)),
    ("correlated-zero-temp", dict(q=300.0, alpha1=300.0, N1=4, N2=4,
                                  gamma1=1.0, gamma2=3.0)),
    ("thermal", dict(gamma1=1.0, gamma2=2.0, q=5.0, N1=3, N2=4,
                     zero_temperature=False, temperature_kelvin=77.0)),
])
def test_curve_rows_equal_p12(config_file, tmp_path, command, overrides):
    from dimerbath import load_config, p12
    path = config_file(**overrides)
    out = tmp_path / "curve.csv"
    assert main([command, "--config", path, "--t-max", "1.5",
                 "--steps", "301", "--out", str(out)]) == 0
    ts, ps = np.array(read_curve(out)).T
    assert np.array_equal(ts, np.linspace(0.0, 1.5, 301))
    assert np.array_equal(ps, p12(load_config(path), ts))


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
