import json

import numpy as np
import pytest

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


def test_sweep_bad_axis(config_file, tmp_path, capsys):
    assert main(["sweep", "--config", config_file(),
                 "--axis", "gamma5=0:1:2",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_max_command(config_file, capsys):
    path = config_file(gamma2=2.0)
    assert main(["max", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "p_star = 1" in out


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
