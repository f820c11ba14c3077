import math

import numpy as np
import pytest

from dimerbath import (ThermalSpec, TimeWindow, assistance_gain,
                       max_over_time, p12_thermal, sweep)
from conftest import make_config


class TestMaxOverTime:
    def test_zero_temp_resonant_closed_form(self):
        cfg = make_config(eps1=0, eps2=20, J=10.0, gamma2=2.0, N2=20)
        t_star, p_star = max_over_time(cfg)
        assert t_star == pytest.approx(math.pi / 20, rel=1e-15)
        assert p_star == 1.0

    def test_zero_temp_closed_form_matches_dense_scan(self):
        from dimerbath import p12_zero_temp
        cfg = make_config(eps1=0, eps2=20, J=10.0, gamma2=1.1, N2=20)
        t_star, p_star = max_over_time(cfg)
        ts = np.linspace(0, 2, 100001)
        assert p_star == pytest.approx(p12_zero_temp(cfg, ts).max(), abs=1e-9)

    def test_decoupled_thermal_is_half(self):
        cfg = make_config(eps1=0, eps2=20, J=10.0, gamma2=0.0,
                          thermal=ThermalSpec.kelvin(77.0))
        _, p_star = max_over_time(cfg)
        assert p_star == pytest.approx(0.5, abs=1e-6)

    def test_thermal_matches_dense_scan(self):
        # figure-2 resonant point, cross-checked against a 1e5-point scan
        cfg = make_config(eps1=0, eps2=20, J=10.0, N2=20, alpha2=250.0,
                          gamma2=2.0, thermal=ThermalSpec.kelvin(77.0))
        t_star, p_star = max_over_time(cfg)
        ts = np.linspace(0, 2, 100001)
        dense = p12_thermal(cfg, ts)
        assert p_star >= dense.max() - 1e-9
        assert p_star == pytest.approx(dense.max(), abs=1e-6)

    def test_refinement_never_below_coarse(self):
        cfg = make_config(eps1=0, eps2=20, J=10.0, N2=20, alpha2=250.0,
                          gamma2=1.7, q=12.0, thermal=ThermalSpec.kelvin(300.0))
        window = TimeWindow(coarse_steps=500)
        t_star, p_star = max_over_time(cfg, window)
        ts = np.linspace(window.t_min, window.t_max, window.coarse_steps)
        assert p_star >= p12_thermal(cfg, ts).max() - 1e-15

    def test_coarse_resolution_guard(self):
        cfg = make_config(gamma2=4.0, thermal=ThermalSpec.kelvin(77.0))
        with pytest.raises(ValueError, match="resolve"):
            max_over_time(cfg, TimeWindow(coarse_steps=10))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            TimeWindow(t_min=1.0, t_max=0.5)
        with pytest.raises(ValueError):
            TimeWindow(coarse_steps=1)


class TestSweep:
    def test_single_point_equals_max_over_time(self):
        cfg = make_config(gamma2=1.0, thermal=ThermalSpec.kelvin(77.0))
        grid = sweep(cfg, [("gamma2", [1.0])])
        t_star, p_star = max_over_time(cfg)
        assert grid.values[0] == p_star and grid.t_star[0] == t_star

    def test_axis_transposition(self):
        cfg = make_config(thermal=ThermalSpec.kelvin(300.0))
        axes_a = [("gamma2", np.linspace(0, 2, 3)), ("q", np.linspace(0, 10, 2))]
        window = TimeWindow(coarse_steps=800)
        g1 = sweep(cfg, axes_a, window)
        g2 = sweep(cfg, list(reversed(axes_a)), window)
        np.testing.assert_array_equal(g1.values, g2.values.T)

    def test_q_axis_constant_when_gamma_zero(self):
        # with gamma1 = gamma2 = 0 every sector has the same detuning, so q
        # only reshuffles weights between identical sectors
        cfg = make_config(gamma1=0.0, gamma2=0.0, thermal=ThermalSpec.kelvin(77.0))
        grid = sweep(cfg, [("q", np.linspace(0, 40, 5))],
                     TimeWindow(coarse_steps=800))
        np.testing.assert_allclose(grid.values, grid.values[0], atol=1e-12)

    def test_time_axis_gives_raw_curve(self):
        cfg = make_config(gamma2=2.0, thermal=ThermalSpec.kelvin(77.0))
        ts = np.linspace(0, 0.8, 9)
        grid = sweep(cfg, [("t", ts)])
        np.testing.assert_allclose(grid.values, p12_thermal(cfg, ts), atol=0)

    def test_gamma_both_ties_couplings(self):
        cfg = make_config(N1=4, N2=4, thermal=ThermalSpec.kelvin(77.0))
        grid = sweep(cfg, [("gamma_both", [1.5])], TimeWindow(coarse_steps=800))
        from dataclasses import replace
        tied = replace(cfg, bath1=replace(cfg.bath1, gamma=1.5),
                       bath2=replace(cfg.bath2, gamma=1.5))
        assert grid.values[0] == max_over_time(tied, TimeWindow(coarse_steps=800))[1]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(make_config(), [("gamma3", [1.0])])

    def test_argmax_consistent(self):
        cfg = make_config(thermal=ThermalSpec.kelvin(77.0))
        grid = sweep(cfg, [("gamma2", np.linspace(0, 4, 9))],
                     TimeWindow(coarse_steps=800))
        i = grid.argmax["indices"][0]
        assert grid.values[i] == grid.argmax["p_star"]
        assert grid.values.max() == grid.argmax["p_star"]


class TestAssistanceGain:
    def test_decoupled_gain_is_zero(self):
        cfg = make_config(gamma1=0.0, gamma2=0.0, thermal=ThermalSpec.kelvin(77.0))
        assert assistance_gain(cfg).gain == 0.0

    def test_resonant_zero_temp_gain(self):
        cfg = make_config(eps1=0, eps2=20, J=10.0, gamma2=2.0, N2=20)
        out = assistance_gain(cfg)
        assert out.coupled[1] == 1.0
        assert out.decoupled[1] == pytest.approx(0.5, rel=1e-14)
        assert out.gain == pytest.approx(0.5, rel=1e-12)

    def test_thermal_resonance_assists(self):
        cfg = make_config(eps1=0, eps2=20, J=10.0, N2=20, alpha2=250.0,
                          gamma2=2.0, thermal=ThermalSpec.kelvin(77.0))
        assert assistance_gain(cfg).gain > 0.4


class TestBatchedEngine:
    @pytest.mark.parametrize("window", [TimeWindow(), TimeWindow(refine_iterations=0)])
    def test_every_cell_equals_max_over_time(self, window):
        # cells share a kernel across q, and the 2000-step scan spans two
        # kernel blocks; no cell may see its neighbours.  Without refinement
        # most cells return a coarse sample, so the scan's bits show too.
        thermal = ThermalSpec.kelvin(300.0)
        gammas, qs = [0.0, 1.3, 2.9], [0.0, 17.0, 30.0, 40.0]
        grid = sweep(make_config(N1=22, N2=20, thermal=thermal),
                     [("gamma_both", gammas), ("q", qs)], window)
        for i, g in enumerate(gammas):
            for j, q in enumerate(qs):
                cell = make_config(N1=22, gamma1=g, N2=20, gamma2=g, q=q,
                                   thermal=thermal)
                assert ((grid.t_star[i, j], grid.values[i, j])
                        == max_over_time(cell, window))

    def test_refines_every_candidate_peak(self):
        # two near-equal peaks: refining only the best coarse sample polished
        # the lower one and fell 8.7e-6 short of the true maximum
        cfg = make_config(N1=22, gamma1=0.75, N2=20, gamma2=0.75, q=30.0,
                          thermal=ThermalSpec.kelvin(77.0))
        t_star, p_star = max_over_time(cfg)
        dense = p12_thermal(cfg, np.linspace(0, 2, 100 * 1999 + 1))
        assert p_star >= dense.max() - 1e-12
        assert p_star == pytest.approx(p12_thermal(cfg, t_star), abs=1e-15)

    def test_axis_values_validated_before_any_kernel_call(self, monkeypatch):
        import dimerbath.dynamics as dynamics
        calls = []
        kernel = dynamics._rabi_kernel_blocks

        def spy(*args):
            calls.append(args)
            return kernel(*args)
        monkeypatch.setattr(dynamics, "_rabi_kernel_blocks", spy)
        cfg = make_config(gamma2=1.0, thermal=ThermalSpec.kelvin(77.0))
        with pytest.raises(ValueError, match="temperature"):
            sweep(cfg, [("temperature", [77.0, 300.0, -1.0])])
        with pytest.raises(ValueError, match="J"):
            sweep(cfg, [("gamma2", [1.0, 2.0]), ("J", [10.0, 0.0])])
        with pytest.raises(ValueError, match="finite"):
            sweep(cfg, [("q", [0.0, np.nan])])
        assert calls == []
        sweep(cfg, [("temperature", [77.0])], TimeWindow(coarse_steps=800))
        assert calls

    def test_scan_memory_is_bounded(self):
        import tracemalloc
        # 201 x 201 sectors with 40 401 distinct detunings: one unblocked
        # scan temporary would be 4000 x 40401 doubles, 1.3 GB
        cfg = make_config(N1=200, gamma1=0.5, N2=200, gamma2=0.5 * math.sqrt(2.0),
                          thermal=ThermalSpec.kelvin(300.0))
        tracemalloc.start()
        try:
            t_star, p_star = max_over_time(cfg, TimeWindow(coarse_steps=4000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2 ** 20
        assert 0.0 < p_star <= 1.0 and 0.0 <= t_star <= 2.0

    def test_retiring_hopeless_searches_changes_no_result(self, monkeypatch):
        import dimerbath.sweeps as sweeps
        cfg = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0))
        axes = [("gamma_both", [0.75, 2.0, 3.5]), ("q", [10.0, 30.0])]
        grid = sweep(cfg, axes)
        monkeypatch.setattr(sweeps, "_BOUND_SLACK", math.inf)   # never retire
        full = sweep(cfg, axes)
        np.testing.assert_array_equal(grid.values, full.values)
        np.testing.assert_array_equal(grid.t_star, full.t_star)
