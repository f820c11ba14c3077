import math
from dataclasses import replace

import numpy as np
import pytest

import dimerbath.sweeps as sweeps
from dimerbath import (ConfigValidationError, ThermalSpec, TimeWindow,
                       max_over_time, p12, p12_thermal, sweep)
from conftest import exact_class_merge, make_config


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

    @pytest.mark.parametrize("J, eps2, window", [
        (0.5, 0.0, TimeWindow()),                       # first peak at pi > t_max
        (10.0, 20.0, TimeWindow(t_min=0.5, t_max=0.6)),  # third peak, 0.555
        (10.0, 20.0, TimeWindow(t_min=0.56, t_max=0.7)),  # no peak inside
    ])
    def test_zero_temp_peak_lies_in_the_window(self, J, eps2, window):
        cfg = make_config(eps1=0.0, eps2=eps2, J=J)
        t_star, p_star = max_over_time(cfg, window)
        assert window.t_min <= t_star <= window.t_max
        assert p_star == pytest.approx(p12(cfg, t_star), abs=1e-15)
        if t_star in (window.t_min, window.t_max):
            # no peak inside: the better end, with the bits of a scalar p12 at each end
            p_min, p_max = p12(cfg, window.t_min), p12(cfg, window.t_max)
            best = (window.t_min, p_min) if p_min >= p_max else (window.t_max, p_max)
            assert (t_star, p_star) == best
        # gamma1 = gamma2 = 0: the thermal twin has the same single-detuning curve
        twin = max_over_time(replace(cfg, thermal=ThermalSpec.kelvin(300.0)), window)
        assert p_star == pytest.approx(twin[1], abs=1e-12)
        dense = p12(cfg, np.linspace(window.t_min, window.t_max, 100001)).max()
        assert dense - 1e-12 <= p_star <= dense + 1e-6

    def test_coarse_resolution_guard(self):
        cfg = make_config(gamma2=4.0, thermal=ThermalSpec.kelvin(77.0))
        with pytest.raises(ValueError, match="resolve"):
            max_over_time(cfg, TimeWindow(coarse_steps=10))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("thermal", [ThermalSpec.zero(), ThermalSpec.kelvin(77.0)])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("window", [TimeWindow(), TimeWindow(t_min=0.3, t_max=1.1)])
    @pytest.mark.parametrize("eps2", [5.0, 0.0])
    def test_underflowing_rabi_frequency_peaks_at_t_min(self, thermal, gamma, window, eps2):
        # J^2 == 0.0 in floating point while J != 0, so every amplitude
        # J^2/(J^2 + D^2) is 0.  With eps1 = eps2 and gamma = 0 every
        # sector's J^2 + D^2 is 0 too, with gamma = 1 the m1 = m2 sectors'
        # are; with eps1 != eps2 the zero-temperature detuning is not 0
        cfg = make_config(eps1=5.0, eps2=eps2, J=1e-170, N1=4, gamma1=gamma,
                          N2=4, gamma2=gamma, thermal=thermal)
        assert max_over_time(cfg, window) == (window.t_min, 0.0)
        assert np.array_equal(p12(cfg, np.linspace(0.0, 2.0, 7)), np.zeros(7))
        grid = sweep(cfg, [("q", [0.0, 30.0])], window)
        assert np.array_equal(grid.values, np.zeros(2))
        assert np.array_equal(grid.t_star, np.full(2, window.t_min))
        if not thermal.is_zero_temperature:
            from dimerbath.dynamics import _kernel_table, _uniform_scan
            J, detunings, weights = _group(cfg)
            _, _, scan = _uniform_scan(_kernel_table(J, detunings), weights,
                                       window.t_min, window.t_max, 50)
            assert np.array_equal(scan, np.zeros((1, 50)))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            TimeWindow(t_min=1.0, t_max=0.5)
        with pytest.raises(ValueError):
            TimeWindow(coarse_steps=1)

    @pytest.mark.parametrize("fields, message", [
        (dict(coarse_steps=2000.0), "coarse_steps must be an integer, got 2000.0"),
        (dict(coarse_steps=2000.5), "coarse_steps must be an integer, got 2000.5"),
        (dict(coarse_steps=True), "coarse_steps must be an integer, got True"),
        (dict(coarse_steps=np.True_), "coarse_steps must be an integer"),
        (dict(t_max=True), "t_max must be a real number, got True"),
        (dict(t_min=False, t_max=1.0), "t_min must be a real number, got False"),
        (dict(t_min="0"), "t_min must be a real number, got '0'"),
    ])
    def test_window_rejects_a_non_integer_step_count_and_bool_bounds(self, fields, message):
        # the parent built the weight rows, then raised TypeError in the scan
        # (a float step count) or scanned [0, 1] (t_max=True)
        with pytest.raises(ValueError) as error:
            TimeWindow(**fields)
        assert str(error.value).startswith(message)

    def test_window_takes_numpy_numbers(self):
        window = TimeWindow(t_min=np.float64(0.0), t_max=np.float32(0.5),
                            coarse_steps=np.int64(400))
        cfg = make_config(gamma2=1.0, thermal=ThermalSpec.kelvin(77.0))
        assert max_over_time(cfg, window) == max_over_time(cfg, TimeWindow(0.0, 0.5, 400))

    @pytest.mark.parametrize("t_min", [0.0, 1.0])
    def test_window_rejects_an_infinite_t_max(self, t_min):
        with pytest.raises(ValueError, match="< inf"):
            TimeWindow(t_min=t_min, t_max=math.inf)


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

    @pytest.mark.parametrize("thermal", [ThermalSpec.zero(), ThermalSpec.kelvin(77.0)])
    def test_two_axis_time_sweep_rows_equal_p12(self, thermal, monkeypatch):
        # the other axes of test_every_cell_equals_max_over_time, then curves
        # of several kernel blocks (43 detunings a cell at finite T, one at
        # zero T), none of which starts a thread
        import threading
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self, start=threading.Thread.start: (started.append(self),
                                                                         start(self)))
        cfg = make_config(N1=22, gamma1=1.3, N2=20, gamma2=1.3, thermal=thermal)
        finite_blocks = 3 * (2 ** 16 // 43) + 7
        q_blocks = 3 * 2 ** 16 + 7 if thermal.is_zero_temperature else finite_blocks
        cases = [(("gamma_both", [0.0, 1.3, 2.9]), 57), (("temperature", [77.0, 300.0]), 57),
                 (("gamma1", [0.0, -0.0, 1.3]), 57), (("gamma2", [2.9, -0.0]), 57),
                 (("J", [3.0, -10.0]), 57), (("q", [0.0, 12.0, 120.0]), 57),
                 (("q", [0.0, 120.0]), q_blocks), (("temperature", [77.0, 300.0]), finite_blocks)]
        for axis, steps in cases:
            started.clear()
            ts = np.linspace(0.0, 1.3, steps)
            name, values = axis
            t_first = sweep(cfg, [("t", ts), axis])
            t_second = sweep(cfg, [axis, ("t", ts)])
            assert t_first.values.shape == (ts.size, len(values))
            assert t_second.values.shape == (len(values), ts.size)
            for j, v in enumerate(values):
                curve = p12(_cell_config(cfg, [(name, v)]), ts)
                assert (t_first.values[:, j].tobytes() == curve.tobytes()
                        == t_second.values[j].tobytes())
                assert (t_first.t_star[:, j].tobytes() == ts.tobytes()
                        == t_second.t_star[j].tobytes())
            assert started == []

    def test_gamma_both_ties_couplings(self):
        cfg = make_config(N1=4, N2=4, thermal=ThermalSpec.kelvin(77.0))
        grid = sweep(cfg, [("gamma_both", [1.5])], TimeWindow(coarse_steps=800))
        tied = replace(cfg, bath1=replace(cfg.bath1, gamma=1.5),
                       bath2=replace(cfg.bath2, gamma=1.5))
        assert grid.values[0] == max_over_time(tied, TimeWindow(coarse_steps=800))[1]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(make_config(), [("gamma3", [1.0])])

    @pytest.mark.parametrize("axes, message", [
        ([], "sweep takes one or two axes"),
        ([("q", [0.0]), ("gamma1", [1.0]), ("gamma2", [1.0])], "sweep takes one or two axes"),
        ([("t", [0.0, 1.0]), ("t", [0.5])], "at most one axis may be time"),
    ])
    def test_axis_count_and_a_second_time_axis_rejected(self, axes, message):
        with pytest.raises(ValueError, match=message):
            sweep(make_config(), axes)

    def test_argmax_consistent(self):
        cfg = make_config(thermal=ThermalSpec.kelvin(77.0))
        grid = sweep(cfg, [("gamma2", np.linspace(0, 4, 9))],
                     TimeWindow(coarse_steps=800))
        i = grid.argmax["indices"][0]
        assert grid.values[i] == grid.argmax["p_star"]
        assert grid.values.max() == grid.argmax["p_star"]


class TestBatchedEngine:
    @pytest.mark.parametrize("window", [TimeWindow(), TimeWindow(t_min=0.5, t_max=0.6)])
    def test_every_cell_equals_max_over_time(self, window, monkeypatch):
        # cells share a kernel across q, and the 2000-step scan spans two
        # kernel blocks; no cell may see its neighbours.  Without refinement
        # most cells return a coarse sample, so the scan's bits show too.
        # Zero-T cells take the closed form, or the thermal path under a
        # temperature axis.
        zero, hot = ThermalSpec.zero(), ThermalSpec.kelvin(300.0)
        beta = ThermalSpec.from_beta(0.004)
        gammas, qs = [0.0, 1.3, 2.9], [0.0, 17.0, 30.0, 40.0]
        # (base temperature, axes)
        cases = [
            (hot, [("gamma_both", gammas), ("q", qs)]),
            (zero, [("gamma_both", gammas), ("q", qs)]),
            (zero, [("temperature", [77.0, 300.0]), ("q", qs)]),
            (hot, [("q", qs), ("temperature", [77.0, 300.0])]),
            (beta, [("gamma1", [0.0, -0.0, 1.3]), ("gamma2", [2.9, 0.0])]),
            # 1, 21, 23, 43 and 483 detunings in one grid
            (hot, [("gamma1", [0.0, 1.3, 2.9]), ("gamma2", [0.0, 1.3, 2.9])]),
            (hot, [("J", [3.0, -10.0]), ("q", [0.0, 30.0])]),
            (beta, [("q", qs)]),
            (hot, [("temperature", [77.0, 300.0])]),
            (zero, [("gamma_both", gammas)]),
        ]
        for refine in (sweeps._REFINE_ITERATIONS, 0):
            monkeypatch.setattr(sweeps, "_REFINE_ITERATIONS", refine)
            for thermal, axes in cases:
                base = make_config(N1=22, gamma1=1.3, N2=20, gamma2=1.3, thermal=thermal)
                grid = sweep(base, axes, window)
                for idx in np.ndindex(grid.values.shape):
                    cell = _cell_config(base, [(name, float(values[i]))
                                               for (name, values), i in zip(axes, idx)])
                    assert ((grid.t_star[idx], grid.values[idx])
                            == max_over_time(cell, window))

    def test_headline_sweep_makes_one_pass_per_detuning_count(self, monkeypatch):
        # gamma = 0 has one detuning and every other gamma_both N1 + N2 + 1;
        # each count takes one pass with one refinement loop, whose scans
        # cover its rows once, in blocks of at most _KERNEL_BLOCK samples
        from dimerbath.dynamics import _KERNEL_BLOCK
        passes, loops, scanned = [], [], []

        def spy(name, record):
            real = getattr(sweeps, name)

            def call(*args, **kwargs):
                record(*args)
                return real(*args, **kwargs)
            monkeypatch.setattr(sweeps, name, call)
        spy("_stack_peaks", lambda J, detunings, weights, of, window: passes.append(
            (detunings.shape[1], len(weights))))
        spy("_newton_max", lambda *args: loops.append(len(passes)))
        spy("_scan_into", lambda workspace, c, *args: scanned.append(len(c)))
        window = TimeWindow()
        sweep(make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0)),
              [("gamma_both", np.linspace(0.0, 4.0, 41)), ("q", np.linspace(0.0, 40.0, 41))],
              window)
        assert sorted(passes) == [(1, 41), (43, 40 * 41)]
        assert loops == [1, 2]
        assert sum(scanned) == 41 * 41
        assert max(scanned) * window.coarse_steps <= _KERNEL_BLOCK

    def test_a_scan_call_takes_one_group(self, monkeypatch):
        # each group's rows are scanned on their own: one group's detunings
        # per call, and the candidate pick gets the group's J and tolerance
        scans, picks = [], []

        def spy(name, record):
            real = getattr(sweeps, name)

            def call(*args):
                record(*args)
                return real(*args)
            monkeypatch.setattr(sweeps, name, call)
        spy("_scan_into", lambda workspace, c, two_omega, grid, tables: scans.append(
            (np.ndim(two_omega), len(c))))
        spy("_candidates", lambda J, omega, weights, p, p_best, dt, tol: picks.append(
            (np.ndim(J), np.ndim(omega), np.ndim(tol))))
        cfg = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0))
        # the thermal-grid benchmark's shape: 2 gamma_both x 8 q across q0
        sweep(cfg, [("gamma_both", [1.3, 2.6]), ("q", np.linspace(8.0, 35.0, 8))])
        assert scans == [(1, 8), (1, 8)]
        assert picks == [(0, 1, 0)] * 2
        scans.clear()
        picks.clear()
        sweep(cfg, [("gamma_both", np.linspace(0.0, 4.0, 41)),
                    ("q", np.linspace(0.0, 40.0, 41))])
        assert {ndim for ndim, _ in scans} == {1}
        assert sum(n for _, n in scans) == 41 * 41
        assert set(picks) == {(0, 1, 0)} and len(picks) == len(scans)

    def test_a_pass_builds_its_grid_and_workspace_once_and_a_group_its_tables(
            self, monkeypatch):
        # the scan grid and the scan workspace once per pass, the workspace of
        # at most _KERNEL_BLOCK // coarse_steps rows; a group's cos/sin tables
        # once if its detunings fit one block, else once per block of rows
        # and of detunings, so that their memory stays bounded
        from dimerbath import dynamics
        from dimerbath.dynamics import _KERNEL_BLOCK
        grids, workspaces, tables = [], [], []

        def spy(name, record):
            real = getattr(dynamics, name)

            def call(*args):
                out = real(*args)
                record(*args, out)
                return out
            for module in (dynamics, sweeps):
                monkeypatch.setattr(module, name, call)
        spy("_scan_grid", lambda t_min, t_max, steps, grid: grids.append(steps))
        spy("_scan_workspace", lambda rows, k, grid, workspace: workspaces.append((rows, k)))
        spy("_scan_tables", lambda two_omega, grid, out: tables.append(two_omega.size))
        cfg = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0))
        sweep(cfg, [("gamma_both", [1.3, 2.6]), ("q", np.linspace(8.0, 35.0, 8))])
        assert (grids, workspaces, tables) == ([2000], [(8, 43)], [43, 43])
        for cleared in (grids, workspaces, tables):
            cleared.clear()
        sweep(cfg, [("gamma_both", np.linspace(0.0, 4.0, 41)),
                    ("q", np.linspace(0.0, 40.0, 41))])
        assert grids == [2000] * 2
        assert sorted(workspaces) == [(_KERNEL_BLOCK // 2000, 1), (_KERNEL_BLOCK // 2000, 43)]
        assert sorted(tables) == [1] + [43] * 40
        for cleared in (grids, workspaces, tables):
            cleared.clear()
        # 201 x 8 sectors, all of distinct detuning: 1608 > 819 detunings
        # per block at 2000 steps, so each of the 40 q's two row blocks
        # (32 + 8 rows) builds the tables of both detuning blocks
        wide = make_config(N1=200, gamma1=1.3, N2=7, gamma2=1.3 * math.sqrt(2.0),
                           thermal=ThermalSpec.kelvin(300.0))
        sweep(wide, [("q", np.linspace(0.0, 40.0, 40))])
        assert workspaces == [(32, 1608)]
        assert tables == [819, 789] * 2

    def test_weight_rows_merge_once_per_class_map(self, monkeypatch):
        # every gamma1 = gamma2 != 0 group has one sector -> detuning-class
        # map, so their W rows are merged once, by the one weighted bincount
        # of _detuning_groups per block of rows: the parent merged per group
        merges, bincount = [], np.bincount

        def spy(x, weights=None, minlength=0):
            if weights is not None:
                merges.append(minlength)
            return bincount(x, weights=weights, minlength=minlength)
        monkeypatch.setattr(np, "bincount", spy)
        cfg = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0))
        tg = sweep(cfg, [("gamma_both", [1.3, 2.6]), ("q", np.linspace(8.0, 35.0, 8))])
        assert merges == [8 * 43]
        merges.clear()
        sweep(cfg, [("gamma_both", np.linspace(0.0, 4.0, 41)),
                    ("q", np.linspace(0.0, 40.0, 41))])
        assert sorted(merges) == [41 * 1, 41 * 43]
        monkeypatch.undo()
        for i, g in enumerate([1.3, 2.6]):
            for j, q in enumerate(np.linspace(8.0, 35.0, 8)):
                cell = _cell_config(cfg, [("gamma_both", g), ("q", q)])
                assert (tg.t_star[i, j], tg.values[i, j]) == max_over_time(cell)

    def test_scan_scratch_peaks_below_fresh_per_block_temporaries(self):
        import tracemalloc
        # tracemalloc peaks of one call after a warm-up, with fresh scan
        # temporaries per row block (per group, scan call and candidate
        # list alive into the refinement): 780 KiB for the thermal-grid
        # shape and 5624 KiB for the 77 K headline sweep
        cfg = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0))
        for axes, bound_kib in (
                ([("gamma_both", [1.3, 2.6]), ("q", np.linspace(8.0, 35.0, 8))], 720),
                ([("gamma_both", np.linspace(0.0, 4.0, 41)),
                  ("q", np.linspace(0.0, 40.0, 41))], 5500)):
            sweep(cfg, axes)
            tracemalloc.start()
            try:
                sweep(cfg, axes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_kib * 1024

    def test_the_owner_of_the_groups_builds_the_kernel_table_once(self, monkeypatch, tmp_path):
        # one table per peak pass, per group of a time axis, per p12 call and
        # per curve command; no kernel builds its own
        import json
        import dimerbath.cli as cli
        import dimerbath.dynamics as dynamics
        from dimerbath import config_to_dict
        built, build = [], dynamics._kernel_table

        def spy(J, detunings):
            built.append(np.shape(detunings))
            return build(J, detunings)
        for module in (dynamics, sweeps, cli):
            monkeypatch.setattr(module, "_kernel_table", spy)
        cfg = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0))
        sweep(cfg, [("gamma_both", np.linspace(0.0, 4.0, 41)),
                    ("q", np.linspace(0.0, 40.0, 41))])
        assert sorted(built) == [(1, 1), (40, 43)]  # K = 1 and K = 43
        built.clear()
        sweep(cfg, [("gamma_both", [0.5, 1.5, 2.5, 3.5]), ("q", [0.0, 10.0, 20.0, 30.0])])
        assert built == [(4, 43)]
        built.clear()
        cfg = make_config(N1=22, gamma1=1.3, N2=20, gamma2=1.3, thermal=ThermalSpec.kelvin(77.0))
        ts = np.linspace(0.0, 2.0, 50)
        sweep(cfg, [("t", ts), ("q", np.linspace(0.0, 40.0, 9))])
        assert built == [(43,)]
        built.clear()
        sweep(cfg, [("gamma_both", [0.5, 1.5, 2.5]), ("t", ts)])
        assert built == [(43,)] * 3
        built.clear()
        p12(cfg, np.linspace(0.0, 2.0, 3 * dynamics._KERNEL_BLOCK // 43))
        assert built == [(43,)]
        built.clear()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli.main(["thermal", "--config", str(path),
                         "--out", str(tmp_path / "curve.csv")]) == 0
        assert built == [(43,)]

    def test_resolution_guard_names_the_first_failing_group(self):
        # at 100 steps some groups resolve and some do not, the failing ones
        # in one pass or in several; the grid raises the message of the
        # first group of _detuning_groups whose cell raises alone
        from dimerbath.dynamics import _detuning_groups
        base = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0))
        window = TimeWindow(coarse_steps=100)
        for gamma1, gamma2 in (([0.0, 4.0, 8.0],) * 2, ([8.0, 0.0, 4.0],) * 2,
                               ([0.0, 4.0], [4.0, 0.0, 2.0])):
            if gamma1 is gamma2:
                axes = [("gamma_both", gamma1), ("q", [0.0, 30.0])]
                pairs = list(zip(gamma1, gamma2))
            else:
                axes = [("gamma1", gamma1), ("gamma2", gamma2)]
                pairs = [(g1, g2) for g1 in gamma1 for g2 in gamma2]
            messages = []
            g1, g2 = (np.array(g) for g in zip(*pairs))
            for _, detunings, cells, _ in _detuning_groups(base, gamma1=g1, gamma2=g2):
                try:
                    max_over_time(_cell_config(base, [("gamma1", g1[cells[0]]),
                                                      ("gamma2", g2[cells[0]])]), window)
                except ValueError as error:
                    messages.append((str(error), detunings.size))
            assert len({m for m, _ in messages}) == len(messages) >= 2
            with pytest.raises(ValueError, match="resolve") as grid_error:
                sweep(base, axes, window)
            assert str(grid_error.value) == messages[0][0]
        # in the last case the first failing group is not in the first or
        # the smallest pass: (4, 2) has 65 detunings, (4, 4) 43
        assert [k for _, k in messages] == [65, 43]

    def test_weight_rows_and_detuning_sets_built_once_per_distinct_key(self, monkeypatch):
        from dimerbath import dynamics
        rows, sets = [], []

        def weight_rows(N1, alpha1, N2, alpha2, beta, q, build=dynamics._log_weight_rows):
            rows.extend(zip(beta, q))
            return build(N1, alpha1, N2, alpha2, beta, q)

        def detunings(gap, gamma1, gamma2, m1, m2, build=dynamics._detunings):
            sets.append((gamma1, gamma2))
            return build(gap, gamma1, gamma2, m1, m2)

        def no_config(*args, **fields):
            raise AssertionError("a finite-temperature cell built a config")
        monkeypatch.setattr(dynamics, "_log_weight_rows", weight_rows)
        monkeypatch.setattr(dynamics, "_detunings", detunings)
        monkeypatch.setattr(sweeps, "_apply_parameter", no_config)
        monkeypatch.setattr(dynamics, "_sector_arrays", no_config)
        window = TimeWindow(coarse_steps=400)
        hot = make_config(N1=6, gamma1=1.3, N2=5, gamma2=1.3, thermal=ThermalSpec.kelvin(77.0))
        ts = np.linspace(0.0, 1.0, 7)
        # (base, axes, distinct (beta, q) rows, distinct (J, gamma1, gamma2) sets):
        # peak sweeps, max_over_time (no axes), then time axes; p12 below
        cases = [
            (hot, [("gamma_both", [0.5, 1.0, 2.0]), ("q", [0.0, 5.0, 5.0, 30.0])], 3, 3),
            (hot, [("q", [0.0, -0.0, 30.0]), ("temperature", [77.0, 300.0])], 6, 1),
            (make_config(N1=6, N2=5),
             [("temperature", [77.0, 300.0]), ("J", [3.0, 10.0])], 2, 2),
            (hot, [("gamma1", [0.0, -0.0]), ("gamma2", [0.0, 1.0, 2.0])], 1, 6),
            (hot, [("J", [3.0, 10.0, 3.0])], 1, 2),
            (hot, [], 1, 1),
            (hot, [("t", ts)], 1, 1),
            (hot, [("t", ts), ("q", [0.0, -0.0, 30.0, 0.0])], 3, 1),
            (make_config(N1=6, N2=5), [("temperature", [77.0, 300.0, 77.0]), ("t", ts)], 2, 1),
            (hot, [("gamma_both", [0.5, 1.0, 0.5]), ("t", ts)], 1, 2),
            (hot, [("t", ts), ("J", [3.0, -10.0])], 1, 2),
        ]
        for base, axes, n_rows, n_sets in cases:
            rows.clear()
            sets.clear()
            sweep(base, axes, window) if axes else max_over_time(base, window)
            assert (len(rows), len(sets)) == (n_rows, n_sets)
            assert len({(float(b).hex(), float(q).hex()) for b, q in rows}) == n_rows
        rows.clear()
        sets.clear()
        p12(hot, ts)
        assert (len(rows), len(sets)) == (1, 1)

    def test_cells_get_their_own_configs_detunings_and_weights(self):
        # keys are float bits: a -0.0 coupling keeps its own signed zeros.
        # The witness merges each cell's own sectors by exact detuning, one
        # config at a time, and the cell alone is a group of one with the
        # same bits.  1.3 = 2 x 0.65 exactly, so (1.3, 0.65) has ties too
        from dimerbath import thermal_weights
        from dimerbath.dynamics import _detuning_groups
        base = make_config(eps1=5.0, eps2=5.0, N1=4, N2=3, thermal=ThermalSpec.from_beta(0.01))
        gamma1 = np.array([0.0, -0.0, 0.0, 1.5, -0.0, 1.5, 1.3, 1.3])
        gamma2 = np.array([-0.0, 0.0, 0.0, 1.5, -0.0, 0.7, 1.3, 0.65])
        q = np.array([0.0, -0.0, 30.0, 0.0, 0.0, 30.0, 5.0, 5.0])
        seen = []
        for J, detunings, cells, weights in _detuning_groups(base, gamma1=gamma1,
                                                             gamma2=gamma2, q=q):
            for i, row in zip(cells, weights):
                cell = _cell_config(base, [("gamma1", gamma1[i]), ("gamma2", gamma2[i]),
                                           ("q", q[i])])
                detunings_own, row_own = exact_class_merge(
                    cell, thermal_weights(cell).normalized().ravel())
                assert J == cell.dimer.J
                assert detunings.tobytes() == detunings_own.tobytes()
                assert row.tobytes() == row_own.tobytes()
                [(J_alone, detunings_alone, cells_alone, [row_alone])] = _detuning_groups(cell)
                assert (J_alone, detunings_alone.tobytes(), cells_alone, row_alone.tobytes()) == (
                    J, detunings.tobytes(), [0], row.tobytes())
                seen.append(i)
        assert sorted(seen) == list(range(8))

    def test_weight_row_memory_is_bounded(self):
        import tracemalloc
        # 201 x 201 sectors under 12 x 12 (beta, q) rows: unblocked, the
        # weight rows would take 47 MB per temporary; with no coupling all
        # sectors share one detuning, so the merged weights are tiny
        cfg = make_config(N1=200, N2=200, thermal=ThermalSpec.kelvin(300.0))
        axes = [("temperature", np.linspace(50.0, 400.0, 12)),
                ("q", np.linspace(0.0, 40.0, 12))]
        tracemalloc.start()
        try:
            grid = sweep(cfg, axes, TimeWindow(coarse_steps=400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert np.isfinite(grid.values).all()

    def test_time_sweep_memory_is_its_output(self):
        import tracemalloc
        # 41 q x 1e5 times: 65 MB of output grids.  One weight row and one
        # curve at a time; index and time arrays tiled over the cells
        # would add as much again
        cfg = make_config(N1=6, N2=5, thermal=ThermalSpec.kelvin(77.0))
        axes = [("q", np.linspace(0.0, 40.0, 41)), ("t", np.linspace(0.0, 2.0, 10 ** 5))]
        tracemalloc.start()
        try:
            grid = sweep(cfg, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.values.nbytes + grid.t_star.nbytes + 8 * 2 ** 20
        assert grid.values[3].tobytes() == p12(_cell_config(cfg, [("q", axes[0][1][3])]),
                                               axes[1][1]).tobytes()

    def test_refines_every_candidate_peak(self):
        # two near-equal peaks: refining only the best coarse sample polished
        # the lower one and fell 8.7e-6 short of the true maximum
        cfg = make_config(N1=22, gamma1=0.75, N2=20, gamma2=0.75, q=30.0,
                          thermal=ThermalSpec.kelvin(77.0))
        t_star, p_star = max_over_time(cfg)
        dense = p12_thermal(cfg, np.linspace(0, 2, 100 * 1999 + 1))
        assert p_star >= dense.max() - 1e-12
        assert p_star == p12_thermal(cfg, t_star)

    def test_an_overflowing_exponent_raises_before_any_weight_row(self, monkeypatch):
        # q = 1e307 makes the bath energy inf, T = 1e-306 K makes beta times
        # its spread inf: the parent returned nan peaks and a nan argmax
        from dimerbath import dynamics
        calls = []
        for module, name in ((dynamics, "_log_weight_rows"), (dynamics, "_kernel_table"),
                             (sweeps, "_kernel_table"), (sweeps, "_scan_tables")):
            def spy(*args, built=getattr(module, name), name=name):
                calls.append(name)
                return built(*args)
            monkeypatch.setattr(module, name, spy)
        base = make_config(N1=22, gamma1=1.0, N2=20, gamma2=1.0,
                           thermal=ThermalSpec.kelvin(77.0))
        for axes in ([("q", [0.0, 1e307])], [("temperature", [1e-306, 77.0])],
                     [("gamma_both", [1.0, 2.0]), ("q", [-1e307, 5.0])],
                     [("q", [0.0, 1e307]), ("t", [0.0, 0.5])]):
            with pytest.raises(ConfigValidationError, match="overflows"):
                sweep(base, axes)
        for q, thermal in ((1e307, base.thermal), (5.0, ThermalSpec.from_beta(1e305))):
            cfg = replace(base, thermal=thermal,
                          correlation=replace(base.correlation, q=q))
            with pytest.raises(ConfigValidationError, match="overflows"):
                max_over_time(cfg)
            with pytest.raises(ConfigValidationError, match="overflows"):
                sweep(cfg, [("gamma_both", [1.0, 2.0])])
        # a zero-temperature base under a temperature axis takes the axis's beta
        with pytest.raises(ConfigValidationError, match="overflows"):
            sweep(replace(base, thermal=ThermalSpec.zero()),
                  [("temperature", [1e-306, 77.0])])
        assert calls == []

    def test_axis_values_validated_before_any_kernel_call(self, monkeypatch):
        calls = []
        for name in ("_scan_into", "_rabi_average_paired"):
            def spy(*args, kernel=getattr(sweeps, name), **kwargs):
                calls.append(args)
                return kernel(*args, **kwargs)
            monkeypatch.setattr(sweeps, name, spy)
        cfg = make_config(gamma2=1.0, thermal=ThermalSpec.kelvin(77.0))
        with pytest.raises(ValueError, match="temperature"):
            sweep(cfg, [("temperature", [77.0, 300.0, -1.0])])
        with pytest.raises(ValueError, match="J"):
            sweep(cfg, [("gamma2", [1.0, 2.0]), ("J", [10.0, 0.0])])
        with pytest.raises(ValueError, match="finite"):
            sweep(cfg, [("q", [0.0, np.nan])])
        for axes in ([("gamma2", [])], [("gamma2", [1.0, 2.0]), ("q", [])],
                     [("t", []), ("q", [1.0])]):
            with pytest.raises(ConfigValidationError, match="no values"):
                sweep(cfg, axes)
        for axes in ([("q", [0.0, 30.0]), ("q", [5.0, 10.0])],
                     [("gamma1", [1.0]), ("gamma_both", [2.0])],
                     [("gamma_both", [1.0]), ("gamma2", [2.0])]):
            with pytest.raises(ConfigValidationError, match="set the same field"):
                sweep(cfg, axes)
        for config in (cfg, make_config(gamma2=1.0)):  # finite and zero temperature
            for axes in ([("q", [[0.0, 1.0], [2.0, 3.0]])], [("q", 3.0)],
                         [("gamma2", [1.0]), ("q", [[0.0], [1.0]])],
                         [("t", [[0.0, 0.5]]), ("q", [1.0])]):
                with pytest.raises(ConfigValidationError,
                                   match="^[qt] axis must be one-dimensional"):
                    sweep(config, axes)
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
        cfg = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0))
        axes = [("gamma_both", [0.75, 2.0, 3.5]), ("q", [10.0, 30.0])]
        grid = sweep(cfg, axes)
        monkeypatch.setattr(sweeps, "_BOUND_SLACK", math.inf)   # never retire
        full = sweep(cfg, axes)
        np.testing.assert_array_equal(grid.values, full.values)
        np.testing.assert_array_equal(grid.t_star, full.t_star)

    def test_raising_the_step_cap_changes_no_bit(self, monkeypatch):
        # every refinement stops on its own step test well inside the cap
        cfg = make_config(N1=22, N2=20, thermal=ThermalSpec.kelvin(77.0))
        axes = [("gamma_both", [0.0, 0.75, 2.0, 3.5]), ("q", [10.0, 30.0])]
        grid = sweep(cfg, axes)
        monkeypatch.setattr(sweeps, "_REFINE_ITERATIONS", 1000)
        full = sweep(cfg, axes)
        np.testing.assert_array_equal(grid.values, full.values)
        np.testing.assert_array_equal(grid.t_star, full.t_star)


def _cell_config(config, assignments):
    """config with each (sweep parameter, value) of a cell set on it.

    Written out apart from sweeps._FIELDS, so that a wrong entry there
    does not also set the witness config.
    """
    for name, v in assignments:
        if name in ("gamma1", "gamma_both"):
            config = replace(config, bath1=replace(config.bath1, gamma=v))
        if name in ("gamma2", "gamma_both"):
            config = replace(config, bath2=replace(config.bath2, gamma=v))
        if name == "q":
            config = replace(config, correlation=replace(config.correlation, q=v))
        if name == "temperature":
            config = replace(config, thermal=ThermalSpec.kelvin(v))
        if name == "J":
            config = replace(config, dimer=replace(config.dimer, J=v))
    return config


def _group(cfg):
    from dimerbath.dynamics import _detuning_groups
    [(J, detunings, _, weights)] = _detuning_groups(cfg)
    return J, detunings, weights


class TestNewtonEngine:
    @pytest.mark.parametrize("steps", [2, 3, 800, 2000, 4001])
    @pytest.mark.parametrize("sizes", [(1, 20), (22, 20), (200, 7), (200, 200)])
    def test_scan_matches_direct_kernel(self, steps, sizes):
        from dimerbath.dynamics import _kernel_table, _uniform_scan
        from dimerbath.sweeps import _scan_tolerance
        rng = np.random.default_rng(steps)
        # the direct kernel on up to 400 of the samples, ends included
        idx = np.unique(np.linspace(0, steps - 1, min(steps, 400)).astype(int))
        for window in (TimeWindow(coarse_steps=steps),
                       TimeWindow(t_min=0.5, t_max=1.7, coarse_steps=steps)):
            gamma = float(rng.uniform(0.2, 4.0))
            thermal = ThermalSpec.kelvin(float(rng.choice([77.0, 300.0])))
            cfg = make_config(N1=sizes[0], gamma1=gamma, N2=sizes[1],
                              gamma2=gamma * math.sqrt(2.0),
                              q=float(rng.uniform(0.0, 40.0)), thermal=thermal)
            J, detunings, weights = _group(cfg)
            ts, dt, scan = _uniform_scan(_kernel_table(J, detunings), weights,
                                         window.t_min, window.t_max, steps)
            assert ts.tobytes() == np.linspace(window.t_min, window.t_max, steps).tobytes()
            assert dt == (window.t_max - window.t_min) / (steps - 1)
            assert scan.shape == (1, steps)
            err = np.abs(scan[:, idx] - p12_thermal(cfg, ts[idx])).max()
            assert err <= 1e-14
            assert err <= _scan_tolerance(J, window)

    @pytest.mark.parametrize("sizes", [(22, 20), (200, 30)])
    def test_scan_rows_do_not_see_each_other(self, sizes):
        # (200, 30) spans several detuning blocks and row batches
        from dimerbath.dynamics import _detuning_groups, _kernel_table, _uniform_scan
        base = make_config(N1=sizes[0], gamma1=1.3, N2=sizes[1],
                           gamma2=1.3 * math.sqrt(2.0), thermal=ThermalSpec.kelvin(77.0))
        [(J, detunings, _, weights)] = _detuning_groups(base, q=np.linspace(0.0, 40.0, 9))
        table = _kernel_table(J, detunings)
        _, dt, together = _uniform_scan(table, weights, 0.0, 2.0, 2000)
        assert dt == 2.0 / 1999
        for r in range(len(weights)):
            _, _, alone = _uniform_scan(table, weights[r:r + 1], 0.0, 2.0, 2000)
            assert together[r].tobytes() == alone[0].tobytes()

    def test_refined_peak_beats_a_denser_scan(self, rng):
        from conftest import random_config
        window = TimeWindow(coarse_steps=300)
        dense_ts = np.linspace(window.t_min, window.t_max,
                               100 * (window.coarse_steps - 1) + 1)
        temperatures = [ThermalSpec.kelvin(77.0), ThermalSpec.kelvin(300.0), None]
        for i in range(120):
            cfg = random_config(rng, n_max=8)
            if temperatures[i % 3] is not None:
                cfg = replace(cfg, thermal=temperatures[i % 3])
            t_star, p_star = max_over_time(cfg, window)
            assert p_star >= p12_thermal(cfg, dense_ts).max() - 1e-12
            assert p_star == p12_thermal(cfg, t_star)

    def test_headline_peaks_equal_p12_thermal_at_t_star(self):
        cfg = make_config(N1=22, N2=20)
        for thermal in (ThermalSpec.kelvin(77.0), ThermalSpec.kelvin(300.0)):
            grid = sweep(replace(cfg, thermal=thermal),
                         [("gamma_both", [0.0, 1.1, 2.6, 4.0]),
                          ("q", [0.0, 12.0, 22.0, 23.0, 40.0])])
            for idx in np.ndindex(grid.values.shape):
                g, q = grid.axis1_values[idx[0]], grid.axis2_values[idx[1]]
                cell = make_config(N1=22, gamma1=g, N2=20, gamma2=g, q=q,
                                   thermal=thermal)
                assert grid.values[idx] == p12_thermal(cell, grid.t_star[idx])

    def test_no_refinement_returns_direct_kernel_at_a_coarse_sample(self, monkeypatch):
        # pins the tie rule: at cap 0 a Newton-refined point is its own
        # sample, so its P equals the sample's and the sample is kept
        from dimerbath.dynamics import _kernel_table, _rabi_average_paired
        monkeypatch.setattr(sweeps, "_REFINE_ITERATIONS", 0)
        window = TimeWindow()
        ts = np.linspace(window.t_min, window.t_max, window.coarse_steps)
        for gamma, q in ((0.75, 30.0), (2.0, 10.0), (3.5, 23.0)):
            cfg = make_config(N1=22, gamma1=gamma, N2=20, gamma2=gamma, q=q,
                              thermal=ThermalSpec.kelvin(77.0))
            t_star, p_star = max_over_time(cfg, window)
            assert t_star in ts
            J, detunings, weights = _group(cfg)
            direct = _rabi_average_paired(_kernel_table(J, detunings), weights,
                                          np.zeros(1, dtype=int), np.array([t_star]))
            assert p_star == direct[0]
            assert p_star >= p12_thermal(cfg, ts).max() - 1e-14

    def test_newton_evaluates_each_candidate_then_its_far_end(self, monkeypatch):
        # P' and P'' at the n candidates, then P' at the one bracket end that
        # P'(t) points to: 2n points before the first step
        newton, calls = sweeps._newton_max, []

        def spy(slopes, t, a, b):
            def counted(live, x):
                calls.append((t.size, x.size))
                return slopes(live, x)
            return newton(counted, t, a, b)
        monkeypatch.setattr(sweeps, "_newton_max", spy)
        max_over_time(make_config(N1=22, gamma1=1.3, N2=20, gamma2=1.3, q=12.0,
                                  thermal=ThermalSpec.kelvin(77.0)))
        n = calls[0][0]
        assert n > 1
        assert calls[:2] == [(n, n), (n, n)]

    def test_newton_falls_back_to_bisection(self, monkeypatch):
        # P' = -atan(t - r): a Newton step from far out overshoots the
        # bracket and then diverges, so only bisection brings it in
        from dimerbath.sweeps import _newton_max
        monkeypatch.setattr(sweeps, "_REFINE_ITERATIONS", 60)
        r = 0.37

        def slopes(live, x):
            return -np.arctan(x - r), -1.0 / (1.0 + (x - r) ** 2)
        t, bracketed = _newton_max(slopes, np.array([r + 1.9]), np.array([r - 0.1]),
                                   np.array([r + 2.0]))
        assert bracketed.all()
        assert t[0] == pytest.approx(r, abs=1e-15)

    def test_golden_section_is_per_bracket(self, monkeypatch):
        # a batched search gives every bracket the bits of its own search,
        # though the brackets converge after different numbers of steps
        # and the widest stops at the cap
        from dimerbath.sweeps import _golden_max
        peaks = np.array([0.3, 1.7, 0.05, 2.2])
        widths = np.array([1e-9, 1e-6, 1e-5, 1.0])
        a = peaks - widths * np.array([0.3, 0.6, 0.45, 0.7])
        cap = 60
        monkeypatch.setattr(sweeps, "_REFINE_ITERATIONS", cap)

        def search(i):
            steps = []

            def f(x):
                steps.append(x.size)
                return np.cos(x - peaks[i]) - (x - peaks[i]) ** 2
            return _golden_max(f, a[i], a[i] + widths[i]), len(steps) - 2

        batched, _ = search(slice(None))
        singles = [search(slice(i, i + 1)) for i in range(peaks.size)]
        np.testing.assert_array_equal(batched[0], [t[0] for (t, _), _ in singles])
        np.testing.assert_array_equal(batched[1], [p[0] for (_, p), _ in singles])
        steps = [n for _, n in singles]
        assert len(set(steps)) == 4 and max(steps) == cap == steps[3]

    def test_window_edge_peak_takes_golden_section(self, monkeypatch):
        # P still rises at t_max, so P' has no sign change next to the
        # last sample and the golden-section fallback refines it
        calls = []
        golden = sweeps._golden_max

        def spy(*args):
            calls.append(args[1].size)
            return golden(*args)
        monkeypatch.setattr(sweeps, "_golden_max", spy)
        cfg = make_config(gamma2=0.0, thermal=ThermalSpec.kelvin(300.0))
        window = TimeWindow(t_max=0.1, coarse_steps=200)
        t_star, p_star = max_over_time(cfg, window)
        assert calls
        dense = p12_thermal(cfg, np.linspace(0.0, 0.1, 100 * 199 + 1))
        assert p_star >= dense.max() - 1e-12
        assert t_star == pytest.approx(0.1, abs=1e-12)
