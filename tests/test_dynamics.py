import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from dimerbath import (GroundStateBranch, ThermalSpec, TimeWindow,
                       assistance_condition, config_to_dict, correlated_ground_state,
                       delta0_correlated, dynamics, p12, p12_correlated_zero_temp,
                       p12_thermal, p12_thermal_jm, p12_zero_temp, q_threshold,
                       rabi_probability, resonance_gamma, sweep, sweeps, thermal_weights)
from dimerbath.cli import main
from dimerbath.dynamics import (_KERNEL_BLOCK, _detuning_groups, _detunings, _kernel_table,
                                _rabi_average_paired, _rabi_slopes)
from conftest import exact_class_merge, make_config, random_config

BOTH_DOWN = GroundStateBranch(branch="both_down")


def sector_detuning(cfg, m1, m2):
    """Detuning of the magnetization sector (m1, m2), written out."""
    return cfg.gap + (cfg.bath2.gamma * m2 - cfg.bath1.gamma * m1) / 2.0


def sector_detunings(cfg):
    """The flat sector detunings over thermal_weights' (m1, m2) grid."""
    tw = thermal_weights(cfg)
    return _detunings(cfg.gap, cfg.bath1.gamma, cfg.bath2.gamma, tw.m1, tw.m2)


class TestRabi:
    def test_resonant_full_transfer(self):
        assert rabi_probability(10.0, 0.0, math.pi / 20) == pytest.approx(1.0, abs=1e-15)

    def test_starts_at_zero(self):
        for J, d in [(10.0, 0.0), (3.0, 7.5), (1.0, -2.0)]:
            assert rabi_probability(J, d, 0.0) == 0.0

    def test_detuned_peak_is_half(self):
        ts = np.linspace(0, 5, 200001)
        assert rabi_probability(10.0, 10.0, ts).max() == pytest.approx(0.5, abs=1e-9)

    def test_time_energy_scaling(self, rng):
        # p(t; J, D) == p(s t; J/s, D/s)
        for _ in range(200):
            J, d, t, s = rng.uniform(0.1, 50, size=4)
            assert rabi_probability(J, d, t) == \
                pytest.approx(rabi_probability(J / s, d / s, s * t), abs=1e-12)

    def test_no_frequency_gives_zero(self):
        # J = D = 0: no coupling and no detuning, the curve is 0 throughout
        p = rabi_probability(0.0, 0.0, 0.7)
        assert type(p) is float and p == 0.0
        ts = np.linspace(0.0, 2.0, 5)
        assert rabi_probability(0.0, 0.0, ts).tobytes() == np.zeros(5).tobytes()

    def test_periodicity(self):
        J, d = 7.0, 3.0
        period = math.pi / math.sqrt(J * J + d * d)
        ts = np.linspace(0, 2, 50)
        np.testing.assert_allclose(rabi_probability(J, d, ts),
                                   rabi_probability(J, d, ts + period),
                                   atol=1e-12)


class TestDetunings:
    def test_zero_temp_compensation(self):
        cfg = make_config(eps1=0, eps2=20, gamma1=0.0, gamma2=2.0, N2=20)
        assert delta0_correlated(cfg, BOTH_DOWN) == 0.0

    def test_zero_temp_decoupled(self):
        cfg = make_config(eps1=0, eps2=20, gamma1=0.0, gamma2=0.0)
        assert delta0_correlated(cfg, BOTH_DOWN) == 10.0

    def test_zero_temp_cancelling_baths(self):
        cfg = make_config(N1=10, gamma1=4.0, N2=20, gamma2=2.0)
        assert delta0_correlated(cfg, BOTH_DOWN) == cfg.gap

    def test_sector_reduces_to_zero_temp_at_ground(self):
        cfg = make_config(N1=7, gamma1=1.3, N2=4, gamma2=-0.7)
        assert sector_detuning(cfg, -3.5, -2.0) == delta0_correlated(cfg, BOTH_DOWN)

    def test_sector_arrays_cover_the_magnetization_grid(self, rng):
        # one weight and one detuning per (m1, m2), m = -N/2, -N/2 + 1, ...,
        # N/2, row-major
        for _ in range(20):
            cfg = random_config(rng)
            m1 = np.arange(-cfg.bath1.N, cfg.bath1.N + 1, 2) / 2.0
            m2 = np.arange(-cfg.bath2.N, cfg.bath2.N + 1, 2) / 2.0
            tw = thermal_weights(cfg)
            assert tw.m1.tolist() == m1.tolist() and tw.m2.tolist() == m2.tolist()
            assert tw.normalized().shape == (m1.size, m2.size)
            assert sector_detunings(cfg).tolist() == [sector_detuning(cfg, float(a), float(b))
                                                      for a in m1 for b in m2]

    def test_sector_gamma_free(self):
        cfg = make_config(N1=4, N2=4, gamma1=0.0, gamma2=0.0,
                          thermal=ThermalSpec.kelvin(77.0))
        assert (sector_detunings(cfg) == cfg.gap).all()

    def test_sector_hand_value(self):
        # with gamma1 = 0 the sectors (+-1/2, -10) are the compensated ones
        cfg = make_config(eps1=0, eps2=20, gamma1=0.0, gamma2=2.0, N2=20,
                          thermal=ThermalSpec.kelvin(77.0))
        assert np.flatnonzero(sector_detunings(cfg) == 0.0).tolist() == [0, 21]


class TestZeroTemperature:
    def test_resonant_transfer_is_certain(self):
        cfg = make_config(eps1=0, eps2=20, J=10.0, gamma2=2.0, N2=20)
        assert p12_zero_temp(cfg, math.pi / 20) == pytest.approx(1.0, abs=1e-12)

    def test_starts_at_zero(self):
        assert p12_zero_temp(make_config(), 0.0) == 0.0

    def test_bare_dimer_max(self):
        cfg = make_config(eps1=0, eps2=20, J=10.0)
        ts = np.linspace(0, 2, 200001)
        assert p12_zero_temp(cfg, ts).max() == pytest.approx(0.5, abs=1e-9)

    def test_rejects_finite_temperature(self):
        cfg = make_config(thermal=ThermalSpec.kelvin(77.0))
        with pytest.raises(ValueError):
            p12_zero_temp(cfg, 0.1)

    def test_rejects_correlated(self):
        with pytest.raises(ValueError):
            p12_zero_temp(make_config(q=5.0), 0.1)

    @pytest.mark.parametrize("alpha1", [-250.0, 0.0])
    def test_rejects_nonpositive_alpha(self, alpha1):
        # without alpha > 0 the ground state need not be all-down
        cfg = make_config(alpha1=alpha1)
        for f in (p12_zero_temp, p12_correlated_zero_temp, p12):
            with pytest.raises(ValueError, match="positive"):
                f(cfg, 0.1)

    def test_guards_equal_p12(self, rng):
        ts = np.linspace(0, 2, 101)
        for _ in range(20):
            cfg = random_config(rng, zero_temp=True, q_zero=True)
            assert np.array_equal(p12_zero_temp(cfg, ts), p12(cfg, ts))
            cfg = random_config(rng, zero_temp=True)
            assert np.array_equal(p12_correlated_zero_temp(cfg, ts), p12(cfg, ts))
            cfg = random_config(rng)
            assert np.array_equal(p12_thermal(cfg, ts), p12(cfg, ts))


class TestThermal:
    def test_starts_at_zero(self, rng):
        for _ in range(20):
            assert p12_thermal(random_config(rng), 0.0) == 0.0

    def test_frozen_limit_matches_zero_temp(self):
        thermal = ThermalSpec.from_beta(1.0)  # beta*alpha = 250
        cold = make_config(gamma2=2.0, N2=20, thermal=thermal)
        zero = make_config(gamma2=2.0, N2=20)
        ts = np.linspace(0, 1, 101)
        np.testing.assert_allclose(p12_thermal(cold, ts),
                                   p12_zero_temp(zero, ts), atol=1e-10)

    def test_two_single_spin_baths_hand_sum(self):
        # independent oracle: explicit 4-sector average with Boltzmann factors
        beta, a1, a2, q, g1, g2, J, gap = 0.8, 3.0, 5.0, 2.0, 1.5, -0.5, 4.0, 7.0
        cfg = make_config(eps1=-gap, eps2=gap, J=J, N1=1, alpha1=a1, gamma1=g1,
                          N2=1, alpha2=a2, gamma2=g2, q=q,
                          thermal=ThermalSpec.from_beta(beta))
        for t in (0.11, 0.47, 1.9):
            num, z = 0.0, 0.0
            for m1 in (-0.5, 0.5):
                for m2 in (-0.5, 0.5):
                    w = math.exp(-beta * (a1 * m1 + a2 * m2 + q * m1 * m2))
                    d = gap + (g2 * m2 - g1 * m1) / 2
                    om2 = J * J + d * d
                    num += w * (J * J / om2) * math.sin(t * math.sqrt(om2)) ** 2
                    z += w
            assert p12_thermal(cfg, t) == pytest.approx(num / z, rel=1e-13)

    def test_rejects_zero_temperature(self):
        with pytest.raises(ValueError, match="finite temperature"):
            p12_thermal(make_config(gamma2=2.0), 0.1)

    def test_matches_jm_double_sum(self, rng):
        for _ in range(5):
            cfg = random_config(rng)
            ts = np.linspace(0, 2, 20)
            np.testing.assert_allclose(p12_thermal(cfg, ts),
                                       p12_thermal_jm(cfg, ts), atol=1e-12)

    def test_bounded_by_best_sector(self, rng):
        for _ in range(10):
            cfg = random_config(rng)
            tw = thermal_weights(cfg)
            best = 0.0
            for m1 in tw.m1:
                for m2 in tw.m2:
                    d = sector_detuning(cfg, float(m1), float(m2))
                    best = max(best, cfg.dimer.J ** 2 / (cfg.dimer.J ** 2 + d * d))
            ts = np.linspace(0, 2, 2001)
            assert p12_thermal(cfg, ts).max() <= best + 1e-12

    def test_in_unit_interval(self, rng):
        for _ in range(50):
            cfg = random_config(rng)
            p = p12_thermal(cfg, np.linspace(0, 3, 100))
            assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestCorrelated:
    def test_q_threshold_paper_regime(self):
        assert q_threshold(250.0, 250.0, 22, 20) == pytest.approx(500 / 22, rel=1e-15)

    def test_q_threshold_symmetric(self):
        assert q_threshold(100.0, 100.0, 8, 8) == pytest.approx(25.0, rel=1e-15)

    def test_q_threshold_homogeneous(self):
        assert q_threshold(500.0, 600.0, 5, 7) == 2 * q_threshold(250.0, 300.0, 5, 7)

    def test_ground_state_uncorrelated(self):
        assert correlated_ground_state(250.0, 250.0, 0.0, 4, 4).branch == "both_down"

    def test_ground_state_bath2_up(self):
        q0 = q_threshold(300.0, 250.0, 6, 6)
        branch = correlated_ground_state(300.0, 250.0, 2 * q0, 6, 6)
        assert branch.branch == "bath2_up"

    def test_ground_state_bath1_up(self):
        q0 = q_threshold(250.0, 300.0, 6, 6)
        assert correlated_ground_state(250.0, 300.0, 2 * q0, 6, 6).branch == "bath1_up"

    def test_ground_state_degenerate_equal_alphas(self):
        branch = correlated_ground_state(250.0, 250.0, 100.0, 6, 6)
        assert branch.branch == "degenerate_superposition"

    def test_ground_state_degenerate_at_threshold(self):
        q0 = q_threshold(300.0, 250.0, 4, 4)
        assert correlated_ground_state(300.0, 250.0, q0, 4, 4).branch == \
            "degenerate_superposition"

    def test_delta0_both_down_equals_zero_temp(self, rng):
        for _ in range(20):
            cfg = random_config(rng, zero_temp=True, q_zero=True)
            branch = correlated_ground_state(abs(cfg.bath1.alpha) + 1,
                                             abs(cfg.bath2.alpha) + 1, 0.0,
                                             cfg.bath1.N, cfg.bath2.N)
            assert delta0_correlated(cfg, branch) == sector_detuning(
                cfg, -cfg.bath1.N / 2, -cfg.bath2.N / 2)

    def test_delta0_degenerate_uses_bath2_up_corner(self):
        cfg = make_config(eps1=0, eps2=20, gamma1=1.0, gamma2=2.0, N1=6, N2=4)
        branch = correlated_ground_state(250.0, 250.0, 200.0, 6, 4)
        assert branch.branch == "degenerate_superposition"
        assert delta0_correlated(cfg, branch) == 13.5
        assert delta0_correlated(cfg, branch) == \
            delta0_correlated(cfg, GroundStateBranch(branch="bath2_up"))

    def test_q_zero_reduces_to_uncorrelated(self):
        cfg = make_config(gamma1=0.7, gamma2=2.0, N1=3, N2=20, q=0.0)
        ts = np.linspace(0, 2, 101)
        np.testing.assert_allclose(p12_correlated_zero_temp(cfg, ts),
                                   p12_zero_temp(cfg, ts), atol=0)

    def test_assisted_transfer_reaches_one(self):
        # bath1_up branch: alpha1 < alpha2, q > q0, gap = (g1 N1 + g2 N2)/4
        cfg = make_config(eps1=0, eps2=16, J=10.0,
                          N1=4, alpha1=250.0, gamma1=2.0,
                          N2=4, alpha2=300.0, gamma2=6.0, q=150.0)
        report = assistance_condition(cfg)
        assert report.regime == "bath1_up" and report.satisfied
        t_star = math.pi / 20
        assert p12_correlated_zero_temp(cfg, t_star) == pytest.approx(1.0, abs=1e-12)

    def test_starts_at_zero(self):
        assert p12_correlated_zero_temp(make_config(q=30.0), 0.0) == 0.0

    def test_rejects_finite_temperature(self):
        cfg = make_config(q=5.0, thermal=ThermalSpec.kelvin(77.0))
        with pytest.raises(ValueError):
            p12_correlated_zero_temp(cfg, 0.1)


class TestClassifierBoundary:
    """q within a relative 1e-12 of q0, or alpha1 within 1e-12 of alpha2
    above q0, is degenerate; anything outside that band is not."""
    alpha1, alpha2, N1, N2 = 300.0, 250.0, 6, 6

    def label(self, q, alpha1=None):
        a1 = self.alpha1 if alpha1 is None else alpha1
        return correlated_ground_state(a1, self.alpha2, q, self.N1, self.N2).branch

    def q0(self):
        return q_threshold(self.alpha1, self.alpha2, self.N1, self.N2)

    def test_inside_band_is_degenerate(self):
        q0 = self.q0()
        for q in (q0, q0 * (1 - 0.5e-12), q0 * (1 + 0.5e-12),
                  np.nextafter(q0, 0.0), np.nextafter(q0, np.inf)):
            assert self.label(float(q)) == "degenerate_superposition"

    def test_outside_band_picks_a_corner(self):
        q0 = self.q0()
        assert self.label(q0 * (1 - 2e-12)) == "both_down"
        assert self.label(q0 * (1 + 2e-12)) == "bath2_up"

    def test_alphas_one_ulp_apart_are_degenerate_above_threshold(self):
        alpha1 = float(np.nextafter(self.alpha2, np.inf))
        q0 = q_threshold(alpha1, self.alpha2, self.N1, self.N2)
        assert self.label(2 * q0, alpha1=alpha1) == "degenerate_superposition"
        assert self.label(0.5 * q0, alpha1=alpha1) == "both_down"


class TestAssistance:
    def test_uncorrelated_compensation(self):
        # q < q0 branch: (eps1 - eps2)/2 = (g1 N1 - g2 N2)/4
        cfg = make_config(eps1=0, eps2=20, gamma1=0.0, gamma2=2.0, N2=20, q=0.0)
        report = assistance_condition(cfg)
        assert report.regime == "both_down"
        assert report.satisfied and report.delta0 == 0.0

    def test_decoupled_not_satisfied(self):
        cfg = make_config(eps1=0, eps2=20, gamma1=0.0, gamma2=0.0)
        report = assistance_condition(cfg)
        assert not report.satisfied
        assert report.delta0 == 10.0

    def test_bath2_up_case(self):
        # q > q0, alpha1 > alpha2 requires eps2 < eps1
        cfg = make_config(eps1=0, eps2=-8, N1=4, alpha1=300.0, gamma1=2.0,
                          N2=4, alpha2=250.0, gamma2=2.0, q=150.0)
        report = assistance_condition(cfg)
        assert report.regime == "bath2_up" and report.satisfied

    def test_rejects_finite_temperature(self):
        cfg = make_config(thermal=ThermalSpec.kelvin(300.0))
        with pytest.raises(ValueError, match="zero-temperature statement"):
            assistance_condition(cfg)


class TestResonanceSolver:
    def test_solve_gamma2(self):
        cfg = make_config(eps1=0, eps2=20, gamma1=0.0, gamma2=0.0, N2=20)
        sol = resonance_gamma(cfg, free="gamma2")
        assert sol.gamma == pytest.approx(2.0, rel=1e-14)
        assert not sol.degenerate

    def test_solve_gamma1(self):
        cfg = make_config(eps1=0, eps2=-20, gamma1=0.0, gamma2=0.0, N1=10)
        sol = resonance_gamma(cfg, free="gamma1")
        assert sol.gamma == pytest.approx(4.0, rel=1e-14)

    def test_no_solution_wrong_gap_sign(self):
        # bath2_up branch requires eps2 < eps1 for nonnegative couplings
        cfg = make_config(eps1=0, eps2=20, N1=4, alpha1=300.0,
                          N2=4, alpha2=250.0, gamma1=1.0, q=150.0)
        assert resonance_gamma(cfg, free="gamma2") is None

    def test_degenerate_condition(self):
        # gap 0 with gamma1 N1 already equal to gamma2 N2: any tied coupling works
        cfg = make_config(eps1=5.0, eps2=5.0, N1=6, N2=6,
                          gamma1=1.5, gamma2=1.5)
        sol = resonance_gamma(cfg, free="gamma_both")
        assert sol.degenerate and sol.gamma == 1.5

    def test_rejects_finite_temperature(self):
        cfg = make_config(thermal=ThermalSpec.kelvin(300.0))
        with pytest.raises(ValueError, match="zero-temperature statement"):
            resonance_gamma(cfg, free="gamma2")

    def test_rejects_an_unknown_coupling(self):
        with pytest.raises(ValueError, match="unknown free coupling 'gamma3'"):
            resonance_gamma(make_config(), free="gamma3")

    def test_no_solution_when_the_tied_coupling_drops_out(self):
        # both_down with N1 = N2: gamma_both leaves Delta0 = gap, here 10
        cfg = make_config(eps1=0, eps2=20, N1=6, N2=6)
        assert resonance_gamma(cfg, free="gamma_both") is None


@pytest.mark.parametrize("zero_temp", [False, True])
def test_each_value_depends_on_its_own_time_alone(rng, zero_temp):
    # one kernel, one pairwise sum per time: shifting the time array or
    # asking for a single time gives the same bits
    for size in (1, 2, 257, 3000, 70000):
        for _ in range(3):
            cfg = random_config(rng, zero_temp=zero_temp)
            ts = rng.uniform(0.0, 5.0, size=size)
            p = p12(cfg, ts)
            assert p[1:].tobytes() == p12(cfg, ts[1:]).tobytes()
            for k in rng.integers(0, size, size=200):
                assert p12(cfg, float(ts[k])) == p[k]


@pytest.mark.parametrize("thermal", [ThermalSpec.zero(), ThermalSpec.kelvin(77.0)])
def test_underflowing_rabi_frequency_gives_zero(thermal):
    # J^2 + D^2 == 0.0 in floating point while J != 0
    cfg = make_config(eps1=0.0, eps2=0.0, J=1e-170, thermal=thermal)
    assert np.array_equal(p12(cfg, np.linspace(0.0, 2.0, 5)), np.zeros(5))


def _coupling_pairs(rng):
    """Seeded (gamma1, gamma2): equal, one or both zero, -0.0, negative,
    the exact ratios 2 and 1/3, and generic."""
    for _ in range(2):
        g = float(rng.uniform(0.1, 5.0))
        h = int(rng.integers(1, 80)) / 16.0  # 3 h is exact
        yield from [(g, g), (-g, -g), (0.0, g), (-0.0, -g), (g, 0.0), (-g, g),
                    (g, 2.0 * g), (3.0 * h, h), (g, float(rng.uniform(-5.0, 5.0)))]
    yield 0.0, -0.0


def test_exact_detuning_classes_against_a_fraction_witness():
    # sectors of exactly equal detuning merge however their floats round;
    # the witness keys them by fractions, in its own loops
    rng = np.random.default_rng(2610)
    split = 0  # configs whose floats alone would split a class
    for gamma1, gamma2 in _coupling_pairs(rng):
        n1, n2 = (int(n) for n in rng.integers(1, 31, size=2))
        cfg = make_config(eps1=float(rng.uniform(-30, 30)), eps2=float(rng.uniform(-30, 30)),
                          J=float(rng.uniform(0.5, 30)), N1=n1, gamma1=gamma1, N2=n2,
                          gamma2=gamma2, alpha1=float(rng.uniform(1, 300)),
                          alpha2=float(rng.uniform(1, 300)), q=float(rng.uniform(-20, 40)),
                          thermal=ThermalSpec.kelvin(float(rng.choice([77.0, 300.0]))))
        [(_, detunings, _, [row])] = _detuning_groups(cfg)
        witness = exact_class_merge(cfg, thermal_weights(cfg).normalized().ravel())
        split += np.unique(sector_detunings(cfg)).size > detunings.size
        assert (detunings.tobytes(), row.tobytes()) == tuple(a.tobytes() for a in witness)
        if gamma1 == gamma2 != 0.0:
            assert detunings.size == n1 + n2 + 1
        if gamma1 == 0.0 != gamma2:
            assert detunings.size == n2 + 1
        if gamma2 == 0.0 != gamma1:
            assert detunings.size == n1 + 1
        if gamma1 == gamma2 == 0.0:
            assert detunings.size == 1
        ts = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(p12(cfg, ts), p12_thermal_jm(cfg, ts), rtol=0, atol=1e-13)
    assert split


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("eps2", [20.0, 2e17])
def test_merge_equals_unique_of_the_flat_detunings(monkeypatch, eps2, reverse):
    # gamma1 = gamma2 = 1 over N = 6/6 has 13 exact classes; at eps2 = 2e17
    # they all round to the one float 1e17; with the class order reversed,
    # distinct class floats come out descending.  Each merges as np.unique
    # of every sector
    assert dynamics._sector_classes(6, 6, 1, 1)[0].size == 13
    if reverse:
        classes = dynamics._sector_classes

        def reversed_classes(*args):
            first, of = classes(*args)
            return first[::-1], first.size - 1 - of
        monkeypatch.setattr(dynamics, "_sector_classes", reversed_classes)
    cfg = make_config(eps2=eps2, N1=6, gamma1=1.0, N2=6, gamma2=1.0, q=5.0,
                      thermal=ThermalSpec.kelvin(77.0))
    merged = dynamics._merged_detunings(cfg.gap, 1.0, 1.0, 6, 6)
    flat = np.unique(sector_detunings(cfg), return_inverse=True)
    assert tuple(a.tobytes() for a in merged) == tuple(a.tobytes() for a in flat)
    assert merged[0].size == (1 if eps2 == 2e17 else 13)
    ts = np.linspace(0.0, 2.0, 9)
    np.testing.assert_allclose(p12(cfg, ts), p12_thermal_jm(cfg, ts), rtol=0, atol=1e-12)


def test_fuzz_probability_bounds(rng):
    for _ in range(300):
        cfg = random_config(rng)
        t = rng.uniform(0, 5, size=4)
        p = p12_thermal(cfg, t)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert p12_thermal(cfg, 0.0) == 0.0


def _serial_blocks(cfg, t):
    """p12 written as the plain loop over one-block kernel calls, on this thread."""
    [(J, detunings, _, w)] = _detuning_groups(cfg)
    times = np.asarray(t, dtype=float).ravel()
    step = max(1, _KERNEL_BLOCK // detunings.size)
    p = np.empty(times.size)
    for lo in range(0, times.size, step):
        block = times[lo:lo + step]
        p[lo:lo + step] = _rabi_average_paired(_kernel_table(J, detunings), w,
                                               np.zeros(block.size, dtype=np.intp), block)
    return p


def _block_step(cfg):
    [(_, detunings, _, _)] = _detuning_groups(cfg)
    return max(1, _KERNEL_BLOCK // detunings.size)


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started, start = [], threading.Thread.start

    def spy(self):
        started.append(self.name)
        start(self)
    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


@pytest.mark.parametrize("zero_temp", [False, True])
def test_multi_block_curve_equals_the_serial_blocks(rng, zero_temp):
    # a time array of several kernel blocks has the bits of a loop over
    # one-block calls, flat, as a 2-D array and one time at a time
    cfg = random_config(rng, n_max=8, zero_temp=zero_temp)
    step = _block_step(cfg)
    for size in (0, 1, step - 1, step, step + 1, 7 * step + 3):
        ts = rng.uniform(0.0, 20.0, size=size)
        witness = _serial_blocks(cfg, ts)
        p = p12(cfg, ts)
        assert p.shape == ts.shape and p.tobytes() == witness.tobytes()
        if size % 3 == 0:
            grid = p12(cfg, ts.reshape(3, -1))
            assert grid.shape == (3, size // 3) and grid.tobytes() == witness.tobytes()
        else:
            assert p12(cfg, ts[None, :]).tobytes() == witness.tobytes()
        for k in rng.integers(0, size, size=min(size, 5)):
            value = p12(cfg, float(ts[k]))
            assert type(value) is float and value == witness[k]


def test_multi_block_curves_start_no_thread(tmp_path, thread_starts):
    # p12 at K = 43 and at zero T, and a finite-T time-axis sweep from the
    # CLI, each several kernel blocks long
    finite = make_config(N1=22, gamma1=1.3, N2=20, gamma2=1.3,
                         thermal=ThermalSpec.kelvin(77.0))
    step = _block_step(finite)
    assert step == _KERNEL_BLOCK // 43
    p12(finite, np.linspace(0.0, 1.3, 7 * step + 3))
    zero = make_config(N1=22, gamma1=1.3, N2=20, gamma2=1.3)
    assert _block_step(zero) == _KERNEL_BLOCK
    p12(zero, np.linspace(0.0, 1.3, 3 * _KERNEL_BLOCK + 7))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(finite)))
    assert main(["sweep", "--config", str(path), "--axis", "t=0:1.3:5000",
                 "--axis", "q=0:40:3", "--out", str(tmp_path / "grid.csv")]) == 0
    assert thread_starts == []


class ChunkFailure(Exception):
    pass


def test_error_in_one_block_reaches_the_caller_and_no_thread_stays(rng, monkeypatch,
                                                                   thread_starts):
    cfg = random_config(rng, n_max=8)
    step = _block_step(cfg)
    ts = np.linspace(0.0, 2.0, 6 * step)
    # every Rabi frequency is positive, so only the fourth block's phases are negative
    ts[3 * step:4 * step] = -1.0
    failure = ChunkFailure("block 3")
    blocks = []

    class FailingNumpy:
        """dynamics' np, whose sin fails inside the kernel's fourth block."""
        def __getattr__(self, name):
            return getattr(np, name)

        def sin(self, x, *args, **kwargs):
            blocks.append(x.shape[0])
            if x.size and x.flat[0] < 0:
                raise failure
            return np.sin(x, *args, **kwargs)
    monkeypatch.setattr(dynamics, "np", FailingNumpy())
    before = set(threading.enumerate())
    with pytest.raises(ChunkFailure) as caught:
        p12(cfg, ts)
    # the blocks run in order, so the fourth one fails and no later one starts
    assert caught.value is failure and blocks == [step] * 4
    assert thread_starts == [] and set(threading.enumerate()) == before


def test_long_curve_holds_its_output_and_one_block():
    # a 1e5-point curve needs its output and one kernel block at a time,
    # with no per-time row index or gathered weight block
    cfg = make_config(N1=22, gamma1=1.0, N2=20, gamma2=1.0, q=30.0,
                      thermal=ThermalSpec.kelvin(77.0))
    ts = np.linspace(0.0, 2.0, 100_000)
    p12(cfg, ts[:2])
    tracemalloc.start()
    try:
        p12(cfg, ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ts.nbytes + 1.5 * _KERNEL_BLOCK * 8


@pytest.mark.parametrize("kernel", [_rabi_average_paired, _rabi_slopes])
def test_one_weight_row_has_the_bits_of_the_per_time_gather(rng, kernel):
    # two equal rows take the gather path; one row is broadcast
    for _ in range(20):
        [(J, detunings, _, w)] = _detuning_groups(random_config(rng, n_max=12))
        ts = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 3 * _KERNEL_BLOCK // w.size)))
        table = _kernel_table(J, detunings)
        gathered = kernel(table, np.vstack([w, w]), rng.integers(0, 2, size=ts.size), ts)
        broadcast = kernel(table, w, np.broadcast_to(np.intp(0), ts.shape), ts)
        assert np.array(broadcast).tobytes() == np.array(gathered).tobytes()


def test_peak_sweeps_and_oracle_check_start_no_thread(tmp_path, thread_starts):
    window = TimeWindow(t_min=0.0, t_max=2.0, coarse_steps=2000)
    finite = make_config(N1=22, N2=20, gamma1=1.0, gamma2=1.0,
                         thermal=ThermalSpec.kelvin(77.0))
    sweep(finite, [("gamma_both", [0.5, 2.0]), ("q", np.linspace(0.0, 40.0, 8))], window)
    zero = make_config(N1=22, N2=20, gamma1=1.0, gamma2=1.0)
    sweep(zero, [("gamma_both", [0.5, 2.0]), ("q", np.linspace(0.0, 40.0, 8))], window)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(finite)))
    assert main(["oracle-check", "--config", str(path), "--n1", "3", "--n2", "3",
                 "--points", "50"]) == 0
    assert thread_starts == []


def test_peak_engine_stays_serial_past_one_block(monkeypatch, thread_starts):
    # peak-engine kernel calls of several blocks run them on the calling thread
    blocks, kernel = [], sweeps._rabi_average_paired

    def spy(table, weights, rows, t, **kwargs):
        blocks.append(-(-t.size // max(1, _KERNEL_BLOCK // table[1].shape[1])))
        return kernel(table, weights, rows, t, **kwargs)
    monkeypatch.setattr(sweeps, "_rabi_average_paired", spy)
    # 41 x 41 cells share one detuning set: their P* is one call of 4 blocks
    shared = make_config(N1=22, N2=20, gamma1=1.0, gamma2=1.0,
                         thermal=ThermalSpec.kelvin(300.0))
    sweep(shared, [("temperature", np.linspace(20.0, 400.0, 41)),
                   ("q", np.linspace(0.0, 40.0, 41))])
    assert blocks == [4]
    # ~40 000 detunings make a block one time; the rows' peaks lie at the
    # window's end, so every golden-section probe spans several blocks
    large = make_config(N1=200, N2=198, gamma1=1.0, gamma2=math.sqrt(0.5), q=1.0,
                        thermal=ThermalSpec.kelvin(300.0))
    sweep(large, [("temperature", [77.0, 150.0, 300.0, 500.0])],
          TimeWindow(t_max=0.05, coarse_steps=200))
    assert sum(b > 1 for b in blocks[1:]) > 10
    assert thread_starts == []


def _longdouble_curve(J, detunings, weights, ts):
    """The direct sum of one merged weight row at ts in extended precision."""
    J, d = np.longdouble(J), detunings.astype(np.longdouble)
    omega2 = J * J + d * d
    phase = np.multiply.outer(ts.astype(np.longdouble), np.sqrt(omega2))
    return (np.sin(phase) ** 2 * (J * J / omega2 * weights.astype(np.longdouble))).sum(axis=-1)


@pytest.mark.parametrize("kelvin, gamma, q, t_max", [
    (77.0, 1.3, 12.0, 20.0), (77.0, 0.6, 35.0, 9.0),
    (300.0, 3.1, 30.0, 20.0), (300.0, 2.2, 5.0, 14.0)])
def test_scan_and_direct_kernel_against_an_extended_precision_sum(kelvin, gamma, q, t_max):
    # the cli-curve shape: N = 22/20, 1e5 uniform times up to 20 ps
    from dimerbath.dynamics import _uniform_scan
    from dimerbath.sweeps import _scan_tolerance
    cfg = make_config(eps2=20.0, J=10.0, N1=22, gamma1=gamma, N2=20, gamma2=gamma, q=q,
                      thermal=ThermalSpec.kelvin(kelvin))
    [(J, detunings, _, w)] = _detuning_groups(cfg)
    steps = 100_000
    ts, _, [scan] = _uniform_scan(_kernel_table(J, detunings), w, 0.0, t_max, steps)
    idx = np.unique(np.linspace(0, steps - 1, 1500).astype(int))
    exact = _longdouble_curve(J, detunings, w[0], ts[idx])
    tol = _scan_tolerance(J, TimeWindow(t_max=t_max))
    assert np.abs(scan[idx] - exact).max() <= tol
    assert np.abs(p12(cfg, ts[idx]) - exact).max() <= tol
