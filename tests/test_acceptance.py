"""Acceptance gate for the dimer + spin-star bath package.

One test per criterion; each prints a single `[criterion NN] PASS/FAIL`
line with the measured numbers (visible with -s, or on failure), and the
test name itself doubles as the pass/fail line under pytest -v.
"""

import functools
import math
import time

import numpy as np

from dimerbath import (ThermalSpec, TimeWindow, beta_from_kelvin,
                       brute_force_bath_ground, correlated_ground_state,
                       evolve_probability, log_partition_function,
                       max_over_time, multiplicity_table,
                       p12_correlated_zero_temp, p12_thermal, p12_zero_temp,
                       q_threshold, rabi_probability, sweep, thermal_weights,
                       assistance_condition)
from conftest import log_z_sinh_form, make_config, random_config, shift_levels


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert ok, f"[criterion {num:02d}] {name}: {detail}"


def test_criterion_01_analytic_dynamics_match_diagonalization():
    rng = np.random.default_rng(101)
    thermals = [ThermalSpec.kelvin(77.0), ThermalSpec.kelvin(300.0),
                ThermalSpec.from_beta(1e-12)]  # beta -> 0 limit
    ts = np.linspace(0.0, 2.0, 50)
    started = time.monotonic()
    worst = 0.0
    for i in range(25):
        cfg = make_config(
            eps1=float(rng.uniform(-30, 30)), eps2=float(rng.uniform(-30, 30)),
            J=float(rng.uniform(0.5, 30)),
            N1=3, alpha1=float(rng.uniform(1, 300)),
            gamma1=float(rng.uniform(-5, 5)),
            N2=3, alpha2=float(rng.uniform(1, 300)),
            gamma2=float(rng.uniform(-5, 5)),
            q=0.0 if i % 2 == 0 else float(rng.uniform(-20, 40)),
            thermal=thermals[i % 3])
        dev = float(np.abs(p12_thermal(cfg, ts)
                           - evolve_probability(cfg, ts)).max())
        worst = max(worst, dev)
    elapsed = time.monotonic() - started
    _report(1, "sector sum vs full diagonalization (25 configs, 50 points)",
            worst <= 1e-8 and elapsed < 60.0,
            f"max |dP| = {worst:.3e}, {elapsed:.1f} s")


def test_criterion_02_multiplicity_dimension_identity():
    ok = True
    for N in range(1, 25):
        table = multiplicity_table(N)
        total = sum(nu * (round(2 * j) + 1) for j, nu in table.nu.items())
        ok = ok and total == 2 ** N
        ok = ok and all(gm == math.comb(N, round(N / 2 - m))
                        for m, gm in table.g.items())
    _report(2, "sum nu(N,j)(2j+1) = 2^N and g(m) = C(N, N/2-m), N <= 24",
            ok, "exact integer identities")


def test_criterion_03_partition_function_closed_form():
    # independent check: N uncoupled spins give log Z = N log(2 cosh(ba/2)),
    # and the total-spin sinh form must agree with the direct sum
    ba_grid = np.concatenate([np.logspace(-6, math.log10(50.0), 40),
                              [beta_from_kelvin(77.0) * 250.0]])
    worst = 0.0
    for N in range(1, 25):
        for ba in ba_grid:
            logz = log_partition_function(N, 250.0, float(ba) / 250.0)
            x = ba / 2.0
            independent = N * (x + math.log1p(math.exp(-2.0 * x)))
            rel = abs(logz - independent) / max(1.0, abs(independent))
            sinh_rel = (abs(log_z_sinh_form(N, 250.0, float(ba) / 250.0) - logz)
                        / max(1.0, abs(logz)))
            worst = max(worst, rel, sinh_rel)
    _report(3, "partition function: sinh form vs direct sum vs 2cosh product",
            worst <= 1e-10,
            f"max rel dev = {worst:.3e} over ba in [1e-6, 50], N <= 24 "
            f"(includes ba = 24.8)")


def test_criterion_04_zero_temperature_compensation():
    cfg = make_config(eps1=0.0, eps2=20.0, J=10.0, gamma1=0.0,
                      N2=20, gamma2=2.0)
    t_star, p_star = max_over_time(cfg)
    p_at = p12_zero_temp(cfg, math.pi / 20.0)
    ok = (abs(p_star - 1.0) <= 1e-12 and abs(t_star - math.pi / 20.0) <= 1e-12
          and abs(p_at - 1.0) <= 1e-12)
    _report(4, "gamma2 = 2 compensates a 20 ps^-1 level mismatch",
            ok, f"P({math.pi/20:.6f} ps) = {p_at:.15f}, peak at t* = {t_star:.15f}")


def test_criterion_05_decoherence_assisted_transfer_at_77K():
    started = time.monotonic()
    cfg = make_config(eps1=0.0, eps2=20.0, J=10.0, N1=1, gamma1=0.0,
                      N2=20, alpha2=250.0, gamma2=0.0,
                      thermal=ThermalSpec.kelvin(77.0))
    grid = sweep(cfg, [("gamma2", np.linspace(0.0, 4.0, 41))])
    elapsed = time.monotonic() - started
    baseline = grid.values[0]
    peak = float(grid.values.max())
    gamma_star = float(grid.axis1_values[int(grid.values.argmax())])
    ok = (abs(baseline - 0.5) <= 1e-9 and peak >= 0.95
          and 1.5 <= gamma_star <= 2.5 and elapsed < 30.0)
    _report(5, "bath coupling raises the 0.5 baseline above 0.95 near gamma = 2",
            ok, f"baseline {baseline:.12f}, peak {peak:.6f} at "
            f"gamma2 = {gamma_star:g}, {elapsed:.1f} s")


@functools.lru_cache(maxsize=None)
def _headline_sweep(temperature_kelvin: float):
    cfg = make_config(eps1=0.0, eps2=20.0, J=10.0,
                      N1=22, alpha1=250.0, gamma1=0.0,
                      N2=20, alpha2=250.0, gamma2=0.0,
                      thermal=ThermalSpec.kelvin(temperature_kelvin))
    return sweep(cfg, [("gamma_both", np.linspace(0.0, 4.0, 41)),
                       ("q", np.linspace(0.0, 40.0, 41))], TimeWindow())


def test_criterion_06_headline_maxima_both_temperatures():
    started = time.monotonic()
    results = {}
    for temp, target in ((77.0, 0.99), (300.0, 0.88)):
        grid = _headline_sweep(temp)
        results[temp] = (float(grid.argmax["p_star"]), grid.argmax, target)
    elapsed = time.monotonic() - started
    detail = "; ".join(
        f"{temp:g} K: max = {p:.6f} (target {target} +- 0.05) at "
        f"gamma = {am['parameters']['gamma_both']:g}, q = {am['parameters']['q']:g}, "
        f"t* = {am['t_star']:.4f} ps"
        for temp, (p, am, target) in results.items())
    ok = (all(abs(p - target) <= 0.05 for p, _, target in results.values())
          and elapsed < 600.0)
    _report(6, "swept maxima over (gamma, q, t) with N1 = 22, N2 = 20",
            ok, detail + f"; {elapsed:.0f} s")


def test_criterion_07_transfer_peaks_on_subpicosecond_timescale():
    grid = _headline_sweep(77.0)
    t_star = float(grid.argmax["t_star"])
    window = TimeWindow()
    edge = min(t_star - window.t_min, window.t_max - t_star)
    flag = "" if edge > 0.01 * (window.t_max - window.t_min) \
        else " [flag: t* within 1% of the window edge]"
    _report(7, "peak time lies in [0.05, 1.0] ps",
            0.05 <= t_star <= 1.0, f"t* = {t_star:.4f} ps{flag}")


def test_criterion_08_ground_state_branching_matches_enumeration():
    N = 4
    corner = {"both_down": (-2.0, -2.0), "bath2_up": (-2.0, 2.0),
              "bath1_up": (2.0, -2.0)}
    alphas = np.linspace(10.0, 400.0, 50)
    qs = np.linspace(0.0, 300.0, 50)
    checked = mismatches = 0
    worst_q0 = 0.0
    for a1 in alphas:
        for a2 in alphas:
            q0 = q_threshold(float(a1), float(a2), N, N)
            worst_q0 = max(worst_q0, abs(q0 - 2.0 * min(a1 / N, a2 / N))
                           / max(1.0, q0))
            for q in qs:
                if abs(q - q0) < 1e-6 * max(1.0, q0):
                    continue  # the band itself is tested separately below
                branch = correlated_ground_state(float(a1), float(a2),
                                                 float(q), N, N)
                minimizers = brute_force_bath_ground(float(a1), float(a2),
                                                     float(q), N, N)
                checked += 1
                if branch.branch == "degenerate_superposition":
                    good = len(minimizers) >= 2
                else:
                    good = minimizers == [corner[branch.branch]]
                mismatches += not good

    # exactly on the band the minimizer set must be degenerate
    on_band_ok = True
    for a1, a2 in ((300.0, 250.0), (250.0, 300.0), (250.0, 250.0)):
        q0 = q_threshold(a1, a2, N, N)
        branch = correlated_ground_state(a1, a2, q0, N, N)
        minimizers = brute_force_bath_ground(a1, a2, q0, N, N)
        on_band_ok = on_band_ok and branch.branch == "degenerate_superposition" \
            and len(minimizers) >= 2

    _report(8, "branch classifier vs exhaustive bath-energy minimization",
            mismatches == 0 and on_band_ok and worst_q0 <= 1e-12,
            f"{checked} off-band grid points, {mismatches} mismatches; "
            f"band degeneracy ok = {on_band_ok}; q0 rel dev {worst_q0:.1e}")


def test_criterion_09_correlated_assist_conditions():
    # one config per ground-state branch, each tuned so the active branch's
    # effective detuning cancels exactly
    cases = [
        # both_down (q < q0): gap + (g1 N1 - g2 N2)/4 = 0
        make_config(eps1=0.0, eps2=20.0, J=10.0, N1=22, alpha1=250.0,
                    gamma1=0.0, N2=20, alpha2=250.0, gamma2=2.0, q=0.0),
        # bath2_up (q > q0, alpha1 > alpha2): gap + (g1 N1 + g2 N2)/4 = 0
        make_config(eps1=0.0, eps2=-20.0, J=10.0, N1=22, alpha1=300.0,
                    gamma1=0.0, N2=20, alpha2=250.0, gamma2=2.0, q=30.0),
        # bath1_up (q > q0, alpha1 < alpha2): gap - (g1 N1 + g2 N2)/4 = 0
        make_config(eps1=0.0, eps2=20.0, J=10.0, N1=22, alpha1=250.0,
                    gamma1=0.0, N2=20, alpha2=300.0, gamma2=2.0, q=30.0),
    ]
    details = []
    ok = True
    for cfg in cases:
        report = assistance_condition(cfg)
        t_star, p_star = max_over_time(cfg)
        p_check = p12_correlated_zero_temp(cfg, t_star)
        case_ok = (report.satisfied and abs(report.delta0) <= 1e-12
                   and abs(p_star - 1.0) <= 1e-12
                   and abs(p_check - 1.0) <= 1e-12)
        ok = ok and case_ok
        details.append(f"{report.regime}: delta0 = {report.delta0:g}, "
                       f"P* = {p_star:.15f}")
    _report(9, "each ground-state branch admits an exact resonance",
            ok, "; ".join(details))


def test_criterion_10_property_suite():
    rng = np.random.default_rng(1010)

    # bounds and P(0) = 0 under fuzz
    worst_lo, worst_hi = 0.0, 0.0
    for i in range(10000):
        cfg = random_config(rng, n_max=4, zero_temp=(i % 5 == 0),
                            q_zero=(i % 5 == 0))
        ts = np.concatenate([[0.0], rng.uniform(0.0, 2.0, 3)])
        p = np.asarray(p12_zero_temp(cfg, ts) if cfg.thermal.is_zero_temperature
                       else p12_thermal(cfg, ts))
        assert p[0] == 0.0
        worst_lo = min(worst_lo, float(p.min()))
        worst_hi = max(worst_hi, float(p.max()))
    bounds_ok = worst_lo >= 0.0 and worst_hi <= 1.0 + 1e-12

    # time-energy scaling: (J, d, t) and (sJ, sd, t/s) coincide
    scaling = 0.0
    for _ in range(200):
        J, d = rng.uniform(0.5, 30), rng.uniform(-30, 30)
        t, s = rng.uniform(0, 2), rng.uniform(0.1, 10)
        scaling = max(scaling, abs(rabi_probability(J, d, t)
                                   - rabi_probability(s * J, s * d, t / s)))

    # q = 0 weights factorize into the two bath marginals
    factorization = 0.0
    for _ in range(50):
        cfg = random_config(rng, n_max=5, q_zero=True)
        w = thermal_weights(cfg).normalized()
        outer = np.outer(w.sum(axis=1), w.sum(axis=0))
        factorization = max(factorization, float(np.abs(w - outer).max()))

    # shifting both dimer levels by c, which is H + c*I, never moves a probability
    phase = 0.0
    ts = np.linspace(0.0, 2.0, 15)
    for _ in range(20):
        cfg = random_config(rng, n_max=3)
        base = evolve_probability(cfg, ts)
        for shift in (-250.0, 77.7):
            dev = np.abs(evolve_probability(shift_levels(cfg, shift), ts)
                         - base).max()
            phase = max(phase, float(dev))

    ok = (bounds_ok and scaling <= 1e-12 and factorization <= 1e-12
          and phase <= 1e-10)
    _report(10, "bounds, scaling, factorization, global-phase invariance",
            ok, f"P in [{worst_lo:g}, {worst_hi:.15f}], scaling {scaling:.1e}, "
            f"factorization {factorization:.1e}, phase {phase:.1e}")


def test_diagnostic_headline_maxima_under_inverse_kelvin_convention():
    """Locates the convention reproducing the 0.99 / 0.88 headline numbers.

    With the bath sizes as given (N1 = 22, N2 = 20) the swept maximum is
    pinned at the bare 0.5 for any temperature convention: above threshold
    the thermal ground state flips the smaller bath, which shifts the
    detuning away from resonance, and the resonant flipped corner is
    Boltzmann-suppressed by the alpha*(N1 - N2) energy split.  Exchanging
    the bath sizes and reading beta as 1/T[K] recovers both quoted maxima;
    the 300 K value additionally needs the q range extended to ~200.
    This documents the reproduction; the stated-parameter check lives in
    criterion 6.
    """
    def swapped(beta, q_max):
        cfg = make_config(eps1=0.0, eps2=20.0, J=10.0,
                          N1=20, alpha1=250.0, gamma1=0.0,
                          N2=22, alpha2=250.0, gamma2=0.0,
                          thermal=ThermalSpec.from_beta(beta))
        grid = sweep(cfg, [("gamma_both", np.linspace(0.0, 4.0, 41)),
                           ("q", np.linspace(0.0, q_max, 41))])
        return float(grid.argmax["p_star"])

    p77 = swapped(1.0 / 77.0, 40.0)
    p300 = swapped(1.0 / 300.0, 200.0)
    print(f"[diagnostic] swapped baths, beta = 1/T: "
          f"max = {p77:.6f} at 77 K, {p300:.6f} at 300 K")
    assert abs(p77 - 0.99) <= 0.05
    assert abs(p300 - 0.88) <= 0.05
