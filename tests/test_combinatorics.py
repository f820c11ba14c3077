import math

import numpy as np
import pytest

from dimerbath import (ThermalSpec, log_partition_function,
                       magnetization_counts, multiplicity, multiplicity_table,
                       thermal_weights)
from dimerbath.combinatorics import _log_weight_rows
from conftest import log_z_sinh_form, make_config


def brute_force_spin_multiplicities(N):
    """Independent oracle: diagonalize S^2 on the full 2^N product space and
    count how often each total-spin block appears."""
    sx = np.array([[0, 1], [1, 0]]) / 2.0
    sy = np.array([[0, -1j], [1j, 0]]) / 2.0
    sz = np.diag([0.5, -0.5]).astype(complex)

    def collective(op):
        total = np.zeros((2 ** N, 2 ** N), dtype=complex)
        for k in range(N):
            term = np.array([[1.0 + 0j]])
            for site in range(N):
                term = np.kron(term, op if site == k else np.eye(2))
            total += term
        return total

    s2 = sum(collective(op) @ collective(op) for op in (sx, sy, sz))
    eigs = np.linalg.eigvalsh(s2)
    counts = {}
    two_j = N
    while two_j >= 0:
        j = two_j / 2.0
        n_states = int(np.sum(np.abs(eigs - j * (j + 1)) < 1e-8))
        assert n_states % (two_j + 1) == 0
        counts[j] = n_states // (two_j + 1)
        two_j -= 2
    return counts


def test_multiplicity_two_spins():
    # two spin-1/2: one triplet, one singlet; 1*3 + 1*1 = 4
    assert multiplicity(2, 1) == 1
    assert multiplicity(2, 0) == 1
    assert brute_force_spin_multiplicities(2) == {1.0: 1, 0.0: 1}


def test_multiplicity_four_spins():
    assert multiplicity(4, 1) == 3
    oracle = brute_force_spin_multiplicities(4)
    assert oracle[1.0] == 3
    assert 1 * 5 + 3 * 3 + oracle[0.0] * 1 == 16


@pytest.mark.parametrize("N", range(1, 9))
def test_multiplicity_matches_s2_block_counting(N):
    oracle = brute_force_spin_multiplicities(N)
    table = multiplicity_table(N)
    assert table.nu == oracle


@pytest.mark.parametrize("N", [1, 2, 5, 17, 40, 64])
def test_fully_symmetric_sector_is_unique(N):
    assert multiplicity(N, N / 2) == 1


@pytest.mark.parametrize("N", range(1, 65))
def test_dimension_identity(N):
    table = multiplicity_table(N)
    assert sum(v * (round(2 * j) + 1) for j, v in table.nu.items()) == 2 ** N


def test_multiplicity_rejects_bad_pairs():
    with pytest.raises(ValueError):
        multiplicity(4, 0.5)  # wrong parity
    with pytest.raises(ValueError):
        multiplicity(4, 3)  # j > N/2
    with pytest.raises(ValueError):
        multiplicity(0, 0)


@pytest.mark.parametrize("N", [0, 2.5])
def test_counts_and_partition_function_reject_a_size_that_is_no_positive_integer(N):
    with pytest.raises(ValueError, match="positive integer"):
        magnetization_counts(N)
    with pytest.raises(ValueError, match="positive integer"):
        log_partition_function(N, 250.0, 0.1)


def test_partition_function_rejects_a_negative_beta():
    with pytest.raises(ValueError, match="nonnegative"):
        log_partition_function(4, 250.0, -0.1)


def test_magnetization_counts_small():
    assert magnetization_counts(2) == {-1.0: 1, 0.0: 2, 1.0: 1}
    g20 = magnetization_counts(20)
    assert g20[-10.0] == 1 and g20[-9.0] == 20
    assert sum(magnetization_counts(22).values()) == 2 ** 22


@pytest.mark.parametrize("N", range(1, 25))
def test_magnetization_counts_symmetric_and_cumulative(N):
    table = multiplicity_table(N)
    for m, gm in table.g.items():
        assert gm == table.g[-m]
        assert gm == sum(v for j, v in table.nu.items() if j >= abs(m))


def test_partition_function_single_spin():
    beta, alpha = 0.3, 7.0
    assert log_partition_function(1, alpha, beta) == \
        pytest.approx(math.log(2 * math.cosh(beta * alpha / 2)), rel=1e-14)


def test_partition_function_infinite_temperature():
    assert log_partition_function(10, 250.0, 0.0) == 10 * math.log(2)
    assert log_partition_function(3, 0.0, 1.0) == 3 * math.log(2)


def test_partition_function_two_spins_enumeration():
    # N=2, beta*alpha=1: four product states with m = -1, 0, 0, +1
    expected = math.log(math.e + 2.0 + 1.0 / math.e)
    assert log_partition_function(2, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("N", [1, 2, 4, 8, 12, 16, 20, 24])
@pytest.mark.parametrize("ba", [1e-6, 1e-3, 0.1, 1.0, 5.0, 24.8, 50.0])
def test_partition_function_internal_consistency(N, ba):
    # the direct magnetization sum against the total-spin sinh form
    for alpha in (ba, -ba):
        direct = log_partition_function(N, alpha, 1.0)
        assert abs(log_z_sinh_form(N, alpha, 1.0) - direct) <= \
            1e-10 * max(1.0, abs(direct))


@pytest.mark.parametrize("alpha, beta", [(1.0, math.nan), (math.inf, 1.0),
                                         (1.0, math.inf), (math.nan, 1.0),
                                         (-math.inf, 0.5), (math.inf, 0.0),
                                         (1e200, 1e200)])
def test_partition_function_rejects_non_finite_input(alpha, beta):
    # (1e200, 1e200): the product beta*alpha overflows
    with pytest.raises(ValueError, match="finite"):
        log_partition_function(4, alpha, beta)


def test_partition_function_extreme_regime_no_overflow():
    # 77 K, alpha = 250 ps^-1, N = 22: naive exponentiation would overflow
    out = log_partition_function(22, 250.0, 0.0992)
    assert math.isfinite(out)
    # dominated by the m = -11 state: log Z ~ 0.0992 * 250 * 11
    assert out == pytest.approx(0.0992 * 250.0 * 11, rel=1e-2)


def test_thermal_weights_normalized():
    cfg = make_config(N1=5, N2=20, gamma2=2.0, q=7.0,
                      thermal=ThermalSpec.kelvin(77.0))
    tw = thermal_weights(cfg)
    assert tw.normalized().sum() == pytest.approx(1.0, abs=1e-12)
    assert tw.log_weights.max() == 0.0


def test_thermal_weights_infinite_temperature_limit():
    cfg = make_config(N1=3, N2=4, q=11.0, thermal=ThermalSpec.from_beta(1e-14))
    w = thermal_weights(cfg).normalized()
    g1 = np.array([math.comb(3, k) for k in range(3, -1, -1)], dtype=float)
    g2 = np.array([math.comb(4, k) for k in range(4, -1, -1)], dtype=float)
    expected = np.outer(g1, g2) / 2 ** 7
    np.testing.assert_allclose(w, expected, rtol=1e-10)


def test_thermal_weights_q_zero_factorizes():
    cfg = make_config(N1=4, N2=6, alpha1=13.0, alpha2=-5.0, q=0.0,
                      thermal=ThermalSpec.from_beta(0.07))
    w = thermal_weights(cfg).normalized()
    w1 = w.sum(axis=1)
    w2 = w.sum(axis=0)
    np.testing.assert_allclose(w, np.outer(w1, w2), atol=1e-12)


def test_thermal_weights_two_single_spin_baths():
    # brute-force enumeration of the four (m1, m2) sectors
    beta, a1, a2, q = 1.0, 1.0, 1.0, 1.0
    cfg = make_config(N1=1, N2=1, alpha1=a1, alpha2=a2, q=q,
                      thermal=ThermalSpec.from_beta(beta))
    w = thermal_weights(cfg).normalized()
    raw = np.array([[math.exp(-beta * (a1 * m1 + a2 * m2 + q * m1 * m2))
                     for m2 in (-0.5, 0.5)] for m1 in (-0.5, 0.5)])
    np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-14)


def test_thermal_weights_shift_invariance_bitwise():
    # exact binary arithmetic: shifting all bath energies by a constant must
    # cancel identically between numerator and normalization
    beta, shift = 0.25, 4.0
    cfg = make_config(N1=4, N2=4, alpha1=2.0, alpha2=8.0, q=16.0,
                      thermal=ThermalSpec.from_beta(beta))
    tw = thermal_weights(cfg)
    lw_shifted = tw.log_weights - beta * shift
    lw_shifted = lw_shifted - lw_shifted.max()
    assert np.array_equal(lw_shifted, tw.log_weights)


def _thermal_weights_reference(config):
    """thermal_weights as written before the per-N cache: dicts and meshgrid."""
    beta = config.thermal.beta
    b1, b2 = config.bath1, config.bath2
    g1, g2 = magnetization_counts(b1.N), magnetization_counts(b2.N)
    m1 = np.array(sorted(g1), dtype=float)
    m2 = np.array(sorted(g2), dtype=float)
    lg1 = np.array([math.log(g1[m]) for m in m1])
    lg2 = np.array([math.log(g2[m]) for m in m2])
    M1, M2 = np.meshgrid(m1, m2, indexing="ij")
    lw = (lg1[:, None] + lg2[None, :]
          - beta * (b1.alpha * M1 + b2.alpha * M2 + config.correlation.q * M1 * M2))
    lw = lw - lw.max()
    return m1, m2, lw


def test_thermal_weights_bit_identical_to_uncached_reference(rng):
    from conftest import random_config
    for i in range(200):
        cfg = random_config(rng, n_max=60 if i % 4 == 0 else 8)
        for _ in range(2):   # the second call reads the cache
            tw = thermal_weights(cfg)
            m1, m2, lw = _thermal_weights_reference(cfg)
            np.testing.assert_array_equal(tw.m1, m1)
            np.testing.assert_array_equal(tw.m2, m2)
            assert np.array_equal(tw.log_weights, lw)


def test_cached_magnetizations_are_read_only():
    tw = thermal_weights(make_config(N1=3, N2=4, thermal=ThermalSpec.kelvin(77.0)))
    with pytest.raises(ValueError):
        tw.m1[0] = 0.0
    with pytest.raises(ValueError):
        tw.m2[0] = 0.0


def test_weight_rows_equal_thermal_weights_bit_for_bit(rng):
    # a broadcast (beta, q) stack gives every row the bits of its own
    # config's normalized weights, and of the pre-cache reference
    for _ in range(40):
        N1, N2 = (int(n) for n in rng.integers(1, 41, 2))
        a1, a2 = (float(a) for a in rng.uniform(-300.0, 300.0, 2))
        betas = rng.uniform(1e-4, 0.2, 9)
        qs = rng.uniform(-20.0, 40.0, 9)
        qs[:2] = 0.0, -0.0
        lw, log_z = _log_weight_rows(N1, a1, N2, a2, betas, qs)
        rows = np.exp(lw - log_z[:, None])
        assert lw.shape == rows.shape == (9, (N1 + 1) * (N2 + 1))
        for r in range(9):
            cfg = make_config(N1=N1, alpha1=a1, N2=N2, alpha2=a2, q=float(qs[r]),
                              thermal=ThermalSpec.from_beta(float(betas[r])))
            assert rows[r].tobytes() == thermal_weights(cfg).normalized().ravel().tobytes()
            assert lw[r].tobytes() == _thermal_weights_reference(cfg)[2].ravel().tobytes()
        # a row alone, or in a shuffled stack, keeps its bits
        order = rng.permutation(9)
        lw2, log_z2 = _log_weight_rows(N1, a1, N2, a2, betas[order], qs[order])
        assert lw2.tobytes() == lw[order].tobytes()
        assert log_z2.tobytes() == log_z[order].tobytes()
