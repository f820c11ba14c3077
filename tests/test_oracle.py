import math
import tracemalloc

import numpy as np
import pytest

from dimerbath import (OracleSizeError, ThermalSpec, brute_force_bath_ground,
                       build_hamiltonian, correlated_ground_state,
                       evolve_probability, oracle, p12_thermal, q_threshold,
                       rabi_probability, thermal_ensemble)
from dimerbath.oracle import _bath_magnetizations, _dimer_blocks
from conftest import make_config, random_config


def small_random_config(rng, **kwargs):
    return random_config(rng, n_max=3, **kwargs)


def dense_evolution(cfg, ts, identity_shift=0.0):
    """P(1 -> 2) from one eigh of the full Kronecker-built Hamiltonian."""
    H = build_hamiltonian(cfg).matrix
    H = H + identity_shift * np.eye(H.shape[0])
    evals, evecs = np.linalg.eigh(H)
    nbath = H.shape[0] // 2
    # global index = dimer_bit * nbath + bath_index; dimer bit 0 = level 1
    W = evecs[nbath:, :] * evecs[:nbath, :].conj()
    amps = W @ np.exp(-1j * np.multiply.outer(evals, ts))
    return thermal_ensemble(cfg) @ (np.abs(amps) ** 2)


class TestHamiltonian:
    def test_decoupled_spectrum_contains_dimer_levels(self):
        cfg = make_config(eps1=0, eps2=20, J=10.0, N1=1, alpha1=0.0, gamma1=0.0,
                          N2=1, alpha2=0.0, gamma2=0.0)
        ham = build_hamiltonian(cfg)
        evals = np.linalg.eigvalsh(ham.matrix)
        mid, split = 10.0, math.sqrt(100.0 + 100.0)
        for expected in (mid - split, mid + split):
            assert np.abs(evals - expected).min() < 1e-10

    def test_single_bath_spin_block_structure(self):
        # one bath-2 spin: two 2x2 dimer blocks with eps2 shifted by +-gamma2/2
        # (and the bath term alpha2*mz on the diagonal)
        eps1, eps2, J, a2, g2 = 1.0, 9.0, 4.0, 3.0, 5.0
        cfg = make_config(eps1=eps1, eps2=eps2, J=J, N1=1, alpha1=0.0,
                          gamma1=0.0, N2=1, alpha2=a2, gamma2=g2)
        evals = np.sort(np.linalg.eigvalsh(build_hamiltonian(cfg).matrix))
        expected = []
        for mz in (0.5, -0.5):
            block = np.array([[eps1 + a2 * mz, J],
                              [J, eps2 + g2 * mz + a2 * mz]])
            # spectator bath-1 spin doubles every level
            expected.extend(np.linalg.eigvalsh(block))
            expected.extend(np.linalg.eigvalsh(block))
        np.testing.assert_allclose(evals, np.sort(expected), atol=1e-12)

    def test_hermitian_for_random_configs(self, rng):
        for _ in range(20):
            cfg = small_random_config(rng)
            H = build_hamiltonian(cfg).matrix
            assert np.abs(H - H.conj().T).max() <= 1e-13 * max(1, np.abs(H).max())

    def test_preserves_bath_configuration(self, rng):
        # H never moves amplitude between bath z-configurations
        cfg = small_random_config(rng)
        H = build_hamiltonian(cfg).matrix
        nbath = H.shape[0] // 2
        for _ in range(10):
            col = int(rng.integers(0, H.shape[0]))
            rows = np.nonzero(np.abs(H[:, col]) > 1e-14)[0]
            assert all(r % nbath == col % nbath for r in rows)

    def test_size_guard(self):
        with pytest.raises(OracleSizeError, match="10"):
            build_hamiltonian(make_config(N1=6, N2=5))
        # checked before any bath state is enumerated
        with pytest.raises(OracleSizeError, match="23"):
            evolve_probability(make_config(N1=12, N2=12), 0.5)

    def test_dense_hamiltonian_is_block_diagonal_with_the_built_blocks(self, rng):
        for _ in range(20):
            cfg = random_config(rng, n_max=4)
            H = build_hamiltonian(cfg).matrix
            nbath = H.shape[0] // 2
            bath = np.arange(H.shape[0]) % nbath
            assert np.all(H[bath[:, None] != bath[None, :]] == 0)
            b = np.arange(nbath)
            dense_blocks = np.stack(
                [np.stack([H[b, b], H[b, b + nbath]], axis=-1),
                 np.stack([H[b + nbath, b], H[b + nbath, b + nbath]], axis=-1)],
                axis=-2)
            blocks = _dimer_blocks(
                cfg, *_bath_magnetizations(cfg.bath1.N, cfg.bath2.N))
            assert np.abs(dense_blocks - blocks).max() <= \
                1e-12 * np.abs(H).max()


def bit_loop_magnetizations(n1, n2):
    """m1, m2 read off the bits of every bath basis index (bit set = spin down)."""
    idx = np.arange(2 ** (n1 + n2))
    down1 = np.zeros_like(idx)
    down2 = np.zeros_like(idx)
    for bit in range(n1 + n2):
        # bit 0 is the last site in the kron ordering (bath-2 end)
        v = (idx >> bit) & 1
        if n1 + n2 - 1 - bit < n1:
            down1 += v
        else:
            down2 += v
    return n1 / 2.0 - down1, n2 / 2.0 - down2


def test_bath_magnetizations_match_the_bit_loop():
    for n1 in range(13):
        for n2 in range(13 - n1):
            for m, witness in zip(_bath_magnetizations(n1, n2),
                                  bit_loop_magnetizations(n1, n2)):
                assert m.dtype == witness.dtype and m.tobytes() == witness.tobytes()


class TestEnsemble:
    def test_probabilities_sum_to_one(self, rng):
        for _ in range(10):
            probs = thermal_ensemble(small_random_config(rng))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_temperature_selects_ground(self):
        cfg = make_config(N1=2, N2=2, alpha1=5.0, alpha2=3.0)
        probs = thermal_ensemble(cfg)
        # unique all-down configuration is the last index (all bits set)
        assert probs[-1] == 1.0 and probs[:-1].sum() == 0.0


class TestEvolution:
    def test_starts_at_zero(self, rng):
        for _ in range(5):
            assert evolve_probability(small_random_config(rng), 0.0) == \
                pytest.approx(0.0, abs=1e-12)

    def test_decoupled_baths_match_bare_rabi(self, rng):
        cfg = make_config(eps1=-3.0, eps2=11.0, J=6.0, N1=2, alpha1=40.0,
                          gamma1=0.0, N2=3, alpha2=17.0, gamma2=0.0,
                          thermal=ThermalSpec.kelvin(150.0))
        ts = np.linspace(0, 2, 40)
        np.testing.assert_allclose(evolve_probability(cfg, ts),
                                   rabi_probability(6.0, 7.0, ts), atol=1e-10)

    def test_matches_analytic_thermal(self, rng):
        for _ in range(5):
            cfg = small_random_config(rng)
            ts = np.linspace(0, 2, 25)
            np.testing.assert_allclose(evolve_probability(cfg, ts),
                                       p12_thermal(cfg, ts), atol=1e-8)

    def test_global_phase_invariance(self, rng):
        cfg = small_random_config(rng)
        ts = np.linspace(0, 2, 20)
        base = evolve_probability(cfg, ts)
        for shift in (-137.0, 55.5, 1e4):
            np.testing.assert_allclose(
                evolve_probability(cfg, ts, identity_shift=shift),
                base, atol=1e-10)

    def test_probability_conserved(self, rng):
        # amplitude staying on level 1 plus amplitude reaching level 2 is unity
        cfg = small_random_config(rng)
        H = build_hamiltonian(cfg).matrix
        evals, evecs = np.linalg.eigh(H)
        nbath = H.shape[0] // 2
        for t in (0.0, 0.3, 1.7):
            U = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
            for b in (0, nbath // 2, nbath - 1):
                total = abs(U[b, b]) ** 2 + abs(U[b + nbath, b]) ** 2
                assert total == pytest.approx(1.0, abs=1e-10)


class TestBlockEvolution:
    """The block oracle against a dense evolution of the same Hamiltonian."""

    @pytest.mark.parametrize("zero_temp, shift", [(False, 0.0), (True, 0.0),
                                                  (False, -137.0), (True, 1e4)])
    def test_matches_dense_evolution(self, rng, zero_temp, shift):
        # 600 points split 2^7 or more bath states into several chunks
        ts = np.linspace(0, 2, 600)
        for _ in range(6):
            cfg = random_config(rng, n_max=4, zero_temp=zero_temp)
            np.testing.assert_allclose(
                evolve_probability(cfg, ts, identity_shift=shift),
                dense_evolution(cfg, ts, identity_shift=shift), rtol=0,
                atol=1e-10)

    @pytest.mark.parametrize("n1, n2", [(12, 4), (4, 12)])
    def test_unequal_sizes_match_analytic_thermal(self, n1, n2):
        # sizes the dense oracle could never reach, with correlated baths
        for kelvin, q in ((77.0, 2.5), (300.0, -4.0)):
            cfg = make_config(eps1=1.0, eps2=19.0, J=9.0, N1=n1, alpha1=230.0,
                              gamma1=1.5, N2=n2, alpha2=270.0, gamma2=-2.0,
                              q=q, thermal=ThermalSpec.kelvin(kelvin))
            ts = np.linspace(0, 2, 50)
            np.testing.assert_allclose(evolve_probability(cfg, ts),
                                       p12_thermal(cfg, ts), rtol=0, atol=1e-8)

    def test_enumerates_bath_states_once(self, monkeypatch):
        calls = []

        def spy(n1, n2):
            calls.append((n1, n2))
            return _bath_magnetizations(n1, n2)

        monkeypatch.setattr(oracle, "_bath_magnetizations", spy)
        for thermal in (ThermalSpec.kelvin(77.0), ThermalSpec.zero()):
            calls.clear()
            cfg = make_config(N1=3, N2=4, gamma1=1.0, q=2.0, thermal=thermal)
            evolve_probability(cfg, np.linspace(0, 2, 10))
            assert calls == [(3, 4)]

    def test_peak_memory_is_bounded(self):
        # evaluated in one piece, 2^16 bath states x 50 points would need
        # about 200 MiB of temporaries (the phase array alone is 100 MiB)
        cfg = make_config(N1=8, N2=8, gamma1=1.0, gamma2=2.0, q=3.0,
                          thermal=ThermalSpec.kelvin(300.0))
        ts = np.linspace(0, 2, 50)
        tracemalloc.start()
        try:
            evolve_probability(cfg, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestBathGroundEnumeration:
    def test_uncorrelated_unique_minimizer(self):
        assert brute_force_bath_ground(250.0, 250.0, 0.0, 22, 20) == \
            [(-11.0, -10.0)]

    def test_paper_figure_regime_above_threshold(self):
        # alpha1 = alpha2 = 250, N1 = 22, N2 = 20, q = 30 > q0 ~ 22.7:
        # flipping bath 2 costs alpha2*N2 - q*N1*N2/2 = -1600 while flipping
        # bath 1 costs +alpha1*N1 - q*N1*N2/2 = -1100, so the minimizer is
        # the single corner (-11, +10) (the two flips differ by
        # alpha*(N1 - N2) = 500 and are never degenerate here)
        minimizers = brute_force_bath_ground(250.0, 250.0, 30.0, 22, 20)
        assert minimizers == [(-11.0, 10.0)]

    def test_boundary_degeneracy(self):
        # q exactly 2*alpha2/N1 with alpha2/N1 < alpha1/N2: along m1 = -N1/2
        # the m2 dependence cancels exactly, so the whole bottom row of the
        # magnetization grid is degenerate, not just the two corners
        a1, a2, N1, N2 = 300.0, 250.0, 20, 20
        q = 2 * a2 / N1
        assert q < 2 * a1 / N2
        minimizers = brute_force_bath_ground(a1, a2, q, N1, N2)
        expected = [(-10.0, m2 - 10.0) for m2 in range(N2 + 1)]
        assert minimizers == expected

    def test_agrees_with_branch_classifier(self, rng):
        # equal bath sizes, where the alpha1-vs-alpha2 case table is exact
        branch_to_corner = {"both_down": (-3.0, -3.0),
                            "bath2_up": (-3.0, 3.0),
                            "bath1_up": (3.0, -3.0)}
        for _ in range(200):
            a1, a2 = rng.uniform(10, 400, size=2)
            q = float(rng.uniform(0, 300))
            q0 = q_threshold(a1, a2, 6, 6)
            if abs(q - q0) < 1e-6 * q0 or abs(a1 - a2) < 1e-6 * a1:
                continue
            branch = correlated_ground_state(a1, a2, q, 6, 6)
            minimizers = brute_force_bath_ground(a1, a2, q, 6, 6)
            assert minimizers == [branch_to_corner[branch.branch]]
