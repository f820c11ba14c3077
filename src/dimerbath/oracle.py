"""Brute-force verification, one bath z-configuration at a time.

Every bath spin commutes with the Hamiltonian (the dimer-bath coupling is
pure dephasing), so H is block-diagonal in the product basis: one real 2x2
dimer block per bath basis state b. `evolve_probability(config, t)` builds
these blocks from bit arithmetic on b, diagonalises them numerically with
batched `eigh` calls over memory-bounded chunks of bath states, and sums
the exact evolution over the thermal ensemble of bath states. It reuses
none of the collective-spin algebra: no multiplicities, no magnetization
sectors, no merging of equal detunings and no Rabi closed form.
`build_hamiltonian` returns the full 2^(N1+N2+1)-dimensional H as a dense
matrix, assembled spin by spin from elementary tensor products; nothing in
the package calls it, and it is the dense reference the block builder is
tested against. The bath ground state is found by enumeration. Agreement
with the analytic module is the package's keystone check.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig

# keeps a 50-point evolve_probability under 1 GiB RSS (measured at 300 K:
# 23 spins, 350 MiB; 24 spins, 670 MiB)
MAX_BATH_SPINS = 23
MAX_DENSE_BATH_SPINS = 10  # dense reference: a 2^11 x 2^11 complex matrix

# elements of one (bath states x time points) chunk of the block evolution;
# bounds the memory of evolve_probability whatever the number of bath states
_EVOLVE_BLOCK = 1 << 16


class OracleSizeError(ValueError):
    pass


def _check_size(n1: int, n2: int, limit: int, what: str = "oracle"):
    if n1 + n2 > limit:
        raise OracleSizeError(
            f"bath sizes N1+N2={n1 + n2} exceed the {what} limit of "
            f"{limit} spins")


_SZ_HALF = np.diag([0.5, -0.5]).astype(complex)  # basis: index 0 = up
_SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _embed(site_ops: dict[int, np.ndarray], n_sites: int) -> np.ndarray:
    """Tensor product over all sites, identity where no operator is given."""
    out = np.array([[1.0 + 0j]])
    for site in range(n_sites):
        out = np.kron(out, site_ops.get(site, np.eye(2, dtype=complex)))
    return out


def build_hamiltonian(config: SystemConfig) -> np.ndarray:
    """Full Hamiltonian, site ordering: dimer qubit, bath-1 spins, bath-2 spins."""
    n1, n2 = config.bath1.N, config.bath2.N
    _check_size(n1, n2, MAX_DENSE_BATH_SPINS, "dense Hamiltonian")
    n_sites = 1 + n1 + n2
    d = config.dimer

    proj = {1: np.diag([1.0, 0.0]).astype(complex),
            2: np.diag([0.0, 1.0]).astype(complex)}
    bath_sites = {1: range(1, 1 + n1), 2: range(1 + n1, 1 + n1 + n2)}
    params = {1: config.bath1, 2: config.bath2}

    H = d.J * _embed({0: _SX}, n_sites)
    for i in (1, 2):
        eps = d.epsilon1 if i == 1 else d.epsilon2
        H += eps * _embed({0: proj[i]}, n_sites)
        for k in bath_sites[i]:
            H += params[i].alpha * _embed({k: _SZ_HALF}, n_sites)
            H += params[i].gamma * _embed({0: proj[i], k: _SZ_HALF}, n_sites)
    q = config.correlation.q
    if q != 0.0:
        for k in bath_sites[1]:
            for l in bath_sites[2]:
                H += q * _embed({k: _SZ_HALF, l: _SZ_HALF}, n_sites)
    return H


def _bath_magnetizations(n1: int, n2: int):
    """m1, m2 for every bath basis index, in kron order (spin up first)."""
    def spins(n):
        m = np.zeros(1)
        for _ in range(n):
            m = np.add.outer(m, [0.5, -0.5]).ravel()
        return m
    return np.repeat(spins(n1), 2 ** n2), np.tile(spins(n2), 2 ** n1)


def _ensemble_weights(config: SystemConfig, m1: np.ndarray,
                      m2: np.ndarray) -> np.ndarray:
    """Canonical probability of each bath configuration (m1, m2)."""
    energy = (config.bath1.alpha * m1 + config.bath2.alpha * m2
              + config.correlation.q * m1 * m2)
    if config.thermal.is_zero_temperature:
        emin = energy.min()
        ground = energy <= emin + 1e-12 * max(1.0, abs(emin))
        probs = ground / ground.sum()
    else:
        logw = -config.thermal.beta * energy
        logw -= logw.max()
        probs = np.exp(logw)
        probs /= probs.sum()
    return probs


def thermal_ensemble(config: SystemConfig) -> np.ndarray:
    """Probability of each bath z-configuration in the canonical state.

    Zero temperature returns the uniform mixture over the exact energy
    minimizers (the beta -> infinity limit of the canonical state).
    """
    return _ensemble_weights(
        config, *_bath_magnetizations(config.bath1.N, config.bath2.N))


def _dimer_blocks(config: SystemConfig, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The real 2x2 block of H for each bath configuration (m1, m2).

    Row/column 0 is dimer level 1, row/column 1 is level 2.
    """
    d, b1, b2 = config.dimer, config.bath1, config.bath2
    bath = b1.alpha * m1 + b2.alpha * m2 + config.correlation.q * m1 * m2
    blocks = np.empty(np.shape(m1) + (2, 2))
    blocks[..., 0, 0] = d.epsilon1 + b1.gamma * m1 + bath
    blocks[..., 1, 1] = d.epsilon2 + b2.gamma * m2 + bath
    blocks[..., 0, 1] = blocks[..., 1, 0] = d.J
    return blocks


def evolve_probability(config: SystemConfig, t):
    """P(level 1 -> level 2) by exact unitary evolution of the thermal ensemble.

    Each bath state b evolves inside its own 2x2 block; the blocks are
    diagonalised in batches of bath states, each eigendecomposition reused
    across all time points.
    """
    t = np.asarray(t, dtype=float)
    n1, n2 = config.bath1.N, config.bath2.N
    _check_size(n1, n2, MAX_BATH_SPINS)
    m1, m2 = _bath_magnetizations(n1, n2)
    probs = _ensemble_weights(config, m1, m2)
    ts = t.reshape(-1)
    step = max(1, _EVOLVE_BLOCK // max(1, ts.size))
    p = np.zeros(ts.size)
    for lo in range(0, probs.size, step):
        chunk = slice(lo, lo + step)
        evals, evecs = np.linalg.eigh(
            _dimer_blocks(config, m1[chunk], m2[chunk]))
        # amplitude <2,b| e^{-iHt} |1,b> = sum_k V[1,k] e^{-iE_k t} V[0,k]
        # (real blocks, real eigenvectors)
        w = evecs[:, 1, :] * evecs[:, 0, :]
        amps = np.einsum("bk,bkt->bt", w,
                         np.exp(-1j * np.multiply.outer(evals, ts)))
        p += probs[chunk] @ (np.abs(amps) ** 2)
    return float(p[0]) if t.ndim == 0 else p.reshape(t.shape)


def brute_force_bath_ground(alpha1: float, alpha2: float, q: float,
                            N1: int, N2: int) -> list[tuple[float, float]]:
    """All (m1, m2) minimizing the bath energy, within a 1e-12 relative band."""
    if N1 < 1 or N2 < 1:
        raise ValueError("bath sizes must be >= 1")
    m1 = np.arange(-N1, N1 + 1, 2) / 2.0
    m2 = np.arange(-N2, N2 + 1, 2) / 2.0
    col, row = m1[:, None], m2[None, :]
    E = alpha1 * col + alpha2 * row + q * col * row
    emin = E.min()
    i, j = np.nonzero(E <= emin + 1e-12 * max(1.0, abs(emin)))
    return [(float(m1[a]), float(m2[b])) for a, b in zip(i, j)]
