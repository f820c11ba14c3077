"""Collective-spin degeneracies and numerically stable thermal weights.

N spins 1/2 decompose into total-spin sectors j = N/2, N/2-1, ... with
multiplicity nu(N, j) = C(N, N/2-j) - C(N, N/2-j-1).  All thermal sums run
in shifted log space: at 77 K the exponent beta*alpha*m spans hundreds,
far beyond what naive exponentiation survives.

Half-integer spins are tracked internally as doubled integers (2j, 2m);
the public interface uses ordinary halves (exact in binary floats).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


def multiplicity(N: int, j: float) -> int:
    """Exact multiplicity nu(N, j) of total spin j for N spins 1/2."""
    if not (isinstance(N, int) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    two_j = round(2 * j)
    if two_j != 2 * j or two_j < 0 or two_j > N or (N - two_j) % 2 != 0:
        raise ValueError(f"invalid total spin j={j} for N={N}")
    k = (N - two_j) // 2
    nu = math.comb(N, k) - (math.comb(N, k - 1) if k >= 1 else 0)
    return nu


def magnetization_counts(N: int) -> dict[float, int]:
    """Number of z-basis states with magnetization m: g(m) = C(N, N/2 - m)."""
    if not (isinstance(N, int) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return {(N - 2 * k) / 2.0: math.comb(N, k) for k in range(N + 1)}


@dataclass(frozen=True)
class MultiplicityTable:
    """nu(N, j) over all sectors and the magnetization marginals g(m)."""
    N: int
    nu: dict[float, int]
    g: dict[float, int]


def multiplicity_table(N: int) -> MultiplicityTable:
    nu = {}
    two_j = N
    while two_j >= 0:
        nu[two_j / 2.0] = multiplicity(N, two_j / 2.0)
        two_j -= 2
    return MultiplicityTable(N=N, nu=nu, g=magnetization_counts(N))


def _logsumexp(x) -> np.ndarray:
    """log sum exp over the last axis, each row shifted by its own max."""
    x = np.asarray(x, dtype=float)
    xmax = x.max(axis=-1, keepdims=True)
    return (xmax + np.log(np.exp(x - xmax).sum(axis=-1, keepdims=True)))[..., 0]


def log_partition_function(N: int, alpha: float, beta: float) -> float:
    """log Z of one bath, Z = sum_m g(m) exp(-beta*alpha*m), in shifted log space."""
    if not (isinstance(N, int) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    b = beta * alpha
    if not math.isfinite(b):
        raise ValueError(f"beta*alpha must be finite, got alpha={alpha!r}, beta={beta!r}")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if b == 0.0:
        return N * math.log(2.0)
    g = magnetization_counts(N)
    return float(_logsumexp([math.log(gm) - b * m for m, gm in g.items()]))


@dataclass(frozen=True)
class ThermalWeights:
    """Joint Boltzmann weights over the (m1, m2) magnetization grid.

    log_weights is max-shifted to 0; log_z_shifted is the log of the
    shifted normalization, so normalized weights are
    exp(log_weights - log_z_shifted).
    """
    beta: float
    m1: np.ndarray
    m2: np.ndarray
    log_weights: np.ndarray
    log_z_shifted: float

    def normalized(self) -> np.ndarray:
        return np.exp(self.log_weights - self.log_z_shifted)


@functools.lru_cache(maxsize=64)
def _log_counts(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending magnetizations m of an N-spin bath and log g(m), read-only."""
    g = magnetization_counts(N)
    m = np.array(sorted(g), dtype=float)
    lg = np.array([math.log(g[v]) for v in m])
    m.flags.writeable = lg.flags.writeable = False
    return m, lg


def _log_weight_rows(N1: int, alpha1: float, N2: int, alpha2: float,
                     beta: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted log-weights over the flat (m1, m2) grid, one row per (beta, q).

    Row r is log g1(m1) g2(m2) - beta_r (a1 m1 + a2 m2 + q_r m1 m2), shifted
    to a max of 0, for m1 and m2 of _log_counts (m1 the slower index).  All
    rows come from one broadcast; each row's max and log-sum-exp reduce its
    own contiguous row, so a row has the same bits alone or in any stack.
    Returns (log_weights, log_z_shifted), of shapes (rows, sectors) and (rows,).
    """
    m1, lg1 = _log_counts(N1)
    m2, lg2 = _log_counts(N2)
    M1, M2 = m1[:, None], m2[None, :]
    beta = np.asarray(beta, dtype=float)[:, None, None]
    q = np.asarray(q, dtype=float)[:, None, None]
    lw = (lg1[:, None] + lg2[None, :]
          - beta * (alpha1 * M1 + alpha2 * M2 + q * M1 * M2)).reshape(len(beta), -1)
    lw -= lw.max(axis=1, keepdims=True)
    return lw, _logsumexp(lw)


def thermal_weights(config: SystemConfig) -> ThermalWeights:
    """Degeneracy-weighted canonical weights of the (possibly Ising-coupled) baths.

    weight(m1, m2) ~ g1(m1) g2(m2) exp(-beta (a1 m1 + a2 m2 + q m1 m2)):
    the one-row case of _log_weight_rows.  m1 and m2 are shared read-only
    arrays.
    """
    beta = config.thermal.beta
    b1, b2 = config.bath1, config.bath2
    lw, log_z = _log_weight_rows(b1.N, b1.alpha, b2.N, b2.alpha,
                                 [beta], [config.correlation.q])
    m1, m2 = _log_counts(b1.N)[0], _log_counts(b2.N)[0]
    return ThermalWeights(beta=beta, m1=m1, m2=m2,
                          log_weights=lw.reshape(m1.size, m2.size),
                          log_z_shifted=float(log_z[0]))
