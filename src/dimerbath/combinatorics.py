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
    g = magnetization_counts(N)
    # dimension identity, exact in integer arithmetic
    assert sum(v * (round(2 * j) + 1) for j, v in nu.items()) == 2 ** N
    # g(m) is also the cumulative multiplicity over j >= |m|
    for m, gm in g.items():
        assert gm == sum(v for j, v in nu.items() if j >= abs(m) - 1e-9)
    return MultiplicityTable(N=N, nu=nu, g=g)


def _logsumexp(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    xmax = x.max()
    return float(xmax + np.log(np.exp(x - xmax).sum()))


def _log_sinh(x: float) -> float:
    # log sinh(x) for x > 0 without overflow
    return x - math.log(2.0) + math.log(-math.expm1(-2.0 * x))


def log_partition_function(N: int, alpha: float, beta: float) -> float:
    """log Z of one bath, Z = sum_j nu(N,j) sinh(b(j+1/2))/sinh(b/2), b = beta*alpha.

    Evaluated both in the sinh closed form and as the direct magnetization
    sum sum_m g(m) exp(-beta*alpha*m); the two must agree to 1e-10 or the
    bookkeeping is broken.
    """
    if not (isinstance(N, int) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    b = beta * alpha
    if b == 0.0:
        return N * math.log(2.0)

    g = magnetization_counts(N)
    log_direct = _logsumexp([math.log(gm) - b * m for m, gm in g.items()])

    ab = abs(b)
    terms = []
    two_j = N
    while two_j >= 0:
        nu = multiplicity(N, two_j / 2.0)
        if nu > 0:
            terms.append(math.log(nu)
                         + _log_sinh(ab * (two_j + 1) / 2.0) - _log_sinh(ab / 2.0))
        two_j -= 2
    log_sinh_form = _logsumexp(terms)

    if abs(log_sinh_form - log_direct) > 1e-10 * max(1.0, abs(log_direct)):
        raise RuntimeError(
            f"partition function forms disagree: sinh={log_sinh_form!r} "
            f"direct={log_direct!r} (N={N}, beta*alpha={b})")
    return log_direct


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


def thermal_weights(config: SystemConfig) -> ThermalWeights:
    """Degeneracy-weighted canonical weights of the (possibly Ising-coupled) baths.

    weight(m1, m2) ~ g1(m1) g2(m2) exp(-beta (a1 m1 + a2 m2 + q m1 m2)).
    m1 and m2 are shared read-only arrays.
    """
    beta = config.thermal.beta
    b1, b2 = config.bath1, config.bath2
    q = config.correlation.q

    m1, lg1 = _log_counts(b1.N)
    m2, lg2 = _log_counts(b2.N)
    M1, M2 = m1[:, None], m2[None, :]
    lw = (lg1[:, None] + lg2[None, :]
          - beta * (b1.alpha * M1 + b2.alpha * M2 + q * M1 * M2))
    lw = lw - lw.max()
    log_z = _logsumexp(lw.ravel())
    return ThermalWeights(beta=beta, m1=m1, m2=m2, log_weights=lw,
                          log_z_shifted=log_z)
