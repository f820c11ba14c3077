"""Exact transition probabilities of the decoherently coupled dimer.

Every regime reduces to the same Rabi form

    P(t) = J^2/(J^2 + D^2) * sin^2(t sqrt(J^2 + D^2))

with an effective detuning D, a plain float, set by the bath state.  In the
magnetization sector (m1, m2) it is gap + (gamma2 m2 - gamma1 m1)/2; finite
temperature averages the curve over all sectors with their thermal weights,
and zero temperature takes the ground-state corner's detuning
(delta0_correlated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import _log_counts, _log_weight_rows, multiplicity, thermal_weights
from .config import SystemConfig


@dataclass(frozen=True)
class GroundStateBranch:
    """Which corner product state (or superposition) minimizes the bath energy."""
    branch: str  # both_down | bath2_up | bath1_up | degenerate_superposition


@dataclass(frozen=True)
class AssistanceReport:
    regime: str
    satisfied: bool
    delta0: float


@dataclass(frozen=True)
class ResonanceSolution:
    gamma: float
    degenerate: bool = False


def rabi_probability(J: float, delta, t):
    """Two-level transition probability at detuning delta."""
    d = float(delta)
    t = np.asarray(t, dtype=float)
    omega2 = J * J + d * d
    if omega2 == 0.0:
        p = np.zeros_like(t)
    else:
        p = (J * J / omega2) * np.sin(t * math.sqrt(omega2)) ** 2
    return float(p) if p.ndim == 0 else p


def _detunings(gap: float, gamma1: float, gamma2: float,
               m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Flat sector detunings gap + (gamma2 m2 - gamma1 m1)/2, m1 the slower index."""
    return (gap + (gamma2 * m2[None, :] - gamma1 * m1[:, None]) / 2.0).ravel()


def _sector_arrays(config: SystemConfig):
    """Flat (weights, detunings) of the bath states the config averages over.

    Finite beta spans the magnetization grid; zero temperature is the one
    ground-state corner (delta0_correlated).
    """
    if config.thermal.is_zero_temperature:
        return np.ones(1), np.array([delta0_correlated(config, _ground_branch(config))])
    tw = thermal_weights(config)
    return (tw.normalized().ravel(),
            _detunings(config.gap, config.bath1.gamma, config.bath2.gamma, tw.m1, tw.m2))


# elements of one (times x detunings) block of the Rabi kernel, and of one
# block of weight rows; bounds the memory of a call whatever the number of
# times, detunings or cells
_KERNEL_BLOCK = 1 << 16


def _distinct(*columns) -> tuple[np.ndarray, np.ndarray]:
    """(first cell, index) of every distinct tuple of per-cell floats.

    Tuples are keyed by their float bits, so -0.0 and 0.0 stay apart and
    every cell of a key has exactly its first cell's values.
    """
    keys = np.column_stack(columns).view(np.uint64)
    _, first, of = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, of.ravel()


def _detuning_groups(config: SystemConfig, **cells):
    """The config's cells grouped by detuning set, sectors merged.

    cells maps any of J, gamma1, gamma2, beta and q to an array of per-cell
    values, all of one length, every cell at finite temperature; the
    others take the config's own value.  With none given the config is
    the one cell, in either regime (_sector_arrays).  P(t) depends on a
    sector only through its detuning, so the weights of sectors that share
    one are summed.  The weights depend on (beta, q) alone and the
    detunings on (gamma1, gamma2) alone, so each distinct (beta, q) row
    (_log_weight_rows) and each distinct (J, gamma1, gamma2) detuning set
    is built once, and a group is the cells of one (J, gamma1, gamma2).
    Returns a list of (J, detunings, cells, weights): the sorted distinct
    detunings, the indices of the group's cells, and one row of merged
    weights per cell.  A cell's detunings and weights have the bits its
    own config gives.
    """
    if not cells:
        w, delta = _sector_arrays(config)
        detunings, inverse = np.unique(delta, return_inverse=True)
        merged = np.bincount(inverse, weights=w, minlength=detunings.size)
        return [(config.dimer.J, detunings, [0], merged[None, :])]
    b1, b2 = config.bath1, config.bath2
    n = max(np.size(v) for v in cells.values())
    values = {"J": config.dimer.J, "gamma1": b1.gamma, "gamma2": b2.gamma,
              "q": config.correlation.q}
    if "beta" not in cells:
        values["beta"] = config.thermal.beta
    values.update(cells)
    J, gamma1, gamma2, beta, q = (np.full(n, values[name], dtype=float)
                                  for name in ("J", "gamma1", "gamma2", "beta", "q"))
    m1, m2 = _log_counts(b1.N)[0], _log_counts(b2.N)[0]
    rows, row_of = _distinct(beta, q)
    sets, set_of = _distinct(J, gamma1, gamma2)
    groups = []
    for s, first in enumerate(sets):
        members = np.flatnonzero(set_of == s)
        detunings, inverse = np.unique(
            _detunings(config.gap, gamma1[first], gamma2[first], m1, m2),
            return_inverse=True)
        # the group's W rows, ascending, and each member's among them
        used, slot = np.unique(row_of[members], return_inverse=True)
        groups.append((first, members, slot.ravel(), detunings, inverse, used,
                       np.empty((used.size, detunings.size))))
    # W rows in blocks of at most _KERNEL_BLOCK elements, each merged into
    # every group that uses it: row i of a block adds its sectors to bins
    # i K + inverse, in sector order, as a bincount of the row alone would
    step = max(1, _KERNEL_BLOCK // (m1.size * m2.size))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        lw, log_z = _log_weight_rows(b1.N, b1.alpha, b2.N, b2.alpha, beta[block], q[block])
        w = np.exp(lw - log_z[:, None])
        for _, _, _, detunings, inverse, used, merged in groups:
            a, b = np.searchsorted(used, (lo, lo + step))
            k = detunings.size
            bins = (np.arange(b - a)[:, None] * k + inverse).ravel()
            merged[a:b] = np.bincount(bins, weights=w[used[a:b] - lo].ravel(),
                                      minlength=(b - a) * k).reshape(b - a, k)
    return [(float(J[first]), detunings, members.tolist(), merged[slot])
            for first, members, slot, detunings, _, _, merged in groups]


def _rabi_average_paired(J: float, detunings: np.ndarray, weights: np.ndarray,
                        rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k weights[rows[i], k] K(t[i], D_k) for every i, each at its own time.

    K(t, D) = J^2/(J^2 + D^2) * sin^2(t sqrt(J^2 + D^2)).  The time axis is
    evaluated in blocks, each in place.  Each value is the pairwise sum of
    its own contiguous row, so it does not depend on the other entries of t.
    """
    omega2 = J * J + detunings * detunings
    # J^2 + D^2 underflows to 0 only where P = sin^2(|J| t) does too
    amp = np.divide(J * J, omega2, out=np.zeros_like(omega2), where=omega2 > 0)
    omega = np.sqrt(omega2)
    out = np.empty(t.size)
    step = max(1, _KERNEL_BLOCK // detunings.size)
    for lo in range(0, t.size, step):
        block = slice(lo, lo + step)
        K = np.multiply.outer(t[block], omega)
        np.sin(K, out=K)
        np.square(K, out=K)
        K *= amp
        K *= weights[rows[block]]
        out[block] = K.sum(axis=-1)
    return out


def _rabi_slopes(J: float, detunings: np.ndarray, weights: np.ndarray,
                 rows: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P', P'') of _rabi_average_paired at every t[i], in closed form.

    P' = J^2 sum_k w_k sin(2 omega_k t)/omega_k and
    P'' = 2 J^2 sum_k w_k cos(2 omega_k t), with w = weights[rows[i]].
    Like the paired kernel, each value depends on its own entry only.
    """
    omega = np.sqrt(J * J + detunings * detunings)
    slope, curvature = np.empty(t.size), np.empty(t.size)
    step = max(1, _KERNEL_BLOCK // detunings.size)
    for lo in range(0, t.size, step):
        block = slice(lo, lo + step)
        phase = 2.0 * np.multiply.outer(t[block], omega)
        w = weights[rows[block]]
        slope[block] = (w * (np.sin(phase) / omega)).sum(axis=-1)
        curvature[block] = (w * np.cos(phase)).sum(axis=-1)
    return J * J * slope, 2.0 * J * J * curvature


def _rabi_scan(J: float, detunings: np.ndarray, weights: np.ndarray,
               t0: float, dt: float, steps: int) -> np.ndarray:
    """The direct kernel on the uniform grid t0 + j dt, j < steps, by angle addition.

    With c_k = w_k J^2/omega_k^2, P(t) = sum_k c_k/2 - sum_k c_k cos(2 omega_k t)/2.
    The grid is cut into runs of B = 2h + 1 steps around centres T_u, and
    cos(2 omega (T_u +- v dt)) = cos x cos y -+ sin x sin y with x, y the
    phases of T_u and of v dt.  So a weight row's scan is a pair of matrix
    products per block of detunings, over cos/sin tables of the centres
    and of the offsets 0..h: 2 (steps/B + h + 1) K sines and cosines
    instead of steps K sines.  The blocks bound the tables' memory.  A
    stacked matmul makes one product per row, and the blocks depend only on
    steps and the number of detunings, so a row gives the same bits
    whatever rows it is batched with.  The result agrees with the direct
    kernel (_rabi_average_paired) in absolute, not relative, terms.
    """
    omega2 = J * J + detunings * detunings
    two_omega = 2.0 * np.sqrt(omega2)
    # B about sqrt(8 steps): the offset tables are the larger, as they are
    # not scaled per row
    half = math.isqrt(8 * steps) // 2
    n_fine = 2 * half + 1
    n_coarse = -(-steps // n_fine)
    centres = t0 + dt * (half + n_fine * np.arange(n_coarse))
    offsets = dt * np.arange(half + 1)
    c = weights * np.divide(J * J, omega2, out=np.zeros_like(omega2), where=omega2 > 0)
    # [row, cos | sin, centre, offset]
    acc = np.empty((len(c), 2, n_coarse, half + 1))
    width = max(1, _KERNEL_BLOCK // (n_coarse + half + 1))
    batch = max(1, _KERNEL_BLOCK // (2 * n_coarse * min(width, detunings.size)))
    for lo in range(0, detunings.size, width):
        x = np.multiply.outer(centres, two_omega[lo:lo + width])
        y = np.multiply.outer(two_omega[lo:lo + width], offsets)
        x_table = np.stack([np.cos(x), np.sin(x)])
        y_table = np.stack([np.cos(y), np.sin(y)])
        for r in range(0, len(c), batch):
            scaled = x_table * c[r:r + batch, None, None, lo:lo + width]
            if lo == 0:
                np.matmul(scaled, y_table, out=acc[r:r + batch])
            else:
                acc[r:r + batch] += scaled @ y_table
    # offsets -h..-1 take even + odd, offsets 0..h take even - odd
    even, odd = acc[:, 0], acc[:, 1]
    p = np.empty((len(c), n_coarse, n_fine))
    np.add(even[:, :, :0:-1], odd[:, :, :0:-1], out=p[:, :, :half])
    np.subtract(even, odd, out=p[:, :, half:])
    np.subtract(c.sum(axis=-1)[:, None, None], p, out=p)
    p *= 0.5
    return p.reshape(len(c), -1)[:, :steps]


def p12_thermal_jm(config: SystemConfig, t):
    """Debug path: the explicit double sum over (j1, m1, j2, m2) sectors."""
    beta = config.thermal.beta
    b1, b2 = config.bath1, config.bath2
    q = config.correlation.q
    J = config.dimer.J

    sectors = []  # (log weight, delta)
    for two_j1 in range(b1.N % 2, b1.N + 1, 2):
        nu1 = multiplicity(b1.N, two_j1 / 2.0)
        if nu1 == 0:
            continue
        for two_m1 in range(-two_j1, two_j1 + 1, 2):
            m1 = two_m1 / 2.0
            for two_j2 in range(b2.N % 2, b2.N + 1, 2):
                nu2 = multiplicity(b2.N, two_j2 / 2.0)
                if nu2 == 0:
                    continue
                for two_m2 in range(-two_j2, two_j2 + 1, 2):
                    m2 = two_m2 / 2.0
                    lw = (math.log(nu1) + math.log(nu2)
                          - beta * (b1.alpha * m1 + b2.alpha * m2 + q * m1 * m2))
                    delta = config.gap + (b2.gamma * m2 - b1.gamma * m1) / 2.0
                    sectors.append((lw, delta))
    lw = np.array([s[0] for s in sectors])
    delta = np.array([s[1] for s in sectors])
    w = np.exp(lw - lw.max())
    w /= w.sum()
    t = np.asarray(t, dtype=float)
    omega2 = J * J + delta * delta
    p = ((J * J / omega2) * np.sin(np.multiply.outer(t, np.sqrt(omega2))) ** 2) @ w
    return float(p) if p.ndim == 0 else p


def q_threshold(alpha1: float, alpha2: float, N1: int, N2: int) -> float:
    """Ising coupling above which the joint bath ground state flips."""
    if N1 < 1 or N2 < 1:
        raise ValueError("bath sizes must be >= 1")
    return 2.0 * min(alpha1 / N2, alpha2 / N1)


# relative tolerance of the classifier's ties and of the Delta0 = 0 test
_REL_TOL = 1e-12


def _tied(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b))


def correlated_ground_state(alpha1: float, alpha2: float, q: float,
                            N1: int, N2: int) -> GroundStateBranch:
    """Classify the ground state of a1 S1z + a2 S2z + q S1z S2z.

    q tied with q0, or equal alphas above q0, leave two corners tied.
    """
    if not (alpha1 > 0 and alpha2 > 0):
        raise ValueError("alpha1, alpha2 must be positive")
    q0 = q_threshold(alpha1, alpha2, N1, N2)
    if _tied(q, q0) or (q > q0 and _tied(alpha1, alpha2)):
        return GroundStateBranch(branch="degenerate_superposition")
    if q < q0:
        return GroundStateBranch(branch="both_down")
    if alpha1 > alpha2:
        return GroundStateBranch(branch="bath2_up")
    return GroundStateBranch(branch="bath1_up")


# sign of (gamma1*N1/4, gamma2*N2/4) in Delta_0 for each branch; the
# degenerate branch takes the bath2_up corner's detuning
_BRANCH_SIGNS = {
    "both_down": (1.0, -1.0),
    "bath2_up": (1.0, 1.0),
    "bath1_up": (-1.0, -1.0),
    "degenerate_superposition": (1.0, 1.0),
}


def delta0_correlated(config: SystemConfig, branch: GroundStateBranch) -> float:
    """Detuning set by the correlated-bath ground state."""
    b1, b2 = config.bath1, config.bath2
    s1, s2 = _BRANCH_SIGNS[branch.branch]
    # grouped so a corner equals its sector detuning (dynamics docstring) bit for bit
    return config.gap + (s1 * b1.gamma * b1.N + s2 * b2.gamma * b2.N) / 4.0


def _ground_branch(config: SystemConfig) -> GroundStateBranch:
    b1, b2 = config.bath1, config.bath2
    return correlated_ground_state(b1.alpha, b2.alpha, config.correlation.q,
                                   b1.N, b2.N)


def p12(config: SystemConfig, t):
    """Transition probability in the regime the config is in.

    The Rabi curve averaged over the config's bath states (_sector_arrays),
    with states of equal detuning merged: the thermal sectors at finite
    temperature (q = 0 gives independent baths), the ground-state branch's
    detuning at zero temperature (q = 0 gives both baths all-down).  Each
    value depends on its own t alone.
    """
    [(J, detunings, _, w)] = _detuning_groups(config)
    t = np.asarray(t, dtype=float)
    p = _rabi_average_paired(J, detunings, w, np.zeros(t.size, dtype=np.intp),
                             t.ravel()).reshape(t.shape)
    return float(p) if p.ndim == 0 else p


def p12_thermal(config: SystemConfig, t):
    """Finite-temperature transition probability (q = 0 gives independent baths).

    Degeneracy-weighted average of the Rabi formula over magnetization
    sectors; algebraically identical to the double (j, m) sum because the
    summand depends on j only through the multiplicity.
    """
    if config.thermal.is_zero_temperature:
        raise ValueError("p12_thermal requires a finite temperature")
    return p12(config, t)


def p12_zero_temp(config: SystemConfig, t):
    """Transition probability for independent baths at zero temperature."""
    if not config.thermal.is_zero_temperature:
        raise ValueError("p12_zero_temp requires the zero-temperature tag")
    if config.correlation.q != 0.0:
        raise ValueError("correlated baths: use p12_correlated_zero_temp")
    return p12(config, t)


def p12_correlated_zero_temp(config: SystemConfig, t):
    """Zero-temperature transition probability with Ising-coupled baths."""
    if not config.thermal.is_zero_temperature:
        raise ValueError("p12_correlated_zero_temp requires the zero-temperature tag")
    return p12(config, t)


def _energy_scale(config: SystemConfig) -> float:
    b1, b2 = config.bath1, config.bath2
    return max(abs(config.gap), abs(b1.gamma) * b1.N / 4.0,
               abs(b2.gamma) * b2.N / 4.0, abs(config.dimer.J))


def assistance_condition(config: SystemConfig) -> AssistanceReport:
    """Does the active ground-state branch compensate the dimer gap (Delta0 = 0)?"""
    if not config.thermal.is_zero_temperature:
        raise ValueError("assistance_condition is a zero-temperature statement")
    branch = _ground_branch(config)
    delta0 = delta0_correlated(config, branch)
    scale = _energy_scale(config)
    satisfied = abs(delta0) <= _REL_TOL * max(scale, 1e-300)
    return AssistanceReport(regime=branch.branch, satisfied=satisfied,
                            delta0=delta0)


def resonance_gamma(config: SystemConfig, free: str) -> ResonanceSolution | None:
    """Solve the active branch's Delta0 = 0 condition for one coupling.

    free is "gamma1", "gamma2", or "gamma_both" (ties gamma1 = gamma2).
    The flipped-ground branches only admit nonnegative couplings, which is
    where their sign requirement on epsilon2 - epsilon1 comes from; returns
    None when no such solution exists.
    """
    if not config.thermal.is_zero_temperature:
        raise ValueError("resonance_gamma is a zero-temperature statement")
    if free not in ("gamma1", "gamma2", "gamma_both"):
        raise ValueError(f"unknown free coupling {free!r}")
    b1, b2 = config.bath1, config.bath2
    branch = _ground_branch(config)
    s1, s2 = _BRANCH_SIGNS[branch.branch]
    require_nonneg = branch.branch != "both_down"

    if free == "gamma1":
        coeff = s1 * b1.N / 4.0
        rest = config.gap + s2 * b2.gamma * b2.N / 4.0
        current = b1.gamma
    elif free == "gamma2":
        coeff = s2 * b2.N / 4.0
        rest = config.gap + s1 * b1.gamma * b1.N / 4.0
        current = b2.gamma
    else:
        coeff = (s1 * b1.N + s2 * b2.N) / 4.0
        rest = config.gap
        current = b1.gamma if b1.gamma == b2.gamma else 0.0

    if coeff == 0.0:
        if rest == 0.0:
            return ResonanceSolution(gamma=current, degenerate=True)
        return None
    gamma = -rest / coeff
    if require_nonneg and gamma < 0:
        return None
    return ResonanceSolution(gamma=gamma)
