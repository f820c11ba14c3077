"""Exact transition probabilities of the decoherently coupled dimer.

Every regime reduces to the same Rabi form

    P(t) = J^2/(J^2 + D^2) * sin^2(t sqrt(J^2 + D^2))

with an effective detuning D that depends on the bath state: the bare
half-gap, the zero-temperature shifted value, a per-magnetization-sector
value at finite temperature, or the correlated-ground-state expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import multiplicity, thermal_weights
from .config import SystemConfig


@dataclass(frozen=True)
class DetuningSpec:
    """An effective detuning (ps^-1) tagged with where it came from."""
    value: float
    provenance: str  # bare | zero_temperature | sector | correlated_ground_state
    sector: tuple[float, float] | None = None


@dataclass(frozen=True)
class GroundStateBranch:
    """Which corner product state (or superposition) minimizes the bath energy."""
    branch: str  # both_down | bath2_up | bath1_up | degenerate_superposition
    theta: float | None = None
    phi: float | None = None


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
    """Two-level transition probability at detuning delta (DetuningSpec or float)."""
    d = delta.value if isinstance(delta, DetuningSpec) else float(delta)
    t = np.asarray(t, dtype=float)
    omega2 = J * J + d * d
    if omega2 == 0.0:
        p = np.zeros_like(t)
    else:
        p = (J * J / omega2) * np.sin(t * math.sqrt(omega2)) ** 2
    return float(p) if p.ndim == 0 else p


def detuning_zero_temp(config: SystemConfig) -> DetuningSpec:
    """Detuning with both baths frozen in their all-down ground state."""
    b1, b2 = config.bath1, config.bath2
    value = config.gap + (b1.gamma * b1.N - b2.gamma * b2.N) / 4.0
    return DetuningSpec(value=value, provenance="zero_temperature")


def detuning_sector(config: SystemConfig, m1: float, m2: float) -> DetuningSpec:
    """Detuning in the bath magnetization sector (m1, m2)."""
    for m, bath, label in ((m1, config.bath1, "m1"), (m2, config.bath2, "m2")):
        two_m = round(2 * m)
        if two_m != 2 * m or abs(two_m) > bath.N or (bath.N - two_m) % 2 != 0:
            raise ValueError(f"{label}={m} is not a magnetization of an "
                             f"N={bath.N} bath")
    value = config.gap + (config.bath2.gamma * m2 - config.bath1.gamma * m1) / 2.0
    return DetuningSpec(value=value, provenance="sector", sector=(m1, m2))


def p12_zero_temp(config: SystemConfig, t):
    """Transition probability for independent baths at zero temperature."""
    if not config.thermal.is_zero_temperature:
        raise ValueError("p12_zero_temp requires the zero-temperature tag")
    if config.correlation.q != 0.0:
        raise ValueError("correlated baths: use p12_correlated_zero_temp")
    return rabi_probability(config.dimer.J, detuning_zero_temp(config), t)


def _sector_arrays(config: SystemConfig):
    """Flat (weights, detunings) over the magnetization grid at finite beta."""
    tw = thermal_weights(config)
    delta = config.gap + (config.bath2.gamma * tw.m2[None, :]
                          - config.bath1.gamma * tw.m1[:, None]) / 2.0
    return tw.normalized().ravel(), delta.ravel()


def _detuning_groups(configs):
    """Finite-temperature configs grouped by detuning set, sectors merged.

    P(t) depends on a sector only through its detuning, so the weights of
    sectors that share one are summed.  Configs with the same J and the
    same sector detunings (they differ only in beta or q) form one group.
    Returns a list of (J, detunings, cells, weights): the sorted distinct
    detunings, the indices of the group's configs, and one row of merged
    weights per config.
    """
    groups = {}
    for i, cfg in enumerate(configs):
        w, delta = _sector_arrays(cfg)
        key = (cfg.dimer.J, delta.tobytes())
        if key not in groups:
            detunings, inverse = np.unique(delta, return_inverse=True)
            groups[key] = (cfg.dimer.J, detunings, inverse, [], [])
        _, detunings, inverse, cells, rows = groups[key]
        cells.append(i)
        rows.append(np.bincount(inverse, weights=w, minlength=detunings.size))
    return [(J, detunings, cells, np.array(rows))
            for J, detunings, _, cells, rows in groups.values()]


# elements of one (times x detunings) block of the Rabi kernel; bounds the
# memory of a scan whatever its length or the number of detunings
_KERNEL_BLOCK = 1 << 16


def _rabi_kernel_blocks(J: float, detunings: np.ndarray, t: np.ndarray):
    """Yield (block, K) over consecutive slices of the 1-D time array t.

    K[i, k] = J^2/(J^2 + D_k^2) * sin^2(t[block][i] * sqrt(J^2 + D_k^2)).
    """
    omega2 = J * J + detunings * detunings
    amp = (J * J) / omega2
    omega = np.sqrt(omega2)
    step = max(1, _KERNEL_BLOCK // detunings.size)
    for lo in range(0, t.size, step):
        block = slice(lo, lo + step)
        yield block, amp * np.sin(np.multiply.outer(t[block], omega)) ** 2


def _rabi_average(J: float, detunings: np.ndarray, weights: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """sum_k weights[r, k] K(t_i, D_k) for every weight row r and time t_i.

    Each weight row gets its own matrix-vector product per kernel block,
    and the blocks depend only on t and the number of detunings, so a row
    gives the same bits whatever other rows it is batched with.  A matrix
    product over all rows at once would not: BLAS may sum a column in a
    different order for a different batch width.
    """
    out = np.empty((len(weights), t.size))
    for block, K in _rabi_kernel_blocks(J, detunings, t):
        for r, w in enumerate(weights):
            out[r, block] = K @ w
    return out


def _rabi_average_paired(J: float, detunings: np.ndarray, weights: np.ndarray,
                        rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k weights[rows[i], k] K(t[i], D_k) for every i, each at its own time.

    Each value is the pairwise sum of its own contiguous row, so it does
    not depend on the other entries of t.
    """
    out = np.empty(t.size)
    for block, K in _rabi_kernel_blocks(J, detunings, t):
        out[block] = (weights[rows[block]] * K).sum(axis=-1)
    return out


def p12_thermal(config: SystemConfig, t):
    """Finite-temperature transition probability (q = 0 gives independent baths).

    Degeneracy-weighted average of the Rabi formula over magnetization
    sectors, with sectors of equal detuning merged; algebraically identical
    to the double (j, m) sum because the summand depends on j only through
    the multiplicity.  The time axis is evaluated in bounded blocks.
    """
    [(J, detunings, _, w)] = _detuning_groups([config])
    t = np.asarray(t, dtype=float)
    p = _rabi_average(J, detunings, w, t.ravel())[0].reshape(t.shape)
    return float(p) if p.ndim == 0 else p


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


_REL_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    if Fraction(a) == Fraction(b):
        return True
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b))


def correlated_ground_state(alpha1: float, alpha2: float, q: float,
                            N1: int, N2: int,
                            theta: float = 0.0,
                            phi: float = 0.0) -> GroundStateBranch:
    """Classify the ground state of a1 S1z + a2 S2z + q S1z S2z.

    theta/phi parametrize the free superposition in the degenerate cases;
    they are not fixed by the physics.
    """
    if not (alpha1 > 0 and alpha2 > 0):
        raise ValueError("alpha1, alpha2 must be positive")
    q0 = 2 * min(Fraction(alpha1) / N2, Fraction(alpha2) / N1)
    qf = Fraction(q)
    on_threshold = _close(q, float(q0))
    if on_threshold or (qf > q0 and _close(alpha1, alpha2)):
        return GroundStateBranch(branch="degenerate_superposition",
                                 theta=theta, phi=phi)
    if qf < q0:
        return GroundStateBranch(branch="both_down")
    if alpha1 > alpha2:
        return GroundStateBranch(branch="bath2_up")
    return GroundStateBranch(branch="bath1_up")


# sign of (gamma1*N1/4, gamma2*N2/4) in Delta_0 for each branch
_BRANCH_SIGNS = {
    "both_down": (1.0, -1.0),
    "bath2_up": (1.0, 1.0),
    "bath1_up": (-1.0, -1.0),
}


def delta0_correlated(config: SystemConfig,
                      branch: GroundStateBranch) -> DetuningSpec:
    """Detuning set by the correlated-bath ground state.

    The degenerate superposition contributes cos(2 theta) times the
    symmetric shift; phi drops out because S^z is diagonal.
    """
    b1, b2 = config.bath1, config.bath2
    if branch.branch == "degenerate_superposition":
        c = math.cos(2.0 * branch.theta)
        s1, s2 = c, c
    else:
        s1, s2 = _BRANCH_SIGNS[branch.branch]
    # grouped so the both_down branch is bit-identical to detuning_zero_temp
    value = config.gap + (s1 * b1.gamma * b1.N + s2 * b2.gamma * b2.N) / 4.0
    return DetuningSpec(value=value, provenance="correlated_ground_state")


def p12_correlated_zero_temp(config: SystemConfig, t,
                             theta: float = 0.0, phi: float = 0.0):
    """Zero-temperature transition probability with Ising-coupled baths."""
    if not config.thermal.is_zero_temperature:
        raise ValueError("p12_correlated_zero_temp requires the zero-temperature tag")
    b1, b2 = config.bath1, config.bath2
    branch = correlated_ground_state(b1.alpha, b2.alpha, config.correlation.q,
                                     b1.N, b2.N, theta=theta, phi=phi)
    return rabi_probability(config.dimer.J, delta0_correlated(config, branch), t)


def _energy_scale(config: SystemConfig) -> float:
    b1, b2 = config.bath1, config.bath2
    return max(abs(config.gap), abs(b1.gamma) * b1.N / 4.0,
               abs(b2.gamma) * b2.N / 4.0, abs(config.dimer.J))


def assistance_condition(config: SystemConfig, theta: float = 0.0,
                         phi: float = 0.0,
                         rel_tol: float = 1e-12) -> AssistanceReport:
    """Does the active ground-state branch compensate the dimer gap (Delta0 = 0)?"""
    if not config.thermal.is_zero_temperature:
        raise ValueError("assistance_condition is a zero-temperature statement")
    b1, b2 = config.bath1, config.bath2
    branch = correlated_ground_state(b1.alpha, b2.alpha, config.correlation.q,
                                     b1.N, b2.N, theta=theta, phi=phi)
    delta0 = delta0_correlated(config, branch).value
    scale = _energy_scale(config)
    satisfied = abs(delta0) <= rel_tol * max(scale, 1e-300)
    return AssistanceReport(regime=branch.branch, satisfied=satisfied,
                            delta0=delta0)


def resonance_gamma(config: SystemConfig, free: str,
                    theta: float = 0.0) -> ResonanceSolution | None:
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
    branch = correlated_ground_state(b1.alpha, b2.alpha, config.correlation.q,
                                     b1.N, b2.N, theta=theta)
    if branch.branch == "degenerate_superposition":
        c = math.cos(2.0 * theta)
        s1, s2 = c, c
    else:
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
