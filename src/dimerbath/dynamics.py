"""Exact transition probabilities of the decoherently coupled dimer.

Every regime reduces to the same Rabi form

    P(t) = J^2/(J^2 + D^2) * sin^2(t sqrt(J^2 + D^2))

with an effective detuning D, a plain float, set by the bath state.  In the
magnetization sector (m1, m2) it is gap + (gamma2 m2 - gamma1 m1)/2; finite
temperature averages the curve over all sectors with their thermal weights,
and zero temperature takes the ground-state corner's detuning
(delta0_correlated).  Sectors of exactly equal detuning, found by an
integer key rather than by comparing floats, share one term of the average
(_merged_detunings).  The kernels take any number of weight rows, each over
its own group, so groups with equally many detunings are evaluated
together, and the uniform scan any number of rows over one group; they
read J^2, omega and the amplitudes from one table that their caller
builds for its groups (_kernel_table), and run their blocks in order on
the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import _log_counts, _log_weight_rows, _sector_classes, multiplicity
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
    """(weights, detunings) of a zero-temperature config: weight 1 at the
    ground-state corner's detuning (delta0_correlated)."""
    return np.ones(1), np.array([delta0_correlated(config, _ground_branch(config))])


# elements of one (times x detunings) block of the Rabi kernel, and of one
# block of weight rows; bounds the memory of a call whatever the number of
# times, detunings or cells: a kernel call holds its output plus one block
_KERNEL_BLOCK = 1 << 16


def _distinct(*columns) -> tuple[np.ndarray, np.ndarray]:
    """(first cell, index) of every distinct tuple of per-cell floats.

    Tuples are keyed by their float bits, one record each, so -0.0 and 0.0
    stay apart and every cell of a key has exactly its first cell's values.
    """
    if len(columns[0]) == 1:  # one key; np.unique's set-up would cost more than the rest
        return np.zeros(1, np.intp), np.zeros(1, np.intp)
    keys = np.column_stack(columns).view(np.dtype((np.void, 8 * len(columns)))).ravel()
    _, first, of = np.unique(keys, return_index=True, return_inverse=True)
    return first, of


def _merged_detunings(gap: float, gamma1: float, gamma2: float,
                      N1: int, N2: int) -> tuple[np.ndarray, np.ndarray]:
    """(detunings, inverse): the distinct sector detunings, ascending, and the
    index among them of every sector of the flat (m1, m2) grid.

    Sectors of exactly equal detuning form a class.  Every float is an
    integer multiple of a power of two, so gamma1 = c1 g and gamma2 = c2 g
    for coprime integers c1, c2 and some g > 0, and the exact detuning is
    gap + g (c2 (2 m2) - c1 (2 m1))/4: a class is one value of that integer
    key (combinatorics._sector_classes).  A class takes its first sector's
    float, and classes whose floats still coincide merge as floats do
    (np.unique).  With c1 and c2 nonzero and |c1| > 2 N2 or |c2| > 2 N1, no
    two sectors tie (c1 would divide a difference of two 2 m2, at most 2 N2),
    so the floats alone are merged.
    """
    m1, m2 = _log_counts(N1)[0], _log_counts(N2)[0]
    delta = _detunings(gap, gamma1, gamma2, m1, m2)
    (n1, d1), (n2, d2) = gamma1.as_integer_ratio(), gamma2.as_integer_ratio()
    d = max(d1, d2)  # both powers of two
    c1, c2 = n1 * (d // d1), n2 * (d // d2)
    g = math.gcd(c1, c2) or 1  # both 0: one class
    c1, c2 = c1 // g, c2 // g
    if c1 and c2 and (abs(c1) > 2 * N2 or abs(c2) > 2 * N1):
        return np.unique(delta, return_inverse=True)
    first, of = _sector_classes(N1, N2, c1, c2)
    floats = delta[first]
    # the exact detunings ascend with the key; floats that still do are
    # what np.unique would return, with inverse the identity
    if (floats[1:] > floats[:-1]).all():
        return floats, of
    detunings, inverse = np.unique(floats, return_inverse=True)
    return detunings, inverse[of]


def _detuning_groups(config: SystemConfig, **cells):
    """The config's cells grouped by detuning set, sectors merged.

    cells maps any of J, gamma1, gamma2, beta and q to an array of per-cell
    values, all of one length, every cell at finite temperature; the
    others take the config's own value.  With none given the config is
    the one cell: a group of one at finite temperature, the ground-state
    corner (_sector_arrays) at zero temperature.  P(t) depends on a sector
    only through its detuning, so the weights of the sectors of one exact
    detuning class (_merged_detunings) are summed.  The weights depend on
    (beta, q) alone and the detunings on (gamma1, gamma2) alone, so each
    distinct (beta, q) row (_log_weight_rows) and each distinct
    (J, gamma1, gamma2) detuning set is built once, and a group is the
    cells of one (J, gamma1, gamma2).  Returns a list of
    (J, detunings, cells, weights): the sorted distinct detunings, the
    indices of the group's cells, and one row of merged weights per cell.
    A cell's detunings and weights have the same bits in any grid, alone
    included.
    """
    if not cells and config.thermal.is_zero_temperature:
        w, delta = _sector_arrays(config)
        return [(config.dimer.J, delta, [0], w[None, :])]
    b1, b2 = config.bath1, config.bath2
    n = max((np.size(v) for v in cells.values()), default=1)
    values = {"J": config.dimer.J, "gamma1": b1.gamma, "gamma2": b2.gamma,
              "q": config.correlation.q, **cells}
    if "beta" not in values:
        values["beta"] = config.thermal.beta
    J, gamma1, gamma2, beta, q = (np.full(n, values[name], dtype=float)
                                  for name in ("J", "gamma1", "gamma2", "beta", "q"))
    sectors = (b1.N + 1) * (b2.N + 1)
    rows, row_of = _distinct(beta, q)
    sets, set_of = _distinct(J, gamma1, gamma2)
    groups = []
    for s, first in enumerate(sets):
        members = np.flatnonzero(set_of == s)
        detunings, inverse = _merged_detunings(config.gap, gamma1[first], gamma2[first],
                                               b1.N, b2.N)
        # the group's W rows, ascending, and each member's among them
        used = np.flatnonzero(np.bincount(row_of[members], minlength=len(rows)))
        slot = np.searchsorted(used, row_of[members])
        groups.append((first, members, slot, detunings, inverse, used,
                       np.empty((used.size, detunings.size))))
    # W rows in blocks of at most _KERNEL_BLOCK elements, each merged into
    # every group that uses it: row i of a block adds its sectors to bins
    # i K + inverse, in sector order, as a bincount of the row alone would
    step = max(1, _KERNEL_BLOCK // sectors)
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


def _kernel_table(J, detunings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J^2, omega, J^2/omega^2) of every group, omega = sqrt(J^2 + D^2): J^2
    a column, omega and the amplitudes a row per group.  J is one value per
    group (a float is one group), detunings a row per group (a 1-D array is
    one).  omega^2 underflows to 0 only where P = sin^2(|J| t) does too, and
    the amplitude is 0 there."""
    J = np.asarray(J, dtype=float).reshape(-1, 1)
    jj = J * J
    omega2 = jj + detunings * detunings
    return (jj, np.sqrt(omega2),
            np.divide(jj, omega2, out=np.zeros(omega2.shape), where=omega2 > 0))


def _pick(table: np.ndarray, index) -> np.ndarray:
    """The rows of table at index, or its one row, broadcast."""
    return table if len(table) == 1 else table[index]


def _rabi_average_paired(table, weights: np.ndarray, rows: np.ndarray, t: np.ndarray,
                         of: np.ndarray | None = None) -> np.ndarray:
    """sum_k weights[rows[i], k] K(t[i], D_k) for every i, each at its own time.

    K(t, D) = J^2/(J^2 + D^2) * sin^2(t sqrt(J^2 + D^2)), with the omega and
    amplitudes of group of[rows[i]] in table (_kernel_table); of None is
    one group for every weight row.  The time axis is cut into blocks of
    _KERNEL_BLOCK // K times, evaluated in order in one scratch block on
    the calling thread.  A table of one row is broadcast, not gathered,
    and with one weight row and one group rows is not read (p12 and
    time-axis sweeps pass None).  Each value is the pairwise sum of its
    own row, so it depends on neither other t, nor other rows or groups.
    """
    _, omega, amp = table
    out = np.empty(t.size)
    step = max(1, _KERNEL_BLOCK // omega.shape[1])
    scratch = np.empty((min(step, t.size), omega.shape[1]))
    for lo in range(0, t.size, step):
        block = slice(lo, lo + step)
        r = None if rows is None else rows[block]
        g = None if len(omega) == 1 else of[r]
        K = scratch[:t[block].size]
        np.multiply(t[block, None], _pick(omega, g), out=K)
        np.sin(K, out=K)
        np.square(K, out=K)
        K *= _pick(amp, g)
        K *= _pick(weights, r)
        out[block] = K.sum(axis=-1)
    return out


def _rabi_slopes(table, weights: np.ndarray, rows: np.ndarray, t: np.ndarray,
                 of: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(P', P'') of _rabi_average_paired at every t[i], in closed form.

    P' = J^2 sum_k w_k sin(2 omega_k t)/omega_k and
    P'' = 2 J^2 sum_k w_k cos(2 omega_k t), with w = weights[rows[i]] and
    the J^2 and omega of group of[rows[i]] in table.  As in the paired
    kernel, a table of one row is broadcast and each value depends on its
    own entry only; the blocks run on this thread.
    """
    jj, omega, _ = table
    slope, curvature = np.empty(t.size), np.empty(t.size)
    step = max(1, _KERNEL_BLOCK // omega.shape[1])
    for lo in range(0, t.size, step):
        block = slice(lo, lo + step)
        r = rows[block]
        om = _pick(omega, None if len(omega) == 1 else of[r])
        phase = 2.0 * (t[block, None] * om)
        w = _pick(weights, r)
        slope[block] = (w * (np.sin(phase) / om)).sum(axis=-1)
        curvature[block] = (w * np.cos(phase)).sum(axis=-1)
    # one group's J^2 as a float, so that it scales the sums in one product
    jj = jj.item() if len(jj) == 1 else jj[of[rows], 0]
    return jj * slope, 2.0 * jj * curvature


def _uniform_scan(table, weights: np.ndarray, t_min: float, t_max: float,
                  steps: int) -> tuple[np.ndarray, float, np.ndarray]:
    """(ts, dt, P): the uniform grid of a window, its step and every weight
    row's curve on it, by angle addition; the one grid of the peak engine's
    coarse scan (sweeps._stack_peaks) and of the CLI's curve commands.

    ts is np.linspace(t_min, t_max, steps), bit for bit, and dt is
    (t_max - t_min)/(steps - 1), or 0 for fewer than two steps.  Every
    weight row is over the one group of table (_kernel_table, one row).

    With c_k = w_k J^2/omega_k^2, P(t) = sum_k c_k/2 - sum_k c_k cos(2 omega_k t)/2.
    The grid is cut into runs of B = 2h + 1 steps around centres T_u, and
    cos(2 omega (T_u +- v dt)) = cos x cos y -+ sin x sin y with x, y the
    phases of T_u and of v dt.  So a weight row's scan is a pair of matrix
    products per block of detunings, over the group's cos/sin tables of
    the centres and of the offsets 0..h: 2 (steps/B + h + 1) K sines and
    cosines per call instead of steps K sines per row.  The detuning blocks
    bound the tables' memory and the row batches the products'.  A stacked
    matmul makes one product per row, and the blocks depend only on steps
    and the number of detunings, so a row gives the same bits whatever
    rows it is batched with.  P[r, j] is within 8 eps (|J| t_max + 1), an
    absolute bound, of the direct kernel at ts[j] (sweeps._scan_tolerance).
    No steps give an empty row per weight row; dt = 0 gives t_min throughout.
    """
    dt = (t_max - t_min) / (steps - 1) if steps > 1 else 0.0
    _, omega, amp = table
    two_omega = 2.0 * omega[0]
    # B about sqrt(8 steps): the offset tables are the larger, as they are
    # not scaled per row
    half = math.isqrt(8 * steps) // 2
    n_fine = 2 * half + 1
    n_coarse = -(-steps // n_fine)
    centres = t_min + dt * (half + n_fine * np.arange(n_coarse))
    offsets = dt * np.arange(half + 1)
    c = weights * amp
    k = two_omega.size
    # [row, cos | sin, centre, offset]
    acc = np.empty((len(c), 2, n_coarse, half + 1))
    width = max(1, _KERNEL_BLOCK // (n_coarse + half + 1))
    batch = max(1, _KERNEL_BLOCK // max(1, 2 * n_coarse * min(width, k)))
    for lo in range(0, k, width):
        part = two_omega[lo:lo + width]
        # [cos | sin, ...], each written in place
        x_table = np.empty((2, n_coarse, part.size))
        y_table = np.empty((2, part.size, half + 1))
        for tables, phase in ((x_table, centres[:, None] * part),
                              (y_table, part[:, None] * offsets)):
            np.cos(phase, out=tables[0])
            np.sin(phase, out=tables[1])
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
    return np.linspace(t_min, t_max, steps), dt, p.reshape(len(c), -1)[:, :steps]


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

    The Rabi curve averaged over the config's bath states, the config a
    group of one of _detuning_groups: its thermal sectors at finite
    temperature (q = 0 gives independent baths), with states of equal
    detuning merged, or the ground-state branch's detuning at zero
    temperature (q = 0 gives both baths all-down).  One kernel call
    (_rabi_average_paired) evaluates the whole curve, so each value
    depends on its own t alone, whatever blocks the kernel cuts a long
    curve into.
    """
    [(J, detunings, _, w)] = _detuning_groups(config)
    t = np.asarray(t, dtype=float)
    p = _rabi_average_paired(_kernel_table(J, detunings), w, None, t.ravel()).reshape(t.shape)
    return float(p) if p.ndim == 0 else p


def _check_regime(config: SystemConfig, regime: str) -> None:
    """Raise ValueError unless the config is in the regime p12_<regime>
    takes: thermal (finite temperature), zero_temp (zero temperature,
    q = 0) or correlated_zero_temp (zero temperature)."""
    if regime == "thermal":
        if config.thermal.is_zero_temperature:
            raise ValueError("p12_thermal requires a finite temperature")
        return
    if not config.thermal.is_zero_temperature:
        raise ValueError(f"p12_{regime} requires the zero-temperature tag")
    if regime == "zero_temp" and config.correlation.q != 0.0:
        raise ValueError("correlated baths: use p12_correlated_zero_temp")


def p12_thermal(config: SystemConfig, t):
    """Finite-temperature transition probability (q = 0 gives independent baths).

    Degeneracy-weighted average of the Rabi formula over magnetization
    sectors; algebraically identical to the double (j, m) sum because the
    summand depends on j only through the multiplicity.
    """
    _check_regime(config, "thermal")
    return p12(config, t)


def p12_zero_temp(config: SystemConfig, t):
    """Transition probability for independent baths at zero temperature."""
    _check_regime(config, "zero_temp")
    return p12(config, t)


def p12_correlated_zero_temp(config: SystemConfig, t):
    """Zero-temperature transition probability with Ising-coupled baths."""
    _check_regime(config, "correlated_zero_temp")
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
