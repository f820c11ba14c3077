"""Time maximization and parameter sweeps of the transition probability.

The finite-temperature P(t) is almost periodic (incommensurate sector
frequencies), so the maximum is located by a dense coarse scan followed by
refinement of every coarse peak that could be the highest: safeguarded
Newton steps on the closed-form P' and P'', with golden section for a
peak that has no sign change of P' next to it.  The scan only picks
candidates; every reported P* is the direct kernel at its t*.  P
factorises as K(t, D) @ W(D; beta, q) over the distinct detunings D, so a
grid's cells are grouped by detuning set and each distinct (beta, q)
weight row is built once, and merged once per sector -> detuning-class
map.  Groups with the same number of detunings are stacked and take one
pass of the engine (_stack_peaks): scans and candidate picks group by
group, in blocks of the group's rows, then one refinement and one direct
evaluation over every row, each row over its own group's J and
detunings, from one kernel table per pass (dynamics._kernel_table).  A
pass builds its scan grid and scan workspace once, and a group its scan
tables once.
Zero-temperature cells use the closed-form peak instead, and a time axis
gives each cell its curve, one table per group; _cells is the one place
in this module that tells the two regimes apart.  Everything runs on the
calling thread.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .config import (ConfigValidationError, SystemConfig, ThermalSpec, _exponent_errors,
                     validated)
from .dynamics import (_KERNEL_BLOCK, _detuning_groups, _ground_branch, _kernel_table,
                       _rabi_average_paired, _rabi_slopes, _scan_grid, _scan_into,
                       _scan_tables, _scan_width, _scan_workspace, delta0_correlated, p12)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)

SWEEP_PARAMETERS = ("gamma1", "gamma2", "gamma_both", "q", "temperature", "J", "t")


@dataclass(frozen=True)
class TimeWindow:
    t_min: float = 0.0
    t_max: float = 2.0
    coarse_steps: int = 2000

    def __post_init__(self):
        # numpy's numbers pass, bools (and numpy's) do not
        for name, kind, what in (("t_min", numbers.Real, "a real number"),
                                 ("t_max", numbers.Real, "a real number"),
                                 ("coarse_steps", numbers.Integral, "an integer")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if not (0.0 <= self.t_min < self.t_max < math.inf):
            raise ValueError("need 0 <= t_min < t_max < inf")
        if self.coarse_steps < 2:
            raise ValueError("coarse_steps must be >= 2")


@dataclass(frozen=True)
class SweepGrid:
    axis1_name: str
    axis1_values: np.ndarray
    axis2_name: str | None
    axis2_values: np.ndarray | None
    values: np.ndarray   # shape (n1,) or (n1, n2)
    t_star: np.ndarray   # same shape; peak time per cell
    argmax: dict


def _zero_temp_peak(config: SystemConfig, window: TimeWindow) -> tuple[float, float]:
    """(t*, P*) of the zero-temperature Rabi curve over the window, in closed form.

    A sin^2(omega t) peaks at A on t = (k + 1/2) pi/omega.  The first such
    time at or after t_min is t* if it is at most t_max; otherwise the curve
    has no peak in the window and the better end is t*, with P* from p12.
    Where J^2 underflows to 0, A is 0, so P is 0 throughout and t* is
    t_min, as at finite temperature (_finite_peaks).
    """
    J = config.dimer.J
    if J * J == 0.0:
        return window.t_min, 0.0
    d = delta0_correlated(config, _ground_branch(config))
    omega = math.sqrt(J * J + d * d)
    k = math.ceil(window.t_min * omega / math.pi - 0.5)
    t = max(window.t_min, (k + 0.5) * math.pi / omega)
    if t <= window.t_max:
        return t, J * J / (J * J + d * d)
    p_min, p_max = p12(config, [window.t_min, window.t_max]).tolist()
    return (window.t_min, p_min) if p_min >= p_max else (window.t_max, p_max)


def _golden_max(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search on every bracket [a_i, b_i] at once.

    f maps the times of all brackets, in order, to their values.  Each
    bracket follows exactly the steps of a scalar search on its own and
    keeps its best point from the step at which its width is first at
    most _STEP_ULPS ulp, or from its last step at the _REFINE_ITERATIONS cap.
    Returns the best point and value of every bracket.
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    left = fc > fd
    t_out, p_out = np.where(left, c, d), np.where(left, fc, fd)
    live = np.ones(a.size, dtype=bool)
    for i in range(_REFINE_ITERATIONS):
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = _INV_PHI * (b - a)
        x = np.where(left, b - h, a + h)
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        left = fc > fd
        stop = live & (_converged(b - a, c) | (i + 1 == _REFINE_ITERATIONS))
        if stop.any():
            t_out = np.where(stop, np.where(left, c, d), t_out)
            p_out = np.where(stop, np.where(left, fc, fd), p_out)
            live &= ~stop
            if not live.any():
                break
    return t_out, p_out


# absolute slack on the candidate bounds, far above the rounding error of P
_BOUND_SLACK = 1e-12
# a refinement ends once its step or bracket is at most this many ulp of t
_STEP_ULPS = 4
# cap on the Newton (or golden) steps of one refinement, far above the
# handful it takes to reach _STEP_ULPS; only a cap, not a mode
_REFINE_ITERATIONS = 60


def _converged(step: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.abs(step) <= _STEP_ULPS * np.spacing(t)


def _newton_max(slopes, t: np.ndarray, a: np.ndarray,
                b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima of P next to every t_i within [a_i, b_i], all at once.

    slopes(live, x) gives (P', P'') of the candidates live at the times x.
    A candidate keeps the half of its bracket that P'(t_i) points into;
    if P' does not fall from positive to negative across that half, it
    has no bracket and is returned unmoved with a False mask entry.  The
    others take a Newton step on P' = 0 when it lands inside the bracket,
    P'' < 0 there, and it is at most half the step before last, and bisect
    otherwise (rtsafe, Press et al., Numerical Recipes, sec. 9.4); the
    bracket then shrinks to the new point on the side its slope says.  A
    candidate stops once its step is at most _STEP_ULPS ulp, or after
    _REFINE_ITERATIONS steps, and follows the same steps as it would on its own.
    Returns (t, bracketed).
    """
    everyone = np.arange(t.size)
    d1, d2 = slopes(everyone, t)
    up = d1 > 0
    # P' at the far end only, the end P'(t) points to
    far, _ = slopes(everyone, np.where(up, b, a))
    bracketed = np.where(up, far < 0, far > 0)
    t = t.copy()
    # the state of the live candidates only: time, bracket, last two steps
    live = everyone[bracketed]
    x, up = t[live], up[live]
    lo, hi = np.where(up, x, a[live]), np.where(up, b[live], x)
    step = hi - lo
    step_old = step
    d1, d2 = d1[bracketed], d2[bracketed]
    for i in range(_REFINE_ITERATIONS):
        # the Newton point, used only where P'' < 0
        newton = x - np.divide(d1, d2, out=np.zeros(d1.shape), where=d2 < 0)
        use = ((d2 < 0) & (newton >= lo) & (newton <= hi)
               & (np.abs(2.0 * d1) <= np.abs(step_old * d2)))
        new = np.where(use, newton, lo + 0.5 * (hi - lo))
        step_old, step = step, new - x
        x = t[live] = new
        moving = ~_converged(step, x)
        if i + 1 == _REFINE_ITERATIONS or not moving.any():
            break
        live, x, lo, hi, step, step_old = (
            v[moving] for v in (live, x, lo, hi, step, step_old))
        d1, d2 = slopes(live, x)
        lo = np.where(d1 > 0, x, lo)
        hi = np.where(d1 < 0, x, hi)
    return t, bracketed


def _scan_tolerance(J, window: TimeWindow):
    """Bound on |_uniform_scan - direct kernel| over the window, at J.

    Both round the phase 2 omega t to a few ulp; through the amplitude
    J^2/omega^2 that moves P by at most a few eps |J| t.
    """
    t_end = max(abs(window.t_min), abs(window.t_max))
    return 8.0 * _EPS * (np.abs(J) * t_end + 1.0)


def _candidates(J: float, omega: np.ndarray, weights: np.ndarray,
                p: np.ndarray, p_best: np.ndarray, dt: float, tol: float):
    """(rows, cols) of the coarse local maxima that could beat their row's best.

    Every row is over one group, with its J, omega and scan tolerance tol,
    and row r has its own weights[r].  P over a sample's +-dt interval is
    bounded two ways.  M2 = 2 J^2 bounds |P''|, so P there is at most the
    local maximum + M2 dt^2/8.  Inside the grid, P is also at most the top
    of the parabola through the three samples + M3 dt^3/(9 sqrt 3), where
    M3 = 4 J^2 sum_k w_k omega_k bounds |P'''|.  A candidate whose bound,
    widened by the scan's error and _BOUND_SLACK, is below its row's best
    sample cannot end above the row's result, so dropping it changes no
    result.
    """
    # samples at least their neighbours, the grid padded with -inf
    last = p.shape[1] - 1
    peak = np.ones(p.shape, dtype=bool)
    np.greater_equal(p[:, 1:], p[:, :-1], out=peak[:, 1:])
    peak[:, :-1] &= p[:, :-1] >= p[:, 1:]
    # flat indices, in np.nonzero's order: a 2-D nonzero takes 4x as long
    rows, cols = np.divmod(np.flatnonzero(peak), p.shape[1])
    mid, left, right = p[rows, cols], p[rows, cols - 1], p[rows, np.minimum(cols + 1, last)]
    left[cols == 0] = right[cols == last] = -np.inf
    m3 = 4.0 * J * J * (weights * omega).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = 2.0 * mid - left - right
        lift = np.where(curvature > 0, (right - left) ** 2 / (8.0 * curvature), 0.0)
    lift = lift + m3[rows] * dt ** 3 / (9.0 * math.sqrt(3.0))
    # at the grid's edges only the first bound holds (lift is nan there)
    lift = np.fmin(J * J * dt * dt / 4.0, lift)
    keep = mid + lift + 3.0 * tol + _BOUND_SLACK >= p_best[rows]
    return rows[keep], cols[keep]


def _finite_peaks(groups, window: TimeWindow):
    """(cell, (t*, P*)) of every cell of the groups (_detuning_groups).

    Groups of equal detuning count K are stacked and take one pass of the
    peak engine (_stack_peaks) between them.  Where J^2 underflows to 0,
    every amplitude J^2/omega^2 is 0, so P is 0 throughout and t* is t_min,
    the best sample of a flat scan.  Before any pass, the first group whose
    fastest sector the coarse grid cannot resolve raises.
    """
    dt = (window.t_max - window.t_min) / (window.coarse_steps - 1)
    stacks = {}
    for J, detunings, cells, weights in groups:
        if J * J == 0.0:
            yield from ((i, (window.t_min, 0.0)) for i in cells)
            continue
        # sqrt(J^2 + D^2) rounds monotonically in |D|: its largest D is an end
        d = max(-detunings[0], detunings[-1])
        omega_max = math.sqrt(J * J + d * d)
        if dt > math.pi / omega_max / 4.0:
            raise ValueError(
                f"coarse step {dt:.3g} ps cannot resolve the fastest sector "
                f"frequency {omega_max:.3g} ps^-1; need more coarse_steps")
        stacks.setdefault(detunings.size, []).append((J, detunings, cells, weights))
    for stack in stacks.values():
        J, detunings, cells, weights = zip(*stack)
        of = np.repeat(np.arange(len(stack)), [len(c) for c in cells])
        t, p = _stack_peaks(np.array(J), np.array(detunings), np.concatenate(weights),
                            of, window)
        yield from zip(itertools.chain(*cells), zip(t.tolist(), p.tolist()))


def _stack_peaks(J: np.ndarray, detunings: np.ndarray, weights: np.ndarray,
                 of: np.ndarray, window: TimeWindow) -> tuple[np.ndarray, np.ndarray]:
    """(t*, P*) of every weight row, row r over the J and detunings of group of[r].

    The coarse scan (the pieces of dynamics._uniform_scan) only picks
    candidates: the coarse local maxima whose interval could hold a peak
    above the row's best sample (_candidates).  Scan and pick walk the
    groups in row order, each group's rows in blocks whose samples are at
    most _KERNEL_BLOCK, so that a block is read while in cache; a block
    takes its group's row of the kernel table (dynamics._kernel_table).
    The pass builds what its blocks share once: the scan grid, and one
    scan workspace of min(_KERNEL_BLOCK // coarse_steps, largest group)
    rows, released before the refinement.  A group whose detunings fit one
    detuning block of the scan builds its cos/sin tables once for all its
    row blocks; a larger group builds them per row block, so that their
    memory stays bounded.  Each candidate is refined within +-dt: by
    safeguarded Newton on the closed-form P' where P' changes sign next to
    it, by golden section otherwise (a peak at the window's edge, say).  A
    row's P* is the direct kernel (_rabi_average_paired) at its best
    refined point, or at its best coarse sample when no refined point is
    higher.  The one kernel table of the pass serves every group, and the
    refinement and the direct kernel each run once over every row; a row's
    values depend on its own row and group alone.
    """
    n = len(weights)
    table = _kernel_table(J, detunings)
    _, omega, amp = table
    grid = _scan_grid(window.t_min, window.t_max, window.coarse_steps)
    ts, dt = grid[:2]
    block = max(1, _KERNEL_BLOCK // window.coarse_steps)
    sizes = np.bincount(of)
    ends = np.cumsum(sizes).tolist()
    workspace = _scan_workspace(min(block, int(sizes.max())), omega.shape[1], grid)
    fits = omega.shape[1] <= _scan_width(grid)
    best, rows, times = np.empty(n), [], []
    for g, (start, end) in enumerate(zip([0] + ends, ends)):
        two_omega = 2.0 * omega[g]
        tables = _scan_tables(two_omega, grid) if fits else None
        tol = _scan_tolerance(J[g], window)
        for lo in range(start, end, block):
            w = weights[lo:min(lo + block, end)]
            p = _scan_into(workspace, w * amp[g], two_omega, grid, tables)
            i_best = p.argmax(axis=1)
            best[lo:lo + len(w)] = ts[i_best]
            r, cols = _candidates(J[g], omega[g], w, p, p[np.arange(len(p)), i_best], dt, tol)
            rows.append(r + lo)
            times.append(ts[cols])
    del workspace, p  # the scan's scratch, before the refinement's
    rows, times = np.concatenate(rows), np.concatenate(times)
    refined = _refine(table, weights, of, rows, times, dt, window)
    # every row's best sample, then its refined candidates: the stable sort
    # keeps the first highest value, so a refined point must beat the sample
    row = np.concatenate([np.arange(n), rows])
    t = np.concatenate([best, refined])
    p_all = _rabi_average_paired(table, weights, row, t, of=of)
    order = np.lexsort((-p_all, row))
    first = order[np.searchsorted(row[order], np.arange(n))]
    return t[first], p_all[first]


def _refine(table, weights, of, rows, t, dt, window) -> np.ndarray:
    """Refined peak time of every candidate (rows[i], t[i]) within +-dt."""
    a = np.maximum(window.t_min, t - dt)
    b = np.minimum(window.t_max, t + dt)

    def slopes(live, x):
        return _rabi_slopes(table, weights, rows[live], x, of)

    out, bracketed = _newton_max(slopes, t, a, b)
    rest = ~bracketed
    if rest.any():
        out[rest], _ = _golden_max(
            lambda x: _rabi_average_paired(table, weights, rows[rest], x, of=of),
            a[rest], b[rest])
    return out


# the cell fields each sweep parameter sets: a cell's J, gamma1, gamma2,
# q and temperature, as _cells and _apply_parameter put them on a cell
_FIELDS = {"gamma1": ("gamma1",), "gamma2": ("gamma2",),
           "gamma_both": ("gamma1", "gamma2"), "q": ("q",),
           "temperature": ("temperature",), "J": ("J",)}


def _cell_configs(config: SystemConfig, names, values):
    """The config of every cell of the grid the axes span, in C order, one at a time."""
    fields = [_FIELDS[name] for name in names]
    for cell in itertools.product(*(v.tolist() for v in values)):
        yield _apply_parameter(config, **{f: x for fs, x in zip(fields, cell) for f in fs})


def _cells(config: SystemConfig, names, values, one_config, finite):
    """Yield (i, result) for the i-th cell (C order) of the grid the axes span.

    No axes make config the one cell.  This is the one regime test of the
    module.  A zero-temperature cell's result is one_config(its config),
    built one at a time.  Finite-temperature cells (a finite-T config, or
    any under a temperature axis) build no config: _detuning_groups groups
    the per-cell fields by detuning set, beta from ThermalSpec.kelvin as a
    cell's config gets it, and finite(groups) yields (i, result) for their
    cells, a cell's result whatever cells come with it.
    """
    if "temperature" not in names and config.thermal.is_zero_temperature:
        for i, cfg in enumerate(_cell_configs(config, names, values)):
            yield i, one_config(cfg)
        return
    grids = np.meshgrid(*values, indexing="ij", copy=False)
    cells = {field: grid.ravel() for name, grid in zip(names, grids) for field in _FIELDS[name]}
    if "temperature" in cells:
        cells["beta"] = np.array([ThermalSpec.kelvin(T).beta
                                  for T in cells.pop("temperature").tolist()])
    yield from finite(_detuning_groups(config, **cells))


def _peaks(config: SystemConfig, names, values, window: TimeWindow):
    """(i, (t*, P*)) over the window of every cell of the grid (_cells): the
    closed form at zero temperature, one pass per detuning count otherwise."""
    return _cells(config, names, values, lambda cfg: _zero_temp_peak(cfg, window),
                  lambda groups: _finite_peaks(groups, window))


def _curves(config: SystemConfig, names, values, ts: np.ndarray):
    """(i, P at the times ts) of every cell of the grid (_cells): at finite
    temperature its own weight row under the kernel call p12 makes for it."""
    return _cells(config, names, values, lambda cfg: p12(cfg, ts),
                  lambda groups: (
                      (i, _rabi_average_paired(table, w[None, :], None, ts))
                      for J, detunings, cells, weights in groups
                      for table in [_kernel_table(J, detunings)]
                      for i, w in zip(cells, weights)))


def max_over_time(config: SystemConfig,
                  window: TimeWindow | None = None) -> tuple[float, float]:
    """(t*, P*) of the transition probability over the window.

    Zero-temperature configs return the exact closed-form peak: the first
    Rabi peak in the window, or the better end of a window that holds
    none.  Finite temperature scans the window on the coarse grid, then
    refines every coarse local maximum that could hide a higher peak
    within one coarse step, by safeguarded Newton on P' (golden section
    where P' has no sign change there).  P* is the direct kernel at t*,
    never less than at the best coarse sample.  This is the one-cell case
    of a sweep, with the same bits.
    """
    validated(config)
    [(_, peak)] = _peaks(config, [], [], TimeWindow() if window is None else window)
    return peak


def _apply_parameter(config: SystemConfig, **fields) -> SystemConfig:
    """config with each given cell field of _FIELDS set to its value."""
    parts = {}
    if "J" in fields:
        parts["dimer"] = replace(config.dimer, J=fields["J"])
    if "gamma1" in fields:
        parts["bath1"] = replace(config.bath1, gamma=fields["gamma1"])
    if "gamma2" in fields:
        parts["bath2"] = replace(config.bath2, gamma=fields["gamma2"])
    if "q" in fields:
        parts["correlation"] = replace(config.correlation, q=fields["q"])
    return replace(config, **parts)


def _check_axis_values(config: SystemConfig, names, values):
    """Every error an axis value would raise in some cell, and any field that
    two axes set, found before any work.

    A cell's Boltzmann exponent overflows somewhere on the grid if it does
    at the largest beta and the smallest or the largest q: the bath
    energy's corners are linear in q and their spread is convex in it
    (config._exponent_errors).
    """
    errors = []
    for name, v in zip(names, values):
        if v.ndim != 1:
            errors.append(f"{name} axis must be one-dimensional, got shape {v.shape}")
        elif v.size == 0:
            errors.append(f"{name} axis has no values")
        elif not np.isfinite(v).all():
            errors.append("axis values must be finite")
        elif name == "temperature" and not (v > 0).all():
            errors.append("temperature axis values must be positive")
        elif name == "J" and (v == 0).any():
            errors.append("J axis values must be nonzero")
    fields = [f for name in names for f in _FIELDS.get(name, ())]
    if len(set(fields)) < len(fields):
        errors.append(f"axes {' and '.join(names)} set the same field")
    if not errors:
        axes = dict(zip(names, values))
        q = axes.get("q", np.array([config.correlation.q]))
        if "temperature" in axes:
            beta = ThermalSpec.kelvin(float(axes["temperature"].min())).beta
        else:
            beta = None if config.thermal.is_zero_temperature else config.thermal.beta
        b1, b2 = config.bath1, config.bath2
        for q_end in sorted({float(q.min()), float(q.max())}):
            errors += _exponent_errors(b1.N, b1.alpha, b2.N, b2.alpha, q_end, beta)
    if errors:
        raise ConfigValidationError(errors)


def sweep(config: SystemConfig, axes, window: TimeWindow | None = None) -> SweepGrid:
    """Grid of max-over-time values (or raw P(t) when one axis is time).

    axes: list of 1 or 2 (name, values) pairs; names from SWEEP_PARAMETERS.
    A time axis gives every cell of the other axis its p12 curve.
    Every axis value is validated before any cell is computed, so the
    cells are not validated again.  Cells go through the same _peaks as
    max_over_time: a cell's (t*, P*) is bit-identical to max_over_time of
    its config, whatever the grid around it.  On a time axis the cells
    come from the same expansion (_curves), and each cell's curve is
    bit-identical to p12 of its config.
    """
    validated(config)
    window = TimeWindow() if window is None else window
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep takes one or two axes")
    names = [name for name, _ in axes]
    for name in names:
        if name not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {name!r}; "
                             f"choose from {SWEEP_PARAMETERS}")
    if names.count("t") > 1:
        raise ValueError("at most one axis may be time")
    values = [np.asarray(v, dtype=float) for _, v in axes]
    _check_axis_values(config, names, values)

    shape = tuple(len(v) for v in values)
    grid = np.empty(shape)
    tgrid = np.empty(shape)

    if "t" in names:
        ax = names.index("t")
        ts = values[ax]
        curves, times = (np.moveaxis(a, ax, -1) for a in (grid, tgrid))
        times[...] = ts
        for i, curve in _curves(config, names[:ax] + names[ax + 1:],
                                values[:ax] + values[ax + 1:], ts):
            curves[np.unravel_index(i, curves.shape[:-1])] = curve
    else:
        for i, (t_star, p_star) in _peaks(config, names, values, window):
            tgrid.flat[i], grid.flat[i] = t_star, p_star

    best = np.unravel_index(int(grid.argmax()), shape)
    argmax = {
        "indices": tuple(int(i) for i in best),
        "parameters": {names[ax]: float(values[ax][best[ax]])
                       for ax in range(len(axes))},
        "t_star": float(tgrid[best]),
        "p_star": float(grid[best]),
    }
    return SweepGrid(
        axis1_name=names[0], axis1_values=values[0],
        axis2_name=names[1] if len(axes) == 2 else None,
        axis2_values=values[1] if len(axes) == 2 else None,
        values=grid, t_star=tgrid, argmax=argmax)
