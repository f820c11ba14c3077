"""Time maximization and parameter sweeps of the transition probability.

The finite-temperature P(t) is almost periodic (incommensurate sector
frequencies), so the maximum is located by a dense coarse scan followed by
golden-section refinement around every coarse peak that could be the
highest.  P factorises as K(t, D) @ W(D; beta, q) over the distinct
detunings D, so a grid's cells are batched by detuning set: one kernel per
set, one weight row per cell.  Zero-temperature configurations use the
closed-form peak instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigValidationError, SystemConfig, ThermalSpec, validated
from .dynamics import (_detuning_groups, _ground_branch, _rabi_average,
                       _rabi_average_paired, delta0_correlated, p12)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

SWEEP_PARAMETERS = ("gamma1", "gamma2", "gamma_both", "q", "temperature", "J", "t")


@dataclass(frozen=True)
class TimeWindow:
    t_min: float = 0.0
    t_max: float = 2.0
    coarse_steps: int = 2000
    refine_iterations: int = 60

    def __post_init__(self):
        if not (0.0 <= self.t_min < self.t_max):
            raise ValueError("need 0 <= t_min < t_max")
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


def _zero_temp_peak(config: SystemConfig) -> tuple[float, float]:
    d = delta0_correlated(config, _ground_branch(config)).value
    J = config.dimer.J
    omega = math.sqrt(J * J + d * d)
    return math.pi / (2.0 * omega), J * J / (J * J + d * d)


def _golden_max(f, a: np.ndarray, b: np.ndarray, iterations: int,
                retire) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search on every bracket [a_i, b_i] at once.

    f maps the times of the live brackets, in order, to their values.
    Each bracket follows exactly the steps of a scalar search on its own.
    After every step retire(c, d, fc, fd, width) gets the live brackets'
    state and marks those that can no longer matter; they stop with their
    best point so far.  Returns the best point and value of every bracket.
    """
    t_out, p_out = np.empty(a.size), np.empty(a.size)
    live = np.arange(a.size)

    def settle(sel):
        left = fc[sel] > fd[sel]
        t_out[live[sel]] = np.where(left, c[sel], d[sel])
        p_out[live[sel]] = np.where(left, fc[sel], fd[sel])

    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = _INV_PHI * (b - a)
        x = np.where(left, b - h, a + h)
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        stop = retire(c, d, fc, fd, b - a)
        if stop.any():
            settle(stop)
            keep = ~stop
            a, b, c, d, fc, fd, live = (v[keep] for v in (a, b, c, d, fc, fd, live))
    settle(slice(None))
    return t_out, p_out


# absolute slack on the refinement bound, far above the rounding error of P
_BOUND_SLACK = 1e-12


def _group_peaks(J: float, detunings: np.ndarray, weights: np.ndarray,
                 window: TimeWindow) -> list[tuple[float, float]]:
    """(t*, P*) of every weight row over one shared detuning set.

    The coarse scan evaluates the kernel once for all rows.  Every coarse
    local maximum within M2 dt^2/8 of the row's best sample is refined.
    M2 = sum_k w_k amp_k 2 omega_k^2 = 2 J^2 bounds |P''|, so a true peak
    above the best sample has a sample within dt/2 at least that high.
    """
    omega_max = math.sqrt(float((J * J + detunings * detunings).max()))
    # the coarse grid has to resolve the fastest sector oscillation
    dt = (window.t_max - window.t_min) / (window.coarse_steps - 1)
    if dt > math.pi / omega_max / 4.0:
        raise ValueError(
            f"coarse step {dt:.3g} ps cannot resolve the fastest sector "
            f"frequency {omega_max:.3g} ps^-1; need more coarse_steps")

    ts = np.linspace(window.t_min, window.t_max, window.coarse_steps)
    p = _rabi_average(J, detunings, weights, ts)
    i_best = p.argmax(axis=1)
    p_best = p[np.arange(len(p)), i_best]
    padded = np.pad(p, ((0, 0), (1, 1)), constant_values=-np.inf)
    local = (p >= padded[:, :-2]) & (p >= padded[:, 2:])
    band = 2.0 * J * J * dt * dt / 8.0
    rows, cols = np.nonzero(local & (p >= (p_best - band)[:, None]))
    best = p_best.copy()
    live = rows

    def f(t):
        return _rabi_average_paired(J, detunings, weights, live, t)

    def retire(c, d, fc, fd, width):
        # On a bracket, P <= max(fc, fd) + |slope| width + (M2/2) width^2.
        # A search whose bound is below its row's best value so far cannot
        # end higher than the row's final result, so stopping it changes
        # no result.
        nonlocal live
        top = np.maximum(fc, fd)
        np.maximum.at(best, live, top)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = top + np.abs(fd - fc) / (d - c) * width + J * J * width * width
        stop = bound + _BOUND_SLACK < best[live]
        live = live[~stop]
        return stop

    a = np.maximum(window.t_min, ts[cols] - dt)
    b = np.minimum(window.t_max, ts[cols] + dt)
    t_ref, p_ref = _golden_max(f, a, b, window.refine_iterations, retire)

    # rows is sorted and every row has a candidate: its best sample
    peaks = []
    bounds = np.searchsorted(rows, np.arange(len(p) + 1))
    for r in range(len(p)):
        k = bounds[r] + int(p_ref[bounds[r]:bounds[r + 1]].argmax())
        if p_ref[k] > p_best[r]:
            peaks.append((float(t_ref[k]), float(p_ref[k])))
        else:
            peaks.append((float(ts[i_best[r]]), float(p_best[r])))
    return peaks


def _thermal_peaks(configs, window: TimeWindow) -> list[tuple[float, float]]:
    """(t*, P*) of finite-temperature configs, one kernel per detuning set.

    A cell's result does not depend on which other cells come with it.
    """
    peaks = [None] * len(configs)
    for J, detunings, cells, weights in _detuning_groups(configs):
        for i, peak in zip(cells, _group_peaks(J, detunings, weights, window)):
            peaks[i] = peak
    return peaks


def max_over_time(config: SystemConfig,
                  window: TimeWindow | None = None) -> tuple[float, float]:
    """(t*, P*) of the transition probability over the window.

    Zero-temperature configs return the exact closed-form peak.  Finite
    temperature scans the window on the coarse grid, then refines every
    coarse local maximum that could hide a higher peak by golden section
    within one coarse step; it never returns less than the best coarse
    sample.  This is the one-cell case of a sweep, with the same bits.
    """
    validated(config)
    if window is None:
        window = TimeWindow()
    if config.thermal.is_zero_temperature:
        return _zero_temp_peak(config)
    return _thermal_peaks([config], window)[0]


def _apply_parameter(config: SystemConfig, name: str, value: float) -> SystemConfig:
    if name == "gamma1":
        return replace(config, bath1=replace(config.bath1, gamma=value))
    if name == "gamma2":
        return replace(config, bath2=replace(config.bath2, gamma=value))
    if name == "gamma_both":
        return replace(config,
                       bath1=replace(config.bath1, gamma=value),
                       bath2=replace(config.bath2, gamma=value))
    if name == "q":
        return replace(config, correlation=replace(config.correlation, q=value))
    if name == "temperature":
        return replace(config, thermal=ThermalSpec.kelvin(value))
    if name == "J":
        return replace(config, dimer=replace(config.dimer, J=value))
    raise ValueError(f"unknown sweep parameter {name!r}; "
                     f"choose from {SWEEP_PARAMETERS}")


def _check_axis_values(names, values):
    """Every error an axis value would raise in some cell, found before any work."""
    errors = []
    for name, v in zip(names, values):
        if not np.isfinite(v).all():
            errors.append("axis values must be finite")
        elif name == "temperature" and not (v > 0).all():
            errors.append("temperature axis values must be positive")
        elif name == "J" and (v == 0).any():
            errors.append("J axis values must be nonzero")
    if errors:
        raise ConfigValidationError(errors)


def sweep(config: SystemConfig, axes, window: TimeWindow | None = None) -> SweepGrid:
    """Grid of max-over-time values (or raw P(t) when one axis is time).

    axes: list of 1 or 2 (name, values) pairs; names from SWEEP_PARAMETERS.
    Every axis value is validated before any cell is computed.  A cell's
    (t*, P*) is bit-identical to max_over_time of its config, whatever the
    grid around it.
    """
    validated(config)
    if window is None:
        window = TimeWindow()
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
    _check_axis_values(names, values)

    shape = tuple(len(v) for v in values)
    grid = np.empty(shape)
    tgrid = np.empty(shape)

    time_axis = names.index("t") if "t" in names else None
    if time_axis is not None:
        ts = values[time_axis]
        other = 1 - time_axis if len(axes) == 2 else None
        if other is None:
            p = np.asarray(p12(config, ts))
            grid[:], tgrid[:] = p, ts
        else:
            for i, v in enumerate(values[other]):
                cfg = _apply_parameter(config, names[other], float(v))
                p = np.asarray(p12(cfg, ts))
                if other == 0:
                    grid[i, :], tgrid[i, :] = p, ts
                else:
                    grid[:, i], tgrid[:, i] = p, ts
    else:
        def cell_config(idx):
            cfg = config
            for ax, i in enumerate(idx):
                cfg = _apply_parameter(cfg, names[ax], float(values[ax][i]))
            return cfg

        if config.thermal.is_zero_temperature and "temperature" not in names:
            for idx in np.ndindex(shape):
                tgrid[idx], grid[idx] = max_over_time(cell_config(idx), window)
        else:
            cells = list(np.ndindex(shape))
            peaks = _thermal_peaks([cell_config(idx) for idx in cells], window)
            for idx, (t_star, p_star) in zip(cells, peaks):
                grid[idx], tgrid[idx] = p_star, t_star

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


@dataclass(frozen=True)
class AssistanceGain:
    gain: float
    coupled: tuple[float, float]    # (t*, P*)
    decoupled: tuple[float, float]


def assistance_gain(config: SystemConfig,
                    window: TimeWindow | None = None) -> AssistanceGain:
    """Peak-probability gain of the coupled config over its gamma1=gamma2=0 twin."""
    coupled = max_over_time(config, window)
    bare = replace(config,
                   bath1=replace(config.bath1, gamma=0.0),
                   bath2=replace(config.bath2, gamma=0.0))
    decoupled = max_over_time(bare, window)
    return AssistanceGain(gain=coupled[1] - decoupled[1],
                          coupled=coupled, decoupled=decoupled)
