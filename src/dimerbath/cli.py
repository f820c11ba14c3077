"""Batch command-line interface.

Exit codes: 0 success, 2 validation/usage error, 3 oracle disagreement.
Every produced file gets a JSON manifest sibling; runs are deterministic
(no RNG, fixed iteration orders), so repeated runs are bit-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (ConfigValidationError, SystemConfig, config_to_dict,
                     load_config, validated)
from .dynamics import (_ground_branch, assistance_condition, p12,
                       p12_correlated_zero_temp, p12_thermal, p12_zero_temp,
                       q_threshold, resonance_gamma)
from .oracle import MAX_BATH_SPINS, evolve_probability
from .sweeps import TimeWindow, max_over_time, sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ORACLE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# rows formatted per write of _emit_csv; bounds its string buffers
_CSV_CHUNK = 512


def _emit_csv(path: str, header: str, columns):
    """The header line, then one row per index of the columns, up to the
    shortest, each value as _fmt gives it, one chunk of rows per write."""
    n = min(len(c) for c in columns)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _CSV_CHUNK):
            hi = min(n, lo + _CSV_CHUNK)
            chunk = np.column_stack([c[lo:hi] for c in columns])
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def emit_curve_csv(path: str, ts, ps):
    """t_ps,p12 rows, as many as the shorter of ts and ps."""
    _emit_csv(path, "t_ps,p12", [np.atleast_1d(ts), np.atleast_1d(ps)])


def emit_grid_csv(path: str, grid):
    """2D grid: header `param2\\param1` + axis-1 values, then one row per
    axis-2 value, row-major."""
    header = [f"{grid.axis2_name}\\{grid.axis1_name}"]
    header += [_fmt(v) for v in grid.axis1_values]
    _emit_csv(path, ",".join(header), [grid.axis2_values, *grid.values])


def emit_1d_csv(path: str, grid):
    """One row per axis value: value,p_max,t_star, or t,p12 on a time axis,
    whose t* is the row's t."""
    if grid.axis1_name == "t":
        _emit_csv(path, "t,p12", [grid.axis1_values, grid.values])
    else:
        _emit_csv(path, f"{grid.axis1_name},p_max,t_star",
                  [grid.axis1_values, grid.values, grid.t_star])


def emit_argmax_sidecar(path: str, grid):
    with open(path, "w") as fh:
        for name, value in grid.argmax["parameters"].items():
            fh.write(f"{name} = {_fmt(value)}\n")
        fh.write(f"t_star = {_fmt(grid.argmax['t_star'])}\n")
        fh.write(f"p_star = {_fmt(grid.argmax['p_star'])}\n")


def write_manifest(out_path: str, subcommand: str, config: SystemConfig,
                   started: float, outputs, summary: dict, axes=None):
    manifest = {
        "subcommand": subcommand,
        "config": config_to_dict(config),
        "axes": axes or [],
        "outputs": [os.path.abspath(p) for p in outputs],
        "wall_clock_seconds": time.monotonic() - started,
        "library_version": __version__,
        "summary": summary,
    }
    path = out_path + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _parse_axis(spec: str):
    """Axis syntax name=min:max:count, inclusive endpoints."""
    try:
        name, rng = spec.split("=", 1)
        lo, hi, count = rng.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigValidationError(
            [f"bad axis spec {spec!r}; expected name=min:max:count"])
    if count < 1:
        raise ConfigValidationError([f"axis count must be >= 1 in {spec!r}"])
    return name, np.linspace(lo, hi, count)


def _check_options(*checks):
    """Raise the message of every failed (ok, message) check, before any work."""
    errors = [message for ok, message in checks if not ok]
    if errors:
        raise ConfigValidationError(errors)


def _finite(args, option: str):
    value = getattr(args, option[2:].replace("-", "_"))
    return math.isfinite(value), f"{option} must be finite, got {value}"


def _window_from_args(args) -> TimeWindow:
    return TimeWindow(t_min=args.t_min, t_max=args.t_max, coarse_steps=args.steps)


def _add_window_args(p):
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=2000)


def _curve_command(args) -> int:
    started = time.monotonic()
    _check_options(_finite(args, "--t-min"), _finite(args, "--t-max"))
    config = load_config(args.config)
    ts = np.linspace(args.t_min, args.t_max, args.steps)
    ps = np.asarray(args.evaluate(config, ts))
    emit_curve_csv(args.out, ts, ps)
    i = int(ps.argmax()) if len(ps) else 0
    summary = {"t_star": float(ts[i]) if len(ts) else None,
               "p_star": float(ps[i]) if len(ps) else None,
               "points": len(ts)}
    write_manifest(args.out, args.command, config, started, [args.out], summary)
    return EXIT_OK


def cmd_validate(args) -> int:
    load_config(args.config)
    print("ok")
    return EXIT_OK


def cmd_max(args) -> int:
    started = time.monotonic()
    config = load_config(args.config)
    t_star, p_star = max_over_time(config, _window_from_args(args))
    print(f"t_star = {_fmt(t_star)} ps")
    print(f"p_star = {_fmt(p_star)}")
    if args.out:
        summary = {"t_star": t_star, "p_star": p_star}
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        write_manifest(args.out, "max", config, started, [args.out], summary)
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.monotonic()
    config = load_config(args.config)
    axes = [_parse_axis(spec) for spec in args.axis]
    if not axes:
        raise ConfigValidationError(["at least one --axis is required"])
    grid = sweep(config, axes, _window_from_args(args))
    if grid.axis2_name is None:
        emit_1d_csv(args.out, grid)
    else:
        emit_grid_csv(args.out, grid)
    sidecar = os.path.splitext(args.out)[0] + ".argmax.txt"
    emit_argmax_sidecar(sidecar, grid)
    axes_echo = [{"name": name, "min": float(v[0]), "max": float(v[-1]),
                  "count": len(v)} for name, v in axes]
    write_manifest(args.out, "sweep", config, started, [args.out, sidecar],
                   grid.argmax, axes=axes_echo)
    # a time axis's parameter is t* itself: t is named once, last
    at = [f"{k}={_fmt(v)}" for k, v in grid.argmax["parameters"].items() if k != "t"]
    at.append(f"t={_fmt(grid.argmax['t_star'])} ps")
    print(f"global max p = {_fmt(grid.argmax['p_star'])} at " + ", ".join(at))
    return EXIT_OK


def cmd_resonance(args) -> int:
    config = load_config(args.config)
    solution = resonance_gamma(config, free=args.free)
    if solution is None:
        print("no resonant coupling exists for the active branch",
              file=sys.stderr)
        return EXIT_USAGE
    tag = " (degenerate: condition already holds for any value)" \
        if solution.degenerate else ""
    print(f"{args.free} = {_fmt(solution.gamma)}{tag}")
    return EXIT_OK


def cmd_ground_state(args) -> int:
    config = load_config(args.config)
    b1, b2 = config.bath1, config.bath2
    branch = _ground_branch(config)
    q0 = q_threshold(b1.alpha, b2.alpha, b1.N, b2.N)
    print(f"branch = {branch.branch}")
    print(f"q0 = {_fmt(q0)}")
    if config.thermal.is_zero_temperature:
        report = assistance_condition(config)
        print(f"delta0 = {_fmt(report.delta0)}")
        print(f"assisted = {report.satisfied}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    started = time.monotonic()
    _check_options((args.points >= 1, f"--points must be >= 1, got {args.points}"),
                   _finite(args, "--t-max"),
                   (0.0 <= args.tol < math.inf,
                    f"--tol must be finite and >= 0, got {args.tol}"))
    config = load_config(args.config)
    if args.n1 is not None:
        config = replace(config, bath1=replace(config.bath1, N=args.n1))
    if args.n2 is not None:
        config = replace(config, bath2=replace(config.bath2, N=args.n2))
    validated(config)
    ts = np.linspace(0.0, args.t_max, args.points)
    analytic = np.asarray(p12(config, ts))
    numeric = np.asarray(evolve_probability(config, ts))
    max_dev = float(np.abs(analytic - numeric).max())
    print(f"max |dP| = {_fmt(max_dev)} over {args.points} points "
          f"(tolerance {_fmt(args.tol)})")
    if args.out:
        emit_curve_csv(args.out, ts, numeric)
        write_manifest(args.out, "oracle-check", config, started, [args.out],
                       {"max_abs_deviation": max_dev, "tolerance": args.tol})
    return EXIT_OK if max_dev <= args.tol else EXIT_ORACLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimer",
        description="Exact dimer + spin-star bath transition dynamics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", required=True, help="JSON config file")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, help="check a config and exit")

    for name, evaluate in (("zero-temp", p12_zero_temp),
                           ("thermal", p12_thermal),
                           ("correlated-zero-temp", p12_correlated_zero_temp)):
        p = add(name, _curve_command, help=f"P(t) curve, {name} regime")
        p.set_defaults(evaluate=evaluate)
        _add_window_args(p)
        p.add_argument("--out", required=True)

    p = add("max", cmd_max, help="maximum of P over a time window")
    _add_window_args(p)
    p.add_argument("--out", default=None)

    p = add("sweep", cmd_sweep, help="1D/2D parameter sweep of max P")
    p.add_argument("--axis", action="append", default=[],
                   metavar="name=min:max:count",
                   help="sweep axis (repeat for a second axis)")
    _add_window_args(p)
    p.add_argument("--out", required=True)

    p = add("resonance", cmd_resonance, help="solve the compensation condition")
    p.add_argument("--free", choices=["gamma1", "gamma2", "gamma_both"],
                   required=True)

    add("ground-state", cmd_ground_state,
        help="correlated-bath ground-state branch and threshold")

    p = add("oracle-check", cmd_oracle_check,
            help="analytic vs brute-force diagonalization")
    p.add_argument("--n1", type=int, default=None,
                   help=f"override bath-1 size (N1+N2 <= {MAX_BATH_SPINS})")
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigValidationError as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
