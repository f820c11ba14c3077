"""Batch command-line interface.

Exit codes: 0 success, 2 validation/usage error, 3 oracle disagreement.
Every produced file gets a JSON manifest sibling; runs are deterministic
(no RNG, fixed iteration orders), so repeated runs are bit-identical.
"""

from __future__ import annotations

import argparse
import functools
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
from .dynamics import (_check_regime, _detuning_groups, _ground_branch, _kernel_table,
                       _uniform_scan, assistance_condition, p12, q_threshold, resonance_gamma)
from .oracle import MAX_BATH_SPINS, _check_size, evolve_probability
from .sweeps import TimeWindow, max_over_time, sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ORACLE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# rows formatted per write of _emit_csv.  A block makes about a hundred numpy
# calls, each with a fixed cost of about a microsecond: a 1e5-row curve took
# about a third longer in 1024-row blocks than in 4096-row ones, and within
# a tenth of it from 2048 to 16384 rows, while the writer's memory grows
# with the block (1.8 MB at 4096 rows)
_CSV_CHUNK = 4096

# bytes per field: the text in the first 24 (the longest %.17g string has
# 24, "-2.2250738585072014e-308"), then the separator; the NUL bytes around
# the text are dropped on output
_FIELD = 25

# _DECADES[j] is the double nearest 10**(j-4); for j < 4 it lies above
# 10**(j-4), so |x| >= _DECADES[j] exactly when |x| >= 10**(j-4)
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 17)])


def _veltkamp(a):
    """a = hi + lo exactly, each part with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_SCALE = 10.0 ** np.arange(20, 0, -1)  # 10**(16-X) at i = X+4; each is an exact double
_SCALE_HI, _SCALE_LO = _veltkamp(_SCALE)


@functools.cache
def _tables():
    """The lookup tables of _csv_bytes, for i = X+4 in [0, 20).

    A fast field's first 8 bytes are its head, heads[(i + 20*negative)*10 + d]:
    the sign and, for X < 0, '0.' and -X-1 zeros, right-aligned up to D's
    first digit d at byte 7, or for X >= 0 up to d at byte 6.  D's other
    16 digits are four groups g of four, group m a 5-byte window at byte
    7 + 4m, windows[bases[m][i] + 10000*trailing + g].  With p = X - 4m
    clipped to [-1, 4], the window holds the group's digits after a NUL
    (p = -1: the point came before), the first p digits, the point and the
    rest, or the digits then a NUL (p = 4: the point comes after).  With
    trailing, which holds when every later group is zero and always for the
    last, the zeros at the end after the point are NUL, and so is the point
    when no digit follows it.  Neighbouring windows share one byte, which
    at most one of them uses."""
    n = np.arange(10000)[:, None]
    digits = (n // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    zero_from = n % np.array([10000, 1000, 100, 10]) == 0  # this digit and all after it are 0
    windows = np.zeros((6, 2, 10000, 8), np.uint8)
    windows[5, :, :, :4] = digits
    for p, w in zip(range(-1, 4), windows):
        s = max(p, 0)  # the first digit after the point
        w[:, :, :s] = digits[:, :s]
        w[:, :, s + 1:5] = digits[:, s:]
        w[1, :, s + 1:5] *= ~zero_from[:, s:]
        if p >= 0:
            w[:, :, p] = ord(".")
            w[1, :, p] *= ~zero_from[:, p]
    X = np.arange(20) - 4
    bases = [20000 * (np.clip(X - 4 * m, -1, 4) + 1) for m in range(4)]
    heads = [(b"-" * neg + (b"0." + b"0" * (-x - 1) + b"%d" % d if x < 0 else b"%d\0" % d))
             .rjust(8, b"\0") for neg in (0, 1) for x in X.tolist() for d in range(10)]
    return (windows.view("<u8").ravel(), bases,
            np.frombuffer(b"".join(heads), "<u8"))


def _csv_bytes(block, field: bytearray) -> bytearray:
    """The rows of a 2-D float64 block, each value as '%.17g' % value writes
    it, comma-separated and newline-ended.

    The text is laid out in field, _FIELD bytes per value, and returned
    with its NUL bytes dropped.

    Every |x| in [1e-4, 1e16) has a decimal exponent X in [-4, 15], so
    %.17g writes it in fixed notation from D, the 17-digit integer nearest
    |x|*10**(16-X) (ties to even), with the point after digit X and trailing
    zeros dropped.  X is floor(e*log10(2)), e the binary exponent, or one
    more.  x*10**(16-X) is formed exactly as hi + lo (Dekker's TwoProduct),
    so D = hi + rint(lo) is correctly rounded.  D never rounds up to
    10**17: the double below 10**(X+1) is more than 5 units of D away.  The
    text is put together from the words of _tables.  Every other value goes
    through '%.17g' % value."""
    rows, cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    j = ((a.view(np.int64) >> 52) * 1233 - 1240879) >> 12  # floor(e*log10(2)) + 5
    i = j - (a < _DECADES.take(j, mode="clip"))  # X + 4
    slow = np.flatnonzero(i.view(np.uint64) > 19)  # i outside [0, 20); a negative one wraps
    a[slow], i[slow] = 1.0, 4
    hi = a * _SCALE.take(i)
    a_hi, a_lo = _veltkamp(a)
    s_hi, s_lo = _SCALE_HI.take(i), _SCALE_LO.take(i)
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    high = D // 10 ** 8  # then in int32: D's first digit, the other 16 in groups
    low = (D - high * 10 ** 8).astype(np.int32)
    high = high.astype(np.int32)
    top = high // 10 ** 8
    high -= top * 10 ** 8
    g1 = high // 10 ** 4
    g3 = low // 10 ** 4
    g = [g1, high - g1 * 10 ** 4, g3, low - g3 * 10 ** 4]
    windows, bases, heads = _tables()
    w = [None] * 4
    trailing = np.ones(len(v), bool)
    for m in (3, 2, 1, 0):
        w[m] = windows.take(bases[m].take(i) + g[m] + 10000 * trailing)
        trailing &= g[m] == 0
    out = np.frombuffer(field, np.uint8).reshape(len(v), _FIELD)
    word = [out[:, k:k + 8].view("<u8")[:, 0] for k in (0, 8, 16)]
    word[0][:] = heads.take((i + 20 * np.signbit(v)) * 10 + top) | w[0] << 56
    word[1][:] = w[0] >> 8 | w[1] << 24 | w[2] << 56
    word[2][:] = w[2] >> 8 | w[3] << 24
    if len(slow):
        out[slow, :-1] = np.array(["%.17g" % y for y in v[slow].tolist()],
                                  dtype=f"S{_FIELD - 1}").view(np.uint8).reshape(-1, _FIELD - 1)
    out.reshape(rows, cols, _FIELD)[:, :, -1] = np.frombuffer(b"," * (cols - 1) + b"\n", np.uint8)
    return field.translate(None, b"\0")


def _emit_csv(path: str, header: str, columns):
    """The header line, then one row per index of the columns, up to the
    shortest, each value byte for byte as C's %.17g writes it, in writes of
    at most _CSV_CHUNK rows.  The blocks share one field buffer, the last
    takes its own when it is shorter."""
    n = min(len(c) for c in columns)
    field = bytearray(min(n, _CSV_CHUNK) * len(columns) * _FIELD)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n, _CSV_CHUNK):
            hi = min(n, lo + _CSV_CHUNK)
            if (hi - lo) * len(columns) * _FIELD < len(field):
                field = bytearray((hi - lo) * len(columns) * _FIELD)
            fh.write(_csv_bytes(np.column_stack(
                [c[lo:hi] for c in columns]).astype(np.float64, copy=False), field))


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


def _writable_out(args):
    """--out, when given, names a file in a directory that exists and can be written."""
    if args.out is None:
        return True, ""
    folder = os.path.dirname(args.out) or "."
    ok = (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)
          and not os.path.isdir(args.out))
    return ok, f"--out must be a file in an existing, writable directory, got {args.out}"


def _window_checks(args, peaks: bool):
    """--t-min, --t-max and --steps, checked by name: a finite window with
    --t-min >= 0 and --t-max >= --t-min for a curve's rows (--steps >= 0),
    or --t-max > --t-min for a peak scan's grid (--steps >= 2)."""
    need, got, steps = (">", "<=", 2) if peaks else (">=", "<", 0)
    backwards = args.t_max <= args.t_min if peaks else args.t_max < args.t_min
    return [_finite(args, "--t-min"), _finite(args, "--t-max"),
            (not args.t_min < 0.0, f"--t-min must be >= 0, got {args.t_min}"),
            (not backwards, f"--t-max must be {need} --t-min, got {args.t_max} {got} {args.t_min}"),
            (args.steps >= steps, f"--steps must be >= {steps}, got {args.steps}")]


def _add_window_args(p):
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=2000)


def _curve_command(args) -> int:
    """The curve on the window's uniform grid, by angle addition
    (dynamics._uniform_scan) over the kernel table of the config's one
    group, after the regime check of the subcommand's p12_<regime>."""
    started = time.monotonic()
    _check_options(*_window_checks(args, peaks=False), _writable_out(args))
    config = load_config(args.config)
    _check_regime(config, args.command.replace("-", "_"))
    [(J, detunings, _, w)] = _detuning_groups(config)
    ts, _, [ps] = _uniform_scan(_kernel_table(J, detunings), w, args.t_min, args.t_max,
                                args.steps)
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
    _check_options(*_window_checks(args, peaks=True), _writable_out(args))
    window = TimeWindow(t_min=args.t_min, t_max=args.t_max, coarse_steps=args.steps)
    config = load_config(args.config)
    t_star, p_star = max_over_time(config, window)
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
    _check_options(*_window_checks(args, peaks=True), _writable_out(args),
                   (args.axis, "at least one --axis is required"))
    window = TimeWindow(t_min=args.t_min, t_max=args.t_max, coarse_steps=args.steps)
    axes = [_parse_axis(spec) for spec in args.axis]
    config = load_config(args.config)
    grid = sweep(config, axes, window)
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
                   (not args.t_max < 0.0, f"--t-max must be >= 0, got {args.t_max}"),
                   (0.0 <= args.tol < math.inf,
                    f"--tol must be finite and >= 0, got {args.tol}"),
                   _writable_out(args))
    config = load_config(args.config)
    if args.n1 is not None:
        config = replace(config, bath1=replace(config.bath1, N=args.n1))
    if args.n2 is not None:
        config = replace(config, bath2=replace(config.bath2, N=args.n2))
    validated(config)
    _check_size(config.bath1.N, config.bath2.N, MAX_BATH_SPINS)
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

    for name in ("zero-temp", "thermal", "correlated-zero-temp"):
        p = add(name, _curve_command, help=f"P(t) curve, {name} regime")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parse_args leaves the parser as it
    was, and append copies its default list before adding to it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
