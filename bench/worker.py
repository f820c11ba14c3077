"""One benchmark process: set up a workload, then time, trace and check it.

Started by run.py in a fresh interpreter for every set-up sample and every
run, so set-up time and peak RSS belong to one workload alone.  Prints one
JSON object on its last stdout line.

    python3 bench/worker.py --mode setup|run|trace --workload NAME --seed N --seconds S
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here: before numpy is imported

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile

ROOT = os.getcwd()
WORK_DIR = os.path.join(ROOT, "bench", "_work")


def _import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dimerbath", "__init__.py")):
        raise SystemExit(f"no dimerbath package under {src}")
    sys.path.insert(0, src)
    import dimerbath
    if not os.path.abspath(dimerbath.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported dimerbath from {dimerbath.__file__}, not {src}")


def environment(seed):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timed_pass(workload, specs, n_calls=None, seconds=None, offset=0):
    """Closed loop, one client: run calls back to back.

    Either a fixed number of calls, or whole workload cycles (at least one)
    until the cycle boundary nearest to `seconds`.
    """
    outputs, latencies = [], []
    start = time.perf_counter()
    i = 0
    while True:
        if n_calls is not None and i >= n_calls:
            break
        if seconds is not None and i and i % workload.cycle == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 * workload.cycle / i) >= seconds:
                break
        spec = specs[(offset + i) % len(specs)]
        t = time.perf_counter()
        try:
            out = workload.call(spec)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        latencies.append(time.perf_counter() - t)
        outputs.append((spec, out))
        i += 1
    return outputs, latencies, time.perf_counter() - start


def check_all(workload, outputs):
    """(attempted, checked, failed, correct, notes) over the calls' outputs.

    A call that raised fails all its ops and makes the run incorrect.  Of the
    others, the first workload.checked_calls are checked (all when None), so
    that check time stays bounded however fast the calls become and the
    checked inputs depend on the seed alone.
    """
    attempted = checked = failed = n_checked = 0
    correct = True
    notes = []
    limit = workload.checked_calls
    for spec, out in outputs:
        ops = workload.ops(spec)
        attempted += ops
        if isinstance(out, Exception):
            checked += ops
            failed += ops
            correct = False
            notes.append({"error": repr(out)})
        elif limit is None or n_checked < limit:
            res = workload.check(spec, out)
            n_checked += 1
            checked += ops
            failed += res.failed
            correct &= not res.wrong_value
            notes.append(res.notes)
    return attempted, checked, failed, correct, notes


def completed_ops(workload, outputs):
    """Ops of the calls that returned rather than raised."""
    return sum(workload.ops(spec) for spec, out in outputs if not isinstance(out, Exception))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--part", type=int, default=0,
                    help="which of --parts processes this is; sets where the schedule starts")
    ap.add_argument("--parts", type=int, default=1)
    args = ap.parse_args()

    _import_package()
    import numpy as np
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        specs = workload.make_specs(np.random.default_rng(args.seed))
        workload.prepare(specs, workdir)
        workload.warmup(workdir)
        setup_s = time.perf_counter() - _T0
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        elif args.mode == "run":
            offset = workload.cycle * (args.part * len(specs) // (args.parts * workload.cycle))
            result = measure(workload, specs, args.seconds, setup_s, offset)
        else:
            result = trace(workload, specs, args.seconds)
        result["env"] = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(workload, specs, seconds, setup_s, offset=0):
    outputs, latencies, elapsed = timed_pass(workload, specs, seconds=seconds, offset=offset)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    completed = completed_ops(workload, outputs)
    short = (workload.checked_calls or 0) - len(outputs)
    if short > 0:   # untimed calls, so that every run checks the same inputs
        outputs += timed_pass(workload, specs, n_calls=short, offset=offset + len(outputs))[0]
    attempted, checked, failed, correct, notes = check_all(workload, outputs)
    return {
        "setup_s": setup_s,
        "latencies": latencies,
        "measured_s": elapsed,
        "completed": completed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "checked": checked,
        "failed": failed,
        "correct": correct,
        "notes": summarise(notes),
    }


def trace(workload, specs, seconds):
    """Same calls untraced, then traced; per-layer metrics come from the second."""
    from tracing import Tracer
    n_calls = workload.trace_calls(seconds)
    _, _, plain_s = timed_pass(workload, specs, n_calls=n_calls)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    outputs, _, traced_s = timed_pass(workload, specs, n_calls=n_calls)
    tracer.active = False
    attempted, checked, failed, correct, notes = check_all(workload, outputs)
    extra = {"trace.overhead_frac": traced_s / plain_s - 1.0,
             "combinatorics.sectors": 0, "dynamics.distinct_detunings": 0,
             "oracle.dimension": 0}
    for spec, _ in outputs:
        stats = workload.input_stats(spec)
        extra["combinatorics.sectors"] += stats.get("sectors", 0)
        extra["dynamics.distinct_detunings"] += stats.get("detunings", 0)
        extra["oracle.dimension"] = max(extra["oracle.dimension"], stats.get("dimension", 0))
    summary = summarise(notes)
    extra["dynamics.branch_label_mismatch_frac"] = summary.get("label_mismatch", 0) / checked
    return {
        "per_layer": tracer.metrics(extra),
        "calls": n_calls,
        "attempted": attempted,
        "checked": checked,
        "failed": failed,
        "correct": correct,
        "notes": summary,
    }


def summarise(notes):
    """Sum integer notes, take the max of float notes, keep the first few errors."""
    out = {}
    for note in notes:
        for key, value in note.items():
            if key in ("error", "errors"):
                errors = out.setdefault("errors", [])
                errors += ([value] if key == "error" else value)[:5 - len(errors)]
            elif isinstance(value, float):
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


if __name__ == "__main__":
    main()
