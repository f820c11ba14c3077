"""dimerbath benchmark: four workloads, six end-to-end metrics, per-layer spans.

Run from the root of a checkout:

    python3 bench/run.py --workload thermal-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one table

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer metrics of a separate traced run, with the tracing overhead.
Every set-up sample and every run is its own fresh process with BLAS
threads capped at nproc.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; attempted counts the checked
ops, which the seed alone decides.  See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import summarise  # stdlib only; the package is not imported here

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ["thermal-grid", "zero-temp-grid", "oracle-check", "cli-curve"]
SETUP_SAMPLES = 9      # set-up is timed in this many fresh processes; the median is reported
# The timed seconds are split over this many fresh processes and pooled, so
# that no single process's placement or memory layout sets the result.  The
# oracle keeps one: each process must run a whole cycle, which holds a 10 s call.
RUN_PROCESSES = {"thermal-grid": 5, "zero-temp-grid": 5, "oracle-check": 1, "cli-curve": 5}
DEADLINE_S = 170.0     # every run ends well inside 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(mode, workload, seed, seconds, deadline, part=0, parts=1):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--part", str(part), "--parts", str(parts)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the run could start")
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process for {workload} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def tail_percentile(samples):
    """(value, label) of the highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile is at or below the median and says
    nothing about the tail, so the maximum is returned, labelled "max".
    """
    s = sorted(samples)
    if len(s) < 21:
        return s[-1], "max"
    k = len(s) - 11
    return s[k], f"p{100 * (k + 1) // len(s)}"


def run_workload(workload, seed, seconds, traced, deadline):
    """Metrics and record of one workload: end-to-end, or per-layer when traced."""
    if traced:
        res = spawn("trace", workload, seed, seconds, deadline)
        return res.pop("per_layer"), res

    n_run = RUN_PROCESSES[workload]
    runs = [spawn("run", workload, seed, seconds / n_run, deadline, k, n_run)
            for k in range(n_run)]
    setups = [r["setup_s"] for r in runs]
    setups += [spawn("setup", workload, seed, seconds, deadline)["setup_s"]
               for _ in range(SETUP_SAMPLES - n_run)]
    latencies = [x for r in runs for x in r["latencies"]]
    tail, label = tail_percentile(latencies)
    res = {key: sum(r[key] for r in runs)
           for key in ("attempted", "completed", "checked", "failed", "measured_s")}
    res.update(correct=all(r["correct"] for r in runs), calls=len(latencies),
               tail_label=label, processes=n_run, setup_samples=setups, latencies=latencies,
               env=runs[0]["env"], notes=summarise([r["notes"] for r in runs]))
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["completed"] / res["measured_s"],
        "call_p50_ms": 1e3 * statistics.median(latencies),
        "call_tail_ms": 1e3 * tail,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "ok_frac": 1.0 - res["failed"] / res["checked"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, res


def describe(workload, metrics, res, traced):
    lines = [f"== {workload}: {res['attempted']} ops attempted, {res['checked']} checked, "
             f"{res['failed']} failed, values correct: {res['correct']}"]
    if traced:
        lines.append(f"   traced run: {res['calls']} calls, the same calls also run untraced")
    else:
        lines.append(f"   {res['calls']} calls in {res['measured_s']:.3f} s over "
                     f"{res['processes']} process(es); call_tail_ms is the {res['tail_label']} "
                     f"of {res['calls']} calls; setup_s is the median of "
                     f"{len(res['setup_samples'])} fresh processes")
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"   {name:42s} {value:>14s} {m['unit']}")
    if res.get("notes"):
        lines.append(f"   check notes: {json.dumps(res['notes'])}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "dimerbath", "__init__.py")):
        print("bench/run.py must run from the root of a dimerbath checkout "
              "(src/dimerbath not found)", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    start = time.monotonic()
    deadline = start + DEADLINE_S * len(names)
    results, all_metrics = {}, {}
    correct, attempted, failed = True, 0, 0
    for name in names:
        metrics, res = run_workload(name, args.seed, args.seconds, traced, deadline)
        print(describe(name, metrics, res, traced), flush=True)
        results[name] = {"metrics": metrics, **res}
        correct &= res["correct"]
        # the checked ops are fixed by the seed, so attempted and failed are too
        attempted += res["checked"]
        failed += res["failed"]
        prefix = "" if len(names) == 1 else name + "."
        all_metrics.update({prefix + k: v for k, v in metrics.items()})

    env = next(iter(results.values()))["env"]
    env["git_commit"] = git_commit()
    env["blas_thread_cap"] = int(child_env()["OPENBLAS_NUM_THREADS"])
    record = {"env": env, "seconds": args.seconds, "trace": args.trace,
              "wall_s": time.monotonic() - start, "workloads": results}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
