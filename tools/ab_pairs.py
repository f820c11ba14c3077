"""Alternating A/B pairs of the benchmark in two checkouts, summarised per metric.

Each pair runs `python3 bench/run.py --workload W --seed S --seconds X` once
in the parent checkout and once in the change checkout, the side that goes
first alternating from pair to pair (parent first in pair 1).  The summary
holds, per end-to-end metric of BENCHMARK.json: each side's runs, quartiles
(numpy.percentile's linear rule) and median, the change's median over the
parent's, the pairs the change won (ties count for neither side), whether
the change's median is within the metric's bound, and whether a gain could
be claimed: the change wins at least nine tenths of at least ten pairs, and
the medians differ in its favour by more than the parent's interquartile
range.  Stdlib only.  Run from anywhere:

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload thermal-grid --seed 1 --seconds 20 --pairs 10 --out tg1.json
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(parent, change, better: str, bound: float) -> dict:
    """The per-metric block of one metric's runs, pair i being (parent[i], change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    sides = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"runs": list(runs), "q1": q1, "median": median, "q3": q3}
    p, c = sides["parent"]["median"], sides["change"]["median"]
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    needed = math.ceil(0.9 * len(parent))
    return {
        "better": better,
        **sides,
        "change_over_parent_median": round(c / p, 4) if p else None,
        "pairs_change_better": wins,
        "within_bound": sign * (c - p) >= -bound * abs(p),
        "gain_rule": {"pairs": len(parent), "wins_needed": needed,
                      "median_gain": sign * (c - p), "parent_iqr": iqr,
                      "holds": len(parent) >= 10 and wins >= needed and sign * (c - p) > iqr},
    }


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of bench/run.py in the checkout, parsed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="write the JSON block here as well as to stdout")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    first = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            results[side].append(run_bench(checkouts[side], args.workload, args.seed,
                                           args.seconds))
            print(f"pair {i + 1}/{args.pairs} {side} done", file=sys.stderr, flush=True)

    block = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g}",
        "pairs": args.pairs,
        "first_in_pair": first,
        "correct": {side: all(r["correct"] for r in runs) for side, runs in results.items()},
        "failed_over_attempted": {side: [f"{r['failed']}/{r['attempted']}" for r in runs]
                                  for side, runs in results.items()},
        "metrics": {name: summarise([r["metrics"][name]["value"] for r in results["parent"]],
                                    [r["metrics"][name]["value"] for r in results["change"]],
                                    m["better"], m["bound"])
                    for name, m in metrics.items()},
    }
    text = json.dumps(block, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
