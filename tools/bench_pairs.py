#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts; keep every stdout.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload solve \
        --seed N --pairs 10 --trace 0 --out BENCH_<label>.json

Pair i runs ``python3 bench/run.py --workload W --seed N --seconds S
--trace T`` in each checkout, with S the ``run_seconds`` of BENCHMARK.json,
the parent first when i is even and the change first when i
is odd, one run at a time; pairs already in the output file for the same
workload, seed and trace setting are counted first. Each checkout runs its own bench/ and
src/.

Both sides run alike, and as the command of BENCHMARK.json runs. Every run
gets the environment settings of CHILD_ENV (one BLAS thread) and no glibc
allocator tunable: each inherited ``MALLOC_*`` variable is dropped, so the
run uses the default allocator. Every run is pinned to one CPU, the lowest
of those this process may use, by ``os.sched_setaffinity`` in the child
before it starts the harness, because the CPUs of a shared VM can differ in
speed by tens of percent. Both settings are constants and each run's record
states them. A fixed MALLOC_MMAP_THRESHOLD_, as older pair files used, also
fixes glibc's trim threshold at its 128 kB default: each run returns the
top of its heap to the system and takes page faults when it grows again,
so a pair run read a change differently from the declared command.

The output file holds every run's stdout, line by line, as the harness
printed it (the metric lines, the ``{"raw": ...}`` and ``{"env": ...}``
lines and the final JSON line), with the side, pair, order, seed, exit
code, environment settings and CPU. An existing file is extended, so one
file can hold several workloads and seeds. Its ``summary`` is recomputed from all runs: for each workload,
seed and trace setting, and each metric of BENCHMARK.json that both sides
of a pair report (the end-to-end ones untraced, the per-layer ones
traced), each side's median and
quartiles over the pairs where both sides report it, the number of those
pairs the change won and lost (ties count for neither), the number of pairs
run, and whether that shows a gain: at least ten pairs run, wins in at least
nine tenths of them (a pair where a side printed no result is not a win),
and medians further apart than the parent's quartiles.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread; the allocator stays at its defaults, as in BENCHMARK.json
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def run_once(checkout, workload, seed, seconds, trace, cpu):
    """(exit code, stdout lines) of one harness run in ``checkout`` on CPU cpu."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
        env={**{k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")},
             **CHILD_ENV},
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    return proc.returncode, proc.stdout.splitlines()


def final_metrics(stdout):
    """{metric: value} from the last line of one run's stdout, or {}."""
    try:
        record = json.loads(stdout[-1])
    except (IndexError, ValueError):
        return {}
    return {name: m["value"] for name, m in record.get("metrics", {}).items()}


def quartiles(values):
    """Lower quartile, median and upper quartile of a non-empty list."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs, better):
    """Median, quartiles and pair wins per (workload, seed, trace) and metric.

    better maps each metric to "higher" or "lower"; a metric that no pair
    reports on both sides is left out.  Wins are counted against every pair
    run in the group, with or without a result on both sides.
    """
    summary = {}
    groups = {}
    for run in runs:
        key = (run["workload"], run["seed"], run.get("trace", 0))
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = (
            final_metrics(run["stdout"]))
    for (workload, seed, trace), pairs in sorted(groups.items()):
        rows = {}
        for name, direction in better.items():
            both = [p for p in pairs.values()
                    if name in p.get("parent", {}) and name in p.get("change", {})]
            if not both:
                continue
            parent = [p["parent"][name] for p in both]
            change = [p["change"][name] for p in both]
            sign = 1.0 if direction == "higher" else -1.0
            diffs = [sign * (c - p) for p, c in zip(parent, change)]
            pq, cq = quartiles(parent), quartiles(change)
            wins = sum(d > 0 for d in diffs)
            rows[name] = {
                "parent_quartiles": pq,
                "change_quartiles": cq,
                "pairs": len(both),
                "pairs_run": len(pairs),
                "change_wins": wins,
                "change_losses": sum(d < 0 for d in diffs),
                # the gain rule: at least 10 pairs, won at least 9 in 10 of
                # them, and the medians differ by more than the parent's
                # interquartile distance
                "gain_shown": len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                and sign * (cq[1] - pq[1]) > pq[2] - pq[0],
            }
        summary[f"{workload} seed {seed}" + (" traced" if trace else "")] = rows
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cpu = min(os.sched_getaffinity(0))
    # pairs already in the file for this workload, seed and trace are kept
    group = (args.workload, args.seed, args.trace)
    start = 1 + max((r["pair"] for r in record["runs"]
                     if (r["workload"], r["seed"], r.get("trace", 0)) == group), default=-1)
    for pair in range(start, start + args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            code, stdout = run_once(sides[side], args.workload, args.seed, seconds,
                                    args.trace, cpu)
            record["runs"].append({
                "workload": args.workload, "seed": args.seed, "seconds": seconds,
                "trace": args.trace, "pair": pair, "side": side, "position": position,
                "exit_code": code, "env": CHILD_ENV, "cpu": cpu, "stdout": stdout,
            })
            print(f"{args.workload} seed {args.seed} trace {args.trace} pair {pair} {side}: "
                  f"exit {code}, {len(final_metrics(stdout))} metrics", flush=True)
            record["summary"] = summarize(record["runs"], better)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    for group, rows in record["summary"].items():
        for name, row in rows.items():
            print(f"{group:20s} {name:12s} parent {row['parent_quartiles']} "
                  f"change {row['change_quartiles']} "
                  f"wins {row['change_wins']}/{row['pairs_run']} losses {row['change_losses']} "
                  f"gain shown {row['gain_shown']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
