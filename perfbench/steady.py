#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command from BENCHMARK.json once per seed for each workload and
prints, per end-to-end metric (`setup_s` included), the median and the
spread: the distance between the first and third quartile of the runs as
a share of their median. A metric whose spread exceeds its bound, or a
run in which a request failed, fails the check (exit 1); a spread above a third of the bound passes but is
marked `noisy`, because two sets of runs can then still disagree by more
than the bound.

With `--save FILE` the medians are written as JSON; with `--against FILE`
each median is compared with a saved set, and a metric that got worse by
more than its bound fails the check.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --save /tmp/first.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --against /tmp/first.json
    python3 perfbench/steady.py --runs 5 --workloads serve --first-seed 11
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result


def worse_by(better, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if better == "lower":
        return (new - old) / old
    return (old - new) / old


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--config", default="BENCHMARK.json")
    parser.add_argument("--save", help="write the medians to this JSON file")
    parser.add_argument("--against", help="compare the medians with this saved JSON file")
    opts = parser.parse_args()

    with open(opts.config) as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    previous = {}
    if opts.against:
        with open(opts.against) as f:
            previous = json.load(f)

    steady = True
    medians = {}
    for workload in workloads:
        values = {name: [] for name in metrics}
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            result = run_once(bench["command"], workload, seed, seconds, 0)
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            if result["failed"]:
                # Two sets of runs agree only if no request fails in either.
                steady = False
            shown = "  ".join(f"{name} {values[name][-1]:.4g}" for name in metrics)
            print(f"{workload} seed {seed}: failed {result['failed']} of {result['attempted']}"
                  f"  {shown}", flush=True)
        medians[workload] = {}
        for name, m in metrics.items():
            vals = values[name]
            bound = m["bound"]
            med = statistics.median(vals)
            medians[workload][name] = med
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else "noisy" if spread <= bound else "NOT STEADY"
            steady &= spread <= bound
            line = (f"  {workload:<6} {name:<16} median {med:>14.4f}  spread {spread:7.4f}"
                    f"  bound {bound:5.3f}  {verdict:<10}  min {min(vals):.4f} max {max(vals):.4f}")
            old = previous.get(workload, {}).get(name)
            if old:
                drift = worse_by(m["better"], old, med)
                steady &= drift <= bound
                line += f"  vs saved {old:.4f}: {drift:+.4f} {'ok' if drift <= bound else 'WORSE'}"
            print(line, flush=True)
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(medians, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
