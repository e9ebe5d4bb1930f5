"""Benchmark of the posetdegen CLI on three seeded workloads of real commands.

    python3 bench/run.py --workload subdivide-grid --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --record     # rewrite bench/expected.json

Load model: a closed loop, one caller in one process with no threads.  A
workload's job list (corpus.py) runs in a fixed order, pass after pass, for
--seconds.  Each workload gets fresh worker processes with PYTHONHASHSEED
fixed, without -O and with gc untouched: SETUP_PROBES processes that only set
up (import, corpus, expected-digest table) and one that also runs the passes.

Times are wall seconds at a reference machine speed, without the waits for a
core (speed.py): the cores are shared with other tenants and raw wall times
of one program drift by 20 % and more between runs, which no bound of 25 %
can hold.  The table shows the raw wall medians beside the scaled ones.

With --trace 0 the metrics are end to end: setup_s (median over all set-ups),
pass_s (median pass), job_p50_s (median job) and peak_rss_mib (at the end of
the first pass).  With --trace 1 passes alternate untraced and traced
(tracer.py); the metrics are per layer: self time (wall, including the speed
sampler's ~1 %), calls and counts per traced pass, medians over the traced
passes, plus trace.overhead_s, the median traced pass minus the median
untraced pass.  Every report must match its digest (the recorded one at the
default seed, else the run's first) and the invariants in corpus.py; each
mismatch is a failed job and makes the run incorrect.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a table for people.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from corpus import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_PROBES = 20
HASH_SEED = "0"


class WorkerFailed(Exception):
    pass


def spawn(args, timeout):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, BENCH_STARTED=repr(time.perf_counter()))
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail_percentile(values):
    """The highest whole percentile with at least ten samples above it, as
    (p, value) by nearest rank; None with ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(values)[max(1, math.ceil(n * p / 100)) - 1]


def stats_line(name, scaled, raw, what):
    q1, q3 = quartiles(scaled)
    return (f"  {name:14s} {statistics.median(scaled):12.6f} s    q1 {q1:.6f}"
            f"  q3 {q3:.6f}  n={len(scaled)} {what}  (wall {statistics.median(raw):.6f})")


def end_to_end(workload, seed, seconds):
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(common + ["--setup-only"], 60)["setup_s"] for _ in range(SETUP_PROBES)]
    run = spawn(common + ["--seconds", str(seconds)], 60 + 3 * seconds)
    setups.append(run["setup_s"])
    samples = {
        "setup_s": (setups, "set-ups"),
        "pass_s": ([p[1:] for p in run["passes"]], "passes"),
        "job_p50_s": (run["job_seconds"], "jobs"),
    }
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace 0")
    metrics = {}
    for name, (pairs, what) in samples.items():
        raw, scaled = [p[0] for p in pairs], [p[1] for p in pairs]
        metrics[name] = (statistics.median(scaled), "s")
        print(stats_line(name, scaled, raw, what))
    jobs = [p[1] for p in run["job_seconds"]]
    tail = tail_percentile(jobs)
    if tail:
        print(f"  {f'job_p{tail[0]}_s':14s} {tail[1]:12.6f} s     n={len(jobs)} jobs")
    metrics["peak_rss_mib"] = (run["rss_kib"] / 1024, "MiB")
    print(f"  {'peak_rss_mib':14s} {metrics['peak_rss_mib'][0]:12.6f} MiB")
    ratio = run["failed"] / run["attempted"]
    print(f"  {'failed_ratio':14s} {ratio:12.6f} 1     {run['failed']} of {run['attempted']} jobs")
    return run, metrics


def per_layer(workload, seed, seconds):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1"]
    run = spawn(args, 60 + 3 * seconds)
    untraced = [p[2] for p in run["passes"] if not p[0]]
    traced = [p[2] for p in run["passes"] if p[0]]
    layers = run["layers"]
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        unit = ("s" if name.endswith("_s") else "B" if name.endswith(".bytes")
                else "1" if name.endswith(("_ratio", "_per_lift")) else "count")
        metrics[name] = (statistics.median(values), unit)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace 1")
    print(f"  pass_s untraced {statistics.median(untraced):.6f} s (n={len(untraced)})"
          f"  traced {statistics.median(traced):.6f} s (n={len(traced)})"
          f"  overhead {overhead:.6f} s")
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name:52s} {value:14.6f} {unit}")
    for name in run["missing_spans"]:
        print(f"  span {name} recorded no call", file=sys.stderr)
    return run, metrics


def record(seed):
    table = {}
    for workload in WORKLOADS:
        run = spawn(["--workload", workload, "--seed", str(seed), "--record"], 300)
        if run["failed"]:
            raise WorkerFailed(f"{workload}: {run['failures']}")
        table[workload] = run["digests"]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote digests of {sum(map(len, table.values()))} reports to {EXPECTED}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from one pass at the default seed")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "posetdegen", "cli.py")):
        sys.exit(f"no posetdegen sources under {os.path.join(ROOT, 'src')}")
    try:
        if args.record:
            record(DEFAULT_SEED)
            return
        workloads = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
        measure = per_layer if args.trace else end_to_end
        attempted = failed = 0
        correct = True
        metrics = {}
        for workload in workloads:
            run, values = measure(workload, args.seed, args.seconds)
            attempted += run["attempted"]
            failed += run["failed"]
            correct = correct and not run["failed"] and not run["missing_spans"]
            for failure in run["failures"]:
                print(f"FAILED {workload} {failure}", file=sys.stderr)
            prefix = "" if len(workloads) == 1 else f"{workload}."
            metrics.update({prefix + name: {"value": value, "unit": unit}
                            for name, (value, unit) in values.items()})
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        sys.exit(f"benchmark failed: {exc}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
