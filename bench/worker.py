"""One benchmark process: set up a workload, run its job list in passes for a
fixed time, check every report, and print the raw measurements as one JSON
line.  run.py starts it with PYTHONHASHSEED fixed and BENCH_STARTED holding
its clock reading at spawn, so set-up time counts from process start.

Jobs run through `posetdegen.cli.main(argv)` with stdout swapped for an
in-memory buffer, so the report bytes are exactly what the command prints.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

import corpus
from speed import Speedometer
from tracer import REQUIRED, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected.json")
WORK = os.path.join(HERE, ".work")
MIN_PASSES = 3


def import_main():
    sys.path.insert(0, SRC)
    import posetdegen.cli

    if not os.path.abspath(posetdegen.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"posetdegen imported from {posetdegen.cli.__file__}, not {SRC}")
    return posetdegen.cli.main


def run_job(main, argv, meter):
    """Run one command; returns ([wall, scaled] seconds, exit code, report
    bytes, error text)."""
    out = io.BytesIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.StringIO()
    error = ""
    meter.start()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    except Exception:
        code = None
        error = traceback.format_exc()
    finally:
        seconds = meter.stop()
    try:
        sys.stdout.flush()
        data = out.getvalue()
        error = error or sys.stderr.getvalue()
        sys.stdout.detach()
    finally:
        sys.stdout, sys.stderr = saved
    return list(seconds), code, data, error


def invariant_failure(job, data):
    """Why a report breaks the job's invariants, or None."""
    try:
        job.check(json.loads(data))
    except corpus.Mismatch as exc:
        return f"invariant: {exc}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"
    return None


def measure(args, main, jobs, argvs, references, meter):
    """Repeat the job list until --seconds is used up (at least MIN_PASSES
    times); with --trace, every second pass runs traced.

    Each run must exit 0 with the job's reference digest: the recorded one at
    the default seed, else that of its first successful run, so traced and
    untraced reports must agree byte for byte.  The invariants are checked
    on each job's accepted report at the end, after the run's memory figure:
    peak RSS at the end of the first pass, as one pass is what a user's
    commands ask of the program, and later passes only add heap churn.
    """
    tracer = Tracer() if args.trace else None
    passes, job_seconds, layers, failures = [], [], [], []
    reports, accepted = {}, dict.fromkeys((job.name for job in jobs), 0)
    attempted = failed = 0
    start = time.perf_counter()
    iterations = []
    while True:
        began = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            results = [run_job(main, argv, meter) for argv in argvs]
        finally:
            if traced:
                tracer.uninstall()
        times = [r[0] for r in results]
        passes.append([traced] + [sum(t[k] for t in times) for k in (0, 1)])
        if traced:
            metrics = tracer.pass_metrics()
            metrics["cli.emit_report.bytes"] = sum(len(r[2]) for r in results)
            layers.append(metrics)
        else:
            job_seconds.extend(times)
        for job, (_, code, data, error) in zip(jobs, results):
            attempted += 1
            digest = hashlib.sha256(data).hexdigest()
            if code != 0:
                last = error.strip().splitlines()[-1:] or [""]
                reason = f"exit code {code}: {last[0]}"
            elif references.setdefault(job.name, digest) != digest:
                reason = f"report digest {digest[:16]} is not {references[job.name][:16]}"
            else:
                reports.setdefault(job.name, data)
                accepted[job.name] += 1
                continue
            failed += 1
            failures.append(f"pass {len(passes)} {job.name}: {reason}")
        if len(passes) == 1:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        iterations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if args.record or (len(passes) >= MIN_PASSES
                           and elapsed + statistics.median(iterations) > args.seconds):
            break
    for job in jobs:
        reason = invariant_failure(job, reports[job.name]) if job.name in reports else None
        if reason is not None:
            failed += accepted[job.name]
            failures.append(f"{accepted[job.name]} runs of {job.name}: {reason}")
    missing = []
    if tracer is not None:
        missing = [name for name in REQUIRED.get(args.workload, ())
                   if any(m[f"{name}.calls"] == 0 for m in layers)]
    return {
        "passes": passes,
        "job_seconds": job_seconds,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "layers": layers,
        "missing_spans": missing,
        "digests": references,
        "rss_kib": rss_kib,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="run one pass and report its digests")
    args = parser.parse_args()
    if sys.flags.optimize:
        sys.exit("run without -O: it strips the program's assert checks")
    meter = Speedometer()
    meter.start(float(os.environ["BENCH_STARTED"]))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=WORK)
    try:
        main_fn = import_main()
        jobs = corpus.WORKLOADS[args.workload](args.seed)
        argvs = corpus.write_inputs(jobs, workdir)
        references = {}
        if not args.record:
            with open(EXPECTED, encoding="utf-8") as fh:
                expected = json.load(fh)
            if args.seed == corpus.DEFAULT_SEED:
                references = dict(expected[args.workload])
        result = {"setup_s": list(meter.stop())}
        if not args.setup_only:
            result.update(measure(args, main_fn, jobs, argvs, references, meter))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
