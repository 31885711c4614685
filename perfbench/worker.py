"""One benchmark process: a fresh interpreter that imports qwirt from the
checkout, runs the workload's fixed warm-up jobs, prints ``ready`` and then
either exits (a set-up probe) or runs the job stream and prints one JSON
line with its raw results.  ``run.py`` starts it; see there for the metrics.

Jobs are single-client and closed-loop: each ``qwirt.cli.main(argv)`` call
starts when the previous one has returned, in this process, with stdout and
stderr captured.  A timed run runs whole blocks of jobs.  After each job,
outside its timed interval, fixed stdlib work runs in chunks for a tenth of
the job's time (the host's speed at that moment, which ``run.py`` corrects
for) and the job's output is checked, so no outputs pile up in memory and the
peak RSS is the program's.  A traced run keeps its outputs and checks them
after the tracer is removed, so that checking adds nothing to the counts.
"""

import argparse
import io
import itertools
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

# A timed run holds at least this many jobs, so that ten or more lie beyond
# the 90th percentile.
MIN_TIMED_JOBS = 100
# One calibration chunk runs its fixed stdlib loop this many times, about
# 0.2-0.5 ms on a 2-vCPU 2.0 GHz Xeon VM.
CHUNK_ITERATIONS = 24
# After each timed job, calibration chunks run for this share of its time.
CALIBRATION_SHARE = 0.1


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="wall time of the timed loop")
    parser.add_argument("--block", type=int, default=1,
                        help="jobs per block; a timed run runs whole blocks")
    parser.add_argument("--trace-jobs", type=int, default=0,
                        help="run this many jobs untraced, then traced")
    parser.add_argument("--spans", default=None,
                        help="file for the traced run's spans")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _import_qwirt(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qwirt
    import qwirt.cli
    where = os.path.realpath(qwirt.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("qwirt imported from %s, not from %s" % (where, src))
    return qwirt.cli


def _call(cli, argv):
    """One CLI call; the exit code, or a string naming how it ended."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = "SystemExit(%r)" % (exc.code,)
        except Exception as exc:  # a crash is a failed job, not a dead run
            rc = "raised %s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue()


class Judge:
    """Checks job outputs; collects failures as (job index, message) and the
    largest residual/tolerance share over numeric jobs expected to pass."""

    def __init__(self):
        import check
        self._check = check
        self.failures = []
        self.tol_used = 0.0

    def __call__(self, index, job, rc, out):
        check = self._check
        try:
            if not isinstance(rc, int):
                raise check.CheckFailure(str(rc))
            used = check.check(job, rc, out)
        except (check.CheckFailure, ValueError, KeyError, TypeError) as exc:
            self.failures.append(
                (index, "%s %s: %s" % (job.kind, " ".join(job.argv), exc)))
            return
        if used is not None:
            self.tol_used = max(self.tol_used, used)


def calibration_chunk():
    """Seconds for a fixed piece of stdlib work like the program's own:
    Fraction arithmetic, small objects, a dict and a sort.  Its time follows
    the host's speed more closely than a plain integer loop does."""
    t0 = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, CHUNK_ITERATIONS + 1):
        x = Fraction(i, 7) * Fraction(3, i + 2) - Fraction(1, i)
        acc += x
        seen[str(x)] = (x.numerator, x.denominator, float(x))
    sorted(seen.items())
    return perf_counter() - t0


def calibrate_for(seconds):
    """Calibration chunks for at least ``seconds``, and one at least; their
    summed time and their number."""
    total, chunks = 0.0, 0
    while chunks == 0 or total < seconds:
        total += calibration_chunk()
        chunks += 1
    return total, chunks


def run_jobs(cli, stream, after, count, tracer=None):
    """Run ``count`` jobs; ``after(index, job, rc, out)`` runs after each,
    outside its timed interval.  Returns the job times in seconds."""
    times = []
    for index, job in enumerate(stream):
        if tracer is not None:
            tracer.begin_job(index)
        t0 = perf_counter()
        rc, out = _call(cli, job.argv)
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_job()
        times.append(t1 - t0)
        after(index, job, rc, out)
        if len(times) >= count:
            break
    return times


def run_timed(cli, stream, after, seconds, block):
    """Run whole blocks of ``block`` jobs, at least MIN_TIMED_JOBS jobs, and
    start another block only while one more of the last block's length fits
    in ``seconds``.  After each job, outside its timed interval, calibration
    chunks run for CALIBRATION_SHARE of its time and ``after(index, job, rc,
    out)`` checks it.  Returns the job times in seconds and, per job, the
    summed time and number of the chunks after it."""
    times, calibration = [], []
    jobs = iter(stream)
    start = perf_counter()
    last_block = 0.0
    while (len(times) < MIN_TIMED_JOBS
           or perf_counter() - start + last_block <= seconds):
        block_start = perf_counter()
        for job in itertools.islice(jobs, block):
            t0 = perf_counter()
            rc, out = _call(cli, job.argv)
            elapsed = perf_counter() - t0
            times.append(elapsed)
            calibration.append(calibrate_for(CALIBRATION_SHARE * elapsed))
            after(len(times) - 1, job, rc, out)
        last_block = perf_counter() - block_start
    return times, calibration


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = _parse_args(argv)
    import corpus

    cli = _import_qwirt(args.root)
    for warm in corpus.WARMUP[args.workload]:
        rc, out = _call(cli, warm)
        if rc not in (0, 1):
            raise RuntimeError("warm-up job %r ended with %r: %s" % (warm, rc, out))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    def stream():
        return corpus.jobs(args.workload, args.seed)

    judge = Judge()
    report = {}
    if args.trace_jobs:
        from tracing import Tracer

        plain, traced = [], []
        untraced_times = run_jobs(
            cli, stream(), lambda i, job, rc, out: plain.append((rc, out)),
            args.trace_jobs)
        tracer = Tracer()
        tracer.install()
        try:
            times = run_jobs(
                cli, stream(), lambda i, job, rc, out: traced.append((job, rc, out)),
                args.trace_jobs, tracer=tracer)
        finally:
            tracer.uninstall()
        for index, ((job, rc, out), untraced) in enumerate(zip(traced, plain)):
            judge(index, job, rc, out)
            # Tracing must not change what the program prints.
            if (rc, out) != untraced:
                judge.failures.append((index, "traced output differs from untraced"))
        report["layers"] = tracer.layer_metrics()
        report["spans"] = tracer.span_table()
        report["untraced_s"] = sum(untraced_times)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        times, report["calibration"] = run_timed(
            cli, stream(), judge, args.seconds, args.block)
        report["peak_rss_mb"] = _peak_rss_mb()

    report.update({"job_s": times, "failures": judge.failures,
                   "tol_used_max": judge.tol_used})
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
