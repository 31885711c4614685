"""The qwirt benchmark: seeded streams of in-process CLI jobs.

    python3 perfbench/run.py --workload fd-suites --seed 1 --seconds 35 --trace 0

Workloads (see corpus.py for why each exists): ``fd-suites``,
``exact-algebra`` and ``point-queries``.  One client, closed loop, no
threads: each job is a ``qwirt.cli.main(argv)`` call made after the previous
one returned, in a worker process with a fresh interpreter that imports
qwirt from ``src/`` of this checkout.

``--trace 0`` measures the end-to-end metrics over about ``--seconds`` of jobs,
run in whole schedule cycles so that every run holds the same mix of jobs:
``jobs_per_s`` (jobs over their summed time; checking the outputs is not
timed), the median and 90th percentile of job time, ``setup_s`` (median over
fresh interpreters, started before and after the timed jobs, of start-up,
import of qwirt and qwirt.cli and the workload's fixed warm-up jobs) and
``peak_rss_mb`` of the measuring process.

Job times are in reference seconds.  The shared host this was built on
switches between speed regimes up to 2x apart within minutes, so each job's
time is scaled by how fast fixed stdlib work ran beside it: by
REFERENCE_CHUNK_S over the mean time of the calibration chunks run just
before and just after the job.  A change to qwirt moves the job times and
leaves that work alone, so it moves jobs_per_s, job_s.p50 and job_s.p90 in
full.  Their wall-clock values are printed and kept in the run's metadata
beside them.  ``setup_s`` is wall-clock: set-up is mostly interpreter
start-up and imports, and its time did not follow the calibration chunks
(in ten exact-algebra runs whose median chunk times varied 1.8x, the
quartiles of the median set-up time lay 6% apart).

``--trace 1`` runs a fixed number of jobs untraced and then the same jobs
with every layer wrapped from outside (tracing.py) and reports the per-layer
metrics, including the tracing overhead; they are not corrected.

Every job's output is checked (check.py).  Failed jobs are counted, never
dropped.  The last line of stdout is the JSON result; a summary of every
metric with its unit, and the run's metadata (interpreter, nproc, commit,
seed, calibration-loop timings), are printed before it and written with the
spans to ``.bench_build/perfbench/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import corpus

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# Fresh interpreters timed for setup_s: set-up probes before and after the
# measuring worker, so that the samples span the run.
SETUP_PROBES_EACH_SIDE = 5
# Jobs per schedule cycle: a run holds whole cycles, so that it holds the
# same mix of jobs whatever its length.
CYCLE_JOBS = {"fd-suites": len(corpus.FD_SCHEDULE),
              "exact-algebra": len(corpus.EXACT_SCHEDULE),
              "point-queries": len(corpus.POINT_SCHEDULE)}
# The time of one calibration chunk (worker.calibration_chunk) that defines
# a reference second.  It is fixed for good: changing it, or the chunk,
# rescales every timing against earlier runs.
REFERENCE_CHUNK_S = 300e-6
# Jobs in a traced run: sized so the traced pass stays well inside a minute.
TRACE_JOBS = {"fd-suites": 2 * len(corpus.FD_SCHEDULE),
              "exact-algebra": 3 * len(corpus.EXACT_SCHEDULE),
              "point-queries": 500 * len(corpus.POINT_SCHEDULE)}
# A worker that is not ready within READY_TIMEOUT_S, or has not finished
# WORKER_GRACE_S after its loop should have ended, is killed and the run
# fails, so that a run ends within three minutes.
READY_TIMEOUT_S = 30
WORKER_GRACE_S = 120
CALIBRATION_ITERATIONS = 300_000


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def calibrate():
    """Milliseconds for a fixed stdlib loop; recorded beside the metrics so
    machine drift can be told from a program change."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + i * i) % 1000003
    return (perf_counter() - t0) * 1000.0


def commit_id():
    """The checked-out commit when this is a git work tree with a loose ref,
    else None (``src_sha256`` identifies the program either way)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def source_digest():
    """SHA-256 over the paths and bytes of src/, identifying the program
    where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@contextlib.contextmanager
def worker(args, extra):
    """A worker process, killed and reaped on the way out whatever happens."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def wait_ready(proc):
    """Block until the worker prints ``ready``."""
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    if line.strip() != "ready":
        raise RuntimeError("worker did not get ready")


def finish_worker(proc, timeout):
    """Wait for the worker to exit; its last stdout line, or None."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %s" % proc.returncode)
    lines = out.strip().splitlines()
    return lines[-1] if lines else None


def worker_result(proc, timeout):
    line = finish_worker(proc, timeout)
    if line is None:
        raise RuntimeError("worker printed no result")
    return json.loads(line)


def probe_setup(args):
    """Seconds until a fresh set-up-only worker is ready."""
    t0 = perf_counter()
    with worker(args, ["--setup-only"]) as proc:
        wait_ready(proc)
        elapsed = perf_counter() - t0
        finish_worker(proc, WORKER_GRACE_S)
    return elapsed


def reference_times(times, calibration):
    """Job times in reference seconds: each scaled by REFERENCE_CHUNK_S over
    the mean time of the calibration chunks run just before it (after the
    previous job) and just after it."""
    scaled = []
    for index, elapsed in enumerate(times):
        near = calibration[max(0, index - 1):index + 1]
        chunk_s = sum(total for total, _ in near) / sum(count for _, count in near)
        scaled.append(elapsed * REFERENCE_CHUNK_S / chunk_s)
    return scaled


def job_metrics(times):
    """jobs_per_s, job_s.p50 and job_s.p90 of a run's job times."""
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8],
    }


def measure(args):
    """End-to-end metrics of one untraced run."""
    setup = [probe_setup(args) for _ in range(SETUP_PROBES_EACH_SIDE)]
    with worker(args, ["--seconds", str(args.seconds),
                       "--block", str(CYCLE_JOBS[args.workload])]) as proc:
        wait_ready(proc)
        raw = worker_result(proc, args.seconds + WORKER_GRACE_S)
    setup += [probe_setup(args) for _ in range(SETUP_PROBES_EACH_SIDE)]
    times = reference_times(raw["job_s"], raw["calibration"])
    metrics = job_metrics(times)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    chunk_s = [total / count for total, count in raw["calibration"]]
    extra = {"wall_clock": job_metrics(raw["job_s"]),
             "setup_samples_s": setup,
             "reference_chunk_s": REFERENCE_CHUNK_S,
             "chunk_s": {"min": min(chunk_s), "median": statistics.median(chunk_s),
                         "max": max(chunk_s)},
             "job_samples": len(times),
             "jobs_beyond_p90": sum(1 for t in times if t > metrics["job_s.p90"])}
    return raw, metrics, extra


def trace(args, spans_path):
    """Per-layer metrics of one traced run."""
    with worker(args, ["--trace-jobs", str(TRACE_JOBS[args.workload]),
                       "--spans", str(spans_path)]) as proc:
        wait_ready(proc)
        raw = worker_result(proc, WORKER_GRACE_S)
    metrics = dict(raw["layers"])
    traced_s = sum(raw["job_s"])
    metrics["trace.overhead"] = traced_s / raw["untraced_s"]
    metrics["trace.jobs"] = len(raw["job_s"])
    metrics["tol_used.max"] = raw["tol_used_max"]
    extra = {"spans_file": str(spans_path.relative_to(ROOT)),
             "span_seconds": raw["spans"], "untraced_s": raw["untraced_s"],
             "traced_s": traced_s}
    return raw, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the worker's context manager kills it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "qwirt" / "cli.py").is_file():
        print("perfbench: no qwirt sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    units = declared_units(args.trace)
    calibration_start = calibrate()
    try:
        if args.trace:
            raw, metrics, extra = trace(args, OUT_DIR / (stem + ".spans.jsonl"))
        else:
            raw, metrics, extra = measure(args)
    except RuntimeError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    calibration_end = calibrate()
    if set(metrics) != set(units):
        print("perfbench: metrics %s do not match BENCHMARK.json"
              % sorted(set(metrics) ^ set(units)), file=sys.stderr)
        return 1

    attempted = len(raw["job_s"])
    failed = len({index for index, _ in raw["failures"]})
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "commit": commit_id(),
        "src_sha256": source_digest(),
        "calibration_ms": {"iterations": CALIBRATION_ITERATIONS,
                           "start": calibration_start, "end": calibration_end},
        "fail_frac": failed / attempted, "tol_used_max": raw["tol_used_max"],
        "failures": [message for _, message in raw["failures"][:10]],
    }
    meta.update(extra)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (OUT_DIR / (stem + ".json")).write_text(
        json.dumps({"meta": meta, "result": result}, indent=2) + "\n")

    for name, seconds in extra.get("span_seconds", {}).items():
        print("span %-35s self %10.6f s  inclusive %10.6f s"
              % (name, seconds["self_s"], seconds["inclusive_s"]))
    for name, value in metrics.items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    for name, value in extra.get("wall_clock", {}).items():
        print("%-40s %14.6g %s (wall clock)" % (name, value, units[name]))
    print("%-40s %14.6g %s" % ("fail_frac", meta["fail_frac"], "ratio"))
    for message in meta["failures"]:
        print("FAILED %s" % message)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
