"""Tests of the benchmark itself: seeded corpora, the output checker and the
determinism of the traced run's counters.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import corpus

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402  (needs src/ on the path)


def _argvs(workload, seed, count):
    return [job.argv for job in itertools.islice(corpus.jobs(workload, seed), count)]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert _argvs(workload, 7, 60) == _argvs(workload, 7, 60)
    assert _argvs(workload, 7, 60) != _argvs(workload, 8, 60)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_negative_points_are_attached_with_equals(workload):
    for argv in _argvs(workload, 3, 200):
        for flag, value in zip(argv, argv[1:]):
            if flag == "--at":
                assert not value.startswith("-")


def _job(kind, argv, expr, n, **params):
    return corpus.Job(kind, tuple(argv), expr, n, params)


def test_checker_rejects_wrong_outputs():
    regular = _job("check-regular", [], "~x1*x2", 2)
    with pytest.raises(check.CheckFailure):
        check.check(regular, 0, json.dumps({"verdict": "regular"}))
    evaluation = _job("eval", [], "x1*x2", 2, at="i;j")
    with pytest.raises(check.CheckFailure):
        check.check(evaluation, 0, json.dumps({"value": "-k"}))
    assert check.check(evaluation, 0, json.dumps({"value": "k"})) is None
    theta = _job("theta", [], "x1*x2", 2, m=2)
    with pytest.raises(check.CheckFailure):
        check.check(theta, 0, json.dumps({"result": "x2"}))
    numeric = _job("theta-1", [], "x1^2", 1, at="1+i", m=1)
    with pytest.raises(check.CheckFailure):
        check.check(numeric, 0, json.dumps({"value": "2.5+2.0000001i"}))


def test_float_quaternion_reader():
    assert check.parse_float_quaternion("-1.5e-07+i-2.25j+3k") == \
        (-1.5e-07, 1.0, -2.25, 3.0)
    assert check.parse_float_quaternion("0") == (0.0, 0.0, 0.0, 0.0)


def test_job_times_scale_to_reference_speed():
    import run

    ref = run.REFERENCE_CHUNK_S
    # Chunks ran at half the reference speed after the first two jobs and at
    # it after the last two; the third job sits between the two speeds.
    calibration = [(4 * ref, 2), (2 * ref, 1), (ref, 1), (3 * ref, 3)]
    times = run.reference_times([1.0, 2.0, 3.0, 4.0], calibration)
    assert times == [0.5, 1.0, 3.0 * 2 / 3, 4.0]
    assert run.job_metrics(times)["jobs_per_s"] == 4 / 7.5


def _traced_counts(workload, jobs):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--root",
         str(ROOT), "--workload", workload, "--seed", "5", "--trace-jobs",
         str(jobs)],
        capture_output=True, text=True, check=True, timeout=600)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["failures"] == []
    return report["layers"]


@pytest.mark.parametrize("workload,jobs", [("fd-suites", 4),
                                           ("exact-algebra", 6),
                                           ("point-queries", 40)])
def test_traced_counts_repeat(workload, jobs):
    first = _traced_counts(workload, jobs)
    second = _traced_counts(workload, jobs)
    names = [name for name in first
             if name.startswith(("quaternion.", "numeric.base_eval."))
             or name in ("stem.elem_mul.calls", "sampling.points")]
    assert len(names) == 8 and first["quaternion.new"] > 0
    assert {name: first[name] for name in names} == \
        {name: second[name] for name in names}
