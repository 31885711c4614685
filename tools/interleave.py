"""Interleaved A/B timing of qwirt trees on one benchmark job stream.

    python3 tools/interleave.py PARENT CHANGE [MORE ...] \\
        --workload fd-suites --seed 31 --jobs 200 --passes 3

Each tree is a checkout with ``src/qwirt``.  Its package is copied to a
temporary directory under a name of its own (``qwirt_tree0``, ...) and
imported, so every tree lives in this one interpreter.  The job stream is
``perfbench/corpus.py`` of the checkout that holds this script, so every
tree gets the same argv lists.  After each tree has run the workload's
warm-up jobs, every job runs once on each tree, the trees in a shuffled
order per job, for ``--passes`` passes.  Interleaving job by job puts a
change in the host's speed on every tree alike, which a pair of separate
``perfbench/run.py`` runs cannot do, so small moves can be attributed.

Printed: per tree, its summed job time, its ratio to the first tree's, and
a SHA-256 over the exit codes and stdout of its jobs.  The exit code is 1 if
any job's exit code or stdout differs between trees or between passes,
naming the first jobs that differ, else 0.  Standard library only.
"""

import argparse
import hashlib
import importlib
import io
import itertools
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Differing jobs named before the script stops listing them.
MAX_REPORTED = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs="+", type=Path,
                        help="two or more checkouts, each with src/qwirt")
    parser.add_argument("--workload", default="fd-suites")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=200)
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    if len(args.trees) < 2:
        parser.error("give at least two trees")
    if args.jobs < 1 or args.passes < 1:
        parser.error("--jobs and --passes must be >= 1")
    return args


def load_trees(trees, where):
    """The ``cli`` module of each tree, imported from a copy of its
    ``src/qwirt`` under ``where`` as the package ``qwirt_tree<index>``."""
    sys.path.insert(0, str(where))
    clis = []
    for index, tree in enumerate(trees):
        name = "qwirt_tree%d" % index
        shutil.copytree(Path(tree) / "src" / "qwirt", Path(where) / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        clis.append(importlib.import_module(name + ".cli"))
    return clis


def call(cli, argv):
    """One CLI call: its exit code, or a string naming how it ended, and
    its stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = "SystemExit(%r)" % (exc.code,)
        except Exception as exc:  # a crash is an outcome to compare
            rc = "raised %s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue()


def interleave(clis, jobs, passes, seed):
    """Run every job on every tree, in a tree order per job shuffled from
    ``seed``, for ``passes`` passes.  Returns the summed job time per tree,
    the outcome ``(rc, stdout)`` per tree and job from the first pass, and
    the ``(pass, job index)`` of each job whose outcome differs between
    trees or from the first pass."""
    order = random.Random(seed)
    seconds = [0.0] * len(clis)
    outcomes = [[] for _ in clis]
    differing = []
    trees = list(range(len(clis)))
    for done in range(passes):
        for index, job in enumerate(jobs):
            order.shuffle(trees)
            got = [None] * len(clis)
            for tree in trees:
                t0 = perf_counter()
                got[tree] = call(clis[tree], job.argv)
                seconds[tree] += perf_counter() - t0
            if done == 0:
                for tree, outcome in enumerate(got):
                    outcomes[tree].append(outcome)
            first = outcomes[0][index]
            if any(outcome != first for outcome in got):
                differing.append((done, index))
    return seconds, outcomes, differing


def digest(outcomes):
    """A SHA-256 over a tree's exit codes and stdout, job by job."""
    sha = hashlib.sha256()
    for rc, out in outcomes:
        sha.update(repr((rc, out)).encode())
    return sha.hexdigest()


def main(argv=None):
    args = _parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import corpus

    jobs = list(itertools.islice(corpus.jobs(args.workload, args.seed),
                                 args.jobs))
    with tempfile.TemporaryDirectory(prefix="qwirt-interleave-") as where:
        clis = load_trees(args.trees, where)
        for cli in clis:
            for warm in corpus.WARMUP[args.workload]:
                call(cli, warm)
        seconds, outcomes, differing = interleave(clis, jobs, args.passes,
                                                  args.seed)
    print("%s seed %d: %d jobs x %d passes" % (args.workload, args.seed,
                                              len(jobs), args.passes))
    for tree, total in enumerate(seconds):
        print("tree %d %s: %.3f s, ratio %.4f, outputs %s"
              % (tree, args.trees[tree], total, total / seconds[0],
                 digest(outcomes[tree])))
    for done, index in differing[:MAX_REPORTED]:
        print("differs: pass %d job %d: %s"
              % (done, index, " ".join(jobs[index].argv)))
    if differing:
        print("%d job run(s) differ" % len(differing))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
