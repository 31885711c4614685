"""``tools/interleave.py`` times trees job by job on one benchmark stream
and fails when their outputs differ."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "interleave.py"


def _interleave(*trees):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, trees), "--workload",
         "fd-suites", "--seed", "1", "--jobs", "5"],
        capture_output=True, text=True, timeout=300)


def test_the_repository_against_itself_matches():
    result = _interleave(ROOT, ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    head, *trees = result.stdout.splitlines()
    assert head == "fd-suites seed 1: 5 jobs x 1 passes"
    assert [line.split(":")[0] for line in trees] \
        == ["tree 0 %s" % ROOT, "tree 1 %s" % ROOT]
    assert "ratio 1.0000" in trees[0]
    # one digest of exit codes and stdout for both
    assert len({line.rsplit(" ", 1)[1] for line in trees}) == 1


def test_a_tree_whose_outputs_differ_fails(tmp_path):
    shutil.copytree(ROOT / "src" / "qwirt", tmp_path / "src" / "qwirt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    numeric = tmp_path / "src" / "qwirt" / "numeric.py"
    text = numeric.read_text()
    assert text.count("DEFAULT_STEP = 1e-3\n") == 1
    numeric.write_text(text.replace("DEFAULT_STEP = 1e-3\n",
                                    "DEFAULT_STEP = 2e-3\n"))
    result = _interleave(ROOT, tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[3].startswith("differs: pass 0 job 0: check-regular ")
    assert lines[-1] == "5 job run(s) differ"
