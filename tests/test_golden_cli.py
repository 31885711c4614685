"""Byte-for-byte golden outputs of fixed CLI runs.

Every subcommand and both realizations are covered; the recorded stdout
and exit code of each run live in ``golden_cli.json`` next to this file.
A refactor or optimization of the numeric or symbolic layers must leave
them unchanged.  To re-record after an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import contextlib
import io
import json
import os
import sys
import warnings

import pytest

from qwirt.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_cli.json")

RUNS = (
    ("eval", "x1*x2+~x1*(1/2-j)", "--at", "1+i;2j-1/3k"),
    ("theta", "--m", "2", "x1^2*x2+~x1*x2*(2i)"),
    ("thetabar", "--m", "1", "~x1^2*x2+x1*(1/2k)"),
    ("theta", "--numeric", "--m", "2", "x1*~x2+x2^2*(1/2i)",
     "--at", "1/2+i-1/3j;-1/4+1/2j+k"),
    ("thetabar", "--numeric", "--m", "3", "x1*x2*~x3+~x1*(1/2j)",
     "--at", "1/3+i;-1/2+2/3j+1/2k;1/5+1/2i-k"),
    ("thetabar", "--numeric", "--m", "1", "x1^2", "--at", "1+1/20i"),
    ("spherical", "--var", "1", "--kind", "derivative", "x1^2*x2+~x1*(i)"),
    ("almansi", "--flavor", "sp", "--level", "2", "x1*~x2+x1^2*(1/2j)"),
    ("almansi", "--flavor", "a", "--level", "2", "x1*x2+x2^2*(1/3k)",
     "--samples", "3", "--seed", "3"),
    ("almansi", "--flavor", "gamma", "--level", "2", "x1*~x2+~x1^2*x2",
     "--samples", "3", "--seed", "4"),
    ("check-regular", "~x1*x2+x1"),
    ("check-regular", "--numeric", "x1*x2+x2^2*(1/2i)", "--samples", "3",
     "--seed", "5"),
    ("check-regular", "--numeric", "~x1*x2", "--samples", "2", "--seed", "6"),
    ("check-slice", "x1^2*x2+~x1*x2^2", "--samples", "1", "--seed", "7"),
    ("check-slice", "x1*~x2", "--samples", "1", "--seed", "8",
     "--format", "csv"),
    ("crosscheck", "--m", "2", "x1*~x2+x1^2*x2*(1/2j)", "--samples", "3",
     "--seed", "2"),
    ("crosscheck", "x1*x2^2", "--samples", "2", "--seed", "9",
     "--format", "csv"),
    ("eval", "x1^2*~x2+~x1*x2*(1/3i)", "--at", "1/2;-2"),
    ("eval", "x1*~x2*x3+x2^2*x3*(1/2k)", "--at",
     "1+i;-1/3+1/2j-k;1/5+1/2i+2/3k"),
    ("theta", "--numeric", "--m", "1", "x1^2*x2+~x1*(1/2i)",
     "--at", "1/3+1/2j;1-1/4i+k"),
    ("check-slice", "x1*~x2*x3+x3^2*(1/2i)", "--samples", "1", "--seed", "10"),
    ("almansi", "--flavor", "gamma", "--level", "3", "x1*x2*~x3+x2^2",
     "--samples", "2", "--seed", "11"),
    ("eval", "x1^40", "--at", "i"),
    ("theta", "--m", "3", "--n", "3",
     "(~x1*(1/3+2/5i-7/11k)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i+2/3j))^3"),
    ("thetabar", "--m", "2", "--n", "3",
     "(~x1*(1/3+2/5i-7/11k)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i+2/3j))^3"),
    # powers: the value sums the fourth power's terms in the float kernel,
    # so it pins their order
    ("eval", "--n", "3", "--at", "1/2+i;-1/3+1/2j-k;1/5+1/2i+2/3k",
     "(~x1*(1/3+2/5i)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i))^4"),
    ("theta", "--m", "1", "--n", "3",
     "(~x1*(1/3+2/5i)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i))^4"),
    # the theta above cancels to 0 (the power holds ~x1, not x1); this one
    # does not
    ("thetabar", "--m", "1", "--n", "3",
     "(~x1*(1/3+2/5i)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i))^4"),
    ("eval", "(x1*(1/2-i)+~x2*(2/3k))^0", "--at", "1+i;-1/2+j"),
    ("eval", "(x1*(1/2-i)+~x2*(2/3k))^1", "--at", "1+i;-1/2+j"),
    # powers by square and multiply: ^2 is one square, ^5 multiplies f by
    # f^4, ^6 multiplies f^2 by f^4
    ("eval", "--n", "3", "--at", "1/3-1/2i;1/2+j-1/4k;-1+1/3i+1/2j",
     "(x1*(1/2-1/3j)+x2*~x3*(2/5+i)+~x1*(3/4k))^2"),
    ("theta", "--m", "2", "--n", "3",
     "(x1*(1/2-1/3j)+x2*~x3*(2/5+i)+~x1*(3/4k))^2"),
    ("eval", "--n", "3", "--at", "1/3-1/2i;1/2+j-1/4k;-1+1/3i+1/2j",
     "(x1*(1/2-1/3j)+x2*~x3*(2/5+i)+~x1*(3/4k))^5"),
    ("theta", "--m", "2", "--n", "3",
     "(x1*(1/2-1/3j)+x2*~x3*(2/5+i)+~x1*(3/4k))^5"),
    ("eval", "--n", "3", "--at", "1/3-1/2i;1/2+j-1/4k;-1+1/3i+1/2j",
     "(x1*(1/2-1/3j)+x2*~x3*(2/5+i)+~x1*(3/4k))^6"),
    ("theta", "--m", "2", "--n", "3",
     "(x1*(1/2-1/3j)+x2*~x3*(2/5+i)+~x1*(3/4k))^6"),
    # the symbolic reconstruction multiplies the negated conjugate
    # coordinates of each entry's complement
    ("almansi", "--flavor", "sp", "--level", "2", "--n", "3",
     "(x1*(1/2-1/3j)+x2*~x3*(2/5+i)+~x1*(3/4k))^3"),
    ("spherical", "--var", "2", "--kind", "value", "x1*~x2+x2^2*(1/2i)"),
    # key/value CSV of reports without records
    ("eval", "x1*~x2", "--at", "1+i;j", "--format", "csv"),
    ("almansi", "--flavor", "sp", "--level", "1", "x1*~x2", "--format", "csv"),
    ("check-regular", "x1^2*x2", "--format", "csv"),
    # errors, in the order the CLI meets them: expression syntax, lowering
    # and arity, point literals, point count
    ("theta", "--numeric", "--m", "1", "x1*x2"),
    ("eval", "x1*x2", "--at", "i"),
    ("eval", "--n", "2", "x1*x2", "--at", "i;j;q"),
    ("eval", "x1*", "--at", "q"),
    ("eval", "--n", "1", "x2", "--at", "i;j"),
    # n inferred from the point
    ("eval", "x1", "--at", "i;j"),
    # n = 1 crosschecks m = 1 only
    ("crosscheck", "x1^2", "--samples", "1", "--seed", "3"),
    # the largest report shape: eight entries of a fourth power's stems
    ("almansi", "--flavor", "sp", "--level", "3", "--n", "3",
     "(~x1*(1/3+2/5i)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i))^4"),
    # ^8 squares three times and multiplies nothing else
    ("theta", "--m", "1", "--n", "3",
     "(x1*(1/2-1/3j)+x2*~x3*(2/5+i)+~x1*(3/4k))^8"),
    # Fueter entries at level 3: three nested negated Fueter derivatives
    ("almansi", "--flavor", "a", "--level", "3", "--n", "3",
     "x1*x2*x3+x2^2*x3*(1/3k)", "--samples", "2", "--seed", "12"),
    # products by a coordinate whose terms collide and cancel: x_m * g in
    # the spherical recursion meets the conjugates of x_m in g
    ("almansi", "--flavor", "sp", "--level", "3", "--n", "3",
     "x1*~x1*x2+~x1^2*x3*(1/2j)+x2*~x2*~x3*(1/3k)"),
    ("almansi", "--flavor", "sp", "--level", "4", "--n", "4",
     "x1*~x2*x3+~x1*x4^2*(1/2i)+x2*~x3*~x4*(1/3+j)+x4*(2k)"),
    # coordinate factors on the left and on the right of a stem of several
    # terms: the value sums the product's terms in the float kernel, so it
    # pins their order
    ("eval", "--at", "1/2+i;-1/3+1/2j-k;1/5+1/2i+2/3k",
     "~x3*(x1*~x2*(1+i)+~x1*x2*x3*(j))*~x2*x3"),
    # slice partials whose alpha and beta sums all cancel: the power of a
    # polynomial in x_m alone is slice-regular
    ("thetabar", "--m", "2", "--n", "3", "(x1*(1/2i)+x2*x3*(1/3+j)+x3*(k))^4"),
    ("check-regular", "--n", "3", "(x1*(1/2i)+x2*x3*(1/3+j)+x3*(k))^3"),
    # a sum of unequal denominators holding every token kind; the leading
    # minus stays inside parentheses, where no option parser reads it
    ("theta", "--m", "3", "--n", "3",
     "x2*(1/3)+(-x1*(1/2))-conj(x1)*x3*(0.25j)+x3*(1/6i)"),
    ("spherical", "--var", "3", "--kind", "derivative", "--n", "3",
     "(~x1*(1/3+2/5i)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i))^4"),
    # a syntax error after every token kind pins the error offset
    ("theta", "--m", "1", "--n", "3", "x1*conj(x2)+1.5i-(x3^2*"),
    # sibling entries (D g, D(x_m g)) nested four deep: every entry of the
    # last level is a derivative of a product by a coordinate
    ("almansi", "--flavor", "gamma", "--level", "4", "--n", "4",
     "x1*~x2*x3*x4+x2^2*~x4*(1/2i)+~x1*x3*(1/3+j)", "--samples", "1",
     "--seed", "13"),
    # Fueter siblings at a non-default step, on a function that is not
    # slice-regular, so the reconstruction residual is large
    ("almansi", "--flavor", "a", "--level", "2", "--n", "2", "--fd-step",
     "1e-2", "~x1*x2", "--samples", "2", "--seed", "14"),
    # the tangential derivatives of every Dirac entry, at a non-default step
    # and band
    ("check-slice", "--n", "3", "--fd-step", "2e-3", "--fd-delta", "0.2",
     "x1*~x2*x3+~x1*x3^2*(1/2j)", "--samples", "1", "--seed", "15"),
)


def run_cli(argv):
    """Exit code and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(list(argv))
    return code, out.getvalue()


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return {tuple(rec["argv"]): rec for rec in json.load(handle)}


@pytest.mark.parametrize("argv", RUNS, ids=["%02d-%s" % (index, argv[0])
                                           for index, argv in enumerate(RUNS)])
def test_golden_cli(argv):
    golden = load_golden().get(tuple(argv))
    assert golden is not None, "run not recorded; re-record with --record"
    code, stdout = run_cli(argv)
    assert code == golden["exit"]
    assert stdout == golden["stdout"]


def test_golden_records_are_the_runs_in_order():
    with open(GOLDEN_PATH) as handle:
        recorded = [tuple(rec["argv"]) for rec in json.load(handle)]
    assert recorded == list(RUNS)


def record():
    records = []
    for argv in RUNS:
        code, stdout = run_cli(argv)
        records.append({"argv": list(argv), "exit": code, "stdout": stdout})
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(records, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_cli.py --record")
    record()
