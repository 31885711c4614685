import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qwirt
from qwirt import cli
from qwirt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_eval(capsys):
    code, report = run_json(capsys, "eval", "x1*x2", "--at", "i;j")
    assert code == 0
    assert report["value"] == "k"


def test_eval_rational_point(capsys):
    code, report = run_json(capsys, "eval", "x1^2", "--at", "3")
    assert code == 0
    assert report["value"] == "9"


def test_theta_worked_example(capsys):
    code, report = run_json(capsys, "theta", "--m", "2", "x1*x2")
    assert code == 0
    assert report["result"] == "x1"


def test_thetabar_power_rule(capsys):
    code, report = run_json(capsys, "thetabar", "--m", "1", "~x1^2")
    assert code == 0
    assert report["result"] == "~x1*(2)"


def test_theta_numeric(capsys):
    code, report = run_json(capsys, "theta", "--m", "1", "x1^2",
                            "--numeric", "--at", "1+2i")
    assert code == 0
    assert report["realization"] == "numeric"


def test_spherical(capsys):
    code, report = run_json(capsys, "spherical", "--var", "1",
                            "--kind", "derivative", "x1^2")
    assert code == 0
    assert report["result"] == "~x1 + x1"


def test_check_regular_pass(capsys):
    code, report = run_json(capsys, "check-regular", "x1^2*x2")
    assert code == 0
    assert report["verdict"] == "regular"


def test_check_regular_fail_names_operator(capsys):
    code, report = run_json(capsys, "check-regular", "~x1")
    assert code == 1
    assert report["failures"] == ["thetabar_1"]


def test_check_regular_numeric(capsys):
    code, report = run_json(capsys, "check-regular", "x1*x2", "--numeric",
                            "--samples", "3", "--seed", "5")
    assert code == 0
    assert report["verdict"] == "regular"
    assert report["samples"] == 3


def test_almansi_spherical(capsys):
    code, report = run_json(capsys, "almansi", "--flavor", "sp",
                            "--level", "1", "x1")
    assert code == 0
    assert report["reconstruction_residuals"]["symbolic_exact"] is True
    assert set(report["entries"]) == {"0", "1"}
    assert report["entries"]["0"]["terms"]


def test_almansi_gamma(capsys):
    code, report = run_json(capsys, "almansi", "--flavor", "gamma",
                            "--level", "1", "x1*x2", "--samples", "4",
                            "--seed", "3")
    assert code == 0
    assert report["entries"]["1"] == "numeric"
    assert report["reconstruction_residuals"]["max_residual"] < 1e-4


def test_check_slice(capsys):
    code, report = run_json(capsys, "check-slice", "x1+x2^2",
                            "--samples", "2", "--seed", "1")
    assert code == 0
    assert report["verdict"] is True


def test_crosscheck(capsys):
    code, report = run_json(capsys, "crosscheck", "x1*x2",
                            "--samples", "3", "--seed", "2")
    assert code == 0
    assert report["verdict"] is True


def test_csv_format(capsys):
    code, out = run(capsys, "check-slice", "x1", "--samples", "2",
                    "--seed", "1", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert "residual" in header and "mask" in header


def test_syntax_error_exit_code(capsys):
    code, report = run_json(capsys, "eval", "x1*", "--at", "i")
    assert code == 2
    assert report["error"]["type"] == "syntax"
    assert report["error"]["offset"] == 3


def test_arity_error_exit_code(capsys):
    code, report = run_json(capsys, "theta", "--m", "1", "x3", "--n", "2")
    assert code == 2
    assert report["error"]["type"] == "arity"


def test_point_arity_mismatch(capsys):
    code, report = run_json(capsys, "eval", "x1*x2", "--at", "i")
    assert code == 2
    assert report["error"]["type"] == "value"


def test_a_zero_denominator_in_an_expression_is_a_syntax_error(capsys):
    # Fraction raised before an offset was attached, and the report read
    # {"type": "division-by-zero", "message": "Fraction(3, 0)"}
    code, report = run_json(capsys, "eval", "x1*(3/0)", "--at", "i")
    assert code == 2
    assert report["error"] == {
        "type": "syntax", "offset": 4,
        "message": "number '3/0' has a zero denominator (offset 4)"}


@pytest.mark.parametrize("literal, offset", [("3/0", 0), ("1-2/00k", 2)])
def test_a_zero_denominator_in_a_point_is_a_value_error(capsys, literal,
                                                        offset):
    # named with its offset, as every other malformed point literal is
    code, report = run_json(capsys, "eval", "x1", "--at=" + literal)
    assert code == 2
    assert report["error"] == {
        "type": "value",
        "message": "number %r at offset %d of quaternion literal %r has a "
                   "zero denominator" % (literal[offset:].rstrip("k"), offset,
                                         literal)}


def test_long_expressions_report_instead_of_overflowing_the_stack(capsys):
    code, report = run_json(capsys, "eval", "+".join(["x1"] * 5000),
                            "--at", "1+i")
    assert (code, report) == (0, {"value": "5000+5000i"})
    code, report = run_json(capsys, "eval", "*".join(["x1"] * 2000),
                            "--at", "i")
    assert code == 2
    assert report["error"] == {"type": "value",
                               "message": "degree cap 32 exceeded in variable 1"}
    code, report = run_json(capsys, "eval", "(" * 1000 + "x1" + ")" * 1000,
                            "--at", "i")
    assert code == 2
    assert report["error"]["type"] == "syntax"
    assert report["error"]["offset"] == 100


def test_seed_determinism(capsys):
    code1, out1 = run(capsys, "crosscheck", "x1*x2", "--samples", "3",
                      "--seed", "42")
    code2, out2 = run(capsys, "crosscheck", "x1*x2", "--samples", "3",
                      "--seed", "42")
    assert (code1, out1) == (code2, out2)


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QWIRT_SEED", "7")
    _, out1 = run(capsys, "check-regular", "x1", "--numeric", "--samples", "2")
    monkeypatch.setenv("QWIRT_SEED", "8")
    _, out2 = run(capsys, "check-regular", "x1", "--numeric", "--samples", "2")
    assert json.loads(out1)["seed"] == 7
    assert json.loads(out2)["seed"] == 8


def test_malformed_env_seed_names_itself(capsys, monkeypatch):
    monkeypatch.setenv("QWIRT_SEED", "abc")
    code, report = run_json(capsys, "check-slice", "x1", "--samples", "1")
    assert code == 2
    assert report["error"]["type"] == "value"
    assert "QWIRT_SEED" in report["error"]["message"]
    assert "'abc'" in report["error"]["message"]


def test_numeric_almansi_level_over_the_cap_exits_2(capsys):
    code, report = run_json(capsys, "almansi", "--flavor", "gamma", "--level",
                            "6", "x1*x2*x3*x4*x5*x6", "--samples", "1")
    assert code == 2
    assert report["error"] == {"type": "value", "message":
                               "numeric reconstruction is capped at level 5"}


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    run(capsys, "eval", "x1*x2", "--at", "i;j")
    run(capsys, "theta", "--m", "1", "x1^2", "--numeric", "--at", "1+2i")
    assert len(built) == 1


def test_build_parser_returns_a_new_parser_each_time():
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    assert first.parse_args(["eval", "x1", "--at", "i"]).at == "i"


def test_usage_error_leaves_the_shared_parser_intact(capsys):
    argv = ["eval", "x1*x2+~x1", "--at", "1+i;j", "--n", "2"]
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "x1", "--at", "i", "--samples", "3"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, *argv)
    assert code == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwirt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    fresh = subprocess.run([sys.executable, "-m", "qwirt.cli"] + argv, env=env,
                           capture_output=True, text=True, check=False)
    assert (code, out) == (fresh.returncode, fresh.stdout)


def test_negative_point_attaches_to_at(capsys):
    code, report = run_json(capsys, "eval", "x1", "--at=-1+i")
    assert code == 0
    assert report["value"] == "-1+i"
    # a separate value starting with '-' reads as a flag: argparse refuses it
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--at", "-1+i", "x1"])
    assert exit_info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# Scalars of every type json.encoder tests for, and a Fraction, which
# default=str writes as its string; text covers non-ASCII and control
# characters, floats cover -0.0, NaN and both infinities.
_JSON_SCALARS = st.one_of(
    st.text(), st.integers(), st.integers(-10**400, 10**400), st.floats(),
    st.just(-0.0), st.booleans(), st.none(),
    st.builds(Fraction, st.integers(), st.integers(1, 10**9)))
_JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(), st.floats(),
                       st.booleans(), st.none())
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_JSON_KEYS, inner, max_size=4)), max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_the_json_writer_matches_json_dumps(value):
    out = []
    cli._write_json(value, out, "\n")
    assert "".join(out) == json.dumps(cli._strict(value), indent=2,
                                      default=str)


def test_the_json_writer_refuses_the_keys_json_refuses():
    with pytest.raises(TypeError, match="keys must be str, int, float, bool "
                                        "or None, not tuple"):
        cli._write_json({(1, 2): 3}, [], "\n")
