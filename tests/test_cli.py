"""End-to-end CLI behaviour: wire formats, exit codes, determinism."""

import inspect
import json
import math
import sys

import pytest

from atrig import cli, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exp(capsys):
    code, out, _ = run_cli(capsys, "--algebra", "H2", "exp", "--z", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["exp"] == pytest.approx([math.cosh(1), math.sinh(1)])


def test_log_matches_spec_example(capsys):
    code, out, _ = run_cli(capsys, "--algebra", "C2", "log", "--z", "-1,0")
    assert code == 0
    assert json.loads(out)["log"] == pytest.approx([0.0, math.pi], abs=1e-12)


def test_polar_forward_oracle(capsys):
    # coordinates of 2 * exp(k) in the hyperbolic plane, from the series
    literal = f"{2 * math.cosh(1)!r},{2 * math.sinh(1)!r}"
    code, out, _ = run_cli(capsys, "--algebra", "H2", "polar", "--z", literal)
    assert code == 0
    data = json.loads(out)
    assert data["rho"] == pytest.approx(2.0)
    assert data["arg"] == pytest.approx([0.0, 1.0])


def test_trig(capsys):
    code, out, _ = run_cli(capsys, "--algebra", "H3", "trig", "--m", "1", "--theta", "0.5")
    assert code == 0
    assert len(json.loads(out)["trig"]) == 3


def test_pyth(capsys):
    code, out, _ = run_cli(capsys, "--algebra", "C2", "pyth", "--z", "3,4")
    assert code == 0
    assert json.loads(out)["pyth"] == pytest.approx(25.0)


def test_arg_with_branch(capsys):
    code, out, _ = run_cli(capsys, "--algebra", "C2", "arg", "--z", "1,1", "--branch", "1")
    assert code == 0
    assert json.loads(out)["arg"] == pytest.approx([0.0, math.pi / 4 + 2 * math.pi])


@pytest.mark.parametrize("index", ["1000000000000000000000000000000", "-9007199254740993"])
def test_branch_index_past_2_53_exits_two(capsys, index):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "--algebra", "C2", "log", "--z", "1,1", "--branch", index)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "bad branch list" in captured.err and "2**53" in captured.err
    assert "Traceback" not in captured.err


def test_roots(capsys):
    code, out, _ = run_cli(capsys, "--algebra", "H2", "roots")
    assert code == 0
    data = json.loads(out)
    assert data["real_roots"] == pytest.approx([-1.0, 1.0])
    assert data["complex_roots"] == []


def test_coefficient_list_algebra(capsys):
    code, out, _ = run_cli(capsys, "--algebra", "-1,0", "pyth", "--z", "2,1")
    assert code == 0
    assert json.loads(out)["pyth"] == pytest.approx(3.0)


def test_algebra_file(capsys, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"label": "demo", "coeffs": [1, 0]}))
    code, out, _ = run_cli(capsys, "--algebra-file", str(path), "exp", "--z", "0,0")
    assert code == 0
    assert json.loads(out)["exp"] == pytest.approx([1.0, 0.0])


@pytest.mark.parametrize(
    "document",
    [
        '{"coeffs": 5}',
        "[1, 2]",
        '{"coeffs": [1, null]}',
        '{"coeffs": [1, 2], "label": 7}',
        '{"coeffs": "12"}',
    ],
)
def test_malformed_algebra_file_exits_two(capsys, tmp_path, document):
    path = tmp_path / "algebra.json"
    path.write_text(document)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "--algebra-file", str(path), "exp", "--z", "0,0")
    assert exc.value.code == 2
    assert "cannot load algebra file" in capsys.readouterr().err


def test_identity_latex(capsys):
    code, out, _ = run_cli(
        capsys, "--algebra", "H3", "identity", "add-angle", "--format", "latex"
    )
    assert code == 0
    assert r"\cosh_3(\alpha+\beta) = \cosh_3(\alpha)\cosh_3(\beta) + " in out


def test_identity_de_moivre_json(capsys):
    code, out, _ = run_cli(
        capsys, "--algebra", "H2", "identity", "de-moivre", "--power", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["s1"] == [[1, ["s1a", "s1a", "s1a"]], [3, ["s1a", "s2a", "s2a"]]]


@pytest.mark.parametrize(
    "argv,error",
    [
        (["--algebra", "H32", "identity", "de-moivre", "--power", "12"], "InvalidPower"),
        (["--algebra", "H200", "identity", "add-angle"], "InvalidArgument"),
    ],
    ids=["de-moivre", "add-angle"],
)
def test_identity_past_the_expansion_cap_is_refused(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert _strict(out)["error"] == error
    assert err.startswith(f"error: {error}")


# Report rows per suite at --samples 2: lemma's --samples is its number of
# random presentations; every other suite's case list is fixed.
_CASES_AT_TWO_SAMPLES = {
    "kthagorean": 65,
    "lemma": 2,
    "roundtrip": 40,
    "identities": 160,
    "only-pure-power": 46,
    "polar": 15,
    "crt": 15,
}


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_verify_suite_passes(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--samples", "2")
    assert code == 0
    data = _strict(out)
    assert data["suite"] == suite
    assert data["pass"] is True
    assert data["cases"] == len(data["details"]) == _CASES_AT_TWO_SAMPLES[suite]
    assert all("residual" in row for row in data["details"])


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_every_suite_takes_samples_tol_and_seed(suite):
    parameters = inspect.signature(getattr(verify, verify._SUITES[suite])).parameters
    assert list(parameters) == ["samples", "tol", "seed"]


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_run_suite_is_the_direct_call(suite):
    direct = getattr(verify, verify._SUITES[suite])(samples=2, tol=1e-3, seed=5)
    assert verify.run_suite(suite, 2, 1e-3, 5) == direct


def test_run_suite_calls_the_module_attribute(monkeypatch):
    # Wrappers rebound onto the module (as a tracer does) must be the
    # functions that run.
    calls = []
    original = verify.crt_suite

    def wrapper(**kwargs):
        calls.append(kwargs)
        return original(**kwargs)

    monkeypatch.setattr(verify, "crt_suite", wrapper)
    report = verify.run_suite("crt", 2)
    assert calls == [{"seed": 0, "samples": 2}]
    assert report.suite == "crt" and report.passed


def test_verify_suite_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "kthagorean", "--samples", "3", "--tol", "1e-30"
    )
    assert code == 4
    assert json.loads(out)["pass"] is False


def test_verify_only_pure_power(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "only-pure-power", "--samples", "5")
    assert code == 0
    data = json.loads(out)
    witness = [row for row in data["details"] if "witness" in row["case"]]
    assert witness and witness[0]["pass"] and witness[0]["residual"] > 1e-3


def test_determinism_same_seed(capsys):
    args = ("verify", "--suite", "kthagorean", "--samples", "4", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ATRIG_SEED", "7")
    _, from_env, _ = run_cli(capsys, "verify", "--suite", "kthagorean", "--samples", "4")
    monkeypatch.delenv("ATRIG_SEED")
    _, explicit, _ = run_cli(
        capsys, "verify", "--suite", "kthagorean", "--samples", "4", "--seed", "7"
    )
    assert from_env == explicit
    monkeypatch.setenv("ATRIG_SEED", "abc")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--suite", "kthagorean", "--samples", "4"])
    assert excinfo.value.code == 2
    assert "ATRIG_SEED" in capsys.readouterr().err


def test_domain_error_exit_code(capsys):
    code, out, _ = run_cli(capsys, "--algebra", "H2", "log", "--z", "-1,0")
    assert code == 3
    data = json.loads(out)
    assert data["error"] == "OutsideLogDomain"


def test_nil_log_domain_error(capsys):
    code, out, _ = run_cli(capsys, "--algebra", "Gamma2", "log", "--z", "-1,2")
    assert code == 3
    assert json.loads(out)["error"] == "OutsideLogDomain"


def test_parse_errors_exit_two(capsys):
    for argv in (
        ["--algebra", "Q5", "exp", "--z", "0,1"],
        ["--algebra", "H2", "--algebra-file", "x.json", "exp", "--z", "0,1"],
        ["--algebra", "H2", "exp", "--z", "0,1,2"],
        ["--algebra", "H2", "exp", "--z", "0,zebra"],
        ["exp", "--z", "0,1"],  # no algebra
        ["--algebra", "H2", "identity", "add-angle", "--format", "csv"],
        ["verify", "--suite", "kthagorean", "--seed", "-1"],
        *(["--algebra", "H3", "roots", "--tol", tol] for tol in ("nan", "inf", "0", "-1")),
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_share_one_parser_and_match_fresh_calls(capsys):
    calls = (
        ["verify", "--suite", "kthagorean", "--seed", "-1"],  # parse error
        ["--algebra", "H2", "--format", "csv", "exp", "--z", "0,1"],
        ["--algebra", "H2", "exp", "--z", "1e308,0"],  # refusal
        ["--algebra", "H2", "exp", "--z", "0,1"],  # json again, after csv
    )
    repeated = [_outcome(capsys, argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert [code for code, _, _ in repeated] == [2, 0, 3, 0]
    assert repeated == fresh


def test_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "--algebra", "H2", "--format", "csv", "exp", "--z", "0,1"
    )
    assert code == 0
    key, first, second = out.strip().split(",")
    assert key == "exp"
    assert float(first) == pytest.approx(math.cosh(1))
    assert float(second) == pytest.approx(math.sinh(1))


def test_csv_verify(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "verify", "--suite", "lemma", "--samples", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case,residual,pass"
    assert len(lines) == 4


def test_human_summary_on_stderr(capsys):
    _, out, err = run_cli(capsys, "--algebra", "H2", "exp", "--z", "0,1")
    assert "exponential" in err
    assert "exponential" not in out


@pytest.mark.parametrize("literal", ["nan,0", "inf,0", "1e308,0"])
def test_exp_refuses_out_of_range_input(capsys, literal):
    code, out, _ = run_cli(capsys, "--algebra", "H2", "exp", "--z", literal)
    assert code == 3
    assert json.loads(out)["error"] == "InvalidArgument"


@pytest.mark.parametrize(
    "option", [["--samples", "0"], ["--samples", "-5"], ["--tol", "0"], ["--tol", "nan"]]
)
def test_verify_rejects_non_positive_options(capsys, option):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--suite", "kthagorean", *option])
    assert excinfo.value.code == 2
    capsys.readouterr()


def _strict(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [["exp", "--z", "1000,0"], ["pyth", "--z", "1e200,0"]])
def test_non_finite_results_are_refused(capsys, argv, fmt):
    code, out, err = run_cli(capsys, "--algebra", "H2", "--format", fmt, *argv)
    assert code == 3
    assert _strict(out)["error"] == "InvalidArgument"
    assert err.splitlines() == [err.strip()] and err.startswith("error: InvalidArgument")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "algebra,literal",
    [("H2", "1.5e308,1.5e308"), ("H32", ",".join(["1e307"] * 32))],
    ids=["H2", "H32"],
)
@pytest.mark.parametrize("command", ["log", "arg"])
def test_overflowing_component_values_are_refused(capsys, algebra, literal, command):
    # The value at k = 1 overflows and is rescaled; the others are exactly
    # zero, so the element lies outside the logarithmic domain.
    code, out, err = run_cli(capsys, "--algebra", algebra, command, "--z", literal)
    assert code == 3
    assert _strict(out)["error"] == "OutsideLogDomain"
    assert err.splitlines() == [err.strip()] and err.startswith("error: OutsideLogDomain")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["log", "arg"])
def test_log_of_a_component_beyond_the_largest_double(capsys, command):
    # |w| at a complex root of C3 passes 1.8e308 though w itself is finite.
    code, out, err = run_cli(capsys, "--algebra", "C3", command, "--z", "1e308,1e308,1e308")
    assert code == 0
    assert all(math.isfinite(x) for x in _strict(out)[command])
    assert "Traceback" not in err


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 4300,
    reason="no int-to-string digit limit of at most 4300 digits in this Python",
)
def test_identity_render_past_the_int_string_limit_is_refused(capsys):
    # Extreme binades make the power-8 De Moivre coefficients longer than
    # Python's default limit of 4300 digits for an int converted to a string.
    code, out, err = run_cli(
        capsys, "--algebra", "5e-324,1e300,-1e-300", "identity", "de-moivre", "--power", "8",
        "--format", "json",
    )
    assert code == 3
    assert _strict(out)["error"] == "InvalidArgument"
    assert "Traceback" not in err
