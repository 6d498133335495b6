"""End-to-end CLI behaviour: wire formats, exit codes, determinism."""

import json
import math

import pytest

from atrig import cli


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


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "kthagorean", "--samples", "5")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "kthagorean"
    assert data["pass"] is True
    assert data["cases"] == 65
    assert all("residual" in row for row in data["details"])


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
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()


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
