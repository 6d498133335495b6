"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
All sweeps are seeded, so the whole suite is reproducible.
"""

import time
from fractions import Fraction
from pathlib import Path

from atrig import (
    IdentitySet,
    SymPoly,
    TrigSymbol,
    adding_angle,
    de_moivre,
    preset,
    render,
    verify_identity,
)
from atrig import verify

GOLDENS = Path(__file__).parent / "goldens"
SEED = 0


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {name} {detail}".rstrip())


def _failures(report):
    return [row for row in report.details if not row["pass"]]


def test_criterion_1_kthagorean_sweep():
    started = time.perf_counter()
    report = verify.kthagorean_suite(samples=100, tol=1e-9, seed=SEED)
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 10.0
    _report(
        1,
        "F(exp(k theta)) = 1 on presets and 50 random depressed presentations",
        ok,
        f"(worst residual {report.worst_residual:.2e}, {elapsed:.1f}s)",
    )
    assert report.passed, _failures(report)
    assert elapsed < 10.0


def test_criterion_2_pure_power_gate():
    report = verify.pure_power_suite(samples=100, tol=1e-9, seed=SEED)
    witness = [row for row in report.details if "witness" in row["case"]]
    ok = report.passed and witness and witness[0]["residual"] > 1e-3
    _report(
        2,
        "unit determinant for all generator powers on pure-power presets, "
        "with a k^3+k counterexample",
        bool(ok),
        f"(worst preset residual {report.worst_residual:.2e}, "
        f"witness deviation {witness[0]['residual']:.2e})",
    )
    assert report.passed, _failures(report)
    assert witness[0]["residual"] > 1e-3


def test_criterion_3_column_derivative_lemma():
    report = verify.lemma_suite(samples=20, tol=1e-6, seed=SEED)
    _report(
        3,
        "finite-difference column relations on 20 random depressed presentations",
        report.passed,
        f"(worst residual {report.worst_residual:.2e})",
    )
    assert report.passed, _failures(report)


def test_criterion_4_log_roundtrip():
    report = verify.roundtrip_suite(samples=500, tol=1e-8, seed=SEED)
    roundtrips = [row for row in report.details if row["case"].startswith("roundtrip:")]
    re_law = [row for row in report.details if row["case"].startswith("re-law:")]
    _report(
        4,
        "exp(log z) = z on 500 samples per algebra; Re(log z) = log|z| on "
        "pure-power presets",
        report.passed,
        f"({len(roundtrips)} round-trip cases, {len(re_law)} real-part cases, "
        f"worst residual {report.worst_residual:.2e})",
    )
    assert len(roundtrips) == 25  # H2-6, C2-6, 10 random, Gamma2-6
    assert len(re_law) == 15
    assert report.passed, _failures(report)


def test_criterion_5_polar_recombination():
    report = verify.polar_suite(samples=200, tol=1e-8, seed=SEED)
    _report(
        5,
        "exp(log rho + arg) reproduces z on pure-power presets",
        report.passed,
        f"(worst residual {report.worst_residual:.2e})",
    )
    assert report.passed, _failures(report)


def _sym(tag, index):
    return TrigSymbol(tag, index)


def _poly(*terms):
    out = {}
    for coeff, symbols in terms:
        out[tuple(symbols)] = Fraction(coeff)
    return SymPoly(out)


def test_criterion_6_golden_identities():
    s1a, s2a, s3a = (_sym("a", i) for i in (1, 2, 3))
    s1b, s2b, s3b = (_sym("b", i) for i in (1, 2, 3))
    h3 = preset("hyperbolic", 3)
    ids = adding_angle(h3)
    expected = (
        _poly((1, [s1a, s1b]), (1, [s2a, s3b]), (1, [s3a, s2b])),
        _poly((1, [s2a, s1b]), (1, [s1a, s2b]), (1, [s3a, s3b])),
        _poly((1, [s3a, s1b]), (1, [s1a, s3b]), (1, [s2a, s2b])),
    )
    formulas_ok = ids.formulas == expected

    h2 = preset("hyperbolic", 2)
    cubed = de_moivre(h2, 3)
    t1, t2 = _sym("a", 1), _sym("a", 2)
    collected = (
        _poly((1, [t1, t1, t1]), (3, [t1, t2, t2])),
        _poly((3, [t1, t1, t2]), (1, [t2, t2, t2])),
    )
    cubes_ok = cubed.formulas == collected

    latex_ok = (
        render(ids, "latex") + "\n" == (GOLDENS / "h3_adding_angle.tex").read_text()
        and render(cubed, "latex") + "\n"
        == (GOLDENS / "h2_de_moivre_3.tex").read_text()
    )
    ok = formulas_ok and cubes_ok and latex_ok
    _report(
        6,
        "golden adding-angle (dim 3) and triple-angle (dim 2) formulas, "
        "byte-identical LaTeX",
        ok,
    )
    assert formulas_ok
    assert cubes_ok
    assert latex_ok


def test_criterion_7_identity_certification():
    report = verify.identities_suite(samples=200, tol=1e-9, seed=SEED)

    h3 = preset("hyperbolic", 3)
    ids = adding_angle(h3)
    mono, _ = ids.formulas[0].terms()[0]
    corrupted = IdentitySet(
        ids.presentation,
        ids.kind,
        ids.power,
        (ids.formulas[0] + SymPoly({mono: Fraction(1)}),) + ids.formulas[1:],
    )
    control = verify_identity(corrupted, samples=200, tol=1e-9, seed=SEED)
    ok = report.passed and not control.passed and control.max_residual > 1e-3
    _report(
        7,
        "identity certification at 1e-9 across presets and 20 random rational "
        "presentations; mutated control fails",
        ok,
        f"(worst residual {report.worst_residual:.2e}, "
        f"control residual {control.max_residual:.2e})",
    )
    assert report.passed, _failures(report)
    assert not control.passed


def test_criterion_8_component_isomorphism():
    report = verify.crt_suite(samples=500, tol=1e-9, seed=SEED)
    rejections = [row for row in report.details if row["case"].startswith("reject:")]
    _report(
        8,
        "component isomorphism round trips and homomorphism at 1e-9; nil "
        "presentations rejected",
        report.passed,
        f"(worst residual {report.worst_residual:.2e}, "
        f"{len(rejections)} rejection checks)",
    )
    assert len(rejections) == 5
    assert report.passed, _failures(report)
