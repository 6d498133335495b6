"""Symbolic adding-angle / De Moivre generation, certification, rendering."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from atrig import (
    IdentitySet,
    SymPoly,
    TrigSymbol,
    adding_angle,
    de_moivre,
    make_presentation,
    parse_identities_json,
    preset,
    render,
    trig_components,
    verify_identity,
)
from atrig.core import PrincipalPresentation
from atrig.errors import InvalidPower, NonRationalCoefficients
from atrig.verify import random_rational_presentation

GOLDENS = Path(__file__).parent / "goldens"


def sym(tag, index):
    return TrigSymbol(tag, index)


def poly(*terms):
    """Build a SymPoly from (coefficient, [symbols]) pairs."""
    out = {}
    for coeff, symbols in terms:
        key = tuple(symbols)
        out[key] = out.get(key, Fraction(0)) + Fraction(coeff)
    return SymPoly(out)


# -- adding angle -----------------------------------------------------------------


def test_adding_angle_h3_formulas(h3):
    ids = adding_angle(h3)
    s1a, s2a, s3a = (sym("a", i) for i in (1, 2, 3))
    s1b, s2b, s3b = (sym("b", i) for i in (1, 2, 3))
    expected = (
        poly((1, [s1a, s1b]), (1, [s2a, s3b]), (1, [s3a, s2b])),
        poly((1, [s2a, s1b]), (1, [s1a, s2b]), (1, [s3a, s3b])),
        poly((1, [s3a, s1b]), (1, [s1a, s3b]), (1, [s2a, s2b])),
    )
    assert ids.formulas == expected
    assert ids.kind == "adding_angle" and ids.power is None


def test_adding_angle_complex(c2):
    ids = adding_angle(c2)
    s1a, s2a, s1b, s2b = sym("a", 1), sym("a", 2), sym("b", 1), sym("b", 2)
    assert ids.formulas[0] == poly((1, [s1a, s1b]), (-1, [s2a, s2b]))
    assert ids.formulas[1] == poly((1, [s1a, s2b]), (1, [s2a, s1b]))


def test_adding_angle_complex_matches_cos_sin(c2, rng):
    # Independent oracle: the component functions of exp(k theta) with
    # k^2 = -1 are cos and sin, so the generated identities must reproduce
    # the classical addition formulas numerically.
    ids = adding_angle(c2)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, 2)
        values = {
            sym("a", 1): math.cos(a),
            sym("a", 2): math.sin(a),
            sym("b", 1): math.cos(b),
            sym("b", 2): math.sin(b),
        }
        assert ids.formulas[0].evaluate(values) == pytest.approx(math.cos(a + b))
        assert ids.formulas[1].evaluate(values) == pytest.approx(math.sin(a + b))


def test_adding_angle_nil(gamma2):
    ids = adding_angle(gamma2)
    s1a, s2a, s1b, s2b = sym("a", 1), sym("a", 2), sym("b", 1), sym("b", 2)
    assert ids.formulas[0] == poly((1, [s1a, s1b]))
    assert ids.formulas[1] == poly((1, [s1a, s2b]), (1, [s2a, s1b]))


def test_adding_angle_rejects_non_finite():
    bad = PrincipalPresentation((float("nan"), 0.0))
    with pytest.raises(NonRationalCoefficients):
        adding_angle(bad)


def test_fractional_coefficients_stay_exact():
    # k^2 = 1/2: the reduced cross term carries the exact rational 1/2.
    pres = make_presentation([-0.5, 0.0])
    ids = adding_angle(pres)
    s2a, s2b = sym("a", 2), sym("b", 2)
    term = dict(ids.formulas[0].terms())[(s2a, s2b)]
    assert term == Fraction(1, 2)
    assert isinstance(term, Fraction)


# -- De Moivre --------------------------------------------------------------------


def test_de_moivre_h2_cube(h2):
    ids = de_moivre(h2, 3)
    s1, s2 = sym("a", 1), sym("a", 2)
    assert ids.formulas[0] == poly((1, [s1, s1, s1]), (3, [s1, s2, s2]))
    assert ids.formulas[1] == poly((3, [s1, s1, s2]), (1, [s2, s2, s2]))
    assert ids.power == 3


@pytest.mark.parametrize("kind, n", [("hyperbolic", 2), ("complicated", 3), ("nil", 4)])
def test_de_moivre_power_one_is_identity(kind, n):
    ids = de_moivre(preset(kind, n), 1)
    for i, formula in enumerate(ids.formulas):
        assert formula == SymPoly.symbol(sym("a", i + 1))


def test_de_moivre_complex_double_angle(c2):
    ids = de_moivre(c2, 2)
    s1, s2 = sym("a", 1), sym("a", 2)
    assert ids.formulas[0] == poly((1, [s1, s1]), (-1, [s2, s2]))
    assert ids.formulas[1] == poly((2, [s1, s2]))


def test_de_moivre_power_validation(h2):
    with pytest.raises(InvalidPower):
        de_moivre(h2, 0)
    with pytest.raises(InvalidPower):
        de_moivre(h2, 13)  # default cap
    de_moivre(h2, 13, power_cap=13)  # configurable


def test_de_moivre_two_specializes_adding_angle(rng):
    # Setting beta = alpha in the adding-angle identities and collecting
    # like terms must give the squared-exponential identities.
    def specialized(formula):
        terms = {}
        for mono, q in formula.terms():
            key = tuple(sym("a", s.function_index) for s in mono)
            terms[key] = terms.get(key, Fraction(0)) + q
        return SymPoly(terms)

    cases = [preset("hyperbolic", 3), preset("complicated", 4), preset("nil", 2)]
    cases.extend(random_rational_presentation(rng, int(rng.integers(2, 6))) for _ in range(5))
    for pres in cases:
        doubled = de_moivre(pres, 2)
        added = adding_angle(pres)
        for lhs, rhs in zip(doubled.formulas, added.formulas):
            assert lhs == specialized(rhs)


# -- numeric certification ----------------------------------------------------------


def test_verify_identity_h3(h3):
    report = verify_identity(adding_angle(h3), samples=200, tol=1e-9)
    assert report.passed
    assert report.max_residual < 1e-10


def test_verify_identity_de_moivre(c2):
    report = verify_identity(de_moivre(c2, 3), samples=200, tol=1e-9)
    assert report.passed


def test_verify_identity_detects_corruption(h3):
    ids = adding_angle(h3)
    mono, _ = ids.formulas[0].terms()[0]
    corrupted = IdentitySet(
        ids.presentation,
        ids.kind,
        ids.power,
        (ids.formulas[0] + SymPoly({mono: Fraction(1)}),) + ids.formulas[1:],
    )
    report = verify_identity(corrupted, samples=50, tol=1e-9)
    assert not report.passed
    assert report.max_residual > 1e-3
    assert not report.formula_passed[0]
    assert all(report.formula_passed[1:])


def test_verify_identity_consistent_with_series(h3, rng):
    # The certification's left side is the exponential series itself; spot
    # check one sample by hand.
    ids = adding_angle(h3)
    a, b = 0.3, -1.2
    values = {}
    for tag, t in (("a", a), ("b", b)):
        comps = trig_components(h3, 1, t)
        values.update({sym(tag, i + 1): comps[i] for i in range(3)})
    lhs = trig_components(h3, 1, a + b)
    for i, formula in enumerate(ids.formulas):
        assert formula.evaluate(values) == pytest.approx(lhs[i], rel=1e-12)


# -- rendering ----------------------------------------------------------------------


def test_render_latex_h3_golden(h3):
    text = render(adding_angle(h3), "latex")
    assert r"\cosh_3(\alpha+\beta) = \cosh_3(\alpha)\cosh_3(\beta) + " in text
    assert text + "\n" == (GOLDENS / "h3_adding_angle.tex").read_text()


def test_render_latex_h2_de_moivre_golden(h2):
    text = render(de_moivre(h2, 3), "latex")
    assert text + "\n" == (GOLDENS / "h2_de_moivre_3.tex").read_text()


def test_render_latex_naming_schemes():
    assert r"\cos_4" in render(adding_angle(preset("complicated", 4)), "latex")
    assert r"\sin_{4,2}" in render(adding_angle(preset("complicated", 4)), "latex")
    assert "s_{1}" in render(adding_angle(preset("nil", 2)), "latex")
    general = make_presentation([1.0, -1.0, 0.0])
    assert "s_{3}" in render(adding_angle(general), "latex")


def test_render_json_gamma2(gamma2):
    data = json.loads(render(adding_angle(gamma2), "json"))
    assert data == {
        "s1": [[1, ["s1a", "s1b"]]],
        "s2": [[1, ["s1a", "s2b"]], [1, ["s2a", "s1b"]]],
    }


def test_render_json_unit_monomials(c2):
    data = json.loads(render(de_moivre(c2, 1), "json"))
    assert data == {"s1": [[1, ["s1a"]]], "s2": [[1, ["s2a"]]]}


def test_render_json_roundtrip_exact(rng):
    pres = make_presentation([-0.375, 0.25, 0.0])
    for ids in (adding_angle(pres), de_moivre(pres, 3)):
        text = render(ids, "json")
        again = parse_identities_json(text, pres, ids.kind, ids.power)
        assert again == ids
        assert render(again, "json") == text


def test_render_json_fraction_coefficients():
    pres = make_presentation([-0.5, 0.0])
    data = json.loads(render(adding_angle(pres), "json"))
    assert ["1/2", ["s2a", "s2b"]] in data["s1"]


def test_render_is_deterministic(h3):
    ids = adding_angle(h3)
    assert render(ids, "latex") == render(ids, "latex")
    assert render(ids, "json") == render(ids, "json")


def test_render_unknown_format(h2):
    with pytest.raises(ValueError):
        render(adding_angle(h2), "html")


def test_sympoly_canonical_form():
    s1, s2 = sym("a", 1), sym("a", 2)
    assert SymPoly({(s1,): 0}).is_zero()
    assert SymPoly({(s1, s2): 1, (s2, s1): -1}).is_zero()  # same monomial, sorted
    merged = SymPoly({(s1, s2): Fraction(1, 2), (s2, s1): Fraction(1, 2)})
    assert merged == poly((1, [s1, s2]))
    total = poly((2, [s1])) + poly((-2, [s1]))
    assert total.is_zero() and total.terms() == []


def test_identity_set_shapes(rng):
    for pres in (preset("hyperbolic", 4), random_rational_presentation(rng, 3)):
        added = adding_angle(pres)
        assert len(added.formulas) == pres.degree
        tags = {
            s.argument_tag for f in added.formulas for mono, _ in f.terms() for s in mono
        }
        assert tags == {"a", "b"}
        powered = de_moivre(pres, 3)
        assert len(powered.formulas) == pres.degree
        tags = {
            s.argument_tag for f in powered.formulas for mono, _ in f.terms() for s in mono
        }
        assert tags == {"a"}


def test_soundness_on_random_rational_presentations(rng):
    for _ in range(5):
        pres = random_rational_presentation(rng, int(rng.integers(2, 6)))
        assert verify_identity(adding_angle(pres), samples=60, tol=1e-9).passed
        assert verify_identity(de_moivre(pres, 3), samples=60, tol=1e-9).passed


@pytest.mark.parametrize(
    "pres",
    [preset("hyperbolic", 5), preset("nil", 3), make_presentation([0.25, -0.125, 0.0])],
    ids=["H5", "Gamma3", "rational"],
)
def test_de_moivre_powers_chain(pres):
    from atrig import de_moivre_powers

    chain = de_moivre_powers(pres, 4)
    assert [ids.power for ids in chain] == [1, 2, 3, 4]
    assert all(ids.kind == "de_moivre" for ids in chain)
    for power, ids in enumerate(chain, start=1):
        assert ids == de_moivre(pres, power)
        assert verify_identity(ids, samples=20, tol=1e-9).passed


def test_de_moivre_powers_validation(h2):
    from atrig import de_moivre_powers

    with pytest.raises(InvalidPower):
        de_moivre_powers(h2, 0)
    with pytest.raises(InvalidPower):
        de_moivre_powers(h2, 13)
    assert len(de_moivre_powers(h2, 13, power_cap=13)) == 13
