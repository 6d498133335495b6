"""Symbolic adding-angle / De Moivre generation, certification, rendering."""

import json
import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from atrig import identities, verify
from atrig.errors import InvalidArgument, InvalidPower, NonRationalCoefficients
from atrig.identities import EXPANSION_CAP, POWER_CAP, _shape_table, _verify_sets
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
        de_moivre(h2, 13)  # the cap
    with pytest.raises(InvalidPower):
        de_moivre(h2, True)
    assert de_moivre(h2, np.int64(3)) == de_moivre(h2, 3)


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
    with pytest.raises(InvalidArgument):
        render(adding_angle(h2), "html")


def test_verify_identity_refuses_an_unknown_kind(h2):
    ids = adding_angle(h2)
    with pytest.raises(InvalidArgument):
        verify_identity(IdentitySet(ids.presentation, "triple_angle", None, ids.formulas))


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(InvalidArgument):
        verify.run_suite("nope")


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


# -- exact reference ------------------------------------------------------------------


def _mulmod(x, y, coeffs):
    """Exact schoolbook product of two coordinate lists modulo the modulus."""
    n = len(coeffs)
    out = [Fraction(0)] * (2 * n - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    for d in range(2 * n - 2, n - 1, -1):
        top = out[d]
        for j, c in enumerate(coeffs):
            out[d - n + j] -= c * top
    return out[:n]


def _exact_value(formula, values):
    total = Fraction(0)
    for mono, q in formula.terms():
        term = q
        for symbol in mono:
            term *= values[symbol]
        total += term
    return total


@st.composite
def _modulus_and_power(draw):
    degree = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["hyperbolic", "complicated", "nil", "rational"]))
    if kind == "rational":
        eighths = draw(st.lists(st.integers(-8, 8), min_size=degree, max_size=degree))
        pres = make_presentation([k / 8 for k in eighths])
    else:
        pres = preset(kind, degree)
    power = draw(st.integers(1, POWER_CAP if degree < 5 else 4))
    return pres, power


# Nonzero, so that no monomial of a formula drops out of the comparison.
_values = st.fractions(min_value=-2, max_value=2, max_denominator=16).filter(bool)


@given(case=_modulus_and_power(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_formulas_are_the_exact_reduced_products(case, data):
    # Each formula, evaluated exactly, must give the coordinates of X^P
    # (De Moivre) and X*Y (adding angle) for the exponentials X, Y whose
    # coordinates are the symbol values.
    pres, power = case
    n = pres.degree
    coeffs = [Fraction(c) for c in pres.modulus_coeffs]
    x = data.draw(st.lists(_values, min_size=n, max_size=n))
    y = data.draw(st.lists(_values, min_size=n, max_size=n))
    values = {sym("a", i + 1): x[i] for i in range(n)}
    values.update({sym("b", i + 1): y[i] for i in range(n)})

    want = x
    for _ in range(power - 1):
        want = _mulmod(want, x, coeffs)
    powered = de_moivre(pres, power)
    assert [_exact_value(f, values) for f in powered.formulas] == want

    added = adding_angle(pres)
    assert [_exact_value(f, values) for f in added.formulas] == _mulmod(x, y, coeffs)


# -- shape table, size cap and stacked certification ------------------------------------


def _enumerated(pres, powers):
    """The expansion enumerated term by term, as before the shape table:
    every multiset of indices per tag, its count, and its reduced power of k,
    collected through the normalising ``SymPoly`` constructor."""
    coeffs = [Fraction(c) for c in pres.modulus_coeffs]
    n = len(coeffs)
    column = [Fraction(1)] + [Fraction(0)] * (n - 1)
    reduced = [column]
    for _ in range((n - 1) * sum(powers.values())):
        carry = column[-1]
        column = [-coeffs[0] * carry] + [b - c * carry for b, c in zip(column, coeffs[1:])]
        reduced.append(column)
    formulas = [{} for _ in range(n)]
    choices = (combinations_with_replacement(range(n), p) for p in powers.values())
    for picks in product(*choices):
        count = 1
        for pick in picks:
            count *= math.factorial(len(pick))
            for i in set(pick):
                count //= math.factorial(pick.count(i))
        mono = tuple(sym(tag, i + 1) for tag, pick in zip(powers, picks) for i in pick)
        for formula, coordinate in zip(formulas, reduced[sum(map(sum, picks))]):
            if coordinate:
                formula[mono] = count * coordinate
    return tuple(SymPoly(terms) for terms in formulas)


@pytest.mark.parametrize("n", range(1, 7))
def test_expansion_from_the_shape_table_matches_the_enumeration(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        pres = random_rational_presentation(rng, n)
        cases = [(adding_angle(pres), {"a": 1, "b": 1})]
        cases += [(de_moivre(pres, p), {"a": p}) for p in range(1, 5)]
        for ids, powers in cases:
            want = _enumerated(pres, powers)
            assert ids.formulas == want
            for got, expected in zip(ids.formulas, want):
                # Already canonical: normalising again changes nothing.
                assert got == SymPoly(dict(got._terms))
                assert got.terms() == expected.terms()
                assert all(type(q) is Fraction and q for _, q in got.terms())


@pytest.mark.parametrize(
    "coeffs",
    [[0.1, -0.2, 0.3], [-0.27, 0.11, 0.05, -0.19], [5e-324, 1e300, -1e-300], [1e-300, -0.125, 3.0]],
)
def test_expansion_on_full_precision_moduli_matches_the_enumeration(coeffs):
    # Moduli whose powers of k have denominators past 128 bits.
    pres = make_presentation(coeffs)
    exponents = {e for _, e in identities._powers_of_k(coeffs, 4 * (len(coeffs) - 1))}
    assert max(exponents) > 128
    for ids, powers in [(adding_angle(pres), {"a": 1, "b": 1}), (de_moivre(pres, 4), {"a": 4})]:
        assert ids.formulas == _enumerated(pres, powers)


def test_expansions_past_the_size_cap_are_refused_before_enumerating():
    _shape_table.cache_clear()
    # C(43, 12) monomials at degree 32, and 200^2 at degree 200: neither is
    # enumerated, and neither enters the shape table.
    with pytest.raises(InvalidPower, match="exceeds"):
        de_moivre(preset("hyperbolic", 32), 12)
    with pytest.raises(InvalidArgument, match="exceeds"):
        adding_angle(preset("hyperbolic", 200))
    assert _shape_table.cache_info().currsize == 0
    # The largest accepted adding angle: n^3 at or below the cap.
    n = int(EXPANSION_CAP ** (1 / 3))
    assert n**3 <= EXPANSION_CAP < (n + 1) ** 3
    assert len(adding_angle(preset("complicated", n)).formulas) == n
    with pytest.raises(InvalidArgument):
        adding_angle(preset("complicated", n + 1))
    assert _shape_table.cache_info().currsize == 1


def _per_set_report(ids, samples, tol, seed):
    """``verify_identity`` with a ``trig_components`` call per drawn angle."""
    pres = ids.presentation
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(-2.0, 2.0, samples)
    sides = [trig_components(pres, 1, alphas)]
    if ids.kind == "adding_angle":
        betas = rng.uniform(-2.0, 2.0, samples)
        sides.append(trig_components(pres, 1, betas))
        lhs = trig_components(pres, 1, alphas + betas)
    else:
        lhs = trig_components(pres, 1, ids.power * alphas)
    table = np.concatenate(sides + [np.ones((samples, 1))], axis=1)
    residuals = tuple(np.abs(lhs - ids._dense_values(table)).max(axis=0, initial=0.0).tolist())
    return identities.VerificationReport(
        ids.kind, samples, tol, residuals, tuple(r <= tol for r in residuals)
    )


@pytest.mark.parametrize(
    "pres",
    [preset("hyperbolic", 3), preset("complicated", 5), preset("nil", 4)]
    + [random_rational_presentation(np.random.default_rng(7), n) for n in (2, 4, 5)],
    ids=lambda pres: pres.label or f"rational-{pres.degree}",
)
def test_stacked_certification_equals_per_set_calls(pres):
    # The stacked exponential's rows equal the per-angle exponentials, and
    # each set's dense evaluation does not depend on the other sets.
    sets = [adding_angle(pres)] + [de_moivre(pres, p) for p in range(1, 5)]
    seeds = [31 + 97 * offset for offset in range(len(sets))]
    for ids, seed, report in zip(sets, seeds, _verify_sets(sets, seeds, 40, 1e-9)):
        want = verify_identity(ids, samples=40, tol=1e-9, seed=seed)
        assert report == want  # residuals compared exactly
        assert _per_set_report(ids, 40, 1e-9, seed) == want


def test_identities_suite_equals_per_set_certification(monkeypatch):
    stacked = verify.identities_suite(samples=20, seed=5).to_json_dict()
    monkeypatch.setattr(
        verify,
        "_verify_sets",
        lambda sets, seeds, samples, tol: [
            verify_identity(ids, samples, tol, seed) for ids, seed in zip(sets, seeds)
        ],
    )
    assert verify.identities_suite(samples=20, seed=5).to_json_dict() == stacked


def test_identities_suite_builds_each_dense_form_once(monkeypatch):
    built, build = [], IdentitySet._dense.func

    def counted(ids):
        built.append(ids)
        return build(ids)

    def refuse(self, values):
        raise AssertionError("certification calls SymPoly.evaluate")

    dense = cached_property(counted)
    dense.__set_name__(IdentitySet, "_dense")
    monkeypatch.setattr(IdentitySet, "_dense", dense)
    monkeypatch.setattr(SymPoly, "evaluate", refuse)
    report = verify.identities_suite(samples=10, seed=3)
    assert report.passed
    assert len(built) == len({id(ids) for ids in built}) == report.cases
    dense = built[0]._dense
    assert built[0]._dense is dense and len(built) == report.cases  # cached, not rebuilt
    assert len(dense) == 3  # index, count matrix, powers of k
    assert not any(array.flags.writeable for array in dense)


def test_certification_builds_no_formulas(monkeypatch, h3):
    # A generated set certifies from its integers; its formulas are made only
    # when read, here by the render.
    def refuse(shape, powers):
        raise AssertionError("certification built the formulas")

    monkeypatch.setattr(identities, "_expansion_formulas", refuse)
    assert verify.identities_suite(samples=10, seed=3).passed
    ids = adding_angle(h3)
    assert verify_identity(ids, samples=10).passed
    with pytest.raises(AssertionError, match="built the formulas"):
        render(ids)


@pytest.mark.parametrize(
    "ids",
    [adding_angle(preset("hyperbolic", 5)), de_moivre(preset("complicated", 4), 4)]
    + [
        maker(random_rational_presentation(np.random.default_rng(11), n))
        for n in (3, 5)
        for maker in (adding_angle, lambda pres: de_moivre(pres, 3))
    ],
    ids=lambda ids: f"{ids.kind}-{ids.presentation.degree}",
)
def test_dense_form_agrees_with_evaluate_within_the_summation_bound(ids):
    # The dense form multiplies the d values of a monomial, then sums the T
    # products times their coefficients in a matmul; evaluate multiplies the
    # coefficient by each value in turn and sums term by term.  Each errs by
    # at most (T + d) u sum_t |q_t| |m_t| to first order, so they differ by
    # at most twice that.
    table, values = _sampled_table(ids, np.random.default_rng(ids.presentation.degree))
    dense = ids._dense_values(table)
    for i, formula in enumerate(ids.formulas):
        bound = _summation_bound(formula, values)
        assert np.all(np.abs(dense[:, i] - formula.evaluate(values)) <= bound)


def _sampled_table(ids, rng, rows=50):
    """A value table ``[s(alpha) | s(beta) | 1]`` of ``rows`` uniform rows in
    [-3, 3], and its columns by symbol."""
    n = ids.presentation.degree
    tags = "ab" if ids.kind == "adding_angle" else "a"
    drawn = rng.uniform(-3.0, 3.0, (rows, len(tags) * n))
    table = np.concatenate([drawn, np.ones((rows, 1))], axis=1)
    values = {sym(tag, i + 1): table[:, p * n + i] for p, tag in enumerate(tags) for i in range(n)}
    return table, values


def _summation_bound(formula, values, extra=0):
    """``(2 (T + d) + extra) u sum_t |q_t| |m_t|`` for a formula of T terms of
    degree at most d at ``values``: 0 where it has no terms."""
    terms = formula.terms()
    if not terms:
        return 0.0
    degree = max(len(mono) for mono, _ in terms)
    magnitude = sum(
        abs(float(q)) * np.prod([np.abs(values[s]) for s in mono], axis=0) for mono, q in terms
    )
    return (2 * (len(terms) + degree) + extra) * np.finfo(float).eps / 2 * magnitude


@st.composite
def _feed_moduli(draw):
    degree = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["hyperbolic", "complicated", "nil", "rational", "full"]))
    if kind == "rational":
        eighths = draw(st.lists(st.integers(-16, 16), min_size=degree, max_size=degree))
        return make_presentation([k / 8 for k in eighths])
    if kind == "full":
        finite = st.floats(allow_nan=False, allow_infinity=False) | _binades
        return make_presentation(draw(st.lists(finite, min_size=degree, max_size=degree)))
    return preset(kind, degree)


def _refusal(ids):
    """The type and message of the refusal of a set's dense form, None if it is built."""
    try:
        ids._dense
    except InvalidArgument as exc:
        return type(exc), str(exc)
    return None


# On the first, k^5 holds 1e600 (1e300 squared): De Moivre 3 and 4 reach it.
# On the modulus k^2 - c, k^2 is c, a double, and De Moivre 3 multiplies it by
# its count 3: past the largest double at c = 1.5e308 and 1e308, below it at
# 5e307, where only power 4 (k^4 = c^2) is refused.
_EDGE_MODULI = [[5e-324, 1e300, -1e-300], [-1.5e308, 0.0], [-5e307, 0.0], [-1e308, 0.0]]


@given(pres=_feed_moduli(), power=st.sampled_from([None, 1, 2, 3, 4]))
@settings(max_examples=150, deadline=None)
@example(pres=make_presentation(_EDGE_MODULI[0]), power=4)
@example(pres=make_presentation(_EDGE_MODULI[1]), power=3)
@example(pres=make_presentation(_EDGE_MODULI[2]), power=3)
def test_the_integer_feed_agrees_with_the_formula_feed(pres, power):
    # A generated set's dense form sums each index sum's monomials by their
    # exact counts and multiplies by the powers of k, each rounded once; a
    # set holding the same formulas rounds each coefficient.  Both refuse a
    # coefficient past the largest double alike, and their values differ by
    # at most the sum of their summation bounds: (T + d) u sum_t |q_t| |m_t|
    # for the held form, and one u more for the generated one, which rounds
    # each count times its monomial.
    generated = adding_angle(pres) if power is None else de_moivre(pres, power)
    held = IdentitySet(pres, generated.kind, power, generated.formulas)
    assert held._expansion is None and generated._expansion is not None
    assert _refusal(generated) == _refusal(held)
    if _refusal(held) is not None:
        return
    table, values = _sampled_table(generated, np.random.default_rng(0), rows=20)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = generated._dense_values(table), held._dense_values(table)
        for i, formula in enumerate(generated.formulas):
            bound = _summation_bound(formula, values, extra=1)
            finite = np.isfinite(bound)
            assert np.all(np.abs(got[finite, i] - want[finite, i]) <= bound[finite])


def test_powers_of_k_are_rounded_once_per_coordinate():
    for coeffs in _EDGE_MODULI[1:] + [[0.1, -0.2, 0.3], [-0.0, 0.0, 0.5], [1e-300, -0.125, 3.0]]:
        pres = make_presentation(coeffs)
        for ids in [adding_angle(pres)] + [de_moivre(pres, p) for p in range(1, 5)]:
            if _refusal(ids) is not None:  # the refusals are checked below
                continue
            shape, powers = ids._expansion
            index, weights, rounded = ids._dense
            sums = max(shape.degrees) + 1
            assert rounded.shape == (sums, pres.degree) and not rounded.flags.writeable
            want = [[float(Fraction(a, 2**e)) for a in column] for column, e in powers[:sums]]
            assert rounded.tolist() == want
            assert np.array_equal(np.signbit(rounded), np.signbit(want))
            assert index is shape.index and weights is shape.weights


@pytest.mark.parametrize("n", range(1, 6))
def test_the_count_matrix_holds_each_count_at_its_index_sum(n):
    for powers in [(("a", 1), ("b", 1))] + [(("a", p),) for p in range(1, 5)]:
        shape = _shape_table(n, powers)
        want = np.zeros((len(shape.counts), max(shape.degrees) + 1))
        for t, (count, degree) in enumerate(zip(shape.counts, shape.degrees)):
            want[t, degree] = count
        assert np.array_equal(shape.weights, want)
        assert not shape.weights.flags.writeable and not shape.index.flags.writeable
        with pytest.raises(ValueError):
            shape.weights[0, 0] = 2.0


@pytest.mark.parametrize("coeffs, refused", zip(_EDGE_MODULI, [[3, 4], [3, 4], [4], [3, 4]]))
def test_both_feeds_refuse_a_coefficient_past_the_largest_double_alike(coeffs, refused):
    pres = make_presentation(coeffs)
    powers = []
    for ids in [adding_angle(pres)] + [de_moivre(pres, p) for p in range(1, 5)]:
        refusal = _refusal(ids)
        assert refusal == _refusal(IdentitySet(pres, ids.kind, ids.power, ids.formulas))
        if refusal is not None:
            assert refusal == (InvalidArgument, "a coefficient exceeds the largest double")
            powers.append(ids.power)
    assert powers == refused


def test_certification_refuses_a_coefficient_past_the_largest_double(h2):
    # Generating and rendering keep the exact coefficient; only the dense
    # form, built at certification, needs it as a double.
    data = json.loads(render(adding_angle(h2), "json"))
    data["s1"][0][0] = 10**400  # the coefficient of s1a s1b
    text = json.dumps(data)
    ids = parse_identities_json(text, h2, "adding_angle")
    assert str(10**400) in render(ids, "json") and render(ids, "latex")
    with pytest.raises(InvalidArgument, match="largest double"):
        verify_identity(ids, samples=5)


@pytest.mark.parametrize(
    "arguments",
    [{"samples": v} for v in (0, -1, 10**30, verify.MAX_SAMPLES + 1, 2.5, True, None)]
    + [{"tol": v} for v in ("x", math.inf, math.nan, 0.0, -1e-9, True, None)]
    + [{"seed": v} for v in (-1, 2.5, None, True)],
    ids=repr,
)
def test_verify_identity_refuses_what_run_suite_refuses(h3, arguments):
    ids = adding_angle(h3)
    with pytest.raises(InvalidArgument) as excinfo:
        verify_identity(ids, **arguments)
    ((name, value),) = arguments.items()
    if value is not None or name == "seed":  # run_suite keeps its defaults for None
        with pytest.raises(InvalidArgument) as suite:
            verify.run_suite("identities", **arguments)
        assert str(suite.value) == str(excinfo.value)


def test_verify_identity_certifies_from_one_sample(h3):
    report = verify_identity(adding_angle(h3), samples=1, tol=1e-12, seed=np.int64(3))
    assert report.passed and report.samples == 1 and len(report.residuals) == 3
    assert verify_identity(de_moivre(h3, 2), samples=verify.MAX_SAMPLES // 100).passed


@pytest.mark.parametrize("name, kind", [("s3a", "adding_angle"), ("s1b", "de_moivre")])
def test_certification_refuses_a_symbol_outside_the_set(h2, name, kind):
    text = json.dumps({"s1": [[1, [name]]], "s2": [[1, ["s2a"]]]})
    ids = parse_identities_json(text, h2, kind, None if kind == "adding_angle" else 1)
    with pytest.raises(InvalidArgument, match=name):
        verify_identity(ids, samples=5)


@pytest.mark.parametrize(
    "text, cause",
    [
        ('{"s1": [["1", ["x1a"]]], "s2": []}', "ValueError"),  # a bad symbol name
        ('{"s1": [["1", ["s1a"]]]}', "KeyError"),  # s2 missing
        ('{"s1": [["1/0", ["s1a"]]], "s2": []}', "ZeroDivisionError"),
        ("not json", "JSONDecodeError"),
    ],
    ids=["symbol", "missing-formula", "zero-denominator", "not-json"],
)
def test_parse_refuses_malformed_identity_json(h2, text, cause):
    with pytest.raises(InvalidArgument, match=f"malformed identity JSON: {cause}"):
        parse_identities_json(text, h2, "adding_angle")


def test_render_refuses_a_coefficient_past_the_int_string_limit(h2):
    # 10**5000 has more digits than Python converts an int to a string by
    # default; the render is refused, and the limit is left as it is.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit > 5000:
        pytest.skip("no int-to-string digit limit below 5001 digits in this Python")
    ids = IdentitySet(h2, "adding_angle", None, (SymPoly({(sym("a", 1),): 10**5000}), SymPoly()))
    for fmt in ("json", "latex"):
        with pytest.raises(InvalidArgument, match="too long to render"):
            render(ids, fmt)
    assert sys.get_int_max_str_digits() == limit


# -- integer generation -------------------------------------------------------------


def _fraction_powers(coeffs, top):
    """k^0, ..., k^top modulo the modulus, by the recurrence in Fraction."""
    coeffs = [Fraction(c) for c in coeffs]
    column = [Fraction(1)] + [Fraction(0)] * (len(coeffs) - 1)
    powers = [column]
    for _ in range(top):
        carry = column[-1]
        column = [-coeffs[0] * carry] + [b - c * carry for b, c in zip(column, coeffs[1:])]
        powers.append(column)
    return powers


_binades = st.sampled_from([1e-300, 1e300, 5e-324, 0.1, 3.0, 0.0]) | st.integers(-16, 16).map(
    lambda i: i / 8
)


@given(
    coeffs=st.lists(st.tuples(_binades, st.booleans()), min_size=1, max_size=5),
    extra=st.integers(0, 4),
)
@settings(max_examples=100, deadline=None)
def test_integer_powers_of_k_equal_the_fraction_recurrence(coeffs, extra):
    coeffs = [-c if negate else c for c, negate in coeffs]
    top = 3 * len(coeffs) + extra
    got = identities._powers_of_k(coeffs, top)
    assert [[Fraction(a, 1 << e) for a in column] for column, e in got] == _fraction_powers(
        coeffs, top
    )
    # The shared exponent is as small as it can be.
    assert all(e == 0 or any(a % 2 for a in column) for column, e in got)
