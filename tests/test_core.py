"""Presentations, element arithmetic, the regular representation, and the
Pythagorean function.

Expected values for the nontrivial cases are frozen from independent
oracles defined at the top of this file (plain expand-and-reduce for
products, numpy polynomial composition for generator shifts).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from atrig import (
    AlgebraElement,
    depress,
    element_literal,
    exp,
    invert,
    make_presentation,
    mul,
    parse_element,
    preset,
    pythagorean,
    rep_matrix,
    shift_element,
)
from atrig.core import PRESET_KINDS, PrincipalPresentation
from atrig.errors import (
    EmptyCoefficients,
    InvalidArgument,
    InvalidDegree,
    InvalidKind,
    NonFiniteCoefficient,
    NotAUnit,
    PresentationMismatch,
)

# -- independent oracles -------------------------------------------------------


def mod_mul_oracle(pres, a, b):
    """Full convolution followed by explicit degree lowering, no matrices."""
    full = np.convolve(np.asarray(a, float), np.asarray(b, float))
    n = pres.degree
    c = np.array(pres.modulus_coeffs)
    for d in range(len(full) - 1, n - 1, -1):
        top = full[d]
        full[d] = 0.0
        for j in range(n):
            full[d - n + j] -= top * c[j]
    return full[:n]


def shifted_modulus_oracle(coeffs, shift):
    """Coefficients of p(t + shift) via numpy polynomial composition."""
    p = Polynomial(list(coeffs) + [1.0])
    q = p(Polynomial([shift, 1.0]))
    out = q.coef
    assert abs(out[-1] - 1.0) < 1e-12
    return out[:-1]


# -- construction --------------------------------------------------------------


def test_make_presentation_basic():
    h2 = make_presentation([-1, 0])
    assert h2.degree == 2
    assert h2.modulus_coeffs == (-1.0, 0.0)
    assert h2.is_depressed() and h2.is_pure_power()
    c = make_presentation([1, 0])
    assert c.modulus_coeffs == (1.0, 0.0)


def test_make_presentation_rejects_bad_input():
    with pytest.raises(EmptyCoefficients):
        make_presentation([])
    with pytest.raises(NonFiniteCoefficient):
        make_presentation([1.0, float("nan")])
    with pytest.raises(NonFiniteCoefficient):
        make_presentation([float("inf")])


@pytest.mark.parametrize(
    "document",
    [
        {"coeffs": 5},
        [1, 2],
        {"coeffs": [1, None]},
        {"coeffs": [1, 2], "label": 7},
        {"coeffs": "12"},
        {"coeffs": [1, [2, 3]]},
        {"label": "no coefficients"},
    ],
)
def test_malformed_algebra_documents_are_refused(document):
    with pytest.raises(InvalidArgument):
        PrincipalPresentation.from_json_dict(document)


@pytest.mark.parametrize(
    "kind, n, coeffs",
    [
        ("hyperbolic", 3, (-1.0, 0.0, 0.0)),
        ("complicated", 2, (1.0, 0.0)),
        ("nil", 2, (0.0, 0.0)),
    ],
)
def test_preset_examples(kind, n, coeffs):
    pres = preset(kind, n)
    assert pres.modulus_coeffs == coeffs
    assert pres.is_depressed() and pres.is_pure_power()


def test_preset_errors():
    with pytest.raises(InvalidKind):
        preset("quaternionic", 2)
    with pytest.raises(InvalidDegree):
        preset("hyperbolic", 0)
    for degree in (True, False, 2.0):
        with pytest.raises(InvalidDegree):
            preset("hyperbolic", degree)


@pytest.mark.parametrize("degree", [np.int64(3), np.uint8(3), np.int32(3)])
def test_preset_takes_numpy_integers(degree):
    pres = preset("complicated", degree)
    assert pres == preset("complicated", 3)
    assert pres.label == "C3"


def test_presentation_flags():
    assert not make_presentation([0, -2]).is_depressed()
    assert make_presentation([1, 2, 0]).is_depressed()
    assert not make_presentation([1, 2, 0]).is_pure_power()
    assert make_presentation([0, 0, 0]).is_nil()
    assert not make_presentation([-1, 0]).is_nil()


def test_presentation_json_roundtrip():
    pres = make_presentation([0.5, -2.0, 0.0], label="demo")
    again = PrincipalPresentation.from_json_dict(pres.to_json_dict())
    assert again == pres


# -- depress -------------------------------------------------------------------


def test_depress_examples():
    shifted, s = depress(make_presentation([0, -2]))
    assert shifted.modulus_coeffs == (-1.0, 0.0)
    assert s == 1.0

    pres = make_presentation([1, 0])
    same, s = depress(pres)
    assert same is pres and s == 0.0

    # frozen from shifted_modulus_oracle((0, 0, 3), -1): (k-1)^3 + 3(k-1)^2
    shifted, s = depress(make_presentation([0, 0, 3]))
    assert s == -1.0
    np.testing.assert_allclose(shifted.modulus_coeffs, (2.0, -3.0, 0.0), atol=1e-14)
    np.testing.assert_allclose(
        shifted_modulus_oracle((0, 0, 3), -1.0), (2.0, -3.0, 0.0), atol=1e-14
    )


def test_depress_matches_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pres = make_presentation(rng.uniform(-2, 2, n))
        shifted, s = depress(pres)
        assert shifted.is_depressed()
        np.testing.assert_allclose(
            shifted.modulus_coeffs,
            shifted_modulus_oracle(pres.modulus_coeffs, s),
            rtol=1e-12,
            atol=1e-12,
        )


def test_depress_roundtrip_with_multiplication(rng):
    # Shifting coordinates commutes with multiplication: the substitution
    # k -> k + s is an algebra isomorphism.
    for _ in range(25):
        n = int(rng.integers(2, 7))
        pres = make_presentation(rng.uniform(-2, 2, n))
        shifted, s = depress(pres)
        z = AlgebraElement(pres, rng.uniform(-2, 2, n))
        w = AlgebraElement(pres, rng.uniform(-2, 2, n))
        moved = mul(shift_element(z, s, shifted), shift_element(w, s, shifted))
        direct = shift_element(mul(z, w), s, shifted)
        np.testing.assert_allclose(moved.coords, direct.coords, rtol=1e-10, atol=1e-10)


def test_depress_refuses_coefficients_that_overflow():
    # Shifting k^3 + 1e300 k^2 + 1e300 k + 1 by -1e300/3 overflows.
    with pytest.raises(NonFiniteCoefficient):
        depress(make_presentation([1.0, 1e300, 1e300]))


def test_shift_element_refuses_a_result_that_overflows(h3):
    # 1e200 (k + 1e200)^2 holds 1e600.
    with pytest.raises(InvalidArgument, match="not finite"):
        shift_element(h3.element([0.0, 0.0, 1e200]), 1e200, h3)


# -- multiplication ------------------------------------------------------------


def test_mul_examples(h2, c2, gamma2):
    i = c2.element([0, 1])
    np.testing.assert_allclose(mul(i, i).coords, [-1, 0], atol=1e-15)
    j = h2.element([0, 1])
    np.testing.assert_allclose(mul(j, j).coords, [1, 0], atol=1e-15)
    # frozen from mod_mul_oracle: (1 + 2 eps)(1 + 3 eps) with eps^2 = 0
    left, right = gamma2.element([1, 2]), gamma2.element([1, 3])
    np.testing.assert_allclose(mul(left, right).coords, [1, 5], atol=1e-15)
    np.testing.assert_allclose(
        mod_mul_oracle(gamma2, [1, 2], [1, 3]), [1, 5], atol=1e-15
    )


def test_mul_matches_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pres = make_presentation(rng.uniform(-2, 2, n))
        a, b = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n)
        got = mul(AlgebraElement(pres, a), AlgebraElement(pres, b)).coords
        np.testing.assert_allclose(got, mod_mul_oracle(pres, a, b), rtol=1e-12, atol=1e-12)


def test_mul_requires_same_presentation(h2, c2):
    with pytest.raises(PresentationMismatch):
        mul(h2.element([1, 0]), c2.element([1, 0]))
    with pytest.raises(PresentationMismatch):
        h2.element([1, 0]) + c2.element([1, 0])


@pytest.mark.filterwarnings("error")
def test_mul_refuses_a_product_that_is_not_finite(h2, c2):
    big = h2.element([1e200, 0])
    nan = c2.element([float("nan"), 1.0])
    inf = c2.element([0.0, float("inf")])
    for a, b in ((big, big), (nan, c2.one()), (c2.one(), nan), (inf, c2.one())):
        with pytest.raises(InvalidArgument):
            mul(a, b)
    with pytest.raises(InvalidArgument):
        big * big


# The element of [0.6, -1e300] has a finite M(z) column 0 but k * z overflows.
_OVERFLOWING = ([1.3e157, -1.1e157], [0.6, -1e300])


@pytest.mark.filterwarnings("error")
def test_rep_matrix_refuses_an_overflowing_representation():
    coeffs, coords = _OVERFLOWING
    with pytest.raises(InvalidArgument, match="overflows"):
        rep_matrix(make_presentation(coeffs).element(coords))


@pytest.mark.filterwarnings("error")
def test_pythagorean_returns_an_overflowing_value_without_warning(h2):
    assert pythagorean(h2.element([1e200, 0])) == np.inf
    coeffs, coords = _OVERFLOWING
    assert np.isnan(pythagorean(make_presentation(coeffs).element(coords)))


@pytest.mark.filterwarnings("error")
def test_invert_refuses_an_overflowing_representation_without_warning():
    coeffs, coords = _OVERFLOWING
    with pytest.raises(InvalidArgument):
        invert(make_presentation(coeffs).element(coords))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "operation",
    [
        lambda big, one: big + big,
        lambda big, one: big - (-big),
        lambda big, one: big * 10.0,
        lambda big, one: 10.0 * big,
        lambda big, one: one * float("nan"),
        lambda big, one: one / 0.0,
        lambda big, one: one * 10**400,
        lambda big, one: one / 10**400,
    ],
    ids=["add", "sub", "mul", "rmul", "mul-nan", "div", "mul-huge-int", "div-huge-int"],
)
def test_element_operators_refuse_a_result_that_is_not_finite(h2, operation):
    with pytest.raises(InvalidArgument):
        operation(h2.element([1e308, 0]), h2.one())


def test_negation_refuses_coordinates_that_are_not_finite(h2):
    with pytest.raises(InvalidArgument):
        -h2.element([float("nan"), 0])


@pytest.mark.parametrize("power", [True, 1.5, 2, -1, "1"])
def test_generator_refuses_a_power_that_is_not_an_index(h2, power):
    with pytest.raises(InvalidArgument):
        h2.generator(power)


@pytest.mark.parametrize(
    "coords", [[1, 2, 3], [[1, 2]], ["a", 1], [1j, 1], {}, [[1], [2, 3]]]
)
def test_element_refuses_coordinates_that_are_not_n_reals(h2, coords):
    with pytest.raises(InvalidArgument):
        AlgebraElement(h2, coords)


# A float conversion reads None as NaN, parses numeric strings and takes the
# items of an object array as they come; each must be refused instead.
def test_element_refuses_none(h2):
    with pytest.raises(InvalidArgument):
        h2.element([1.5, None])


def test_element_refuses_strings(h2):
    with pytest.raises(InvalidArgument):
        h2.element(["1.5", "2"])


def test_element_refuses_an_object_array(h2):
    with pytest.raises(InvalidArgument):
        h2.element(np.array([1.5, 2.0], dtype=object))


def test_element_refuses_an_int_past_the_double_range(h2):
    with pytest.raises(InvalidArgument):
        h2.element([10**400, 0])


def test_element_takes_real_numbers_of_any_type(h2):
    for coords in ([1, 2], (1.0, 2), np.array([1, 2]), np.array([1, 2], dtype=np.float32)):
        assert h2.element(coords).coords.tolist() == [1.0, 2.0]
    assert h2.element([Fraction(1, 2), 10**20]).coords.tolist() == [0.5, 1e20]


def test_element_operators(h2):
    z = h2.element([1, 2])
    w = h2.element([0, 1])
    np.testing.assert_allclose((z + w).coords, [1, 3])
    np.testing.assert_allclose((z - w).coords, [1, 1])
    np.testing.assert_allclose((-z).coords, [-1, -2])
    np.testing.assert_allclose((2 * z).coords, [2, 4])
    np.testing.assert_allclose((z / 2).coords, [0.5, 1])
    np.testing.assert_allclose((z * w).coords, mul(z, w).coords)


bounded = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


@given(
    st.lists(bounded, min_size=3, max_size=3),
    st.lists(bounded, min_size=3, max_size=3),
)
def test_mul_commutes_h3(a, b):
    h3 = preset("hyperbolic", 3)
    left = mul(h3.element(a), h3.element(b)).coords
    right = mul(h3.element(b), h3.element(a)).coords
    np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-10)


@given(
    st.lists(bounded, min_size=2, max_size=2),
    st.lists(bounded, min_size=2, max_size=2),
    st.lists(bounded, min_size=2, max_size=2),
)
def test_mul_associates_c2(a, b, c):
    c2 = preset("complicated", 2)
    x, y, z = c2.element(a), c2.element(b), c2.element(c)
    left = mul(mul(x, y), z).coords
    right = mul(x, mul(y, z)).coords
    np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-10)


def test_commutative_associative_sweep(rng):
    # 1000 random triples per preset algebra, dims 2-6.
    for kind in PRESET_KINDS:
        for n in range(2, 7):
            pres = preset(kind, n)
            for _ in range(1000):
                x, y, z = (AlgebraElement(pres, rng.uniform(-2, 2, n)) for _ in range(3))
                np.testing.assert_allclose(
                    mul(x, y).coords, mul(y, x).coords, rtol=1e-10, atol=1e-12
                )
                np.testing.assert_allclose(
                    mul(mul(x, y), z).coords,
                    mul(x, mul(y, z)).coords,
                    rtol=1e-10,
                    atol=1e-10,
                )


# -- regular representation ----------------------------------------------------


def test_rep_matrix_complex_form(c2):
    x, y = 1.5, -2.0
    np.testing.assert_allclose(
        rep_matrix(c2.element([x, y])), [[x, -y], [y, x]], atol=1e-15
    )


def test_rep_matrix_hyperbolic_form(h2):
    # frozen from the column rule: columns are z and z * j
    x, y = 0.75, 2.25
    np.testing.assert_allclose(
        rep_matrix(h2.element([x, y])), [[x, y], [y, x]], atol=1e-15
    )


@pytest.mark.parametrize("kind", PRESET_KINDS)
@pytest.mark.parametrize("n", [2, 4, 6])
def test_rep_matrix_of_one_is_identity(kind, n):
    pres = preset(kind, n)
    np.testing.assert_array_equal(rep_matrix(pres.one()), np.eye(n))


def test_column_rule_exact(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        pres = make_presentation(rng.uniform(-2, 2, n))
        z = AlgebraElement(pres, rng.uniform(-2, 2, n))
        matrix = rep_matrix(z)
        for j in range(n):
            np.testing.assert_array_equal(
                matrix[:, j], mul(z, pres.generator(j)).coords
            )


def test_rep_matrix_is_homomorphism(rng):
    for kind in PRESET_KINDS:
        for n in range(2, 7):
            pres = preset(kind, n)
            for _ in range(30):
                z = AlgebraElement(pres, rng.uniform(-2, 2, n))
                w = AlgebraElement(pres, rng.uniform(-2, 2, n))
                np.testing.assert_allclose(
                    rep_matrix(mul(z, w)),
                    rep_matrix(z) @ rep_matrix(w),
                    rtol=1e-10,
                    atol=1e-10,
                )
                np.testing.assert_allclose(
                    pythagorean(mul(z, w)),
                    pythagorean(z) * pythagorean(w),
                    rtol=1e-9,
                    atol=1e-10,
                )


# -- Pythagorean function -------------------------------------------------------


def test_pythagorean_complex_is_square_norm(c2, rng):
    for _ in range(10):
        x, y = rng.uniform(-3, 3, 2)
        assert pythagorean(c2.element([x, y])) == pytest.approx(x * x + y * y)


def test_pythagorean_hyperbolic_unit(h2):
    theta = 0.85
    z = h2.element([np.cosh(theta), np.sinh(theta)])
    assert pythagorean(z) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_pythagorean_scalar(kind):
    pres = preset(kind, 4)
    assert pythagorean(2.5 * pres.one()) == pytest.approx(2.5**4)


def test_pythagorean_homogeneity(rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        pres = make_presentation(rng.uniform(-2, 2, n))
        z = AlgebraElement(pres, rng.uniform(-2, 2, n))
        rho = float(rng.uniform(-3, 3))
        np.testing.assert_allclose(
            pythagorean(rho * z), rho**n * pythagorean(z), rtol=1e-9, atol=1e-12
        )


@pytest.mark.parametrize("coeffs", [[1e120] * 6, [1e184] * 3])
def test_a_modulus_whose_powers_overflow_is_refused(coeffs):
    # k^(2n-2) reduces to about 1e600 and 1e368: no M(z) there is finite.
    pres = make_presentation(coeffs)
    calls = [
        lambda: rep_matrix(pres.one()),
        lambda: exp(pres.zero()),
        lambda: mul(pres.one(), pres.generator(1)),
        lambda: pythagorean(pres.one()),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match="overflow"):
            call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_pythagorean_and_invert_refuse_non_finite_coordinates(h2, bad):
    for operation in (pythagorean, invert, rep_matrix):
        for coords in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(InvalidArgument, match="finite coordinates"):
                operation(h2.element(coords))


# -- inversion -------------------------------------------------------------------


@pytest.mark.filterwarnings("error")
def test_invert_examples(h2, c2):
    np.testing.assert_allclose(invert(c2.element([0, 1])).coords, [0, -1], atol=1e-15)
    pres = preset("hyperbolic", 4)
    np.testing.assert_allclose(
        invert(2 * pres.one()).coords, (0.5 * pres.one()).coords, atol=1e-15
    )
    with pytest.raises(NotAUnit):
        invert(h2.element([1, 1]))
    # F(z) = 1e400 is not a finite double.  The zero divisor has F(z) = 0
    # while its unit scale, 1e400, overflows too.
    with pytest.raises(InvalidArgument):
        invert(h2.element([1e200, 0]))
    with pytest.raises(NotAUnit):
        invert(h2.element([1e200, 1e200]))


def test_invert_is_right_inverse(rng):
    pres = preset("complicated", 5)
    hits = 0
    while hits < 20:
        z = AlgebraElement(pres, rng.uniform(-2, 2, 5))
        try:
            w = invert(z)
        except NotAUnit:
            continue
        hits += 1
        np.testing.assert_allclose(mul(z, w).coords, pres.one().coords, atol=1e-12)


# -- literals ---------------------------------------------------------------------


def test_element_literal_roundtrip(h3):
    z = h3.element([1.25, -0.5, 3.0])
    assert parse_element(h3, element_literal(z)) == z
    with pytest.raises(InvalidArgument):
        parse_element(h3, "1,2")
    with pytest.raises(InvalidArgument):
        parse_element(h3, "1,x,3")


def _rep_reference(coords, c):
    """Column recurrence written out one column at a time: column j is k * column j-1."""
    n = len(coords)
    cols = np.empty((n, n))
    col = np.array(coords, dtype=float)
    cols[:, 0] = col
    for j in range(1, n):
        top = col[-1]
        nxt = np.empty(n)
        nxt[0] = -c[0] * top
        nxt[1:] = col[:-1] - c[1:] * top
        cols[:, j] = col = nxt
    return cols


def _routes(coeffs):
    """The fold table, the product table built from it, and the table
    ``_rep_table`` serves: the product table up to degree 16, the fold table
    above it, one read-only object per modulus."""
    from atrig.core import _fold_table, _rep_table

    n = len(coeffs)
    fold = _fold_table(tuple(coeffs))
    # product[i, r n + j] = fold[r, i + j], stacked over i
    product = np.stack([fold[:, i : i + n] for i in range(n)]).reshape(n, n * n)
    served = _rep_table(tuple(coeffs))
    assert served is _rep_table(tuple(coeffs)) and not served.flags.writeable
    # (16, 256) at n = 16, (17, 33) at n = 17
    assert served.shape == ((n, n * n) if n <= 16 else (n, 2 * n - 1))
    assert np.array_equal(served, product if n <= 16 else fold)
    return fold, product, served


@pytest.mark.parametrize("n", [1, 2, 3, 6, 16, 17, 32])
def test_stacked_rep_matches_column_recurrence(n, rng):
    from atrig.core import _rep_stack

    moduli = [np.zeros(n), np.eye(n)[0], -np.eye(n)[0], rng.uniform(-2, 2, n)]
    for index, c in enumerate(moduli):
        batch = rng.uniform(-2, 2, (7, n))
        batch[1] = 0.0
        batch[2, ::2] = -0.0
        # The fold table's Hankel route, the product table's route and the
        # table the library serves meet the same checks.
        for table in _routes(c):
            stacked = _rep_stack(batch, table)
            assert stacked.shape == (7, n, n)
            assert stacked.flags.c_contiguous
            deeper = _rep_stack(batch[None], table)[0]
            assert np.array_equal(deeper.view(np.int64), stacked.view(np.int64))
            for row, matrix in zip(batch, stacked):
                reference = _rep_reference(row, c)
                if index < 3:
                    # Preset moduli fold without rounding; only zero signs differ.
                    assert np.array_equal(matrix, reference)
                else:
                    # sum_i |z_i| |M|(k^i), with the powers of k taken by the
                    # recurrence in absolute values (modulus -|c|), bounds the
                    # rounding of either route to first order.
                    bound = 4 * n * 2.0**-53 * _rep_reference(np.abs(row), -np.abs(c))
                    assert np.all(np.abs(matrix - reference) <= bound)
                # bitwise, so signed zeros must agree too
                single = _rep_stack(row, table)
                assert single.flags.c_contiguous
                assert np.array_equal(single.view(np.int64), matrix.view(np.int64))


eighths = st.integers(-16, 16).map(lambda i: i / 8)


@given(
    coeffs=st.lists(eighths, min_size=1, max_size=6),
    z=st.lists(eighths, min_size=6, max_size=6),
)
def test_fold_table_and_rep_are_exact_on_eighth_step_moduli(coeffs, z):
    # Eighth-step moduli of degree <= 6 and dyadic z keep every power of k
    # and every entry of M(z) within 53 bits, so the float kernel is exact.
    from fractions import Fraction

    from atrig.core import _rep_stack
    from atrig.identities import _powers_of_k

    n = len(coeffs)
    powers = _powers_of_k(coeffs, 2 * n - 2)
    powers = [[Fraction(a, 1 << e) for a in column] for column, e in powers]
    routes = _routes(coeffs)
    fold = routes[0]
    assert [[Fraction(x) for x in column] for column in fold.T.tolist()] == powers
    z = [Fraction(x) for x in z[:n]]
    exact = [
        [sum(z[i] * powers[i + j][row] for i in range(n)) for j in range(n)]
        for row in range(n)
    ]
    for table in routes:
        matrix = _rep_stack(np.array(z, dtype=float), table)
        assert [[Fraction(x) for x in row] for row in matrix.tolist()] == exact

