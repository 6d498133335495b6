"""Exponential, trig components, modulus, logarithm, argument, polar form."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrig import (
    AlgebraElement,
    BranchSpec,
    arg,
    exp,
    find_roots,
    log,
    make_presentation,
    modulus,
    mul,
    polar,
    preset,
    pythagorean,
    rep_matrix,
    trig_components,
)
from atrig.errors import (
    AlgebraError,
    InvalidArgument,
    InvalidPower,
    NonPositivePythagorean,
    NonSemisimple,
    OutsideLogDomain,
    ShapeMismatch,
    UnsupportedAlgebra,
)
from atrig.spectral import UNIT_ROUNDOFF
from atrig.core import _rep_stack, _rep_table
from atrig.identities import _powers_of_k
from atrig.transcendental import (
    _TAYLOR_BLOCKS,
    _TAYLOR_DEGREE,
    _THETA,
    _exp_coords,
    _log_coords,
    _monomial_series,
    _squaring_count,
)
from atrig.verify import (
    random_depressed_presentation,
    random_ld_sample,
    random_rational_presentation,
)


def nil_exp_oracle(pres, coords):
    """Closed-form exponential for nilpotent generators: the series ends at
    degree n-1, so sum the truncated polynomial powers directly."""
    n = pres.degree
    x1 = coords[0]
    rest = np.array(coords, dtype=float)
    rest[0] = 0.0
    total = np.zeros(n)
    total[0] = 1.0
    power = np.zeros(n)
    power[0] = 1.0
    factorial = 1.0
    for m in range(1, n):
        factorial *= m
        # multiply power by rest, truncating above degree n-1 (eps^n = 0)
        new = np.zeros(n)
        for i in range(n):
            if power[i] == 0.0:
                continue
            for j in range(n - i):
                new[i + j] += power[i] * rest[j]
        power = new
        total += power / factorial
    return math.exp(x1) * total


# -- exponential -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["hyperbolic", "complicated", "nil"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_exp_of_zero_is_one(kind, n):
    pres = preset(kind, n)
    np.testing.assert_allclose(exp(pres.zero()).coords, pres.one().coords, atol=1e-15)


def test_exp_imaginary_pi(c2):
    result = exp(c2.element([0, math.pi]))
    np.testing.assert_allclose(result.coords, [-1.0, 0.0], atol=1e-12)


def test_exp_matches_cosh_sinh(h2):
    theta = 1.0
    result = exp(h2.element([0, theta]))
    np.testing.assert_allclose(
        result.coords, [math.cosh(theta), math.sinh(theta)], rtol=1e-14
    )


def test_exp_nilpotent_closed_form(gamma2, rng):
    for _ in range(10):
        x1, x2 = rng.uniform(-2, 2, 2)
        result = exp(gamma2.element([x1, x2])).coords
        np.testing.assert_allclose(
            result, [math.exp(x1), math.exp(x1) * x2], rtol=1e-13
        )
        np.testing.assert_allclose(
            result, nil_exp_oracle(gamma2, [x1, x2]), rtol=1e-13
        )


@pytest.mark.parametrize("n", [3, 4, 6])
def test_exp_nilpotent_oracle(n, rng):
    pres = preset("nil", n)
    for _ in range(5):
        coords = rng.uniform(-1.5, 1.5, n)
        np.testing.assert_allclose(
            exp(pres.element(coords)).coords,
            nil_exp_oracle(pres, coords),
            rtol=1e-12,
            atol=1e-12,
        )


def test_exp_rejects_non_finite(h2):
    with pytest.raises(ValueError):
        exp(h2.element([float("inf"), 0]))


@given(
    st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=3, max_size=3),
)
@settings(max_examples=50)
def test_exp_one_parameter_group_law(a, b):
    pres = preset("complicated", 3)
    z, w = pres.element(a), pres.element(b)
    left = exp(z + w).coords
    right = mul(exp(z), exp(w)).coords
    np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)


def test_exp_inverse_pairs(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pres = random_depressed_presentation(rng, n)
        z = AlgebraElement(pres, rng.uniform(-1, 1, n))
        product = mul(exp(z), exp(-z))
        np.testing.assert_allclose(product.coords, pres.one().coords, atol=1e-10)


# -- trig components -------------------------------------------------------------


def test_trig_components_h2(h2):
    theta = 0.8
    np.testing.assert_allclose(
        trig_components(h2, 1, theta), [math.cosh(theta), math.sinh(theta)], rtol=1e-14
    )


def test_trig_components_c2(c2):
    theta = 0.8
    np.testing.assert_allclose(
        trig_components(c2, 1, theta), [math.cos(theta), math.sin(theta)], rtol=1e-13, atol=1e-15
    )


@pytest.mark.parametrize("kind", ["hyperbolic", "complicated", "nil"])
def test_trig_components_at_zero(kind):
    pres = preset(kind, 4)
    np.testing.assert_allclose(trig_components(pres, 2, 0.0), [1, 0, 0, 0], atol=1e-15)


def test_trig_components_h3_power_two_permutes(h3):
    # exp(k^2 psi) carries the same three component functions as exp(k psi)
    # with the two sinh-like entries swapped.
    psi = 0.65
    base = trig_components(h3, 1, psi)
    swapped = trig_components(h3, 2, psi)
    assert swapped[0] == pytest.approx(base[0], rel=1e-12)
    assert swapped[1] == pytest.approx(base[2], rel=1e-12)
    assert swapped[2] == pytest.approx(base[1], rel=1e-12)


def test_trig_components_invalid_power(h3):
    with pytest.raises(InvalidPower):
        trig_components(h3, 0, 1.0)
    with pytest.raises(InvalidPower):
        trig_components(h3, 3, 1.0)


def test_mixed_exponential_h3(h3):
    # exp(k theta + k^2 psi) expands into bilinear combinations of the
    # one-variable components: with (a1,a2,a3) at theta and (b1,b2,b3) at psi,
    # the coordinates are (a1b1+a2b2+a3b3, a1b3+a2b1+a3b2, a1b2+a2b3+a3b1).
    theta, psi = 0.7, -0.4
    a1, a2, a3 = trig_components(h3, 1, theta)
    b1, b2, b3 = trig_components(h3, 1, psi)
    z = exp(h3.element([0.0, theta, psi]))
    expected = [
        a1 * b1 + a2 * b2 + a3 * b3,
        a1 * b3 + a2 * b1 + a3 * b2,
        a1 * b2 + a2 * b3 + a3 * b1,
    ]
    np.testing.assert_allclose(z.coords, expected, rtol=1e-12)


# -- unit-determinant sweeps ------------------------------------------------------


def test_unit_pythagorean_on_depressed_presentations(rng):
    for _ in range(8):
        n = int(rng.integers(2, 7))
        pres = random_depressed_presentation(rng, n)
        for theta in rng.uniform(-3, 3, 20):
            value = pythagorean(exp(pres.element([0.0, theta] + [0.0] * (n - 2))))
            assert value == pytest.approx(1.0, abs=1e-9)


def test_column_derivative_relations(h3):
    # d/dtheta of column i of M(exp(k theta)) is the next column; the last
    # column folds back through the modulus coefficients.
    h = 1e-5
    c = np.array(h3.modulus_coeffs)
    for theta in (0.0, 0.6, -1.1):
        plus = rep_matrix(exp(h3.element([0, theta + h, 0])))
        minus = rep_matrix(exp(h3.element([0, theta - h, 0])))
        centre = rep_matrix(exp(h3.element([0, theta, 0])))
        derivative = (plus - minus) / (2 * h)
        np.testing.assert_allclose(derivative[:, 0], centre[:, 1], atol=1e-6)
        np.testing.assert_allclose(derivative[:, 1], centre[:, 2], atol=1e-6)
        np.testing.assert_allclose(derivative[:, 2], -centre @ c, atol=1e-6)


def test_pythagorean_deviation_probe():
    # The multi-angle exponential exp(k t1 + ... + k^{n-1} t_{n-1}) keeps a
    # unit Pythagorean value on pure-power presentations, visibly not on k^3 + k.
    h4 = preset("hyperbolic", 4)
    assert abs(pythagorean(exp(h4.element([0.0, 0.4, -0.9, 1.3]))) - 1.0) <= 1e-9
    mixed = make_presentation([0.0, 1.0, 0.0])
    assert abs(pythagorean(exp(mixed.element([0.0, 0.0, 1.0]))) - 1.0) > 1e-3


def test_pure_power_gate_witness():
    # k^3 + k has a nonzero intermediate coefficient, and exp(k^2 theta)
    # visibly leaves the unit level set of the Pythagorean function.
    pres = make_presentation([0.0, 1.0, 0.0])
    deviations = [
        abs(pythagorean(exp(pres.element([0, 0, t]))) - 1.0)
        for t in np.linspace(0.5, 2.0, 7)
    ]
    assert max(deviations) > 1e-3


@pytest.mark.parametrize("kind", ["hyperbolic", "complicated", "nil"])
def test_pure_power_presets_stay_unit(kind, rng):
    pres = preset(kind, 5)
    for m in range(1, 5):
        for theta in rng.uniform(-3, 3, 10):
            coords = np.zeros(5)
            coords[m] = theta
            assert pythagorean(exp(pres.element(coords))) == pytest.approx(
                1.0, abs=1e-9
            )


# -- modulus ----------------------------------------------------------------------


def test_modulus_examples(c2, gamma2):
    assert modulus(c2.element([3, 4])) == pytest.approx(5.0, rel=1e-12)
    pres = preset("hyperbolic", 5)
    assert modulus(2.5 * pres.one()) == pytest.approx(2.5, rel=1e-12)
    # frozen from the Pythagorean op: F = x1^2 on the nil plane
    x1, x2 = 1.75, -3.0
    assert pythagorean(gamma2.element([x1, x2])) == pytest.approx(x1 * x1)
    assert modulus(gamma2.element([x1, x2])) == pytest.approx(x1, rel=1e-12)


def test_modulus_gates(h2):
    with pytest.raises(UnsupportedAlgebra):
        modulus(make_presentation([0.0, 1.0, 0.0]).element([1, 0, 0]))
    with pytest.raises(NonPositivePythagorean):
        modulus(h2.element([0, 1]))  # F = -1


@pytest.mark.filterwarnings("error")
def test_modulus_of_a_pythagorean_value_that_underflows_is_refused(c2):
    # F(z) = 1e-640 is zero in doubles.
    with pytest.raises(NonPositivePythagorean):
        modulus(c2.element([0.0, 1e-320]))


def test_modulus_homogeneity(rng):
    pres = preset("complicated", 4)
    for _ in range(25):
        z = random_ld_sample(rng, pres, find_roots(pres))
        rho = float(rng.uniform(0.1, 3.0))
        assert modulus(rho * z) == pytest.approx(rho * modulus(z), rel=1e-9)


# -- logarithm --------------------------------------------------------------------


def test_log_examples(h2, c2, gamma2):
    np.testing.assert_allclose(
        log(c2.element([-1, 0])).coords, [0.0, math.pi], atol=1e-12
    )
    # frozen from the forward exponential: exp(k * 1) in the hyperbolic plane
    z = h2.element([math.cosh(1), math.sinh(1)])
    np.testing.assert_allclose(log(z).coords, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(log(gamma2.element([1, 5])).coords, [0.0, 5.0], atol=1e-14)


@pytest.mark.filterwarnings("error")
def test_log_of_huge_elements_is_finite_or_refused():
    c3 = preset("complicated", 3)
    z = c3.element([1e308, 1e308, 1e308])
    # |w| overflows at the complex roots though w is finite; the answer
    # must agree with log z = log(2^-64 z) + 64 log 2.
    expected = log(c3.element(np.ldexp(z.coords, -64))).coords + [64 * math.log(2), 0, 0]
    np.testing.assert_allclose(log(z).coords, expected, rtol=1e-15, atol=1e-13)
    np.testing.assert_allclose(arg(z).coords[1:], expected[1:], rtol=1e-15, atol=1e-13)
    # Component values that overflow are rescaled, and these elements have
    # exactly zero components besides, so they lie outside the domain.
    for pres, coords in (
        (preset("hyperbolic", 2), [1.5e308, 1.5e308]),
        (preset("hyperbolic", 32), np.full(32, 1e307)),
    ):
        for call in (log, arg):
            with pytest.raises(OutsideLogDomain):
                call(pres.element(coords))
    # On a nil algebra the nilpotent part z / z_0 overflows.
    for call in (log, arg):
        with pytest.raises(InvalidArgument, match="overflow"):
            call(preset("nil", 3).element([1e-300, 1e10, 0.0]))


@pytest.mark.filterwarnings("error")
def test_log_of_component_values_that_overflow():
    # V z = [2.5e308, 5e307] at the roots 1 and -1 of H2: the first
    # overflows, yet log z = [log(1.25e616) / 2, log(5) / 2] is finite.
    h2 = preset("hyperbolic", 2)
    z = h2.element([1.5e308, 1e308])
    want = [(math.log(2.5) + math.log(0.5)) / 2 + math.log(1e308), math.log(5.0) / 2]
    np.testing.assert_allclose(log(z).coords, want, rtol=1e-15)
    np.testing.assert_allclose(log(z).coords, [709.3078, 0.8047], atol=1e-4)
    np.testing.assert_allclose(arg(z).coords, [0.0, want[1]], rtol=1e-15)
    form = polar(z)
    # rho = exp(x_0) carries the rounding of x_0 = 709.3, about 709 u relative.
    assert form.rho == pytest.approx(math.sqrt(1.25) * 1e308, rel=1e-12)
    np.testing.assert_allclose(form.arg.coords, [0.0, want[1]], rtol=1e-15)
    # The overflowing row of a batch is rescaled alone: every row, the
    # ordinary ones bit for bit, equals its one-row call.
    rows = np.array([[2.0, 0.5], [1.5e308, 1e308], [3.0, -1.0], [0.7, 0.1]])
    batch = _log_coords(rows, h2, BranchSpec(), None)
    for row, got in zip(rows, batch):
        np.testing.assert_array_equal(got, log(h2.element(row)).coords)
    plain = _log_coords(np.delete(rows, 1, axis=0), h2, BranchSpec(), None)
    np.testing.assert_array_equal(np.delete(batch, 1, axis=0), plain)


def test_log_outside_domain(h2, c2, gamma2):
    with pytest.raises(OutsideLogDomain):
        log(h2.element([-1, 0]))  # negative real components
    with pytest.raises(OutsideLogDomain):
        log(h2.element([1, 1]))  # component at root -1 is zero
    with pytest.raises(OutsideLogDomain):
        log(gamma2.element([-1, 2]))
    with pytest.raises(OutsideLogDomain):
        log(c2.element([0, 0]))


@pytest.mark.filterwarnings("error")
def test_non_finite_input_is_refused_not_propagated(h2, c2, gamma2):
    # Coordinates that are not finite lie outside the logarithmic domain on
    # every path, rather than being carried into the result.
    nan = float("nan")
    for pres in (gamma2, preset("nil", 3)):
        for at in range(pres.degree):
            for bad in (nan, float("inf")):
                coords = np.eye(pres.degree)[0]
                coords[at] = bad
                with pytest.raises(OutsideLogDomain):
                    log(pres.element(coords))
    for pres in (h2, c2, preset("complicated", 3)):
        for at in range(pres.degree):
            coords = np.eye(pres.degree)[0]
            coords[at] = nan
            with pytest.raises(OutsideLogDomain):
                log(pres.element(coords))
    for pres in (gamma2, h2, c2):
        with pytest.raises(NonPositivePythagorean):
            modulus(pres.element([nan, 0.0]))
        # polar takes no determinant: NaN is refused by its logarithm.
        with pytest.raises(OutsideLogDomain):
            polar(pres.element([nan, 0.0]))
    # A Pythagorean value that overflows is refused too.
    with pytest.raises(InvalidArgument, match="not finite"):
        modulus(h2.element([1e200, 0.0]))
    # rho = exp(x_0) is finite where F(z) = rho^2 is not.  exp turns the
    # rounding of x_0 = log 1e200 into a relative error of about |x_0| u.
    z = h2.element([1e200, 0.0])
    form = polar(z)
    assert form.rho == pytest.approx(1e200, rel=1e-13)
    assert np.abs(form.recombine().coords - z.coords).max() <= 1e-13 * 1e200


def exact_nil_log(coords):
    """log z - log z_0 on k^n = 0 in exact rational arithmetic: the
    recurrence g_j = N_j - (1/j) sum_{0<i<j} i g_i N_{j-i} for N = z / z_0."""
    f = [Fraction(c) for c in coords]
    series = [c / f[0] for c in f]
    g = [Fraction(0)] * len(f)
    for j in range(1, len(f)):
        g[j] = series[j] - sum(i * g[i] * series[j - i] for i in range(1, j)) / j
    return g


def _exp_sample(rng, pres, norm):
    """exp(w) for a random w with |w|_inf = norm."""
    v = rng.uniform(-1.0, 1.0, pres.degree)
    return exp(pres.element(v * (norm / np.abs(v).max())))


@pytest.mark.parametrize("n", [3, 6, 16, 32])
@pytest.mark.parametrize("large", [False, True])
def test_nil_log_matches_the_exact_recurrence(n, large):
    # Against the exact log of the rounded input, relative to max(1, |log|):
    # within n unit roundoffs at |w| = 0.5, and within the 1e-8 of the
    # acceptance roundtrip at |w| in [3, 6].
    pres = preset("nil", n)
    rng = np.random.default_rng(n + 10 * large)
    tol = 1e-8 if large else n * UNIT_ROUNDOFF
    for _ in range(20):
        z = _exp_sample(rng, pres, rng.uniform(3.0, 6.0) if large else 0.5)
        got = log(z).coords
        want = exact_nil_log(z.coords)
        scale = max(1.0, max(abs(float(g)) for g in want))
        error = max(abs(float(Fraction(got[j]) - want[j])) for j in range(1, n))
        assert error <= tol * scale
        assert got[0] == pytest.approx(math.log(z.coords[0]), rel=2 * UNIT_ROUNDOFF)


@pytest.mark.filterwarnings("error")
def test_nil_log_of_widely_scaled_coordinates():
    gamma3 = preset("nil", 3)
    got = log(gamma3.element([1e-200, 1e-100, 0.0])).coords
    np.testing.assert_allclose(got, [math.log(1e-200), 1e100, -5e199], rtol=1e-15)
    # z / z_0 overflows, so the exact log does too.
    with pytest.raises(InvalidArgument):
        log(gamma3.element([1e-300, 1e10, 0.0]))


def test_log_rejects_mixed_presentation():
    # k^4 - 2k^2 + 1 = (k^2-1)^2: neither nil nor semisimple.
    pres = make_presentation([1.0, 0.0, -2.0, 0.0])
    with pytest.raises(NonSemisimple):
        log(pres.element([2, 0, 0, 0]))


def test_log_branches(c2):
    z = c2.element([1.0, 1.0])
    principal = log(z)
    shifted = log(z, BranchSpec((1,)))
    np.testing.assert_allclose(
        shifted.coords, principal.coords + [0.0, 2 * math.pi], rtol=1e-12
    )
    for branch in (None, BranchSpec((1,)), BranchSpec((-2,))):
        back = exp(log(z, branch))
        np.testing.assert_allclose(back.coords, z.coords, atol=1e-10)
    with pytest.raises(ShapeMismatch):
        log(z, BranchSpec((0, 1)))


@pytest.mark.parametrize("indices", [(1.5,), ("a",), (True,), 1])
def test_branch_spec_refuses_non_integer_indices(indices):
    # (1.5,) used to shift the angle by 3 pi, a logarithm of -z.
    with pytest.raises(InvalidArgument):
        BranchSpec(indices)


@pytest.mark.parametrize("index", [2**53 + 1, -(2**53) - 1, 10**30, np.uint64(2**63)])
def test_branch_spec_refuses_indices_past_2_53(c2, index):
    # 10**30 used to reach the kernel as an object array, and numpy's add
    # raised an untyped UFuncTypeError.
    with pytest.raises(InvalidArgument):
        BranchSpec((index,))
    z = c2.element([1.0, 1.0])
    for edge in (2**53, -(2**53)):
        shifted = log(z, BranchSpec((edge,))).coords
        assert shifted[1] == pytest.approx(2.0 * math.pi * edge, rel=1e-15)


def test_branch_spec_takes_numpy_integers(c2):
    z = c2.element([1.0, 1.0])
    np.testing.assert_array_equal(
        log(z, BranchSpec((np.int64(1),))).coords, log(z, BranchSpec((1,))).coords
    )


def test_log_branch_on_nil_path(gamma2):
    z = gamma2.element([2.0, 1.0])
    np.testing.assert_allclose(
        log(z, BranchSpec(())).coords, log(z).coords, atol=1e-15
    )
    with pytest.raises(ShapeMismatch):
        log(z, BranchSpec((1,)))


def test_log_reuses_supplied_decomposition(h3, c2):
    dec = find_roots(h3)
    z = exp(h3.element([0.1, 0.2, -0.3]))
    np.testing.assert_allclose(log(z, dec=dec).coords, log(z).coords, atol=1e-14)
    from atrig.errors import PresentationMismatch

    with pytest.raises(PresentationMismatch):
        log(c2.element([1, 0]), dec=dec)


def test_exp_log_roundtrip(rng):
    for kind, n in [("hyperbolic", 4), ("complicated", 5), ("nil", 4)]:
        pres = preset(kind, n)
        dec = None if pres.is_nil() else find_roots(pres)
        for _ in range(40):
            z = random_ld_sample(rng, pres, dec)
            np.testing.assert_allclose(exp(log(z)).coords, z.coords, atol=1e-8)


def test_log_exp_identity_without_wrap(rng):
    # log(exp(z)) = z needs every complex component's imaginary part inside
    # (-pi, pi]; small coordinates keep it there.
    for kind, n in [("hyperbolic", 3), ("complicated", 4), ("nil", 5)]:
        pres = preset(kind, n)
        for _ in range(25):
            z = AlgebraElement(pres, rng.uniform(-0.4, 0.4, n))
            np.testing.assert_allclose(log(exp(z)).coords, z.coords, atol=1e-8)


def test_log_wraps_to_principal_preimage(c2):
    z = c2.element([0.0, 2 * math.pi + 0.25])
    recovered = log(exp(z))
    np.testing.assert_allclose(recovered.coords, [0.0, 0.25], atol=1e-10)


def test_log_takes_the_angle_pi_on_the_negative_real_axis(c2, monkeypatch):
    # The complex log puts -1 - 0i at angle -pi, outside the principal range
    # (-pi, pi]; the logarithm must take pi there, before any branch shift.
    import atrig.transcendental as transcendental

    values = np.array([[complex(-1.0, -0.0), complex(-1.0, 0.0)]])
    monkeypatch.setattr(transcendental, "_component_values", lambda coords, dec: values)
    z = c2.element([-1.0, 0.0])
    np.testing.assert_allclose(log(z).coords, [0.0, math.pi], atol=1e-15)
    np.testing.assert_allclose(log(z, BranchSpec((1,))).coords, [0.0, 3 * math.pi], atol=1e-15)


def test_log_real_part_is_log_modulus(rng):
    for kind in ("hyperbolic", "complicated", "nil"):
        pres = preset(kind, 4)
        dec = None if pres.is_nil() else find_roots(pres)
        for _ in range(25):
            z = random_ld_sample(rng, pres, dec)
            assert log(z).coords[0] == pytest.approx(
                math.log(modulus(z)), abs=1e-9
            )


# -- argument and polar form --------------------------------------------------------


def test_arg_examples(h2, c2):
    np.testing.assert_allclose(
        arg(c2.element([0, 2])).coords, [0.0, math.pi / 2], atol=1e-12
    )
    pres = preset("complicated", 3)
    np.testing.assert_allclose(arg(3.0 * pres.one()).coords, np.zeros(3), atol=1e-12)
    z = h2.element([math.cosh(1), math.sinh(1)])
    np.testing.assert_allclose(arg(z).coords, [0.0, 1.0], atol=1e-12)
    assert arg(z).coords[0] == 0.0
    # agreement with the two-dimensional closed form atanh(y/x)
    assert arg(z).coords[1] == pytest.approx(
        math.atanh(math.sinh(1) / math.cosh(1)), rel=1e-12
    )


def test_polar_examples(h2, c2):
    form = polar(c2.element([0, 2]))
    assert form.rho == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(form.arg.coords, [0.0, math.pi / 2], atol=1e-12)

    # frozen from the forward construction 2 * exp(k)
    z = h2.element([2 * math.cosh(1), 2 * math.sinh(1)])
    form = polar(z)
    assert form.rho == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(form.arg.coords, [0.0, 1.0], atol=1e-12)

    pres = preset("nil", 3)
    form = polar(pres.one())
    assert form.rho == pytest.approx(1.0)
    np.testing.assert_allclose(form.arg.coords, np.zeros(3), atol=1e-15)


def test_polar_recombines(rng):
    for kind in ("hyperbolic", "complicated", "nil"):
        pres = preset(kind, 5)
        dec = None if pres.is_nil() else find_roots(pres)
        for _ in range(20):
            z = random_ld_sample(rng, pres, dec)
            form = polar(z)
            assert form.rho > 0
            assert form.arg.coords[0] == 0.0
            np.testing.assert_allclose(form.recombine().coords, z.coords, atol=1e-8)


@pytest.mark.parametrize("kind", ["hyperbolic", "complicated", "nil"])
@pytest.mark.parametrize("n", [2, 3, 6, 16, 32])
def test_polar_is_the_logarithm_split(kind, n):
    # rho = exp(x_0) and arg = x - x_0 for the one logarithm x of z, so the
    # form recombines to z wherever log is accurate, however far apart the
    # component values of z lie.
    pres = preset(kind, n)
    rng = np.random.default_rng(n)
    answered = 0
    for _ in range(10):
        z = _exp_sample(rng, pres, rng.uniform(3.0, 6.0))
        try:
            x = log(z)
        except AlgebraError as exc:
            with pytest.raises(type(exc)):
                polar(z)
            continue
        form = polar(z)
        assert form.rho == math.exp(x.coords[0])
        assert np.array_equal(form.arg.coords.view(np.int64), arg(z).coords.view(np.int64))
        scale = max(1.0, float(np.abs(z.coords).max()))
        assert np.abs(form.recombine().coords - z.coords).max() <= 1e-8 * scale
        answered += 1
    assert answered >= 5


def test_polar_refuses_a_rho_that_overflows(monkeypatch):
    # A finite log whose x_0 passes log(DBL_MAX) leaves exp(x_0) no double.
    import atrig.transcendental as transcendental

    monkeypatch.setattr(transcendental, "_log_coords", lambda *args: np.array([[710.0, 0.0]]))
    with pytest.raises(InvalidArgument, match="overflow"):
        polar(preset("hyperbolic", 2).one())


def test_polar_requires_pure_power():
    pres = make_presentation([0.0, 1.0, 0.0])
    with pytest.raises(UnsupportedAlgebra):
        polar(pres.element([1, 0, 0]))


# -- stacked exponential -----------------------------------------------------------


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# Squaring counts on the presets, where |M(theta k^m)|_1 = |theta|; fresh
# moduli have larger norms and so more squarings.
_THETA_BANDS = (
    st.floats(-1.0, 1.0, allow_nan=False),  # no squaring
    st.floats(1.1, 2.18, allow_nan=False),  # one squaring
    st.floats(2.5, 9.0, allow_nan=False),  # several squarings
)


@given(
    source=st.sampled_from(
        [("hyperbolic", 3), ("complicated", 5), ("nil", 4), ("hyperbolic", 16)]
        + [("complicated", 32)]
        + [("random", n) for n in (2, 3, 4, 5, 6, 16, 32)]
    ),
    seed=st.integers(0, 2**16),
    draws=st.lists(
        st.tuples(st.integers(0, 2), st.floats(-1.0, 1.0)), min_size=1, max_size=12
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_batched_trig_components_match_single_calls(source, seed, draws, data):
    kind, n = source
    if kind == "random":
        pres = random_depressed_presentation(np.random.default_rng(seed), n)
    else:
        pres = preset(kind, n)
    m = data.draw(st.integers(1, n - 1))
    thetas = np.array([data.draw(_THETA_BANDS[band]) * np.sign(sign or 1) for band, sign in draws])
    thetas = np.concatenate([thetas, [0.0, 1.5, 6.0]])  # always 0, 1 and several squarings
    singles = []
    with np.errstate(all="ignore"):
        for theta in thetas:
            try:
                singles.append(trig_components(pres, m, theta))
            except InvalidArgument:
                singles.append(None)
        if any(single is None for single in singles):
            # The batch refuses as a row does.
            with pytest.raises(InvalidArgument):
                trig_components(pres, m, thetas)
            return
        batch = trig_components(pres, m, thetas)
    assert batch.shape == (thetas.size, n)
    for row, single in zip(batch, singles):
        # the same arithmetic row by row, so equal to the last bit
        assert np.array_equal(_bits(row), _bits(single))


@given(
    n=st.sampled_from([2, 3, 5, 6, 16, 17, 32]),
    seeds=st.lists(st.integers(0, 2**16), max_size=3),
    draws=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from([0.1, 1.0, 3.0, 12.0]), st.integers(0, 2**16)),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_mixed_presentation_batch_matches_one_row_exp(n, seeds, draws):
    # One batch over presets and fresh depressed moduli of one degree, each
    # row with its own table, against exp of each row alone; degrees on both
    # sides of the product table's cut at n = 16.
    choices = [preset(kind, n) for kind in ("hyperbolic", "complicated", "nil")]
    choices += [random_depressed_presentation(np.random.default_rng(s), n) for s in seeds]
    rows = []
    for pick, scale, seed in draws:
        coords = np.random.default_rng(seed).uniform(-scale, scale, n)
        rows.append((choices[pick % len(choices)], coords))
    # Every presentation with no squaring (z = 0) and several (6 k, whose
    # 1-norm is 6 on the presets), so the counts differ within the batch.
    for pres in choices:
        rows += [(pres, np.zeros(n)), (pres, 6.0 * pres.generator(1).coords)]
    tables = np.stack([_rep_table(pres.modulus_coeffs) for pres, _ in rows])
    coords = np.stack([z for _, z in rows])
    norms = np.abs(_rep_stack(coords, tables)).sum(axis=1).max(axis=1)
    assert len(set(_squaring_count(norms, _THETA).tolist())) > 1
    singles = []
    with np.errstate(all="ignore"):
        for pres, z in rows:
            try:
                singles.append(exp(AlgebraElement(pres, z)).coords)
            except InvalidArgument:
                singles.append(None)
        if any(single is None for single in singles):
            with pytest.raises(InvalidArgument):  # the batch refuses as a row does
                _exp_coords(coords, tables)
            return
        batch = _exp_coords(coords, tables)
    for row, single in zip(batch, singles):
        assert np.array_equal(_bits(row), _bits(single))


def test_stack_of_cases_with_broadcast_tables_matches_one_row_exp():
    # (cases, samples, n) rows, each case's table broadcast over its
    # samples as (cases, 1, n, n^2), against exp of each row alone.
    cases = [preset("hyperbolic", 4), preset("complicated", 4), preset("nil", 4)]
    cases.append(random_depressed_presentation(np.random.default_rng(21), 4))
    scales = np.geomspace(0.1, 40.0, 9)  # no squaring up to about eight
    coords = np.random.default_rng(7).uniform(-1.0, 1.0, (len(cases), 9, 4)) * scales[:, None]
    tables = np.stack([_rep_table(pres.modulus_coeffs) for pres in cases])[:, None]
    norms = np.abs(_rep_stack(coords, tables)).sum(axis=-2).max(axis=-1)
    counts = _squaring_count(norms, _THETA)
    assert counts.min() == 0 and len(set(counts.ravel().tolist())) > 3
    batch = _exp_coords(coords, tables)
    assert batch.shape == coords.shape
    for pres, rows, values in zip(cases, coords, batch):
        for z, value in zip(rows, values):
            assert np.array_equal(_bits(value), _bits(exp(AlgebraElement(pres, z)).coords))


def test_exp_of_an_empty_batch_is_empty_in_its_shape(h3):
    table = _rep_table(h3.modulus_coeffs)
    assert _exp_coords(np.zeros((0, 3)), table).shape == (0, 3)
    tables = np.stack([table] * 4)[:, None]
    assert _exp_coords(np.zeros((4, 0, 3)), tables).shape == (4, 0, 3)


def test_trig_components_shapes(h3):
    scalar = trig_components(h3, 1, 0.3)
    assert scalar.shape == (3,)
    assert trig_components(h3, 1, np.float64(0.3)).shape == (3,)
    vector = trig_components(h3, 1, [0.3, -2.0, 5.0])
    assert vector.shape == (3, 3)
    np.testing.assert_array_equal(vector[0], scalar)
    grid = trig_components(h3, 2, np.linspace(-1, 1, 6).reshape(2, 3))
    assert grid.shape == (2, 3, 3)
    assert trig_components(h3, 1, []).shape == (0, 3)


@pytest.mark.parametrize("m", [True, 1.5, 2.0, "1"])
def test_trig_components_refuses_a_non_integer_m(h3, m):
    # True used to select every column, giving exp(theta (1 + k + k^2)).
    with pytest.raises(InvalidPower):
        trig_components(h3, m, 0.3)


def test_trig_components_takes_a_numpy_integer_m(h3):
    np.testing.assert_array_equal(
        trig_components(h3, np.int64(1), 0.3), trig_components(h3, 1, 0.3)
    )


def test_trig_components_invalid_power_with_array(h3):
    with pytest.raises(InvalidPower):
        trig_components(h3, 0, np.array([0.1, 0.2]))
    with pytest.raises(InvalidPower):
        trig_components(h3, 3, [0.1, 0.2])


def test_exp_scales_by_the_norm_of_the_representation():
    # k^2 = -1e6, so k acts as 1000i and exp(0.4 k) = cos 400 + sin(400)/1000 k.
    # |z|_inf = 0.4 asks for no squaring, but |M(z)|_1 = 4e5 asks for 19;
    # in the batch, theta = 0 takes none.  Each squaring doubles the relative
    # error of the modulus, so the bound is 2**(19 + 1) unit roundoffs.
    pres = make_presentation([1e6, 0.0])
    batch = trig_components(pres, 1, [0.0, 0.4])
    np.testing.assert_array_equal(batch[0], [1.0, 0.0])
    np.testing.assert_allclose(batch[1], [math.cos(400), math.sin(400) / 1000], rtol=2.0**-33)


def test_monomial_series_is_scaled_to_the_binade_of_the_norm():
    # k^2 = -1e100: k^18 = -1e900 overflows, so an unscaled table of
    # M(k)^j e_1 / j! holds infinities.  |theta| |M(k)|_1 = 0.4 asks for no
    # squaring, so exp(theta k) = cos(theta 1e50) + sin(theta 1e50) / 1e50 k
    # to the bound of test_exp_scales_by_the_norm_of_the_representation.
    pres = make_presentation([1e100, 0.0])
    sigma, norm, series = _monomial_series(pres.modulus_coeffs, 1)
    assert math.ldexp(norm, sigma) == 1e100 and np.abs(series).max() <= 1.0
    batch = trig_components(pres, 1, [0.0, 0.4e-100])
    np.testing.assert_array_equal(batch[0], [1.0, 0.0])
    phase = 0.4e-100 * 1e50
    np.testing.assert_allclose(batch[1], [math.cos(phase), math.sin(phase) / 1e50], rtol=2.0**-33)


@pytest.mark.filterwarnings("error")
def test_monomial_series_of_a_norm_past_the_largest_double():
    # k^2 = 1e308 + 1e308 k: M(k) has the column (1e308, 1e308), whose sum
    # 2e308 is not a double, yet every entry is.  The table is still finite,
    # theta = 0 and 1e-310 (|theta| |M(k)|_1 = 0.02, no squaring) are
    # answered as exp(theta k) answers them, to the Taylor-stage bound of
    # test_taylor_stage_matches_the_exact_series on each side, and theta = 1
    # asks for more squarings than a double can scale.
    pres = make_presentation([-1e308, -1e308])
    sigma, norm, series = _monomial_series(pres.modulus_coeffs, 1)
    assert 0.5 <= norm < 1.0 and math.ldexp(norm, sigma - 1) == 1e308
    assert np.isfinite(series).all() and np.abs(series).max() <= 1.0
    batch = trig_components(pres, 1, [0.0, 1e-310])
    np.testing.assert_array_equal(batch[0], [1.0, 0.0])
    want = exp(pres.element([0.0, 1e-310])).coords
    bound = 2 * 4 * pres.degree * UNIT_ROUNDOFF * math.exp(1e-310 * 2e308)
    assert np.abs(batch[1] - want).max() <= bound
    with pytest.raises(InvalidArgument, match="squarings"):
        trig_components(pres, 1, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "theta", [1 + 2j, "0.5", [0.1, "x"], [[0.1], [0.2, 0.3]], 10**400, None, np.array([1j])]
)
def test_trig_components_refuses_a_theta_that_is_not_real(h3, theta):
    with pytest.raises(InvalidArgument, match="theta"):
        trig_components(h3, 1, theta)


@pytest.mark.filterwarnings("error")
def test_exp_refuses_what_it_cannot_scale(h2):
    for bad in ([float("nan"), 0.0], [0.0, -float("inf")], [1e308, 0.0]):
        with pytest.raises(InvalidArgument) as excinfo:
            exp(h2.element(bad))
        assert isinstance(excinfo.value, AlgebraError)
        assert isinstance(excinfo.value, ValueError)
    with pytest.raises(InvalidArgument):
        trig_components(h2, 1, [0.0, float("nan")])
    # |M(z)|_1 = _THETA * 2**1023 still scales (1023 squarings); the next
    # double up does not.  On Gamma2, exp(edge * k) = 1 + edge * k exactly;
    # on H2, exp(edge) scales but overflows, which is refused as well.
    edge = _THETA * 2.0**1023
    gamma2 = preset("nil", 2)
    np.testing.assert_array_equal(exp(gamma2.element([0.0, edge])).coords, [1.0, edge])
    with pytest.raises(InvalidArgument, match="not finite"):
        exp(h2.element([edge, 0.0]))
    with pytest.raises(InvalidArgument, match="squarings"):
        exp(h2.element([np.nextafter(edge, np.inf), 0.0]))
    with pytest.raises(InvalidArgument, match="squarings"):
        exp(gamma2.element([0.0, np.nextafter(edge, np.inf)]))
    # A representation that overflows has no finite norm to scale.
    with pytest.raises(InvalidArgument, match="squarings"):
        exp(h2.element([1e308, 1e308]))


@pytest.mark.filterwarnings("error")
@given(n=st.sampled_from([16, 32]), seed=st.integers(0, 2**16), scale=st.floats(2.0**-4, 4.0))
@settings(max_examples=40, deadline=None)
def test_exp_on_fresh_moduli_is_inverted_or_refused(n, seed, scale):
    # Fresh depressed moduli of high degree make |M(z)|_1 far larger than
    # |z|_inf.  Either exp refuses, or exp(z) exp(-z) = 1 to 1e-9 (the
    # tolerance of exp in the acceptance suites) on the rounding scale of the
    # product, |M(exp z)| |exp(-z)|.
    rng = np.random.default_rng(seed)
    pres = random_depressed_presentation(rng, n)
    z = AlgebraElement(pres, rng.uniform(-scale, scale, n))
    try:
        pair = [exp(z).coords, exp(-z).coords]
    except AlgebraError:
        return
    # Powers of two bring both factors to unit size without rounding, so the
    # product cannot overflow; the identity becomes a * b = 2**-(e_a + e_b).
    exponents = [int(np.frexp(np.abs(w).max())[1]) for w in pair]
    a, b = (AlgebraElement(pres, np.ldexp(w, -e)) for w, e in zip(pair, exponents))
    one = np.zeros(n)
    one[0] = np.ldexp(1.0, -sum(exponents))
    rounding_scale = float((np.abs(rep_matrix(a)) @ np.abs(b.coords)).max())
    assert float(np.abs(mul(a, b).coords - one).max()) <= 1e-9 * rounding_scale


@pytest.mark.parametrize(
    "pres",
    [preset("hyperbolic", 2), preset("complicated", 3), preset("nil", 4), preset("hyperbolic", 6)]
    + [preset("complicated", 16), make_presentation([0.5, -0.25, 1.0])],
    ids=str,
)
def test_taylor_stage_matches_the_exact_series(pres):
    # Rows with |M(z)|_1 <= theta take no squaring, so exp(z) is the Taylor
    # stage alone; it is compared with T_18(M(z)) e_1 = sum_{k<=18} M^k e_1 / k!
    # in Fraction.  Dyadic moduli and z keep M(z) exact in floats too (see
    # test_core).  A series with nonnegative coefficients evaluated in floats
    # errs, to first order, by a small multiple of n u sum_k |M|^k / k!
    # <= n u e^|M|; the bound is 4 n u e^|M|_1 (the largest ratio to
    # n u e^|M|_1 seen over 6400 such rows is 0.79).
    rng = np.random.default_rng(pres.degree)
    n = pres.degree
    coords = rng.integers(-(2**10), 2**10 + 1, size=(6, n)) / 2.0**10
    norms = np.abs(_rep_stack(coords, _rep_table(pres.modulus_coeffs))).sum(axis=1).max(axis=1)
    # Halve each row (exactly) to |M(z)|_1 <= theta, some rows further still.
    halvings = _squaring_count(norms, _THETA) + rng.integers(0, 3, size=len(coords))
    coords = np.ldexp(coords, -halvings[:, None])
    powers = [
        [Fraction(a, 1 << e) for a in column]
        for column, e in _powers_of_k(pres.modulus_coeffs, 2 * n - 2)
    ]
    for row, out in zip(coords, _exp_coords(coords, _rep_table(pres.modulus_coeffs))):
        z = [Fraction(x) for x in row]
        rep = [[sum(z[i] * powers[i + j][r] for i in range(n)) for j in range(n)] for r in range(n)]
        norm = max(sum(abs(rep[r][j]) for r in range(n)) for j in range(n))
        assert norm <= _THETA
        term = [Fraction(int(r == 0)) for r in range(n)]
        total = list(term)
        for k in range(1, _TAYLOR_DEGREE + 1):
            term = [sum(a * b for a, b in zip(rep[r], term)) / k for r in range(n)]
            total = [t + s for t, s in zip(total, term)]
        error = max(abs(Fraction(x) - t) for x, t in zip(out, total))
        assert float(error) <= 4 * n * UNIT_ROUNDOFF * math.exp(norm)


@pytest.mark.parametrize("seed", range(6))
def test_monomial_series_matches_the_exact_powers_of_k(seed):
    # Eighth-step moduli make every power of k an exact dyadic rational.
    # Row j of the series table is k^(mj) / (2^(sigma j) j!), 2^sigma the
    # binade of |M(k^m)|_1; each row takes one more matrix-vector product
    # and division, so row j errs by at most j (n + 1) u (|A|^j e_1) / j!.
    # The rows with no squaring are the Taylor stage alone, which must meet
    # the bound of test_taylor_stage_matches_the_exact_series.  Over 40 such
    # moduli the largest ratios to j (n + 1) u (|A|^j e_1) / j! and to
    # n u e^(|theta| |M(k^m)|_1) are 0.11 and 0.32.
    rng = np.random.default_rng(seed)
    pres = random_rational_presentation(rng, 2 + seed % 5)
    n = pres.degree
    powers = [
        [Fraction(a, 1 << e) for a in column]
        for column, e in _powers_of_k(pres.modulus_coeffs, _TAYLOR_DEGREE * (n - 1) + n - 1)
    ]
    for m in range(1, n):
        sigma, norm, series = _monomial_series(pres.modulus_coeffs, m)
        norm = math.ldexp(norm, sigma)
        exact_norm = max(sum(abs(x) for x in powers[m + j]) for j in range(n))
        assert abs(Fraction(norm) - exact_norm) <= n * UNIT_ROUNDOFF * exact_norm
        scale = Fraction(1, 2 ** math.frexp(float(exact_norm))[1])
        rep = [[abs(powers[m + j][r]) * scale for j in range(n)] for r in range(n)]
        bound = [Fraction(int(r == 0)) for r in range(n)]  # |A|^j e_1 / j!
        for j in range(_TAYLOR_DEGREE + 1):
            if j:
                bound = [sum(a * b for a, b in zip(rep[r], bound)) / j for r in range(n)]
            exact = [x * scale**j / math.factorial(j) for x in powers[m * j]]
            for got, want, most in zip(series[j], exact, bound):
                assert abs(Fraction(got) - want) <= j * (n + 1) * UNIT_ROUNDOFF * most
        thetas = rng.integers(-(2**10), 2**10 + 1, 6) / 2.0**10 * (_THETA / norm)
        for theta, out in zip(thetas, trig_components(pres, m, thetas)):
            t = Fraction(theta)
            total = [
                sum(t**j * powers[m * j][r] / math.factorial(j) for j in range(_TAYLOR_DEGREE + 1))
                for r in range(n)
            ]
            error = max(abs(Fraction(x) - want) for x, want in zip(out, total))
            assert float(error) <= 4 * n * UNIT_ROUNDOFF * math.exp(abs(theta) * norm)


def test_taylor_blocks_hold_the_inverse_factorials():
    for k in range(_TAYLOR_BLOCKS.size):
        want = float(Fraction(1, math.factorial(k))) if k <= _TAYLOR_DEGREE else 0.0
        assert _TAYLOR_BLOCKS[k % 4, k // 4] == want
    assert _TAYLOR_BLOCKS.shape == (4, 5)


@given(
    norm=st.one_of(
        st.floats(0.0, 1e6, allow_nan=False),
        st.integers(-60, 60).map(lambda e: 2.0**e),
    ),
    threshold=st.sampled_from([_THETA, 0.5, 0.1, 0.75, 1.0, 3.0, 2.0**-40]),
)
def test_squaring_count_is_the_halving_loop(norm, threshold):
    def halvings(x):
        count = 0
        while x > threshold:
            x /= 2.0  # exact: x stays far above the subnormals
            count += 1
        return count

    assert _squaring_count(norm, threshold) == halvings(norm)
    # The counts of a whole batch, at and next to every edge threshold * 2**s.
    edges = np.ldexp(threshold, np.array([0, 1, 2, 19, 60]))
    norms = np.concatenate(
        [
            [0.0, norm, 1e300, np.finfo(float).max],
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, np.inf),
        ]
    )
    assert _squaring_count(norms, threshold).tolist() == [halvings(x) for x in norms]
