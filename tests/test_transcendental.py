"""Exponential, trig components, modulus, logarithm, argument, polar form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrig import (
    AlgebraElement,
    BranchSpec,
    SeriesPolicy,
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
    trig_components,
)
from atrig.errors import (
    InvalidPower,
    NoConvergence,
    NonPositivePythagorean,
    NonSemisimple,
    OutsideLogDomain,
    ShapeMismatch,
    UnsupportedAlgebra,
)
from atrig.verify import random_depressed_presentation, random_ld_sample


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


def test_exp_no_convergence():
    pres = preset("hyperbolic", 2)
    policy = SeriesPolicy(tolerance=1e-30, max_terms=5)
    with pytest.raises(NoConvergence):
        exp(pres.element([0, 0.4]), policy)


def test_series_policy_validation():
    with pytest.raises(ValueError):
        SeriesPolicy(tolerance=0.0)
    with pytest.raises(ValueError):
        SeriesPolicy(max_terms=0)


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
    from atrig import rep_matrix

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
    # Numeric probe for the multi-angle exponential: exactly unit on
    # pure-power presentations, visibly off for k^3 + k.
    from atrig.verify import pythagorean_deviation

    h4 = preset("hyperbolic", 4)
    assert pythagorean_deviation(h4, [0.4, -0.9, 1.3]) <= 1e-9
    mixed = make_presentation([0.0, 1.0, 0.0])
    assert pythagorean_deviation(mixed, [0.0, 1.0]) > 1e-3


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


def test_log_outside_domain(h2, c2, gamma2):
    with pytest.raises(OutsideLogDomain):
        log(h2.element([-1, 0]))  # negative real components
    with pytest.raises(OutsideLogDomain):
        log(h2.element([1, 1]))  # component at root -1 is zero
    with pytest.raises(OutsideLogDomain):
        log(gamma2.element([-1, 2]))
    with pytest.raises(OutsideLogDomain):
        log(c2.element([0, 0]))


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


def test_polar_requires_pure_power():
    pres = make_presentation([0.0, 1.0, 0.0])
    with pytest.raises(UnsupportedAlgebra):
        polar(pres.element([1, 0, 0]))


# -- stacked exponential -----------------------------------------------------------


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


_THETA_BANDS = (
    st.floats(-0.5, 0.5, allow_nan=False),  # no squaring
    st.floats(0.51, 1.0, allow_nan=False),  # one squaring
    st.floats(2.5, 9.0, allow_nan=False),  # several squarings
)


@given(
    source=st.sampled_from(
        [("hyperbolic", 3), ("complicated", 5), ("nil", 4), ("hyperbolic", 16)]
        + [("random", n) for n in (2, 3, 4, 5, 6, 16)]
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
    thetas = np.concatenate([thetas, [0.0, 0.7, 6.0]])  # always 0, 1 and several squarings
    singles = []
    with np.errstate(all="ignore"):
        for theta in thetas:
            try:
                singles.append(trig_components(pres, m, theta))
            except NoConvergence:
                singles.append(None)
        if any(s is None for s in singles):
            with pytest.raises(NoConvergence):
                trig_components(pres, m, thetas)
            return
        batch = trig_components(pres, m, thetas)
    assert batch.shape == (thetas.size, n)
    for row, single in zip(batch, singles):
        # the same arithmetic row by row, so equal to the last bit
        assert np.array_equal(_bits(row), _bits(single))


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


def test_trig_components_invalid_power_with_array(h3):
    with pytest.raises(InvalidPower):
        trig_components(h3, 0, np.array([0.1, 0.2]))
    with pytest.raises(InvalidPower):
        trig_components(h3, 3, [0.1, 0.2])


def test_batch_with_one_failing_row_raises():
    # k^2 = -1e6: theta = 0 converges at once, while theta = 0.4 needs no
    # squaring but its terms (400^j / j!) still grow past the term limit.
    pres = make_presentation([1e6, 0.0])
    np.testing.assert_array_equal(trig_components(pres, 1, [0.0]), [[1.0, 0.0]])
    with pytest.raises(NoConvergence):
        trig_components(pres, 1, [0.0, 0.4])


def test_exp_refuses_what_it_cannot_scale(h2):
    from atrig.errors import AlgebraError, InvalidArgument

    for bad in ([float("nan"), 0.0], [0.0, -float("inf")], [1e308, 0.0]):
        with pytest.raises(InvalidArgument) as excinfo:
            exp(h2.element(bad))
        assert isinstance(excinfo.value, AlgebraError)
        assert isinstance(excinfo.value, ValueError)
    with pytest.raises(InvalidArgument):
        trig_components(h2, 1, [0.0, float("nan")])
    # 2**1022 still scales (1023 squarings); the next double up does not
    edge = 2.0**1022
    with np.errstate(all="ignore"):
        exp(h2.element([edge, 0.0]))
    with pytest.raises(InvalidArgument):
        exp(h2.element([np.nextafter(edge, np.inf), 0.0]))


@given(
    norm=st.one_of(
        st.floats(0.0, 1e6, allow_nan=False),
        st.integers(-60, 60).map(lambda e: 2.0**e),
    ),
    threshold=st.sampled_from([0.5, 0.1, 0.75, 1.0, 3.0, 2.0**-40]),
)
def test_squaring_count_is_the_halving_loop(norm, threshold):
    from atrig.transcendental import _squaring_count

    expected = 0
    while norm > threshold * 2.0**expected:
        expected += 1
    assert _squaring_count(norm, threshold) == expected


def test_series_policy_rejects_bad_threshold():
    for bad in (0.0, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SeriesPolicy(squaring_threshold=bad)
