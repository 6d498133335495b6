"""Root finding and the component isomorphism onto R^r x C^c."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrig import (
    AlgebraElement,
    ComponentVector,
    find_roots,
    from_components,
    make_presentation,
    mul,
    preset,
    to_components,
)
from atrig.errors import (
    AlgebraError,
    IllConditioned,
    InvalidArgument,
    NoConvergence,
    NonSemisimple,
    PresentationMismatch,
    ShapeMismatch,
)
from atrig.spectral import (
    DEFAULT_ROOT_TOLERANCE,
    REAL_SNAP_FACTOR,
    ROOT_ERROR_FACTOR,
    SEPARATION_FACTOR,
    UNIT_ROUNDOFF,
    SpectralDecomposition,
    _component_values,
    _decompose,
    _powers,
    _radius_exponent,
    _value_and_slope_coeffs,
)
from atrig.verify import random_depressed_presentation, random_semisimple_presentation


def test_find_roots_h2(h2):
    dec = find_roots(h2)
    np.testing.assert_allclose(dec.real_roots, [-1.0, 1.0], atol=1e-12)
    assert dec.complex_roots == ()


def test_find_roots_complex(c2):
    dec = find_roots(c2)
    assert dec.real_roots == ()
    assert len(dec.complex_roots) == 1
    assert dec.complex_roots[0] == pytest.approx(1j, abs=1e-12)


def test_find_roots_h3(h3):
    dec = find_roots(h3)
    np.testing.assert_allclose(dec.real_roots, [1.0], atol=1e-12)
    omega = np.exp(2j * np.pi / 3)
    assert dec.complex_roots[0] == pytest.approx(omega, abs=1e-12)


@pytest.mark.parametrize("n", [*range(2, 7), 16, 32])
def test_nil_presentations_rejected(n):
    with pytest.raises(NonSemisimple):
        find_roots(preset("nil", n))


def test_repeated_roots_rejected():
    # (k^2 - 1)^2 = k^4 - 2 k^2 + 1: double roots at +-1
    with pytest.raises(NonSemisimple):
        find_roots(make_presentation([1, 0, -2, 0]))
    # k^3 - k^2 = k^2 (k - 1): double root at 0
    with pytest.raises(NonSemisimple):
        find_roots(make_presentation([0, 0, -1]))
    # Eigenvalues of a cluster of m equal roots split by about u^(1/m),
    # which passes the separation test; the error bound refuses them.
    for coeffs in (
        [-1, 3, -3],  # (k - 1)^3
        [-243, 405, -270, 90, -15],  # (k - 3)^5
        [1, 0, 3, 0, 3, 0],  # (k^2 + 1)^3
        [-0.25, 1.375, -2.25, 0.5],  # (k - 1/2)^3 (k + 2)
    ):
        with pytest.raises(NonSemisimple):
            find_roots(make_presentation(coeffs))


@given(
    q=st.lists(st.integers(-16, 16), max_size=6),
    a=st.integers(-16, 16),
    m=st.integers(2, 5),
)
@settings(max_examples=100, deadline=None)
def test_multiple_roots_are_refused(q, a, m):
    # q(k) (k - a)^m with eighth-step monic q and dyadic a: the coefficients
    # are exact in floating point, and the root a has multiplicity m or more.
    full = np.polynomial.polynomial.polymul(
        np.append(np.array(q) / 8, 1.0),
        np.polynomial.polynomial.polypow([-a / 8, 1.0], m),
    )
    with pytest.raises(NonSemisimple):
        find_roots(make_presentation(full[:-1]))


@given(n=st.integers(2, 32), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_fresh_moduli_are_certified_or_refused(n, seed):
    pres = random_depressed_presentation(np.random.default_rng(seed), n)
    try:
        dec = find_roots(pres)
    except AlgebraError:
        return
    assert dec.real_count + 2 * dec.complex_count == n
    assert all(w.imag > 0 for w in dec.complex_roots)
    full = np.append(np.array(pres.modulus_coeffs), 1.0)
    for xi in list(dec.real_roots) + list(dec.complex_roots):
        residual = abs(np.polyval(full[::-1], xi))
        assert residual <= dec.root_tolerance * max(1.0, abs(xi) ** n)


def test_degree_one():
    dec = find_roots(make_presentation([-4.0]))
    assert dec.real_roots == (4.0,)


def test_eigenvalue_failure_reports_no_convergence(h2, monkeypatch):
    import atrig.spectral as spectral

    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral.np.linalg, "eigvals", fail)
    with pytest.raises(NoConvergence):
        find_roots(h2)


@pytest.mark.filterwarnings("error")
def test_residual_certificate_failure_reports_no_convergence(h3):
    # The complex roots of k^3 = 1 carry a residual of about 1e-16.
    with pytest.raises(NoConvergence):
        find_roots(h3, tol=1e-300)
    # k^2 - 1e200 k has the root 1e200, whose error bound overflows.
    with pytest.raises(NoConvergence):
        find_roots(make_presentation([0.0, -1e200]))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_root_tolerance_must_be_positive_and_finite(h3, tol):
    with pytest.raises(InvalidArgument):
        find_roots(h3, tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 6, 16, 32])
@pytest.mark.parametrize("e", [100, 200, 300])
@pytest.mark.parametrize("sign", [1, -1])
def test_huge_constant_coefficients_are_answered(n, e, sign):
    # k^n + sign 10^e: n simple roots on the circle of radius 10^(e/n),
    # which the balanced companion matrix alone misplaces at n = 32.
    pres = make_presentation([sign * 10.0**e] + [0.0] * (n - 1))
    dec = find_roots(pres)
    angles = (2 * np.arange(n) + (sign > 0)) * np.pi / n
    expected = 10.0 ** (e / n) * np.exp(1j * angles)
    gap = np.abs(dec.nodes[:, None] - expected[None, :]).min(axis=1)
    assert dec.real_count + 2 * dec.complex_count == n
    assert float(gap.max()) <= 1e-13 * 10.0 ** (e / n)


def test_presets_keep_the_unscaled_companion():
    for kind in ("hyperbolic", "complicated", "nil"):
        for n in (*range(1, 7), 16, 32):
            assert _radius_exponent(np.array(preset(kind, n).modulus_coeffs)) == 0


def _exact_value_and_slope(full, x):
    """p(x) and p'(x) in exact rational arithmetic, for real rational x."""
    p = sum(Fraction(c) * x**j for j, c in enumerate(full))
    dp = sum(j * Fraction(c) * x ** (j - 1) for j, c in enumerate(full) if j)
    return p, dp


@given(
    q=st.lists(st.integers(-64, 64), min_size=1, max_size=6),
    xs=st.lists(st.integers(-16, 16), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_power_table_is_exact_on_eighth_step_coefficients(q, xs):
    # Eighth-step coefficients and quarter-step points of degree <= 6: every
    # power, product and partial sum is a double, so both columns are exact.
    full = np.append(np.array(q) / 8, 1.0)
    x = np.array(xs) / 4
    values = _powers(x, len(q)) @ _value_and_slope_coeffs(full)
    for xi, (p, dp) in zip(x, values):
        assert (Fraction(p), Fraction(dp)) == _exact_value_and_slope(full, Fraction(xi))


def _exact_complex_value(full, x):
    """Real and imaginary parts of p(x), as fractions, by Horner's rule in
    exact arithmetic."""
    re, im = Fraction(x.real), Fraction(x.imag)
    a, b = Fraction(0), Fraction(0)
    for c in full[::-1]:
        a, b = a * re - b * im + Fraction(c), a * im + b * re
    return a, b


def _forward_map_values(full, points):
    """The forward map's values of the coordinates ``full`` at ``points``,
    through a decomposition with those points as its roots."""
    pres = make_presentation(np.zeros(len(full)))
    if np.iscomplexobj(points):
        dec = SpectralDecomposition(pres, (), tuple(points), DEFAULT_ROOT_TOLERANCE)
        return _component_values(full[None, :], dec)[0, ::2]
    dec = SpectralDecomposition(pres, tuple(points), (), DEFAULT_ROOT_TOLERANCE)
    return _component_values(full[None, :], dec)[0]


@pytest.mark.parametrize("n", [2, 3, 6, 16, 32])
def test_power_table_error_is_within_the_gate_bound(n):
    # Both the gate's p(xi) and the forward map's V z, for the same
    # coefficients at the same points.
    rng = np.random.default_rng(n)
    for _ in range(10):
        full = np.append(rng.uniform(-2, 2, n), 1.0)
        radius = rng.uniform(0.5, 1.5, 6)
        x = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        for points in (x, radius * rng.choice([-1.0, 1.0], 6)):
            gate = _powers(points, n) @ _value_and_slope_coeffs(full)[:, 0]
            forward = _forward_map_values(full, points)
            bound = 2 * n * UNIT_ROUNDOFF * (np.abs(full) @ _powers(np.abs(points), n).T)
            for xi, allowed, *values in zip(points, bound, gate, forward):
                re, im = _exact_complex_value(full, complex(xi))
                for got in values:
                    err = abs(complex(Fraction(got.real) - re, Fraction(got.imag) - im))
                    assert err <= allowed


def test_find_roots_is_memoized_per_presentation_and_tolerance():
    bare = make_presentation([-1.0, 0.0, 0.0])
    dec = find_roots(bare)
    assert find_roots(make_presentation([-1.0, 0.0, 0.0])) is dec
    labelled = find_roots(preset("hyperbolic", 3))
    assert labelled is not dec
    assert labelled.presentation.label == "H3"
    assert dec.presentation.label is None
    assert labelled.nodes.tobytes() == dec.nodes.tobytes()
    looser = find_roots(bare, 1e-9)
    assert looser is not dec
    assert looser.root_tolerance == 1e-9
    assert dec.root_tolerance == DEFAULT_ROOT_TOLERANCE
    assert find_roots(bare, 1e-9) is looser


def test_find_roots_memo_keys_on_the_value_of_the_tolerance(monkeypatch):
    import atrig.spectral as spectral

    calls = []
    real_eigvals = np.linalg.eigvals

    def counting(matrix):
        calls.append(matrix)
        return real_eigvals(matrix)

    monkeypatch.setattr(spectral.np.linalg, "eigvals", counting)
    pres = make_presentation([-1.0, 0.0, 0.0])
    dec = find_roots(pres)
    assert find_roots(pres, 1e-10) is dec
    assert find_roots(pres, tol=1e-10) is dec
    assert find_roots(pres, np.float64(1e-10)) is dec
    assert len(calls) == 1


def test_refusals_are_not_memoized(h2, monkeypatch):
    import atrig.spectral as spectral

    calls = []
    real_eigvals = np.linalg.eigvals

    def fail(matrix):
        calls.append(matrix)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral.np.linalg, "eigvals", fail)
    for attempt in (1, 2):
        with pytest.raises(NoConvergence):
            find_roots(h2)
        assert len(calls) == attempt
    monkeypatch.setattr(spectral.np.linalg, "eigvals", real_eigvals)
    assert find_roots(h2).real_roots == pytest.approx((-1.0, 1.0))
    for _ in range(2):
        with pytest.raises(NonSemisimple):
            find_roots(preset("nil", 3))


def test_find_roots_memo_is_bounded():
    rng = np.random.default_rng(5)
    for _ in range(600):
        try:
            find_roots(random_depressed_presentation(rng, 3))
        except AlgebraError:
            pass
    info = _decompose.cache_info()
    assert info.maxsize == 512
    assert info.currsize <= 512


@pytest.mark.parametrize("kind", ["hyperbolic", "complicated"])
@pytest.mark.parametrize("n", [*range(2, 7), 16, 32])
def test_decomposition_keeps_its_certificates(kind, n):
    pres = preset(kind, n)
    dec = find_roots(pres)
    assert dec.scale_exponent == _radius_exponent(np.array(pres.modulus_coeffs))
    assert 0.0 < dec.min_separation < math.inf
    assert 0.0 <= dec.max_error_ratio < ROOT_ERROR_FACTOR
    assert 0.0 <= dec.max_residual <= dec.root_tolerance
    # The certificates take no part in equality or in the JSON form.
    bare = SpectralDecomposition(pres, dec.real_roots, dec.complex_roots, dec.root_tolerance)
    assert bare == dec and hash(bare) == hash(dec)
    assert bare.max_residual is None
    assert bare.to_json_dict() == dec.to_json_dict()


# -- the root finder's arithmetic, kept bit for bit --------------------------------


def _old_powers(z, n):
    table = np.empty((len(z), n + 1), dtype=z.dtype)
    table[:, 0] = 1.0
    table[:, 1:] = z[:, None]
    np.cumprod(table[:, 1:], axis=1, out=table[:, 1:])
    return table


def _old_separations(roots):
    diff = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(diff, np.inf)
    return diff.min(axis=1)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _old_decompose(pres, tol):
    """The body of ``_decompose`` before its power tables shared one array
    and its roots were sorted and paired in numpy: a fresh table for every
    evaluation and Python sorts over the roots.  Returns the real roots and
    the conjugate-pair representatives, or raises the refusal."""
    n = pres.degree
    coeffs = np.array(pres.modulus_coeffs)
    full = np.append(coeffs, 1.0)
    s = _radius_exponent(coeffs)
    companion = np.eye(n, k=-1)
    companion[:, -1] = -np.ldexp(coeffs, s * (np.arange(n) - n))
    try:
        roots = np.linalg.eigvals(companion) * 2.0**s
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion eigenvalues failed for {pres}: {exc}") from None

    scale = max(1.0, float(np.max(np.abs(roots))))
    separation = _old_separations(roots)
    if float(separation.min()) <= SEPARATION_FACTOR * scale:
        raise NonSemisimple(
            f"root separation {separation.min():.3e} below threshold for {pres}"
        )

    both = _value_and_slope_coeffs(full)
    for _ in range(3):
        p, dp = (_old_powers(roots, n) @ both).T
        dp = np.where(dp == 0, 1e-300, dp)
        roots = roots - p / dp
    powers = _old_powers(roots, n)
    p, dp = (powers @ both).T
    rounding = np.abs(powers) @ np.abs(full)
    if not np.isfinite(rounding).all():
        raise NoConvergence(f"root error bound overflowed for {pres}")
    error = (np.abs(p) + 2 * n * UNIT_ROUNDOFF * rounding) / np.abs(dp)
    ratio = float(np.max(error / _old_separations(roots)))
    if not ratio < ROOT_ERROR_FACTOR:
        raise NonSemisimple(
            f"root error bound at {ratio:.3e} of the root separation for {pres}"
        )

    snap = REAL_SNAP_FACTOR * np.maximum(1.0, np.abs(roots))
    is_real = np.abs(roots.imag) <= snap
    real_roots = sorted(float(r) for r in roots[is_real].real)
    pos = sorted(
        (complex(r) for r in roots[~is_real] if r.imag > 0),
        key=lambda w: (w.real, w.imag),
    )
    neg_conj = sorted(
        (complex(r).conjugate() for r in roots[~is_real] if r.imag < 0),
        key=lambda w: (w.real, w.imag),
    )
    if len(pos) != len(neg_conj):
        raise NoConvergence(f"conjugate pairing failed for {pres}")
    pairs = []
    for a, b in zip(pos, neg_conj):
        if abs(a - b) > 0.5 * SEPARATION_FACTOR * scale:
            raise NoConvergence(f"conjugate pairing failed for {pres}")
        pairs.append(0.5 * (a + b))

    nodes = np.array(real_roots + pairs, dtype=complex)
    residual = np.abs(_old_powers(nodes, n) @ full) / np.maximum(1.0, np.abs(nodes) ** n)
    if not float(np.max(residual)) <= tol:
        raise NoConvergence(f"relative root residual {np.max(residual):.3e} exceeds {tol:.3e}")
    return tuple(real_roots), tuple(pairs)


def _reference_sweep():
    """(presentation, tolerance) pairs on which the root finder must keep
    the old arithmetic: presets, fresh moduli, roots near the ends of the
    double range, multiple roots and a near-double root."""
    tol = DEFAULT_ROOT_TOLERANCE
    degrees = (2, 3, 6, 16, 32)
    for kind in ("hyperbolic", "complicated", "nil"):
        for n in (*range(1, 7), 16, 32):
            yield preset(kind, n), tol
            yield preset(kind, n), 1e-15  # some refused by their residual
    rng = np.random.default_rng(25)
    for n in degrees:
        for _ in range(40):
            yield random_depressed_presentation(rng, n), tol
    for n in degrees:
        for e in (-300, -100, -30, 30, 100, 300):
            for sign in (1.0, -1.0):
                yield make_presentation([sign * 10.0**e] + [0.0] * (n - 1)), tol
    poly = np.polynomial.polynomial
    for _ in range(50):  # q(k) (k - a)^m, as in test_multiple_roots_are_refused
        q = np.append(rng.integers(-16, 17, int(rng.integers(0, 7))) / 8, 1.0)
        a, m = int(rng.integers(-16, 17)), int(rng.integers(2, 6))
        yield make_presentation(poly.polymul(q, poly.polypow([-a / 8, 1.0], m))[:-1]), tol
    # (k - 1)(k - 1 - 2^-40), exact in doubles, and k^2 = -1e-30.
    yield make_presentation([1.0 + 2.0**-40, -(2.0 + 2.0**-40)]), tol
    yield make_presentation([1e-30, 0.0]), tol


def _outcome(decompose, pres, tol):
    """Root bytes, real and complex apart, or the refusal's type and message."""
    try:
        real, cplx = decompose(pres, tol)
    except AlgebraError as exc:
        return type(exc), str(exc)
    return np.array(real, dtype=float).tobytes(), np.array(cplx, dtype=complex).tobytes()


def _new_roots(pres, tol):
    dec = _decompose.__wrapped__(pres, tol)  # past the memo
    return dec.real_roots, dec.complex_roots


def test_root_finding_keeps_the_old_arithmetic_bit_for_bit():
    outcomes = set()
    for pres, tol in _reference_sweep():
        got = _outcome(_new_roots, pres, tol)
        assert got == _outcome(_old_decompose, pres, tol), pres
        outcomes.add(got[0] if isinstance(got[0], type) else "answered")
    # The sweep reaches every kind of outcome it is meant to compare.
    assert outcomes == {"answered", NonSemisimple, NoConvergence}


def test_root_residual_certificate(rng):
    for _ in range(15):
        n = int(rng.integers(2, 7))
        pres, dec = random_semisimple_presentation(rng, n)
        full = np.append(np.array(pres.modulus_coeffs), 1.0)
        for xi in list(dec.real_roots) + list(dec.complex_roots):
            residual = abs(np.polyval(full[::-1], xi))
            assert residual <= dec.root_tolerance * max(1.0, abs(xi) ** n)
        assert dec.real_count + 2 * dec.complex_count == n
        assert all(w.imag > 0 for w in dec.complex_roots)
        assert list(dec.real_roots) == sorted(dec.real_roots)


# -- forward map -----------------------------------------------------------------


def test_to_components_h2(h2, rng):
    dec = find_roots(h2)
    x1, x2 = rng.uniform(-2, 2, 2)
    comp = to_components(h2.element([x1, x2]), dec)
    np.testing.assert_allclose(comp.real_parts, [x1 - x2, x1 + x2], atol=1e-14)


def test_to_components_complex(c2):
    dec = find_roots(c2)
    comp = to_components(c2.element([1.5, -0.5]), dec)
    assert comp.complex_parts[0] == pytest.approx(1.5 - 0.5j, abs=1e-14)


def test_to_components_h3_all_ones(h3):
    # frozen by direct arithmetic: 1 + t + t^2 at the cube roots of unity
    dec = find_roots(h3)
    comp = to_components(h3.element([1, 1, 1]), dec)
    assert comp.real_parts[0] == pytest.approx(3.0, abs=1e-12)
    assert abs(comp.complex_parts[0]) == pytest.approx(0.0, abs=1e-12)


def test_to_components_mismatch(h2, c2):
    with pytest.raises(PresentationMismatch):
        to_components(c2.element([1, 0]), find_roots(h2))


# -- inverse map -----------------------------------------------------------------


def test_from_components_h2(h2):
    dec = find_roots(h2)
    a, b = -0.75, 2.5  # values at roots -1 and +1
    z = from_components(ComponentVector((a, b), ()), dec)
    np.testing.assert_allclose(z.coords, [(a + b) / 2, (b - a) / 2], atol=1e-12)


@pytest.mark.parametrize("kind, n", [("hyperbolic", 4), ("complicated", 3)])
def test_from_components_all_ones_is_identity(kind, n):
    pres = preset(kind, n)
    dec = find_roots(pres)
    v = ComponentVector((1.0,) * dec.real_count, (1 + 0j,) * dec.complex_count)
    z = from_components(v, dec)
    np.testing.assert_allclose(z.coords, pres.one().coords, atol=1e-12)


def test_from_components_complex(c2):
    dec = find_roots(c2)
    z = from_components(ComponentVector((), (2j,)), dec)
    np.testing.assert_allclose(z.coords, [0.0, 2.0], atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_from_components_answers_an_overflowing_residual_without_warning():
    # Values near 1e308 at the roots of k^15 = -1 overflow the residual V x - v;
    # the row is solved again at its values over a power of two.
    dec = find_roots(preset("complicated", 15))
    values = (0j, 1e308j, 0j, 1e308 + 0j, 1e308 + 0j, 0j, 0j)
    z = from_components(ComponentVector((0.0,), values), dec)
    assert np.isfinite(z.coords).all()
    back = to_components(z, dec)
    np.testing.assert_allclose(back.real_parts, (0.0,), rtol=0, atol=1e-9 * 1e308)
    np.testing.assert_allclose(back.complex_parts, values, rtol=0, atol=1e-9 * 1e308)


@pytest.mark.filterwarnings("error")
def test_from_components_answers_values_near_the_double_limit(h2):
    # x1 = (v(1) + v(-1)) / 2 and x2 = (v(1) - v(-1)) / 2 on k^2 = 1: the sum
    # of the values overflows inside the solve, the answer does not.
    dec = find_roots(h2)
    at = dict(zip(dec.real_roots, (1e308, -1e308)))
    z = from_components(ComponentVector((1e308, -1e308), ()), dec)
    assert z.coords.tolist() == [0.0, at[1.0] / 2 - at[-1.0] / 2]


@pytest.mark.filterwarnings("error")
def test_from_components_refuses_coordinates_past_the_largest_double():
    # On k^2 = 1/100, x2 = (v(0.1) - v(-0.1)) / 0.2 is 1e309 for these values.
    dec = find_roots(make_presentation([-0.01, 0.0]))
    with pytest.raises(InvalidArgument, match="overflow"):
        from_components(ComponentVector((1e308, -1e308), ()), dec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_from_components_refuses_values_that_are_not_finite_without_warning(h2, value):
    with pytest.raises(IllConditioned):
        from_components(ComponentVector((value, 1.0), ()), find_roots(h2))


def test_from_components_shape_mismatch(h2):
    dec = find_roots(h2)
    with pytest.raises(ShapeMismatch):
        from_components(ComponentVector((1.0,), ()), dec)
    with pytest.raises(ShapeMismatch):
        from_components(ComponentVector((1.0, 2.0), (1j,)), dec)


# -- round trips and structure -----------------------------------------------------


def test_roundtrip_both_directions(rng):
    for kind, n in [("hyperbolic", 5), ("complicated", 4), ("hyperbolic", 2)]:
        pres = preset(kind, n)
        dec = find_roots(pres)
        for _ in range(50):
            z = AlgebraElement(pres, rng.uniform(-3, 3, n))
            back = from_components(to_components(z, dec), dec)
            np.testing.assert_allclose(back.coords, z.coords, rtol=1e-9, atol=1e-9)
            v = ComponentVector(
                tuple(rng.uniform(-2, 2, dec.real_count)),
                tuple(
                    complex(a, b)
                    for a, b in zip(
                        rng.uniform(-2, 2, dec.complex_count),
                        rng.uniform(-2, 2, dec.complex_count),
                    )
                ),
            )
            w = to_components(from_components(v, dec), dec)
            np.testing.assert_allclose(w.real_parts, v.real_parts, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(
                w.complex_parts, v.complex_parts, rtol=1e-9, atol=1e-9
            )


def test_homomorphism_under_evaluation(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        pres, dec = random_semisimple_presentation(rng, n)
        z = AlgebraElement(pres, rng.uniform(-2, 2, n))
        w = AlgebraElement(pres, rng.uniform(-2, 2, n))
        pz, pw, pzw = to_components(z, dec), to_components(w, dec), to_components(mul(z, w), dec)
        for got, a, b in zip(
            pzw.real_parts + pzw.complex_parts,
            pz.real_parts + pz.complex_parts,
            pw.real_parts + pw.complex_parts,
        ):
            assert got == pytest.approx(a * b, rel=1e-9, abs=1e-9)


def test_reconstruction_imaginary_residue(rng):
    # Reconstructed coordinates come from a conjugate-symmetric solve; the
    # discarded imaginary part must be negligible.
    pres = preset("complicated", 6)
    dec = find_roots(pres)
    nodes = []
    for xi in dec.complex_roots:
        nodes.extend([xi, xi.conjugate()])
    vander = np.vander(np.array(nodes), N=6, increasing=True)
    for _ in range(25):
        v = ComponentVector(
            (),
            tuple(
                complex(a, b)
                for a, b in zip(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
            ),
        )
        values = []
        for w in v.complex_parts:
            values.extend([w, w.conjugate()])
        coeffs = np.linalg.solve(vander, np.array(values))
        assert float(np.max(np.abs(coeffs.imag))) <= 1e-10
        z = from_components(v, dec)
        np.testing.assert_allclose(z.coords, coeffs.real, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_non_finite_component_values_are_refused(h2, c2):
    nan, inf = float("nan"), float("inf")
    for pres, coords in ((c2, [nan, 0.0]), (c2, [0.0, inf]), (h2, [1.5e308, 1.5e308])):
        with pytest.raises(InvalidArgument):
            to_components(pres.element(coords), find_roots(pres))


def test_from_components_ill_conditioned():
    # find_roots refuses clusters, so build a degenerate decomposition by
    # hand: coincident nodes make the interpolation system singular.
    from atrig.spectral import SpectralDecomposition

    pres = make_presentation([0.0, 1.0])
    dec = SpectralDecomposition(
        presentation=pres,
        real_roots=(0.5, 0.5),
        complex_roots=(),
        root_tolerance=1e-10,
    )
    with pytest.raises(IllConditioned):
        from_components(ComponentVector((1.0, 2.0), ()), dec)


def test_decomposition_json(h3):
    data = find_roots(h3).to_json_dict()
    assert data["real_roots"] == pytest.approx([1.0])
    assert len(data["complex_roots"]) == 1
    re, im = data["complex_roots"][0]
    assert (re, im) == pytest.approx((-0.5, np.sqrt(3) / 2))
