"""Stacked logarithm, component maps and modulus: every row of a batch
equals the one-row public call, and the batch refuses what a row refuses."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrig import (
    AlgebraElement,
    BranchSpec,
    ComponentVector,
    exp,
    find_roots,
    from_components,
    log,
    make_presentation,
    modulus,
    preset,
    pythagorean,
    to_components,
)
from atrig.core import _fold_table
from atrig.errors import AlgebraError, IllConditioned, OutsideLogDomain
from atrig.spectral import UNIT_ROUNDOFF, _component_values, _interpolate, _powers
from atrig.transcendental import _exp_coords, _log_coords, _modulus_coords
from atrig.verify import (
    random_ld_sample,
    random_ld_samples,
    random_semisimple_presentation,
)


def _bits(values):
    arr = np.ascontiguousarray(values)
    return arr.view(np.int64)


def _same_bits(a, b) -> bool:
    return np.array_equal(_bits(np.asarray(a)), _bits(np.asarray(b)))


def _source(kind, n, seed):
    if kind == "random":
        return random_semisimple_presentation(np.random.default_rng(seed), n)
    pres = preset(kind, n)
    return pres, None if kind == "nil" else find_roots(pres)


_DEGREES = (2, 3, 4, 5, 6, 16)


@given(
    source=st.sampled_from(
        [(kind, n) for kind in ("hyperbolic", "complicated", "nil", "random") for n in _DEGREES]
    ),
    seed=st.integers(0, 2**16),
    scales=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=10),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_stacked_kernels_match_one_row_calls(source, seed, scales, data):
    kind, n = source
    pres, dec = _source(kind, n, seed)
    rng = np.random.default_rng(seed + 1)
    # Positive multiples of log-domain samples stay in the domain.
    batch = random_ld_samples(rng, pres, dec, len(scales)) * np.array(scales)[:, None]
    spec = BranchSpec()
    if dec is not None and dec.complex_count:
        indices = data.draw(
            st.lists(st.integers(-2, 2), min_size=dec.complex_count, max_size=dec.complex_count)
        )
        spec = BranchSpec(tuple(indices))
    rows = [AlgebraElement(pres, row) for row in batch]

    def agree(stacked, single):
        """Each row must equal its single call, or the batch refuse as a row does."""
        outcomes = []
        for z in rows:
            try:
                outcomes.append(single(z))
            except AlgebraError as exc:
                outcomes.append(exc)
        refusals = [type(o) for o in outcomes if isinstance(o, AlgebraError)]
        if refusals:
            with pytest.raises(AlgebraError) as excinfo:
                stacked()
            assert type(excinfo.value) in refusals
            return
        result = stacked()
        assert len(result) == len(rows)
        for got, want in zip(result, outcomes):
            assert _same_bits(got, want)

    with np.errstate(all="ignore"):
        agree(
            lambda: _log_coords(batch, pres, spec, dec),
            lambda z: log(z, spec, dec).coords,
        )
        if pres.is_pure_power():
            agree(lambda: _modulus_coords(batch, pres), lambda z: modulus(z))
        if dec is not None:
            r = dec.real_count
            values = _component_values(batch, dec)
            for row, z in zip(values, rows):
                comp = to_components(z, dec)
                assert _same_bits(row[:r].real, comp.real_parts)
                assert _same_bits(row[r::2], np.array(comp.complex_parts, dtype=complex))
            agree(
                lambda: _interpolate(values, dec),
                lambda z: from_components(to_components(z, dec), dec).coords,
            )


def _old_to_components(coords, dec):
    """The forward map before it was stacked: Horner's rule at the real and
    the complex roots apart."""

    def horner(points):
        out = np.full_like(points, coords[-1])
        for c in coords[-2::-1]:
            out = out * points + c
        return out

    reals = tuple(float(v) for v in horner(np.array(dec.real_roots)))
    cplx = tuple(complex(v) for v in horner(np.array(dec.complex_roots))) if dec.complex_roots else ()
    return reals, cplx


@pytest.mark.parametrize("kind", ["hyperbolic", "complicated", "random"])
@pytest.mark.parametrize("n", [2, 3, 5, 6, 16, 32])
def test_component_values_are_exactly_real_and_conjugate(kind, n):
    pres, dec = _source(kind, n, seed=n)
    values = _component_values(np.random.default_rng(n).uniform(-2.0, 2.0, (20, n)), dec)
    r = dec.real_count
    assert np.all(values[:, :r].imag == 0.0)
    assert _same_bits(values[:, r + 1 :: 2], values[:, r::2].conj())


def _old_from_components(v, dec):
    """The inverse map before it was stacked: a fresh Vandermonde per call."""
    nodes = list(dec.real_roots)
    values = [complex(x) for x in v.real_parts]
    for xi, w in zip(dec.complex_roots, v.complex_parts):
        nodes.extend([xi, xi.conjugate()])
        values.extend([complex(w), complex(w).conjugate()])
    vander = np.vander(np.array(nodes, dtype=complex), N=dec.presentation.degree, increasing=True)
    return np.linalg.solve(vander, np.array(values, dtype=complex)).real


@pytest.mark.parametrize("kind", ["hyperbolic", "complicated", "random"])
@pytest.mark.parametrize("n", [2, 3, 5, 6, 16])
def test_component_maps_keep_the_unstacked_arithmetic(kind, n):
    pres, dec = _source(kind, n, seed=n)
    rng = np.random.default_rng(n)
    for _ in range(10):
        z = AlgebraElement(pres, rng.uniform(-2.0, 2.0, n))
        comp = to_components(z, dec)
        reals, cplx = _old_to_components(z.coords, dec)
        # Horner's rule and V z each stay within about 2n u sum_j |z_j||xi|^j
        # of the exact value at xi (Higham, ASNA, 2nd ed., section 5.1; for
        # V z see test_power_table_error_is_within_the_gate_bound), so they
        # may differ by twice that.
        got = np.array(comp.real_parts + comp.complex_parts, dtype=complex)
        points = np.array(dec.real_roots + dec.complex_roots, dtype=complex)
        scale = _powers(np.abs(points), n - 1) @ np.abs(z.coords)
        assert np.all(np.abs(got - np.array(reals + cplx)) <= 4 * n * UNIT_ROUNDOFF * scale)
        assert _same_bits(from_components(comp, dec).coords, _old_from_components(comp, dec))


def _old_log(comp, dec):
    """The semisimple logarithm before it was stacked, component by
    component, from the component values ``comp``."""
    log_reals = tuple(math.log(r) for r in comp.real_parts)
    log_cplx = []
    for w in comp.complex_parts:
        theta = math.atan2(w.imag, w.real)
        if theta <= -math.pi:
            theta = math.pi
        log_cplx.append(complex(math.log(abs(w)), theta + 0.0))
    return _old_from_components(ComponentVector(log_reals, tuple(log_cplx)), dec)


@pytest.mark.parametrize("kind", ["hyperbolic", "complicated", "random"])
@pytest.mark.parametrize("n", [2, 3, 5, 6, 16])
def test_log_and_modulus_keep_the_unstacked_arithmetic(kind, n):
    # numpy's complex log and power differ from math.log/atan2 and Python's
    # pow in the last bit on some inputs; the interpolation can grow that
    # by a factor of about n.
    pres, dec = _source(kind, n, seed=n)
    rng = np.random.default_rng(n + 100)
    for z in random_ld_samples(rng, pres, dec, 20):
        z = AlgebraElement(pres, z)
        want = _old_log(to_components(z, dec), dec)
        bound = 4 * n * UNIT_ROUNDOFF * max(1.0, float(np.abs(want).max()))
        assert np.abs(log(z, dec=dec).coords - want).max() <= bound
        if pres.is_pure_power():
            rho = pythagorean(z) ** (1.0 / n)
            assert abs(modulus(z) - rho) <= 4 * UNIT_ROUNDOFF * rho


def test_nil_log_of_gamma32_batches_matches_one_row_calls():
    # The property test above stops at n = 16.  Rows of exp(w) with
    # |w|_inf from 0.5 to 6, in batches of several sizes.
    pres = preset("nil", 32)
    rng = np.random.default_rng(32)
    norms = rng.uniform(0.5, 6.0, 24)
    batch = np.stack(
        [exp(AlgebraElement(pres, rng.uniform(-s, s, 32))).coords for s in norms]
    )
    singles = [log(AlgebraElement(pres, row)).coords for row in batch]
    for size in (1, 7, 24):
        stacked = _log_coords(batch[:size], pres, BranchSpec(), None)
        for got, want in zip(stacked, singles):
            assert _same_bits(got, want)


def test_empty_batches():
    h3, c3, gamma3 = preset("hyperbolic", 3), preset("complicated", 3), preset("nil", 3)
    empty = np.empty((0, 3))
    for pres in (h3, c3):
        dec = find_roots(pres)
        assert _log_coords(empty, pres, BranchSpec(), dec).shape == (0, 3)
        assert _component_values(empty, dec).shape == (0, 3)
        assert _interpolate(np.empty((0, 3), dtype=complex), dec).shape == (0, 3)
        assert _modulus_coords(empty, pres).shape == (0,)
    assert _log_coords(empty, gamma3, BranchSpec(), None).shape == (0, 3)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert random_ld_samples(rng, h3, find_roots(h3), 0).shape == (0, 3)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "pres, bad",
    [
        (preset("hyperbolic", 3), [-1.0, 0.0, 0.0]),  # negative real component
        (preset("complicated", 2), [0.0, 0.0]),  # zero complex component
        (preset("complicated", 4), [0.0, 0.0, 0.0, 0.0]),
        (preset("nil", 3), [-2.0, 0.5, 0.1]),  # non-positive leading coordinate
        (preset("nil", 4), [0.0, 1.0, 0.0, 0.0]),
    ],
)
def test_one_row_outside_the_domain_refuses_the_batch(pres, bad):
    dec = None if pres.is_nil() else find_roots(pres)
    good = random_ld_samples(np.random.default_rng(3), pres, dec, 6)
    _log_coords(good, pres, BranchSpec(), dec)  # the rest of the batch is fine
    with pytest.raises(OutsideLogDomain):
        log(AlgebraElement(pres, bad))
    for at in (0, 3, 6):
        with pytest.raises(OutsideLogDomain):
            _log_coords(np.insert(good, at, bad, axis=0), pres, BranchSpec(), dec)


def test_one_failing_interpolation_row_refuses_the_batch():
    pres = preset("complicated", 3)
    dec = find_roots(pres)
    values = _component_values(np.random.default_rng(5).uniform(-2, 2, (5, 3)), dec)
    _interpolate(values, dec)
    bad = values[:1].copy()
    bad[0, 1] = np.nan  # its residual is NaN, which no bound admits
    for at in (0, 2, 5):
        with pytest.raises(IllConditioned):
            _interpolate(np.insert(values, at, bad, axis=0), dec)
    with pytest.raises(IllConditioned):
        from_components(ComponentVector((float("nan"),), (1j,)), dec)


def _old_random_ld_sample(rng, pres, dec=None):
    """The sampler before it was stacked, one element per call."""
    w = rng.uniform(-1.0, 1.0, pres.degree)
    if dec is not None:
        nodes = np.array(list(dec.real_roots) + list(dec.complex_roots), dtype=complex)
        if nodes.size:
            values = np.full_like(nodes, w[-1])
            for x in w[-2::-1]:
                values = values * nodes + x
            peak = float(np.max(np.abs(values)))
            if peak > 2.0:
                w = w * (2.0 / peak)
    return exp(AlgebraElement(pres, w))


@pytest.mark.parametrize(
    "kind, n",
    [("hyperbolic", 2), ("hyperbolic", 6), ("complicated", 5), ("nil", 4), ("random", 4), ("random", 16)],
)
@pytest.mark.parametrize("with_dec", [True, False])
def test_random_ld_sample_keeps_its_stream(kind, n, with_dec):
    pres, dec = _source(kind, n, seed=7)
    dec = dec if with_dec else None
    old, one, many = (np.random.default_rng(11) for _ in range(3))
    expected = [_old_random_ld_sample(old, pres, dec) for _ in range(8)]
    singles = [random_ld_sample(one, pres, dec) for _ in range(8)]
    stacked = random_ld_samples(many, pres, dec, 8)
    # The old sampler found each peak by Horner's rule, so a capped draw is
    # scaled by a factor a few ulps away, which moves its exponential (whose
    # component values are at most 2) by about twice as much, relatively.
    for want, got, row in zip(expected, singles, stacked):
        assert got.presentation is pres
        assert _same_bits(got.coords, row)
        allowed = 4 * n * UNIT_ROUNDOFF * max(1.0, float(np.abs(want.coords).max()))
        assert float(np.abs(row - want.coords).max()) <= allowed
    assert one.bit_generator.state == old.bit_generator.state
    assert many.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("labelled_first", [True, False])
def test_decomposition_cache_is_keyed_on_the_modulus(monkeypatch, labelled_first):
    # Count the root-finding work itself: the eigenvalue calls made after
    # the memo is emptied.
    calls = []
    real_eigvals = np.linalg.eigvals

    def counting(matrix):
        calls.append(matrix)
        return real_eigvals(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    labelled = preset("hyperbolic", 3)
    bare = make_presentation([-1.0, 0.0, 0.0])
    order = (labelled, bare) if labelled_first else (bare, labelled)
    results = [log(pres.element([1.5, 0.2, -0.1])) for pres in order]
    assert len(calls) == 1
    for pres, result in zip(order, results):
        assert result.presentation is pres
    assert results[0].presentation.label != results[1].presentation.label
    assert _same_bits(results[0].coords, results[1].coords)


def _count_exponentials(monkeypatch):
    """Patch counters onto ``trig_components``, ``_exp_coords`` and
    ``_exp_monomial`` wherever the suites and the identity checks look them
    up; returns the call log."""
    from atrig import identities, transcendental, verify

    calls = []
    exp_coords, trig_components = transcendental._exp_coords, transcendental.trig_components
    exp_monomial = transcendental._exp_monomial

    def counted_exp(coords, fold):
        calls.append(("_exp_coords", coords[..., 0].size))
        return exp_coords(coords, fold)

    def counted_monomial(thetas, *tables):
        calls.append(("_exp_monomial", np.size(thetas)))
        return exp_monomial(thetas, *tables)

    def counted_trig(pres, m, theta):
        calls.append(("trig_components", np.size(theta)))
        return trig_components(pres, m, theta)

    for module in (transcendental, verify):
        monkeypatch.setattr(module, "_exp_coords", counted_exp)
        monkeypatch.setattr(module, "_exp_monomial", counted_monomial)
    for module in (identities, verify):
        monkeypatch.setattr(module, "trig_components", counted_trig)
    return calls


def test_one_stacked_exponential_per_identities_case(monkeypatch):
    from atrig import verify

    calls = _count_exponentials(monkeypatch)
    report = verify.identities_suite(samples=10, seed=0)
    cases = report.cases // 5  # adding angle and De Moivre powers 1-4 per case
    # alpha, beta, alpha+beta for adding angle; alpha, p*alpha for each power.
    rows = 10 * (3 + 2 * 4)
    assert calls == [("trig_components", rows), ("_exp_monomial", rows)] * cases


def test_one_stacked_exponential_per_pure_power_preset(monkeypatch):
    from atrig import verify

    calls = _count_exponentials(monkeypatch)
    verify.pure_power_suite(samples=10, seed=0)
    # Every m of every preset of a degree in one call (H_n, C_n and Gamma_n),
    # then the k^3 + k witness.
    want = [("_exp_monomial", 3 * 10 * (n - 1)) for n in range(2, 7)]
    assert calls == want + [("_exp_monomial", 31)]


def test_one_stacked_exponential_per_kthagorean_degree(monkeypatch):
    from atrig import verify

    calls = _count_exponentials(monkeypatch)
    report = verify.kthagorean_suite(samples=10, seed=0)
    degrees = [pres.degree for pres in verify.preset_grid()]
    degrees += [int(row["case"].split("deg ")[1][:-1]) for row in report.details[len(degrees) :]]
    # One call per degree, in the order the degrees first appear.
    assert calls == [("_exp_monomial", 10 * count) for count in Counter(degrees).values()]


def _unit_deviation(pres, exps):
    """|F(e) - 1| for every row e of ``exps``, one ``pythagorean`` call a row."""
    return np.array([abs(pythagorean(AlgebraElement(pres, e)) - 1.0) for e in exps])


def test_by_degree_hands_the_kernel_one_fold_table_per_presentation():
    from atrig import verify

    cases = [preset("hyperbolic", 3), preset("nil", 2), make_presentation([0.5, -1, 0])]
    batches = [(pres, np.full((5, pres.degree), i + 1.0)) for i, pres in enumerate(cases)]
    seen = []

    def kernel(rows, folds):
        seen.append((rows, folds))
        return -rows

    out = verify._by_degree(batches, kernel, lambda coeffs: (_fold_table(coeffs),))
    # The degree-3 cases stacked on a new axis, then the degree-2 case.
    assert [(rows.shape, folds.shape) for rows, folds in seen] == [
        ((2, 5, 3), (2, 1, 3, 5)),
        ((1, 5, 2), (1, 1, 2, 3)),
    ]
    tables = [_fold_table(pres.modulus_coeffs) for pres in cases]
    assert np.array_equal(seen[0][1][:, 0], np.stack([tables[0], tables[2]]))
    assert np.array_equal(seen[1][1][0, 0], tables[1])
    for (_, coords), part in zip(batches, out):
        assert np.array_equal(part, -coords)


def test_kthagorean_suite_equals_one_exponential_per_case():
    from atrig import trig_components, verify

    report = verify.kthagorean_suite(samples=15, seed=4)
    rng = np.random.default_rng(4)
    cases = verify._cases(
        rng, verify.preset_grid(), 50, (2, 6), verify.random_depressed_presentation
    )
    want = []
    for label, pres in cases:
        thetas = rng.uniform(-3.0, 3.0, 15)
        deviations = _unit_deviation(pres, trig_components(pres, 1, thetas))
        want.append((label, float(deviations.max())))
    assert [(row["case"], row["residual"]) for row in report.details] == want


def test_pure_power_suite_equals_one_exponential_per_m():
    from atrig import trig_components, verify

    report = verify.pure_power_suite(samples=15, seed=3)
    rng = np.random.default_rng(3)
    want = []
    for pres in verify.preset_grid():
        for m in range(1, pres.degree):
            thetas = rng.uniform(-3.0, 3.0, 15)
            deviations = _unit_deviation(pres, trig_components(pres, m, thetas))
            want.append(float(deviations.max()))
    assert [row["residual"] for row in report.details[:-1]] == want


def _roundtrip_cases(rng):
    from atrig import verify

    cases = verify._cases(
        rng,
        verify.preset_grid(kinds=("hyperbolic", "complicated")),
        10,
        (2, 6),
        lambda rng, degree: random_semisimple_presentation(rng, degree)[0],
    )
    return cases + [(verify._case_label(p), p) for p in verify.preset_grid(kinds=("nil",))]


def _calls_by_degree(presentations, samples):
    """One ``_exp_coords`` call per degree, in the order the degrees first
    appear, over ``samples`` rows of every presentation of that degree."""
    counts = Counter(pres.degree for pres in presentations)
    return [("_exp_coords", samples * count) for count in counts.values()]


def test_one_stacked_exponential_per_roundtrip_degree(monkeypatch):
    from atrig import verify

    calls = _count_exponentials(monkeypatch)
    verify.roundtrip_suite(samples=7, seed=2)
    trips = [pres for _, pres in _roundtrip_cases(np.random.default_rng(2))]
    # Every sample of the round trips and of the re-law cases, then every
    # exponential back.
    forward = _calls_by_degree(trips + verify.preset_grid(), 7)
    assert calls == forward + _calls_by_degree(trips, 7)


def test_one_stacked_exponential_per_polar_degree(monkeypatch):
    from atrig import verify

    calls = _count_exponentials(monkeypatch)
    verify.polar_suite(samples=7, seed=2)
    want = _calls_by_degree(verify.preset_grid(), 7)
    assert len(want) == 5
    assert calls == want * 2  # the samples, then the recombined exponentials


def _exp_one_case(coords, pres):
    return _exp_coords(coords, _fold_table(pres.modulus_coeffs))


def _worst(got, want):
    return float(np.abs(got - want).max(initial=0.0))


@pytest.mark.parametrize("samples, seed", [(1, 0), (9, 5), (40, 20170814)])
def test_roundtrip_suite_equals_one_exponential_per_case(samples, seed):
    from atrig import verify

    report = verify.roundtrip_suite(samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    want = []
    for label, pres in _roundtrip_cases(rng):
        dec = None if pres.is_nil() else find_roots(pres)
        z = random_ld_samples(rng, pres, dec, samples)
        back = _exp_one_case(_log_coords(z, pres, BranchSpec(), dec), pres)
        want.append((f"roundtrip:{label}", _worst(back, z)))
    for pres in verify.preset_grid():
        dec = None if pres.is_nil() else find_roots(pres)
        z = random_ld_samples(rng, pres, dec, samples)
        real_parts = _log_coords(z, pres, BranchSpec(), dec)[:, 0]
        want.append((f"re-law:{pres.label}", _worst(real_parts, np.log(_modulus_coords(z, pres)))))
    assert [(row["case"], row["residual"]) for row in report.details] == want


@pytest.mark.parametrize("samples, seed", [(1, 0), (9, 5), (40, 20170814)])
def test_polar_suite_equals_one_exponential_per_case(samples, seed):
    from atrig import verify

    report = verify.polar_suite(samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    want = []
    for pres in verify.preset_grid():
        dec = None if pres.is_nil() else find_roots(pres)
        z = random_ld_samples(rng, pres, dec, samples)
        recombined = _log_coords(z, pres, BranchSpec(), dec)
        recombined[:, 0] = np.log(_modulus_coords(z, pres))
        want.append((pres.label, _worst(_exp_one_case(recombined, pres), z)))
    assert [(row["case"], row["residual"]) for row in report.details] == want
