"""Verification sweeps shared by the CLI ``verify`` subcommand and the
acceptance tests.  Every sweep is seeded and reports per-case worst
residuals so tolerance behaviour stays observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import AlgebraElement, PrincipalPresentation, _shown, make_presentation, preset
from .errors import InvalidArgument, NonSemisimple
from .identities import MAX_SAMPLES, _check_sampling, _powers_of_k, _verify_sets  # noqa: F401
from .identities import adding_angle, de_moivre
from .spectral import SpectralDecomposition, _component_values, _interpolate, find_roots
from .transcendental import (
    BranchSpec,
    _decomposition_of,
    _exp_coords,
    _exp_monomial,
    _log_coords,
    _modulus_coords,
    _monomial_series,
    trig_components,
)

_PRINCIPAL = BranchSpec()


@dataclass
class SuiteReport:
    suite: str
    tol: float
    worst_residual: float
    passed: bool
    details: list[dict] = field(default_factory=list)

    @property
    def cases(self) -> int:
        return len(self.details)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "tol": self.tol,
            "cases": self.cases,
            "worst_residual": self.worst_residual,
            "pass": self.passed,
            "details": self.details,
        }


def preset_grid(dims=range(2, 7), kinds=core.PRESET_KINDS) -> list[PrincipalPresentation]:
    return [preset(kind, n) for kind in kinds for n in dims]


def random_depressed_presentation(rng: np.random.Generator, degree: int) -> PrincipalPresentation:
    """A depressed modulus of ``degree`` with coefficients uniform in [-2, 2]."""
    coeffs = rng.uniform(-2.0, 2.0, degree)
    coeffs[-1] = 0.0
    return make_presentation(coeffs)


def random_semisimple_presentation(
    rng: np.random.Generator, degree: int
) -> tuple[PrincipalPresentation, SpectralDecomposition]:
    """The first of up to 50 depressed draws that ``find_roots`` accepts, and its roots."""
    for _ in range(50):
        pres = random_depressed_presentation(rng, degree)
        try:
            return pres, find_roots(pres)
        except NonSemisimple:
            continue
    raise RuntimeError("could not draw a semisimple presentation")


def random_rational_presentation(rng: np.random.Generator, degree: int) -> PrincipalPresentation:
    # Eighth-step coefficients in [-1/4, 1/4]: exact dyadic rationals whose
    # roots stay small enough that absolute 1e-9 residual checks are
    # meaningful in double precision even for fourth powers of components.
    coeffs = rng.integers(-2, 3, degree) / 8.0
    return make_presentation(coeffs)


def _ld_draws(
    rng: np.random.Generator,
    pres: PrincipalPresentation,
    dec: SpectralDecomposition | None,
    count: int,
) -> np.ndarray:
    """The random elements (count, n) whose exponentials ``random_ld_samples``
    returns: coordinates uniform in [-1, 1], scaled down so that no
    component value exceeds 2 in modulus when ``dec`` is given."""
    w = rng.uniform(-1.0, 1.0, (count, pres.degree))
    if dec is not None:
        peaks = np.abs(_component_values(w, dec)).max(axis=1)
        capped = peaks > 2.0
        w[capped] *= (2.0 / peaks[capped])[:, None]
    return w


def random_ld_samples(
    rng: np.random.Generator,
    pres: PrincipalPresentation,
    dec: SpectralDecomposition | None,
    count: int,
) -> np.ndarray:
    """Coordinates (count, n) of exp of random elements whose spectrum is
    capped, so coordinates of the samples (and of their exponential round
    trips) stay at a scale where the absolute tolerances are meaningful.

    The draws are those of ``count`` successive ``random_ld_sample`` calls.
    """
    return _exp_coords(_ld_draws(rng, pres, dec, count), core._rep_table(pres.modulus_coeffs))


def random_ld_sample(
    rng: np.random.Generator,
    pres: PrincipalPresentation,
    dec: SpectralDecomposition | None = None,
) -> AlgebraElement:
    """One log-domain sample: the one-row case of ``random_ld_samples``."""
    return AlgebraElement(pres, random_ld_samples(rng, pres, dec, 1)[0])


def _worst_deviation(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max(initial=0.0))


def _case_label(pres: PrincipalPresentation, index: int | None = None) -> str:
    if pres.label:
        return pres.label
    if index is not None:
        return f"random-{index} (deg {pres.degree})"
    return f"deg {pres.degree}"


def _cases(rng, grid, count: int, degrees, draw) -> list[tuple[str, PrincipalPresentation]]:
    """The labelled presets of ``grid``, then ``count`` presentations
    drawn by ``draw(rng, degree)`` at degrees drawn from ``degrees``."""
    cases = [(_case_label(p), p) for p in grid]
    for i in range(count):
        pres = draw(rng, int(rng.integers(degrees[0], degrees[1] + 1)))
        cases.append((_case_label(pres, i), pres))
    return cases


def _decomposition(pres: PrincipalPresentation) -> SpectralDecomposition | None:
    """The shared decomposition of a semisimple presentation; None if nil."""
    return None if pres.is_nil() else _decomposition_of(pres)


def _row(case: str, residual: float, verdict: float | bool, extra: dict | None = None) -> dict:
    # A float verdict is the tolerance the residual must not exceed; a bool
    # is the verdict itself.
    passed = verdict if isinstance(verdict, bool) else residual <= verdict
    return {"case": case, "residual": residual, **(extra or {}), "pass": passed}


def _report(suite: str, tol: float, rows, checks=()) -> SuiteReport:
    """A report from ``(case, residual, verdict)`` rows, plus ``checks``
    (rows with an optional dict of extra fields) that count toward the pass
    but not toward the worst residual."""
    details = [_row(*row) for row in rows]
    worst = max([0.0] + [d["residual"] for d in details])
    details += [_row(*check) for check in checks]
    return SuiteReport(suite, tol, worst, all(d["pass"] for d in details), details)


def _by_degree(batches, kernel, tables) -> list[np.ndarray]:
    """``kernel(rows, *shared)`` over the rows of every ``(pres, *key, rows)``
    of ``batches``, as one array per batch.

    ``tables(pres.modulus_coeffs, *key)`` gives the arrays that a batch's
    rows share.  The batches of one degree, whose rows share one shape
    (samples, ...), are stacked into one kernel call, with every table
    stacked on a new first axis and broadcast over its batch's samples
    (``core._rep_table`` stacks to (cases, 1, n, n^2), or (cases, 1, n,
    2n - 1) above degree 16), so every row equals its value from a call on
    its batch alone, bit for bit.
    """
    by_degree: dict[int, list[int]] = {}
    for i, (pres, *_) in enumerate(batches):
        by_degree.setdefault(pres.degree, []).append(i)
    out = [None] * len(batches)
    for group in by_degree.values():
        rows = np.stack([batches[i][-1] for i in group])
        per_case = [tables(batches[i][0].modulus_coeffs, *batches[i][1:-1]) for i in group]
        shared = [np.stack(table)[:, None] for table in zip(*per_case)]
        for i, part in zip(group, kernel(rows, *shared)):
            out[i] = part
    return out


def _exps(batches) -> list[np.ndarray]:
    """exp of every row of every ``(pres, coords)`` of ``batches``, as one
    array per batch: one stacked exponential per degree."""
    return _by_degree(batches, _exp_coords, lambda coeffs: (core._rep_table(coeffs),))


def _unit_deviations(batches) -> list[np.ndarray]:
    """|F(exp(theta k^m)) - 1| for every theta of every ``(pres, m, thetas)``
    of ``batches``, as one array per batch: one stacked monomial exponential
    and one stacked determinant per degree."""

    def deviations(thetas, sigmas, norms, series, tables):
        exps = _exp_monomial(thetas, sigmas, norms, series, tables)
        return np.abs(np.linalg.det(core._rep_stack(exps, tables)) - 1.0)

    def tables(coeffs, m):
        return *_monomial_series(coeffs, m), core._rep_table(coeffs)

    return _by_degree(batches, deviations, tables)


def _ld_batches(rng, presentations, samples: int):
    """Each presentation's decomposition (None if nil) and ``samples``
    log-domain samples, drawn in order as ``random_ld_samples`` draws them,
    then exponentiated in one stacked call per degree."""
    decs = [_decomposition(pres) for pres in presentations]
    draws = [(pres, _ld_draws(rng, pres, dec, samples)) for pres, dec in zip(presentations, decs)]
    return decs, _exps(draws)


def kthagorean_suite(samples: int = 100, tol: float = 1e-9, seed: int = 0) -> SuiteReport:
    """max |F(exp(k theta)) - 1| over ``samples`` random theta, for the
    presets and 50 random depressed presentations of degrees 2-6 with
    coefficients in [-2, 2]; the determinant of exp(k theta) must be 1.

    Every case draws its angles first, in case order; then each degree
    takes one exponential and one determinant over all its cases' rows.
    """
    rng = np.random.default_rng(seed)
    cases = _cases(rng, preset_grid(), 50, (2, 6), random_depressed_presentation)
    batches = [(pres, 1, rng.uniform(-3.0, 3.0, samples)) for _, pres in cases]
    rows = [
        (label, float(deviations.max(initial=0.0)), tol)
        for (label, _), deviations in zip(cases, _unit_deviations(batches))
    ]
    return _report("kthagorean", tol, rows)


WITNESS_THRESHOLD = 1e-3
#: Tolerance of the roundtrip suite's Re(log z) = log(modulus z) rows.
RE_LAW_TOL = 1e-9


def pure_power_suite(samples: int = 100, tol: float = 1e-9, seed: int = 0) -> SuiteReport:
    """F(exp(k^m theta)) = 1 at ``samples`` random theta for every m on pure-power presets,
    plus a counterexample search on k^3 + k showing the condition is necessary.

    Every preset draws its angles first, by m; then each degree takes one
    exponential and one determinant over all its presets' rows.
    """
    rng = np.random.default_rng(seed)
    presets = preset_grid()
    batches = []
    for pres in presets:
        # theta for every m, drawn by m.
        thetas = rng.uniform(-3.0, 3.0, (pres.degree - 1, samples))
        batches += [(pres, m, row) for m, row in enumerate(thetas, start=1)]
    rows = [
        (f"{_case_label(pres)} m={m}", float(deviations.max(initial=0.0)), tol)
        for (pres, m, _), deviations in zip(batches, _unit_deviations(batches))
    ]

    # Necessity direction: with a nonzero intermediate coefficient the
    # deviation must be macroscopic somewhere on [0.5, 2].
    witness_pres = make_presentation((0.0, 1.0, 0.0), label="k^3+k")
    thetas = np.linspace(0.5, 2.0, 31)
    (deviations,) = _unit_deviations([(witness_pres, 2, thetas)])
    best, theta = max(zip(deviations.tolist(), thetas.tolist()))
    witness = ("k^3+k m=2 witness", best, best > WITNESS_THRESHOLD, {"theta": float(theta)})
    return _report("only-pure-power", tol, rows, checks=[witness])


def lemma_suite(samples: int = 20, tol: float = 1e-6, seed: int = 0) -> SuiteReport:
    """Finite-difference check of the column relations of M(exp(k theta)):
    u_i' = u_{i+1} for i < n, and u_n' = -sum_j c_j u_{j+1}, by central
    differences with h = 1e-5 at 3 angles on each of ``samples`` random
    depressed presentations of degrees 2-6."""
    h = 1e-5
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(samples):
        degree = int(rng.integers(2, 7))
        pres = random_depressed_presentation(rng, degree)
        c = np.array(pres.modulus_coeffs)
        thetas = rng.uniform(-1.5, 1.5, 3)
        exps = trig_components(pres, 1, np.stack([thetas + h, thetas - h, thetas]))
        plus, minus, centre = core._rep_stack(exps, core._rep_table(pres.modulus_coeffs))
        derivative = (plus - minus) / (2.0 * h)
        expected = np.empty_like(centre)
        expected[..., : degree - 1] = centre[..., 1:]
        expected[..., degree - 1] = -centre @ c
        residual = float(np.abs(derivative - expected).max(initial=0.0))
        rows.append((_case_label(pres, i), residual, tol))
    return _report("lemma", tol, rows)


def roundtrip_suite(samples: int = 500, tol: float = 1e-8, seed: int = 0) -> SuiteReport:
    """exp(log(z)) = z on ``samples`` logarithmic-domain elements per case, for the semisimple
    path (presets plus 10 random semisimple presentations of degrees 2-6) and the nil path;
    plus Re(log z) = log(modulus z) on pure-power presets, to ``RE_LAW_TOL``.

    Every case draws its samples first, round trips then re-law cases; each
    degree takes one exponential over all of them.  ``log`` and ``modulus``
    run per case, each on its own decomposition, and the exponentials back
    take one call per degree.
    """
    rng = np.random.default_rng(seed)
    cases = _cases(
        rng,
        preset_grid(kinds=("hyperbolic", "complicated")),
        10,
        (2, 6),
        lambda rng, degree: random_semisimple_presentation(rng, degree)[0],
    )
    cases += [(_case_label(pres), pres) for pres in preset_grid(kinds=("nil",))]
    laws = preset_grid()
    decs, zs = _ld_batches(rng, [pres for _, pres in cases] + laws, samples)
    logs = [
        (pres, _log_coords(z, pres, _PRINCIPAL, dec))
        for (_, pres), dec, z in zip(cases, decs, zs)
    ]
    rows = [
        (f"roundtrip:{label}", _worst_deviation(back, z), tol)
        for (label, _), z, back in zip(cases, zs, _exps(logs))
    ]
    for pres, dec, z in zip(laws, decs[len(cases) :], zs[len(cases) :]):
        real_parts = _log_coords(z, pres, _PRINCIPAL, dec)[:, 0]
        residual = _worst_deviation(real_parts, np.log(_modulus_coords(z, pres)))
        rows.append((f"re-law:{_case_label(pres)}", residual, RE_LAW_TOL))
    return _report("roundtrip", tol, rows)


def polar_suite(samples: int = 200, tol: float = 1e-8, seed: int = 0) -> SuiteReport:
    """exp(log(rho) + arg) = z on pure-power presets, rho = F(z)^(1/n) by the determinant and
    arg by ``log``: the independent check of ``modulus``, which ``polar`` does not use.

    Every preset draws its samples first; each degree takes one exponential
    over all of them, ``log`` and ``modulus`` run per preset, and the
    exponentials back take one call per degree.
    """
    rng = np.random.default_rng(seed)
    presets = preset_grid()
    decs, zs = _ld_batches(rng, presets, samples)
    recombined = []
    for pres, dec, z in zip(presets, decs, zs):
        log_rho = np.log(_modulus_coords(z, pres))
        coords = _log_coords(z, pres, _PRINCIPAL, dec)  # the argument ...
        coords[:, 0] = log_rho  # ... plus log(rho)
        recombined.append((pres, coords))
    rows = [
        (_case_label(pres), _worst_deviation(back, z), tol)
        for pres, z, back in zip(presets, zs, _exps(recombined))
    ]
    return _report("polar", tol, rows)


def identities_suite(samples: int = 200, tol: float = 1e-9, seed: int = 0) -> SuiteReport:
    """Numeric certification at ``samples`` points of the adding-angle and
    De Moivre powers 1-4 identities, on presets of degrees 2-5 and 20 random
    rational-coefficient presentations of degrees 2-5."""
    rng = np.random.default_rng(seed)
    cases = _cases(rng, preset_grid(dims=range(2, 6)), 20, (2, 5), random_rational_presentation)
    rows = []
    for index, (label, pres) in enumerate(cases):
        labels = ["add-angle"] + [f"de-moivre-{p}" for p in range(1, 5)]
        # One table of k^0 ... k^(4(n - 1)) serves the case's five sets.
        k_powers = _powers_of_k(pres.modulus_coeffs, 4 * (pres.degree - 1))
        sets = [adding_angle(pres, _k_powers=k_powers)]
        sets += [de_moivre(pres, p, _k_powers=k_powers) for p in range(1, 5)]
        # Each set of a case draws its own samples; one exponential serves them all.
        seeds = [seed + 97 * index + offset for offset in range(1, len(sets) + 1)]
        for kind_label, report in zip(labels, _verify_sets(sets, seeds, samples, tol)):
            rows.append((f"{kind_label}:{label}", report.max_residual, report.passed))
    return _report("identities", tol, rows)


def _relative_deviation(got: np.ndarray, want: np.ndarray) -> float:
    return float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max(initial=0.0))


def crt_suite(samples: int = 500, tol: float = 1e-9, seed: int = 0) -> SuiteReport:
    """Component isomorphism: homomorphism and both round trips on
    semisimple presets; nil presets must be rejected as non-semisimple."""
    rng = np.random.default_rng(seed)
    rows = []
    for pres in preset_grid(kinds=("hyperbolic", "complicated")):
        dec = _decomposition(pres)
        n, r, c = pres.degree, dec.real_count, dec.complex_count
        # Per sample: z, w, then the real components and the real and
        # imaginary parts of the complex ones of a random component vector.
        draws = rng.uniform(-2.0, 2.0, (samples, 3 * n))
        z, w = draws[:, :n], draws[:, n : 2 * n]
        v = np.empty((samples, n), dtype=complex)
        v[:, :r] = draws[:, 2 * n : 2 * n + r]
        v[:, r::2].real = draws[:, 2 * n + r : 2 * n + r + c]
        v[:, r::2].imag = draws[:, 2 * n + r + c :]
        v[:, r + 1 :: 2] = np.conj(v[:, r::2])

        pz, pw = _component_values(z, dec), _component_values(w, dec)
        table = core._rep_table(pres.modulus_coeffs)
        pzw = _component_values(core._mul_coords(z, w, table), dec)
        residual = max(
            _relative_deviation(pzw, pz * pw),
            _worst_deviation(_interpolate(pz, dec), z),
            _relative_deviation(_component_values(_interpolate(v, dec), dec), v),
        )
        rows.append((_case_label(pres), residual, tol))
    rejections = []
    for pres in preset_grid(kinds=("nil",)):
        try:
            find_roots(pres)
            rejected = False
        except NonSemisimple:
            rejected = True
        rejections.append((f"reject:{_case_label(pres)}", 0.0, rejected))
    return _report("crt", tol, rows, checks=rejections)


# Suite name -> suite function, each taking (samples, tol, seed).  The function is looked
# up on the module when the suite runs, so a wrapper rebound onto the module is the one
# called.  Every default lives in the function's signature.
_SUITES = {
    "kthagorean": "kthagorean_suite",
    "lemma": "lemma_suite",
    "roundtrip": "roundtrip_suite",
    "identities": "identities_suite",
    "only-pure-power": "pure_power_suite",
    "polar": "polar_suite",
    "crt": "crt_suite",
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str, samples: int | None = None, tol: float | None = None, seed: int = 0
) -> SuiteReport:
    """Run a suite by name; ``samples`` and ``tol`` left as None keep the
    suite's defaults.  An unknown name, ``samples`` that is not an integer
    in [1, ``MAX_SAMPLES``], ``tol`` that is not a positive finite number
    and ``seed`` that is not a non-negative integer raise ``InvalidArgument``."""
    try:
        function = _SUITES[name]
    except KeyError:
        raise InvalidArgument(f"unknown suite {_shown(name)}; choose from {SUITE_NAMES}") from None
    _check_sampling(1 if samples is None else samples, 1.0 if tol is None else tol, seed)
    given = {"samples": samples, "tol": tol}
    return globals()[function](seed=seed, **{k: v for k, v in given.items() if v is not None})
