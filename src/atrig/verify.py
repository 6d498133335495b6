"""Verification sweeps shared by the CLI ``verify`` subcommand and the
acceptance tests.  Every sweep is seeded and reports per-case worst
residuals so tolerance behaviour stays observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import AlgebraElement, PrincipalPresentation, make_presentation, preset
from .errors import NonSemisimple
from .identities import _verify_sets, adding_angle, de_moivre
from .spectral import SpectralDecomposition, _component_values, _interpolate, find_roots
from .transcendental import (
    BranchSpec,
    _decomposition_of,
    _exp_coords,
    _log_coords,
    _modulus_coords,
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


def random_depressed_presentation(
    rng: np.random.Generator, degree: int, coeff_range: float = 2.0
) -> PrincipalPresentation:
    coeffs = rng.uniform(-coeff_range, coeff_range, degree)
    coeffs[-1] = 0.0
    return make_presentation(coeffs)


def random_semisimple_presentation(
    rng: np.random.Generator, degree: int, coeff_range: float = 2.0, attempts: int = 50
) -> tuple[PrincipalPresentation, SpectralDecomposition]:
    for _ in range(attempts):
        pres = random_depressed_presentation(rng, degree, coeff_range)
        try:
            return pres, find_roots(pres)
        except NonSemisimple:
            continue
    raise RuntimeError("could not draw a semisimple presentation")


def random_rational_presentation(
    rng: np.random.Generator, degree: int
) -> PrincipalPresentation:
    # Eighth-step coefficients in [-1/4, 1/4]: exact dyadic rationals whose
    # roots stay small enough that absolute 1e-9 residual checks are
    # meaningful in double precision even for fourth powers of components.
    coeffs = rng.integers(-2, 3, degree) / 8.0
    return make_presentation(coeffs)


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
    w = rng.uniform(-1.0, 1.0, (count, pres.degree))
    if dec is not None:
        peaks = np.abs(_component_values(w, dec)).max(axis=1)
        capped = peaks > 2.0
        w[capped] *= (2.0 / peaks[capped])[:, None]
    return _exp_coords(w, pres)


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


def _cases(rng, grid, n_random: int, degrees, draw) -> list[tuple[str, PrincipalPresentation]]:
    """The labelled presets of ``grid``, then ``n_random`` presentations
    drawn by ``draw(rng, degree)`` at degrees drawn from ``degrees``."""
    cases = [(_case_label(p), p) for p in grid]
    for i in range(n_random):
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


def _unit_deviation(pres: PrincipalPresentation, exps: np.ndarray) -> np.ndarray:
    """|F(e) - 1| for every row e of ``exps`` (shape (m, n)), from one
    batched determinant."""
    reps = core._rep_stack(exps, core._fold_table(pres.modulus_coeffs))
    return np.abs(np.linalg.det(reps) - 1.0)


def kthagorean_suite(
    theta_samples: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
    n_random: int = 50,
    degrees=(2, 6),
    coeff_range: float = 2.0,
) -> SuiteReport:
    """max |F(exp(k theta)) - 1| over random theta, for presets and random
    depressed presentations; the determinant of exp(k theta) must be 1."""
    rng = np.random.default_rng(seed)
    cases = _cases(
        rng,
        preset_grid(),
        n_random,
        degrees,
        lambda rng, degree: random_depressed_presentation(rng, degree, coeff_range),
    )
    rows = []
    for label, pres in cases:
        thetas = rng.uniform(-3.0, 3.0, theta_samples)
        deviations = _unit_deviation(pres, trig_components(pres, 1, thetas))
        rows.append((label, float(deviations.max(initial=0.0)), tol))
    return _report("kthagorean", tol, rows)


WITNESS_THRESHOLD = 1e-3


def pure_power_suite(
    theta_samples: int = 100, tol: float = 1e-9, seed: int = 0
) -> SuiteReport:
    """F(exp(k^m theta)) = 1 for every m on pure-power presets, plus a
    counterexample search on k^3 + k showing the condition is necessary."""
    rng = np.random.default_rng(seed)
    rows = []
    for pres in preset_grid():
        # exp(k^m theta) for every m from one exponential, thetas drawn by m.
        n = pres.degree
        coords = np.zeros((n - 1, theta_samples, n))
        coords[range(n - 1), :, range(1, n)] = rng.uniform(-3.0, 3.0, (n - 1, theta_samples))
        deviations = _unit_deviation(pres, _exp_coords(coords.reshape(-1, n), pres))
        for m, per_m in enumerate(deviations.reshape(n - 1, theta_samples), start=1):
            rows.append((f"{_case_label(pres)} m={m}", float(per_m.max(initial=0.0)), tol))

    # Necessity direction: with a nonzero intermediate coefficient the
    # deviation must be macroscopic somewhere on [0.5, 2].
    witness_pres = make_presentation((0.0, 1.0, 0.0), label="k^3+k")
    thetas = np.linspace(0.5, 2.0, 31)
    deviations = _unit_deviation(witness_pres, trig_components(witness_pres, 2, thetas))
    best, theta = max(zip(deviations.tolist(), thetas.tolist()))
    witness = ("k^3+k m=2 witness", best, best > WITNESS_THRESHOLD, {"theta": float(theta)})
    return _report("only-pure-power", tol, rows, checks=[witness])


def lemma_suite(
    n_random: int = 20,
    tol: float = 1e-6,
    h: float = 1e-5,
    seed: int = 0,
    thetas_per_case: int = 3,
    degrees=(2, 6),
) -> SuiteReport:
    """Finite-difference check of the column relations of M(exp(k theta)):
    u_i' = u_{i+1} for i < n, and u_n' = -sum_j c_j u_{j+1}."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_random):
        degree = int(rng.integers(degrees[0], degrees[1] + 1))
        pres = random_depressed_presentation(rng, degree)
        c = np.array(pres.modulus_coeffs)
        thetas = rng.uniform(-1.5, 1.5, thetas_per_case)
        samples = trig_components(pres, 1, np.stack([thetas + h, thetas - h, thetas]))
        plus, minus, centre = core._rep_stack(samples, core._fold_table(pres.modulus_coeffs))
        derivative = (plus - minus) / (2.0 * h)
        expected = np.empty_like(centre)
        expected[..., : degree - 1] = centre[..., 1:]
        expected[..., degree - 1] = -centre @ c
        residual = float(np.abs(derivative - expected).max(initial=0.0))
        rows.append((_case_label(pres, i), residual, tol))
    return _report("lemma", tol, rows)


def roundtrip_suite(
    samples: int = 500,
    tol: float = 1e-8,
    re_law_tol: float = 1e-9,
    seed: int = 0,
    n_random: int = 10,
    degrees=(2, 6),
) -> SuiteReport:
    """exp(log(z)) = z on sampled logarithmic-domain elements, for the
    semisimple path (presets plus random semisimple presentations) and the
    nil path; plus Re(log z) = log(modulus z) on pure-power presets."""
    rng = np.random.default_rng(seed)
    cases = _cases(
        rng,
        preset_grid(kinds=("hyperbolic", "complicated")),
        n_random,
        degrees,
        lambda rng, degree: random_semisimple_presentation(rng, degree)[0],
    )
    cases += [(_case_label(pres), pres) for pres in preset_grid(kinds=("nil",))]
    rows = []
    for label, pres in cases:
        dec = _decomposition(pres)
        z = random_ld_samples(rng, pres, dec, samples)
        back = _exp_coords(_log_coords(z, pres, _PRINCIPAL, dec), pres)
        rows.append((f"roundtrip:{label}", _worst_deviation(back, z), tol))

    for pres in preset_grid():
        dec = _decomposition(pres)
        z = random_ld_samples(rng, pres, dec, samples)
        real_parts = _log_coords(z, pres, _PRINCIPAL, dec)[:, 0]
        residual = _worst_deviation(real_parts, np.log(_modulus_coords(z, pres)))
        rows.append((f"re-law:{_case_label(pres)}", residual, re_law_tol))
    return _report("roundtrip", tol, rows)


def polar_suite(samples: int = 200, tol: float = 1e-8, seed: int = 0) -> SuiteReport:
    """exp(log(rho) + arg) = z on pure-power presets, rho = F(z)^(1/n) by the determinant and
    arg by ``log``: the independent check of ``modulus``, which ``polar`` does not use."""
    rng = np.random.default_rng(seed)
    rows = []
    for pres in preset_grid():
        dec = _decomposition(pres)
        z = random_ld_samples(rng, pres, dec, samples)
        log_rho = np.log(_modulus_coords(z, pres))
        recombined = _log_coords(z, pres, _PRINCIPAL, dec)  # the argument ...
        recombined[:, 0] = log_rho  # ... plus log(rho)
        back = _exp_coords(recombined, pres)
        rows.append((_case_label(pres), _worst_deviation(back, z), tol))
    return _report("polar", tol, rows)


def identities_suite(
    samples: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
    n_random: int = 20,
    dims=range(2, 6),
    max_power: int = 4,
) -> SuiteReport:
    """Numeric certification of generated identities on presets of dims 2-5
    and random rational-coefficient presentations."""
    rng = np.random.default_rng(seed)
    cases = _cases(
        rng, preset_grid(dims=dims), n_random, (min(dims), max(dims)), random_rational_presentation
    )
    rows = []
    for index, (label, pres) in enumerate(cases):
        labels = ["add-angle"] + [f"de-moivre-{p}" for p in range(1, max_power + 1)]
        sets = [adding_angle(pres)] + [de_moivre(pres, p) for p in range(1, max_power + 1)]
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
        fold = core._fold_table(pres.modulus_coeffs)
        pzw = _component_values(core._mul_coords(z, w, fold), dec)
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


# Suite name -> (suite function, the parameter that --samples sets).  The
# function is looked up on the module when the suite runs, so a wrapper
# rebound onto the module is the one called.  Every default lives in the
# function's signature.
_SUITES = {
    "kthagorean": ("kthagorean_suite", "theta_samples"),
    "lemma": ("lemma_suite", "n_random"),
    "roundtrip": ("roundtrip_suite", "samples"),
    "identities": ("identities_suite", "samples"),
    "only-pure-power": ("pure_power_suite", "theta_samples"),
    "polar": ("polar_suite", "samples"),
    "crt": ("crt_suite", "samples"),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str, samples: int | None = None, tol: float | None = None, seed: int = 0
) -> SuiteReport:
    """Run a suite by name; ``samples`` and ``tol`` left as None keep the
    suite's defaults."""
    try:
        function, samples_parameter = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}") from None
    given = {samples_parameter: samples, "tol": tol}
    return globals()[function](seed=seed, **{k: v for k, v in given.items() if v is not None})
