"""Verification sweeps shared by the CLI ``verify`` subcommand and the
acceptance tests.  Every sweep is seeded and reports per-case worst
residuals so tolerance behaviour stays observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import AlgebraElement, PrincipalPresentation, make_presentation, preset
from .errors import NonSemisimple
from .identities import adding_angle, de_moivre_powers, verify_identity
from .spectral import SpectralDecomposition, find_roots
from .transcendental import exp, log, modulus, polar, trig_components


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


def random_ld_sample(
    rng: np.random.Generator,
    pres: PrincipalPresentation,
    dec: SpectralDecomposition | None = None,
) -> AlgebraElement:
    """exp of a random element whose spectrum is capped, so coordinates of the
    sample (and of its exponential round trip) stay at a scale where the
    absolute tolerances are meaningful."""
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


def _case_label(pres: PrincipalPresentation, index: int | None = None) -> str:
    if pres.label:
        return pres.label
    if index is not None:
        return f"random-{index} (deg {pres.degree})"
    return f"deg {pres.degree}"


def _unit_deviation(pres: PrincipalPresentation, m: int, thetas: np.ndarray) -> np.ndarray:
    """|F(exp(k^m theta)) - 1| at every theta, from one stacked exponential."""
    reps = core._rep_stack(trig_components(pres, m, thetas), core._coeff_array(pres))
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
    cases: list[tuple[str, PrincipalPresentation]] = [
        (_case_label(p), p) for p in preset_grid()
    ]
    for i in range(n_random):
        degree = int(rng.integers(degrees[0], degrees[1] + 1))
        pres = random_depressed_presentation(rng, degree, coeff_range)
        cases.append((_case_label(pres, i), pres))

    details = []
    worst = 0.0
    for label, pres in cases:
        thetas = rng.uniform(-3.0, 3.0, theta_samples)
        residual = float(_unit_deviation(pres, 1, thetas).max(initial=0.0))
        worst = max(worst, residual)
        details.append({"case": label, "residual": residual, "pass": residual <= tol})
    return SuiteReport("kthagorean", tol, worst, all(d["pass"] for d in details), details)


WITNESS_THRESHOLD = 1e-3


def pure_power_suite(
    theta_samples: int = 100, tol: float = 1e-9, seed: int = 0
) -> SuiteReport:
    """F(exp(k^m theta)) = 1 for every m on pure-power presets, plus a
    counterexample search on k^3 + k showing the condition is necessary."""
    rng = np.random.default_rng(seed)
    details = []
    worst = 0.0
    for pres in preset_grid():
        for m in range(1, pres.degree):
            thetas = rng.uniform(-3.0, 3.0, theta_samples)
            residual = float(_unit_deviation(pres, m, thetas).max(initial=0.0))
            worst = max(worst, residual)
            details.append(
                {
                    "case": f"{_case_label(pres)} m={m}",
                    "residual": residual,
                    "pass": residual <= tol,
                }
            )

    # Necessity direction: with a nonzero intermediate coefficient the
    # deviation must be macroscopic somewhere on [0.5, 2].
    witness_pres = make_presentation((0.0, 1.0, 0.0), label="k^3+k")
    thetas = np.linspace(0.5, 2.0, 31)
    deviations = _unit_deviation(witness_pres, 2, thetas)
    best, theta = max(zip(deviations.tolist(), thetas.tolist()))
    details.append(
        {
            "case": "k^3+k m=2 witness",
            "residual": best,
            "theta": float(theta),
            "pass": best > WITNESS_THRESHOLD,
        }
    )
    return SuiteReport(
        "only-pure-power", tol, worst, all(d["pass"] for d in details), details
    )


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
    details = []
    worst = 0.0
    for i in range(n_random):
        degree = int(rng.integers(degrees[0], degrees[1] + 1))
        pres = random_depressed_presentation(rng, degree)
        c = core._coeff_array(pres)
        thetas = rng.uniform(-1.5, 1.5, thetas_per_case)
        samples = trig_components(pres, 1, np.stack([thetas + h, thetas - h, thetas]))
        plus, minus, centre = core._rep_stack(samples, c)
        derivative = (plus - minus) / (2.0 * h)
        expected = np.empty_like(centre)
        expected[..., : degree - 1] = centre[..., 1:]
        expected[..., degree - 1] = -centre @ c
        residual = float(np.abs(derivative - expected).max(initial=0.0))
        worst = max(worst, residual)
        details.append(
            {"case": _case_label(pres, i), "residual": residual, "pass": residual <= tol}
        )
    return SuiteReport("lemma", tol, worst, all(d["pass"] for d in details), details)


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
    semisimple: list[tuple[str, PrincipalPresentation, SpectralDecomposition]] = []
    for pres in preset_grid(kinds=("hyperbolic", "complicated")):
        semisimple.append((_case_label(pres), pres, find_roots(pres)))
    for i in range(n_random):
        degree = int(rng.integers(degrees[0], degrees[1] + 1))
        pres, dec = random_semisimple_presentation(rng, degree)
        semisimple.append((_case_label(pres, i), pres, dec))

    details = []
    worst = 0.0
    for label, pres, dec in semisimple:
        residual = 0.0
        for _ in range(samples):
            z = random_ld_sample(rng, pres, dec)
            back = exp(log(z, dec=dec))
            residual = max(residual, float(np.max(np.abs(back.coords - z.coords))))
        worst = max(worst, residual)
        details.append(
            {"case": f"roundtrip:{label}", "residual": residual, "pass": residual <= tol}
        )
    for pres in preset_grid(kinds=("nil",)):
        residual = 0.0
        for _ in range(samples):
            z = random_ld_sample(rng, pres)
            back = exp(log(z))
            residual = max(residual, float(np.max(np.abs(back.coords - z.coords))))
        worst = max(worst, residual)
        details.append(
            {
                "case": f"roundtrip:{_case_label(pres)}",
                "residual": residual,
                "pass": residual <= tol,
            }
        )

    for pres in preset_grid():
        dec = None
        if not pres.is_nil():
            dec = find_roots(pres)
        residual = 0.0
        for _ in range(samples):
            z = random_ld_sample(rng, pres, dec)
            real_part = float(log(z).coords[0])
            residual = max(residual, abs(real_part - math.log(modulus(z))))
        worst = max(worst, residual)
        details.append(
            {
                "case": f"re-law:{_case_label(pres)}",
                "residual": residual,
                "pass": residual <= re_law_tol,
            }
        )
    return SuiteReport("roundtrip", tol, worst, all(d["pass"] for d in details), details)


def polar_suite(samples: int = 200, tol: float = 1e-8, seed: int = 0) -> SuiteReport:
    """exp(log(rho) + arg) reproduces z on pure-power presets."""
    rng = np.random.default_rng(seed)
    details = []
    worst = 0.0
    for pres in preset_grid():
        dec = None if pres.is_nil() else find_roots(pres)
        residual = 0.0
        for _ in range(samples):
            z = random_ld_sample(rng, pres, dec)
            form = polar(z)
            back = form.recombine()
            residual = max(residual, float(np.max(np.abs(back.coords - z.coords))))
        worst = max(worst, residual)
        details.append(
            {"case": _case_label(pres), "residual": residual, "pass": residual <= tol}
        )
    return SuiteReport("polar", tol, worst, all(d["pass"] for d in details), details)


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
    cases = [(_case_label(p), p) for p in preset_grid(dims=dims)]
    for i in range(n_random):
        degree = int(rng.integers(min(dims), max(dims) + 1))
        pres = random_rational_presentation(rng, degree)
        cases.append((_case_label(pres, i), pres))

    details = []
    worst = 0.0
    for index, (label, pres) in enumerate(cases):
        sets = [("add-angle", adding_angle(pres))]
        if max_power > 0:
            sets.extend(
                (f"de-moivre-{ids.power}", ids)
                for ids in de_moivre_powers(pres, max_power)
            )
        for kind_label, ids in sets:
            report = verify_identity(ids, samples=samples, tol=tol, seed=seed + 97 * index + 1)
            residual = report.max_residual
            worst = max(worst, residual)
            details.append(
                {
                    "case": f"{kind_label}:{label}",
                    "residual": residual,
                    "pass": report.passed,
                }
            )
    return SuiteReport("identities", tol, worst, all(d["pass"] for d in details), details)


def crt_suite(samples: int = 500, tol: float = 1e-9, seed: int = 0) -> SuiteReport:
    """Component isomorphism: homomorphism and both round trips on
    semisimple presets; nil presets must be rejected as non-semisimple."""
    from .spectral import ComponentVector, from_components, to_components

    rng = np.random.default_rng(seed)
    details = []
    worst = 0.0
    for pres in preset_grid(kinds=("hyperbolic", "complicated")):
        dec = find_roots(pres)
        n = pres.degree
        residual = 0.0
        for _ in range(samples):
            z = AlgebraElement(pres, rng.uniform(-2.0, 2.0, n))
            w = AlgebraElement(pres, rng.uniform(-2.0, 2.0, n))
            pz, pw = to_components(z, dec), to_components(w, dec)
            pzw = to_components(core.mul(z, w), dec)
            for left, a, b in zip(
                pzw.real_parts + pzw.complex_parts,
                pz.real_parts + pz.complex_parts,
                pw.real_parts + pw.complex_parts,
            ):
                product = a * b
                residual = max(
                    residual, abs(left - product) / max(1.0, abs(product))
                )
            back = from_components(pz, dec)
            residual = max(residual, float(np.max(np.abs(back.coords - z.coords))))
            v = ComponentVector(
                tuple(rng.uniform(-2.0, 2.0, dec.real_count)),
                tuple(
                    complex(a, b)
                    for a, b in zip(
                        rng.uniform(-2.0, 2.0, dec.complex_count),
                        rng.uniform(-2.0, 2.0, dec.complex_count),
                    )
                ),
            )
            w2 = to_components(from_components(v, dec), dec)
            for got, want in zip(
                w2.real_parts + w2.complex_parts, v.real_parts + v.complex_parts
            ):
                residual = max(residual, abs(got - want) / max(1.0, abs(want)))
        worst = max(worst, residual)
        details.append(
            {"case": _case_label(pres), "residual": residual, "pass": residual <= tol}
        )
    for n in range(2, 7):
        pres = preset("nil", n)
        try:
            find_roots(pres)
            rejected = False
        except NonSemisimple:
            rejected = True
        details.append(
            {"case": f"reject:{_case_label(pres)}", "residual": 0.0, "pass": rejected}
        )
    return SuiteReport("crt", tol, worst, all(d["pass"] for d in details), details)


def pythagorean_deviation(pres: PrincipalPresentation, thetas) -> float:
    """|F(exp(k theta_1 + ... + k^{n-1} theta_{n-1})) - 1|: a numeric probe
    for presentations outside the pure-power family (no claim attached)."""
    coords = np.zeros(pres.degree)
    coords[1:] = np.asarray(thetas, dtype=float)
    value = core.pythagorean(exp(AlgebraElement(pres, coords)))
    return abs(value - 1.0)


def _given(value, default):
    return default if value is None else value


_SUITES = {
    "kthagorean": lambda samples, tol, seed: kthagorean_suite(
        theta_samples=_given(samples, 100), tol=_given(tol, 1e-9), seed=seed
    ),
    "lemma": lambda samples, tol, seed: lemma_suite(
        n_random=_given(samples, 20), tol=_given(tol, 1e-6), seed=seed
    ),
    "roundtrip": lambda samples, tol, seed: roundtrip_suite(
        samples=_given(samples, 500), tol=_given(tol, 1e-8), seed=seed
    ),
    "identities": lambda samples, tol, seed: identities_suite(
        samples=_given(samples, 200), tol=_given(tol, 1e-9), seed=seed
    ),
    "only-pure-power": lambda samples, tol, seed: pure_power_suite(
        theta_samples=_given(samples, 100), tol=_given(tol, 1e-9), seed=seed
    ),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str, samples: int | None = None, tol: float | None = None, seed: int = 0
) -> SuiteReport:
    try:
        runner = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}") from None
    return runner(samples, tol, seed)
