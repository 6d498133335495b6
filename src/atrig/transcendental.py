"""Exponential, generalized trigonometric components, modulus, logarithm
with branch choice, argument, and generalized polar form.

The logarithm dispatches on the presentation: nilpotent generators get the
finite alternating series (exact inverse of the exponential), semisimple
moduli go through the component isomorphism with a per-pair branch of the
complex logarithm.  Anything in between is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core
from .core import AlgebraElement, PrincipalPresentation
from .errors import (
    InvalidArgument,
    InvalidPower,
    NoConvergence,
    NonPositivePythagorean,
    OutsideLogDomain,
    PresentationMismatch,
    ShapeMismatch,
    UnsupportedAlgebra,
)
from .spectral import ComponentVector, SpectralDecomposition, find_roots, from_components, to_components


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for the exponential series."""

    tolerance: float = 1e-15
    max_terms: int = 200
    squaring_threshold: float = 0.5

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if not 0.0 < self.squaring_threshold < math.inf:
            raise ValueError("squaring_threshold must be positive and finite")


@dataclass(frozen=True)
class BranchSpec:
    """Per conjugate pair integer b shifting the complex log by 2*pi*b.

    ``None`` means the principal branch for every pair.
    """

    branch_indices: tuple[int, ...] | None = None

    def indices_for(self, count: int) -> tuple[int, ...]:
        if self.branch_indices is None:
            return (0,) * count
        if len(self.branch_indices) != count:
            raise ShapeMismatch(
                f"{len(self.branch_indices)} branch indices for {count} complex pairs"
            )
        return self.branch_indices


@dataclass(frozen=True)
class PolarForm:
    """z = rho * exp(arg) with rho > 0 and arg having zero real part."""

    rho: float
    arg: AlgebraElement

    def recombine(self, policy: SeriesPolicy | None = None) -> AlgebraElement:
        coords = np.array(self.arg.coords)
        coords[0] += math.log(self.rho)
        return exp(AlgebraElement(self.arg.presentation, coords), policy)

    def to_json_dict(self) -> dict:
        return {"rho": self.rho, "arg": self.arg.coords.tolist()}


_DEFAULT_POLICY = SeriesPolicy()

#: Largest squaring count whose scale factor 2**s is a finite double.
_MAX_SQUARINGS = 1023


def _squaring_count(norm: float, threshold: float) -> int:
    """The smallest s >= 0 with norm <= threshold * 2**s.

    Comparing frexp mantissas and exponents is exact and cannot overflow,
    however large the norm.
    """
    if norm <= threshold:
        return 0
    mant, expo = math.frexp(norm)
    t_mant, t_expo = math.frexp(threshold)
    return expo - t_expo + (mant > t_mant)


def _exp_coords(
    coords: np.ndarray, pres: PrincipalPresentation, policy: SeriesPolicy
) -> np.ndarray:
    """exp of every row of ``coords`` (shape (m, n)), as an (m, n) array.

    Each row gets exactly the arithmetic it would get alone: its own
    squaring count, its own term-by-term stopping test, and squarings
    applied only while it still needs them.  A converged row leaves the
    series at once, so no term is added after its stop.
    """
    m, n = coords.shape
    if m == 0:
        return np.empty((0, n))
    threshold = policy.squaring_threshold
    norms = np.abs(coords).max(axis=1)
    largest = float(norms.max())
    if not math.isfinite(largest):
        raise InvalidArgument("exp requires finite coordinates")
    least = most = 0
    if largest > threshold:
        counts = [_squaring_count(x, threshold) for x in norms.tolist()]
        least, most = min(counts), max(counts)
        if most > _MAX_SQUARINGS:
            raise InvalidArgument(
                f"exp needs {most} squarings; 2**{most} is not a finite double"
            )
        if least == most:
            coords = np.ldexp(coords, -most)
        else:
            counts = np.array(counts)
            coords = np.ldexp(coords, -counts[:, None])

    # Vectors are kept as (rows, n, 1) columns, the shape matmul wants.
    c = core._coeff_array(pres)
    rep = core._rep_stack(coords, c)
    acc = np.zeros((m, n, 1))
    acc[:, 0] = 1.0
    term = acc.copy()
    out = acc
    rows = None  # original index of each live row, once some have left
    tol = policy.tolerance
    for k in range(1, policy.max_terms + 1):
        term = np.matmul(rep, term)
        term /= k
        acc += term
        done = np.abs(term).max(axis=1) <= tol * np.abs(acc).max(axis=1)
        stopped = np.count_nonzero(done)
        if stopped == len(done):
            break
        if stopped:
            done = done[:, 0]
            if rows is None:
                out, rows = np.empty_like(acc), np.arange(m)
            out[rows[done]] = acc[done]
            live = ~done
            rows, rep, term, acc = rows[live], rep[live], term[live], acc[live]
    else:
        raise NoConvergence(
            f"series did not reach {tol:g} within {policy.max_terms} terms"
        )
    if rows is None:
        out = acc
    else:
        out[rows] = acc
    out = out[:, :, 0]

    for step in range(most):
        if step < least:
            out = core._mul_coords(out, out, c)
        else:
            need = counts > step
            part = out[need]
            out[need] = core._mul_coords(part, part, c)
    return out


def exp(z: AlgebraElement, policy: SeriesPolicy | None = None) -> AlgebraElement:
    """Power series exponential with scaling and squaring.

    The argument is halved until its sup-norm drops below the squaring
    threshold, the series is summed until a term falls below the relative
    tolerance, and the result is squared back up.  This is the one-row case
    of the stacked kernel behind ``trig_components``.  Non-finite input, or
    input too large to scale into a double, raises ``InvalidArgument``.
    """
    pol = policy if policy is not None else _DEFAULT_POLICY
    pres = z.presentation
    return AlgebraElement(pres, _exp_coords(z.coords[None, :], pres, pol)[0])


def trig_components(pres: PrincipalPresentation, m: int, theta) -> np.ndarray:
    """Coordinates s_1(theta), ..., s_n(theta) of exp(k^m * theta).

    For m = 1 these are the generalized trigonometric functions of the
    algebra (cosh/sinh-like for k^n = 1, cos/sin-like for k^n = -1).
    ``theta`` may be a scalar or an array; the result has shape
    ``theta.shape + (n,)`` and comes from one stacked exponential, each row
    equal to the exponential at that theta alone.
    """
    n = pres.degree
    if not 1 <= m <= n - 1:
        raise InvalidPower(f"m must lie in [1, {n - 1}], got {m}")
    thetas = np.asarray(theta, dtype=float)
    coords = np.zeros((thetas.size, n))
    coords[:, m] = thetas.ravel()
    return _exp_coords(coords, pres, _DEFAULT_POLICY).reshape(thetas.shape + (n,))


def modulus(z: AlgebraElement) -> float:
    """The unique positive rho with F(z) = rho^n, for pure-power algebras."""
    pres = z.presentation
    if not pres.is_pure_power():
        raise UnsupportedAlgebra(
            f"modulus is defined only for pure-power presentations, not {pres}"
        )
    value = core.pythagorean(z)
    if value <= 0.0:
        raise NonPositivePythagorean(f"Pythagorean value {value:.3e} is not positive")
    return value ** (1.0 / pres.degree)


@lru_cache(maxsize=128)
def _cached_decomposition(pres: PrincipalPresentation) -> SpectralDecomposition:
    return find_roots(pres)


def _principal_angle(w: complex) -> float:
    """Argument normalized to (-pi, pi]."""
    a = math.atan2(w.imag, w.real)
    if a <= -math.pi:
        a = math.pi
    return a


def _log_nil(z: AlgebraElement) -> AlgebraElement:
    coords = z.coords
    x1 = float(coords[0])
    if x1 <= 0.0:
        raise OutsideLogDomain(f"leading coordinate {x1} must be positive")
    pres = z.presentation
    n = pres.degree
    c = core._coeff_array(pres)
    nilpotent = np.array(coords) / x1
    nilpotent[0] = 0.0
    out = np.zeros(n)
    power = nilpotent.copy()
    for m in range(1, n):
        out += ((-1.0) ** (m + 1) / m) * power
        if m < n - 1:
            power = core._mul_coords(power, nilpotent, c)
    out[0] = math.log(x1)
    return AlgebraElement(pres, out)


def log(
    z: AlgebraElement,
    branch: BranchSpec | None = None,
    dec: SpectralDecomposition | None = None,
) -> AlgebraElement:
    """Inverse of the exponential on the logarithmic domain.

    Nil presentations (k^n = 0) require a positive leading coordinate and
    use the finite alternating series.  Semisimple presentations require
    positive real components and nonzero complex components; the branch
    spec picks the 2*pi offset applied to each conjugate pair.
    """
    pres = z.presentation
    spec = branch if branch is not None else BranchSpec()
    if pres.is_nil():
        spec.indices_for(0)
        return _log_nil(z)

    if dec is None:
        dec = _cached_decomposition(pres)
    elif not dec.presentation.same_algebra(pres):
        raise PresentationMismatch("decomposition belongs to a different algebra")

    comp = to_components(z, dec)
    indices = spec.indices_for(dec.complex_count)
    log_reals = []
    for r in comp.real_parts:
        if r <= 0.0:
            raise OutsideLogDomain(f"real component {r:.6g} is not positive")
        log_reals.append(math.log(r))
    log_cplx = []
    for w, b in zip(comp.complex_parts, indices):
        if w == 0:
            raise OutsideLogDomain("zero complex component")
        theta = _principal_angle(w) + 2.0 * math.pi * b
        log_cplx.append(complex(math.log(abs(w)), theta))
    return from_components(ComponentVector(tuple(log_reals), tuple(log_cplx)), dec)


def arg(z: AlgebraElement, branch: BranchSpec | None = None) -> AlgebraElement:
    """Logarithm with the real part removed: k*theta_1 + ... + k^{n-1}*theta_{n-1}."""
    value = log(z, branch)
    coords = np.array(value.coords)
    coords[0] = 0.0
    return AlgebraElement(z.presentation, coords)


def polar(z: AlgebraElement, branch: BranchSpec | None = None) -> PolarForm:
    """Generalized polar form z = rho * exp(arg) on pure-power algebras."""
    rho = modulus(z)
    return PolarForm(rho=rho, arg=arg(z, branch))
