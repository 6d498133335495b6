"""Numerical factorization of the modulus polynomial and the concrete
isomorphism onto R^r x C^c given by evaluation at its roots.

The roots are the eigenvalues of the companion matrix, which LAPACK balances
and reduces in one call; that is backward stable (Edelman & Murakami, Math.
Comp. 64, 1995).  The variable is first scaled by a power of two near a
root-radius bound, so that huge or tiny coefficients do not defeat the
balancing.  Newton steps polish the roots on the original polynomial, each
step one product of a power table 1, xi, ..., xi^n with the coefficients of
p and p'; the same table of the roots, to xi^(n-1), is the Vandermonde matrix
that both component maps multiply or solve against.  Multiple (or
numerically near-multiple) roots are refused rather than approximated: the
component logarithm degrades badly there, so the decomposition certifies
semisimplicity up front, by a separation test and by a forward-error bound
on each root that must be small against its distance to the others.
Decompositions are memoized per presentation and tolerance, so every caller
of a modulus shares one root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import AlgebraElement, PrincipalPresentation
from .errors import IllConditioned, InvalidArgument, NoConvergence, NonSemisimple
from .errors import PresentationMismatch, ShapeMismatch

DEFAULT_ROOT_TOLERANCE = 1e-10
#: |Im xi| <= REAL_SNAP_FACTOR * max(1, |xi|) classifies a root as real.
REAL_SNAP_FACTOR = 1e-8
#: Minimum pairwise root distance, relative to max(1, max |xi|).
SEPARATION_FACTOR = 1e-7
#: Largest forward-error bound of a root, relative to its distance to the
#: nearest other root, that still certifies the roots distinct.
ROOT_ERROR_FACTOR = 1e-2
#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.0**-53
#: Interpolation residual bound, relative to max(1, ||values||_inf).
INTERPOLATION_RESIDUAL_FACTOR = 1e-6


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct roots of the modulus, split into real and conjugate pairs.

    ``complex_roots`` stores one representative per conjugate pair, with
    strictly positive imaginary part.  r + 2c = degree.
    """

    presentation: PrincipalPresentation
    real_roots: tuple[float, ...]
    complex_roots: tuple[complex, ...]
    root_tolerance: float

    @property
    def real_count(self) -> int:
        return len(self.real_roots)

    @property
    def complex_count(self) -> int:
        return len(self.complex_roots)

    @cached_property
    def nodes(self) -> np.ndarray:
        """All n roots as one complex array: the real roots, then each
        stored complex root followed by its conjugate."""
        pairs = [w for xi in self.complex_roots for w in (xi, xi.conjugate())]
        arr = np.array(list(self.real_roots) + pairs, dtype=complex)
        arr.setflags(write=False)
        return arr

    @cached_property
    def vandermonde(self) -> np.ndarray:
        """Row i holds 1, x_i, ..., x_i^{n-1} for node x_i."""
        arr = _powers(self.nodes, self.presentation.degree - 1)
        arr.setflags(write=False)
        return arr

    def to_json_dict(self) -> dict:
        return {
            "real_roots": list(self.real_roots),
            "complex_roots": [[z.real, z.imag] for z in self.complex_roots],
        }


@dataclass(frozen=True)
class ComponentVector:
    """Image of an element under evaluation at the decomposition's roots."""

    real_parts: tuple[float, ...]
    complex_parts: tuple[complex, ...]


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """Row i holds 1, z_i, ..., z_i^n, each power the one before it times z_i.
    The running product starts at z_i, as in numpy's Vandermonde builder,
    because numpy rounds a two-term complex running product differently."""
    table = np.empty((len(z), n + 1), dtype=z.dtype)
    table[:, 0] = 1.0
    table[:, 1:] = z[:, None]
    np.cumprod(table[:, 1:], axis=1, out=table[:, 1:])
    return table


def _value_and_slope_coeffs(full_asc: np.ndarray) -> np.ndarray:
    """The (n + 1, 2) matrix whose columns hold the ascending coefficients
    of p and of p' (padded with a zero), so that one product with a power
    table evaluates both; full_asc holds [c0, ..., c_{n-1}, 1]."""
    n = len(full_asc) - 1
    both = np.zeros((n + 1, 2))
    both[:, 0] = full_asc
    both[:-1, 1] = full_asc[1:] * np.arange(1, n + 1)
    return both


def _radius_exponent(coeffs: np.ndarray) -> int:
    """log2 of the root-radius bound max_j |c_j|^(1/(n-j)) rounded toward
    zero, so that 2^s lies within a factor of two of the bound; 0 for a nil
    modulus.

    No root is larger than twice the bound (Fujiwara's bound is at most
    twice it), so k = 2^s t leaves the scaled roots of moderate size.
    Rounding toward zero keeps s = 0 for every bound within (1/2, 2), the
    presets' bound 1 among them.
    """
    nonzero = np.flatnonzero(coeffs)
    if not nonzero.size:
        return 0
    log_bound = np.log2(np.abs(coeffs[nonzero])) / (len(coeffs) - nonzero)
    return int(np.max(log_bound))


def _separations(roots: np.ndarray) -> np.ndarray:
    """Distance from each root to the nearest other one (inf when alone)."""
    diff = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(diff, np.inf)
    return diff.min(axis=1)


def _newton_polish(both: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Three Newton steps on every point of ``z``, for the p and p' of
    ``_value_and_slope_coeffs``."""
    for _ in range(3):
        p, dp = (_powers(z, len(both) - 1) @ both).T
        dp = np.where(dp == 0, 1e-300, dp)
        z = z - p / dp
    return z


def find_roots(
    pres: PrincipalPresentation, tol: float = DEFAULT_ROOT_TOLERANCE
) -> SpectralDecomposition:
    """All roots of the monic modulus, certified distinct and accurate.

    The roots are the eigenvalues of the companion matrix of p(2^s t) / 2^(sn),
    with 2^s near a root-radius bound, scaled back by 2^s and polished by
    three Newton steps on p itself.  Raises InvalidArgument unless ``tol`` is
    positive and finite; NonSemisimple when two roots lie closer than the
    separation threshold, or when a root's forward-error bound
    (|p(xi)| + 2 n u sum_j |c_j||xi|^j) / |p'(xi)| (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 5.1) is not small
    against its distance to the nearest other root (repeated or clustered
    roots, e.g. nil presentations); and NoConvergence when the eigenvalue
    solver fails, the roots do not pair into conjugates, or a residual
    |p(xi)| exceeds tol * max(1, |xi|^n).  Every evaluation of p, of p' and
    of sum_j |c_j||xi|^j is a product with the power table 1, xi, ..., xi^n.

    Results are memoized on pres, label included, and on the value of tol,
    so a returned decomposition always carries a presentation equal to the
    caller's; refusals are not memoized and are raised again on every call.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidArgument(f"root tolerance must be a positive finite number, got {tol!r}")
    return _decompose(pres, float(tol))


@lru_cache(maxsize=128)
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _decompose(pres: PrincipalPresentation, tol: float) -> SpectralDecomposition:
    """The memoized body of ``find_roots``, for a validated float ``tol``."""
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
    separation = _separations(roots)
    if float(separation.min()) <= SEPARATION_FACTOR * scale:
        raise NonSemisimple(
            f"root separation {separation.min():.3e} below threshold for {pres}"
        )

    both = _value_and_slope_coeffs(full)
    roots = _newton_polish(both, roots)
    powers = _powers(roots, n)
    p, dp = (powers @ both).T
    rounding = np.abs(powers) @ np.abs(full)
    if not np.isfinite(rounding).all():
        raise NoConvergence(f"root error bound overflowed for {pres}")
    error = (np.abs(p) + 2 * n * UNIT_ROUNDOFF * rounding) / np.abs(dp)
    ratio = float(np.max(error / _separations(roots)))
    if not ratio < ROOT_ERROR_FACTOR:  # also refuses a NaN ratio
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
    residual = np.abs(_powers(nodes, n) @ full) / np.maximum(1.0, np.abs(nodes) ** n)
    if not float(np.max(residual)) <= tol:  # also refuses a NaN residual
        raise NoConvergence(f"relative root residual {np.max(residual):.3e} exceeds {tol:.3e}")

    return SpectralDecomposition(pres, tuple(real_roots), tuple(pairs), tol)


def _component_values(coords: np.ndarray, dec: SpectralDecomposition) -> np.ndarray:
    """Every coordinate row z of ``coords`` (m, n) evaluated at all n nodes of
    ``dec``, as (m, n) complex values V z in node order: one stacked matmul
    with the Vandermonde matrix V, the same BLAS call for every row.

    Values at real roots are real to the last bit, as their rows of V are,
    and the value at a conjugate root is copied from its partner's.  Values
    that overflow are returned as they come out, for the caller to refuse.
    """
    # Callers refuse overflow, so numpy's warnings about it are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(dec.vandermonde, coords[:, :, None])[:, :, 0]
    r = dec.real_count
    out[:, r + 1 :: 2] = out[:, r::2].conj()
    return out


def _interpolate(values: np.ndarray, dec: SpectralDecomposition) -> np.ndarray:
    """Real coordinates of the rows of ``values`` (m, n), given in node
    order, from one Vandermonde solve over all rows.

    Each row's interpolation residual is checked on its own; any row that
    fails raises ``IllConditioned``.  A row of finite values whose residual
    overflows is solved again at its values over a power of two, so that
    values near the largest double get an answer where it is representable;
    coordinates past it raise ``InvalidArgument``.
    """
    vander = dec.vandermonde
    rhs = values.T
    try:
        coeffs = np.linalg.solve(vander, rhs)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"singular interpolation system: {exc}") from None
    # Values near the top of the double range overflow here, leaving a
    # residual that is not finite; those rows are solved again below, so
    # numpy's warnings about it are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(vander @ coeffs - rhs).max(axis=0)
    bound = INTERPOLATION_RESIDUAL_FACTOR * np.maximum(1.0, np.abs(rhs).max(axis=0))
    coords = coeffs.real
    passed = residual <= bound  # False for the NaNs of a singular solve
    if not passed.all():
        overflowed = np.flatnonzero(~np.isfinite(residual) & np.isfinite(rhs).all(axis=0))
        if overflowed.size:  # x = 2^e solve(V, v / 2^e), with bound and residual scaled alike
            shifts = np.frexp(np.abs(rhs[:, overflowed]).max(axis=0))[1]
            scale = np.ldexp(1.0, -shifts)
            scaled = rhs[:, overflowed] * scale
            solved = np.linalg.solve(vander, scaled)
            residual[overflowed] = np.abs(vander @ solved - scaled).max(axis=0)
            bound[overflowed] *= scale
            passed = residual <= bound
            with np.errstate(over="ignore"):  # refused below where it overflows
                coords[:, overflowed] = np.ldexp(solved.real, shifts)
        if not passed.all():
            worst = residual[np.argmin(passed)]
            raise IllConditioned(f"interpolation residual {worst:.3e} too large")
        if not np.isfinite(coords).all():
            raise InvalidArgument("interpolated coordinates overflow")
    return np.ascontiguousarray(coords.T)


def to_components(z: AlgebraElement, dec: SpectralDecomposition) -> ComponentVector:
    """Evaluate the coordinate polynomial at every root (the forward map).

    The one-row case of the stacked evaluation over all roots; values that
    overflow raise ``InvalidArgument``.
    """
    if not z.presentation.same_algebra(dec.presentation):
        raise PresentationMismatch("element and decomposition use different algebras")
    values = _component_values(z.coords[None, :], dec)[0]
    if not np.isfinite(values).all():
        raise InvalidArgument("component values overflow or are not finite")
    r = dec.real_count
    return ComponentVector(tuple(values[:r].real.tolist()), tuple(values[r::2].tolist()))


def from_components(v: ComponentVector, dec: SpectralDecomposition) -> AlgebraElement:
    """Interpolate prescribed component values back to real coordinates.

    Solves the complex Vandermonde system over all n roots (conjugate values
    at conjugate roots) and projects onto real coordinates; the one-row case
    of the stacked interpolation, with the decomposition's cached matrix.
    """
    r, c = dec.real_count, dec.complex_count
    if len(v.real_parts) != r or len(v.complex_parts) != c:
        raise ShapeMismatch(
            f"component shape ({len(v.real_parts)}, {len(v.complex_parts)}) does not "
            f"match decomposition ({r}, {c})"
        )
    values = np.empty((1, r + 2 * c), dtype=complex)
    values[0, :r] = v.real_parts
    values[0, r::2] = v.complex_parts
    values[0, r + 1 :: 2] = np.conj(values[0, r::2])
    return AlgebraElement(dec.presentation, _interpolate(values, dec)[0])
