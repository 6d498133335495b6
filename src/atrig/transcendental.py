"""Exponential, generalized trigonometric components, modulus, logarithm
with branch choice, argument, and generalized polar form.

The exponential is exp(M(z)) e_1 for the regular representation M(z):
one fixed-degree Taylor polynomial with scaling and squaring, the squaring
count taken from the 1-norm of M(z).  The polynomial is evaluated by
Paterson-Stockmeyer in the algebra: z^2, z^3, z^4 from three products,
five blocks of four terms from one table of 1/k!, and Horner in M(z^4),
seven matrix-vector products in all where term by term takes eighteen.
Every M(.) of a call (M(z), M(z^4) and each squaring's) comes from the
modulus's one cached table (``core._rep_table``), whose kind the degree
picks: the product table up to degree 16, the fold table above it.

An exponential of a monomial theta k^m, behind ``trig_components``, has a
second Taylor stage.  Its Taylor coefficients are the coordinates of
k^(mj) / j!, fixed by the modulus and m, so one table per (modulus, m),
scaled by a power of two, serves every theta of a call, and each theta
takes Horner in one scalar over the table's rows.  The form of the input
picks the stage: dense coordinates or angles.  Both stages take their
squaring counts from the same 1-norm and share the squarings.

The logarithm dispatches on the presentation: nilpotent generators get the
power-series recurrence for log, semisimple moduli go through the
component isomorphism with a per-pair branch of the complex logarithm.
Anything in between is refused.  ``polar`` splits that one logarithm.

``exp``, ``log``, ``arg``, ``polar`` and ``modulus`` are one-row cases of kernels
over a batch of rows.  Their component-wise work (domain tests, logarithms,
branch offsets, n-th roots, squaring counts) is whole-array numpy, and each
row of a batch gets exactly the arithmetic it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core
from .core import AlgebraElement, PrincipalPresentation, _shown
from .errors import (
    InvalidArgument,
    InvalidPower,
    NonPositivePythagorean,
    OutsideLogDomain,
    PresentationMismatch,
    ShapeMismatch,
    UnsupportedAlgebra,
)
from .spectral import SpectralDecomposition, _component_values, _interpolate, find_roots


#: Largest branch index magnitude: past 2**53, float(b) is no longer exact.
_MAX_BRANCH_INDEX = 2**53


@dataclass(frozen=True)
class BranchSpec:
    """Per conjugate pair integer b shifting the complex log by 2*pi*b.

    ``None`` means the principal branch for every pair.  Anything but a
    tuple or list of integers of magnitude at most 2**53 raises
    ``InvalidArgument``.
    """

    branch_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        indices = self.branch_indices
        if indices is not None and not (
            isinstance(indices, (tuple, list)) and all(map(core._is_integer, indices))
        ):
            raise InvalidArgument(f"branch indices must be integers, got {_shown(indices)}")
        if indices is not None and any(abs(int(b)) > _MAX_BRANCH_INDEX for b in indices):
            raise InvalidArgument(
                f"branch indices must be at most 2**53 in magnitude, got {_shown(indices)}"
            )

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

    def recombine(self) -> AlgebraElement:
        coords = np.array(self.arg.coords)
        coords[0] += math.log(self.rho)
        return exp(AlgebraElement(self.arg.presentation, coords))

    def to_json_dict(self) -> dict:
        return {"rho": self.rho, "arg": self.arg.coords.tolist()}


#: Degree of the Taylor polynomial behind ``exp``, and the largest 1-norm of
#: M(z) at which it meets unit roundoff as a backward error: theta_18 of
#: Al-Mohy & Higham, "Computing the action of the matrix exponential",
#: SISC 33(2), 2011, Table 3.1.
_TAYLOR_DEGREE = 18
_THETA = 1.09

#: Largest squaring count whose scale factor 2**s is a finite double.
_MAX_SQUARINGS = 1023

#: Block size of the Paterson-Stockmeyer evaluation (SIAM J. Comput. 2(1),
#: 1973): the Taylor polynomial is sum_j B_j (z^4)^j with B_j = sum_{i<4}
#: z^i / (4j + i)!, and _TAYLOR_BLOCKS[i, j] holds 1/(4j + i)!, 0 past the
#: degree.
_BLOCK = 4
_TAYLOR_BLOCKS = np.array(
    [
        [
            1.0 / math.factorial(k) if k <= _TAYLOR_DEGREE else 0.0
            for k in range(i, _BLOCK * (_TAYLOR_DEGREE // _BLOCK + 1), _BLOCK)
        ]
        for i in range(_BLOCK)
    ]
)
_TAYLOR_BLOCKS.setflags(write=False)


def _squaring_count(norms: np.ndarray, threshold: float, scale=0) -> np.ndarray:
    """The smallest s >= 0 with norm * 2**scale <= threshold * 2**s, for
    every norm and its entry of ``scale``, an integer or an integer array
    that broadcasts against ``norms``.

    Comparing frexp mantissas and exponents is exact and cannot overflow,
    however large the norm or the scale.
    """
    mant, expo = np.frexp(norms)
    t_mant, t_expo = math.frexp(threshold)
    return np.where(norms > 0, np.maximum(expo + scale - t_expo + (mant > t_mant), 0), 0)


def _taylor_e1(rep: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The degree-18 Taylor polynomial of every M(z) of ``rep`` (..., n, n)
    applied to e_1, as a (..., n) array, by Paterson-Stockmeyer; ``table``
    is the table that built ``rep`` (``core._rep_stack``).

    z is the first column of M(z); z^2, z^3, z^4 take three stacked
    matrix-vector products, the blocks B_j one stacked product of
    [1, z, z^2, z^3] with _TAYLOR_BLOCKS, and Horner in M(z^4) four more.
    Every product is a stacked matmul, the same BLAS call on every row.
    """
    # Vectors are kept as (..., n, 1) columns, the shape matmul wants.
    one = np.zeros(rep.shape[:-1] + (1,))
    one[..., 0, :] = 1.0
    powers = [one, rep[..., :1]]  # z = M(z) e_1
    for _ in range(_BLOCK - 1):
        powers.append(np.matmul(rep, powers[-1]))
    blocks = np.matmul(np.concatenate(powers[:-1], axis=-1), _TAYLOR_BLOCKS)
    rep_top = core._rep_stack(powers[-1][..., 0], table)
    out = blocks[..., -1:]
    for j in range(blocks.shape[-1] - 2, -1, -1):
        out = np.matmul(rep_top, out)
        out += blocks[..., j : j + 1]
    return out[..., 0]


def _unscalable(largest: float) -> InvalidArgument:
    return InvalidArgument(
        f"exp cannot scale |M(z)|_1 = {largest:.6g} to {_THETA} "
        f"within {_MAX_SQUARINGS} squarings"
    )


# An overflowing squaring leaves a result that is not finite, which is
# refused, so numpy's warnings about it are noise.
@np.errstate(over="ignore", invalid="ignore")
def _squared(out: np.ndarray, counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Every row of ``out`` (..., n) squared in the algebra as many times as
    its entry of ``counts`` (...) says, each with its own table of
    ``core._rep_stack`` (``table`` broadcasts against the rows); a result
    that is not finite raises ``InvalidArgument``.  ``out`` may be written
    in place.

    Each step past the smallest count squares only the rows still short
    of theirs where one 2-D table serves every row.  A stack of tables
    squares every row and keeps the square where the row's count is not
    yet reached, since gathering one table per row costs more than the
    squares it saves.  Either way a squared row is one BLAS call on its own
    operands, so it gets the bits it would get alone.
    """
    least, most = int(counts.min()), int(counts.max())
    for step in range(most):
        if step < least:
            out = core._mul_coords(out, out, table)
        elif table.ndim == 2:
            need = counts > step
            rows = out[need]
            out[need] = core._mul_coords(rows, rows, table)
        else:
            squares = core._mul_coords(out, out, table)
            out = np.where((counts > step)[..., None], squares, out)
    if not np.isfinite(out).all():
        raise InvalidArgument("exp overflowed: the result is not finite")
    return out


# An M(z) that overflows has a norm that is not finite, which is refused,
# so numpy's warnings about it are noise.
@np.errstate(over="ignore", invalid="ignore")
def _exp_coords(coords: np.ndarray, table: np.ndarray) -> np.ndarray:
    """exp of every row of ``coords`` (shape (..., n)), in the same shape.

    ``table`` is the multiplication table (``core._rep_table``) of one
    modulus, or a stack of them that broadcasts against the rows, such as
    (cases, 1, n, n^2) for (cases, samples, n) rows, so one call may mix
    presentations of one degree.  exp(z) is exp(M(z)) e_1.  Each row's
    M(z) is halved s times, s the fewest that bring its 1-norm to _THETA
    or below, the degree-18 Taylor polynomial of the scaled matrix is
    applied to e_1 (``_taylor_e1``), and the result is squared s times in
    the algebra.  Scaling by 2**-s is exact, and every product is a
    stacked matmul with the row's own table, so each row gets exactly the
    arithmetic it would get alone.  M(z), M(z^4) and every squaring's M
    come from ``table``.
    """
    if coords.size == 0:
        return np.empty(coords.shape)
    if not np.isfinite(coords).all():
        raise InvalidArgument("exp requires finite coordinates")
    rep = core._rep_stack(coords, table)
    norms = np.abs(rep).sum(axis=-2).max(axis=-1)
    largest = float(norms.max())
    if not largest <= _THETA * 2.0**_MAX_SQUARINGS:
        raise _unscalable(largest)
    counts = _squaring_count(norms, _THETA)
    if largest > _THETA:
        rep = np.ldexp(rep, -counts[..., None, None])
    return _squared(_taylor_e1(rep, table), counts, table)


# A table costs 18 matrix-vector products.  Every angle of a call shares
# it, and a caller that returns to a modulus, say one angle per call on one
# algebra, finds it built: a one-angle trig_components takes about 36 us
# with the table cached and 90 us without.  An entry holds 19 n doubles,
# so 512 entries of degree 32 hold about 2.5 MB; with them the pointwise
# benchmark's peak RSS reads 45.5 MB (median of 10 runs, 2 shared vCPUs).
@lru_cache(maxsize=512)
def _monomial_series(modulus_coeffs: tuple[float, ...], m: int) -> tuple[int, float, np.ndarray]:
    """The tables behind exp(theta k^m) on one modulus: sigma and |A|_1 for
    A = M(k^m) / 2^sigma, 2^sigma the binade of |M(k^m)|_1, and the
    read-only (19, n) series table whose row j is A^j e_1 / j!.

    M(k^m) is exact, a copy of columns of the modulus's table.  Its 1-norm
    may pass the largest double (k^2 = 1e308 + 1e308 k), so it is summed
    after scaling by the binade of the largest entry, where no column sum
    can overflow.  |A|_1 lies in [1/2, 1), so row j is at most 1/j! in
    every entry: no modulus that ``core._rep_table`` accepts can overflow
    the table.
    """
    n = len(modulus_coeffs)
    rep = core._rep_stack(np.eye(n)[m], core._rep_table(modulus_coeffs))
    entry = math.frexp(float(np.abs(rep).max()))[1]
    norm, binade = math.frexp(float(np.abs(np.ldexp(rep, -entry)).sum(axis=0).max()))
    sigma = entry + binade
    scaled = np.ldexp(rep, -sigma)
    series = np.empty((_TAYLOR_DEGREE + 1, n))
    series[0] = np.eye(1, n)
    for j in range(1, _TAYLOR_DEGREE + 1):
        np.matmul(scaled, series[j - 1], out=series[j])
        series[j] /= j
    series.setflags(write=False)
    return sigma, norm, series


def _exp_monomial(
    thetas: np.ndarray, sigmas, norms, series: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """exp(theta k^m) for every theta of ``thetas`` (any shape), as a
    ``thetas.shape + (n,)`` array.

    ``sigmas``, ``norms`` and ``series`` are the tables of
    ``_monomial_series`` and ``table`` that of ``core._rep_table``, for one
    (modulus, m) or stacked to broadcast against the angles, such as
    (cases, 1), (cases, 1), (cases, 1, 19, n) and (cases, 1, n, n^2) for
    (cases, samples) angles.  Each angle
    takes s squarings, the fewest that bring |theta| |M(k^m)|_1 =
    |theta| |A|_1 2^sigma to _THETA or below, by the rule ``_exp_coords``
    applies to |M(z)|_1; 2^sigma enters as an exponent, so the product
    cannot overflow.  The Taylor stage is Horner in t = theta 2^(sigma - s)
    over the rows of the series table, since
    (theta M(k^m) / 2^s)^j e_1 / j! = t^j A^j e_1 / j!; scaling by a power
    of two is exact and the rest is elementwise, so each angle gets the
    same bits in any batch.  The squarings are those of ``_exp_coords``,
    on ``table``.
    """
    if not np.isfinite(thetas).all():
        raise InvalidArgument("exp requires finite coordinates")
    if thetas.size == 0:
        return np.empty(thetas.shape + series.shape[-1:])
    scaled_norms = np.abs(thetas) * norms  # at most |theta|, since |A|_1 < 1
    counts = _squaring_count(scaled_norms, _THETA, sigmas)
    most = int(counts.max())
    if most > _MAX_SQUARINGS:
        with np.errstate(over="ignore"):
            raise _unscalable(float(np.ldexp(scaled_norms, sigmas).max()))
    t = np.ldexp(thetas, sigmas - counts)
    # t spread over the coordinates once: numpy multiplies arrays of one
    # shape faster than it broadcasts, for one angle as for 440.
    t = np.repeat(t[..., None], series.shape[-1], axis=-1)
    terms = np.moveaxis(series, -2, 0)
    out = terms[_TAYLOR_DEGREE] * t
    for term in terms[_TAYLOR_DEGREE - 1 : 0 : -1]:
        out += term
        out *= t
    out += terms[0]
    return _squared(out, counts, table)


def exp(z: AlgebraElement) -> AlgebraElement:
    """Exponential by scaling and squaring of the regular representation.

    exp(z) = exp(M(z)) e_1.  M(z) is halved until its 1-norm is at most
    theta_18 = 1.09, a fixed degree-18 Taylor polynomial is applied, and
    the result is squared back up; at that norm the truncation is a
    backward error below unit roundoff.  The polynomial is evaluated by
    Paterson-Stockmeyer with blocks of four terms: z^2, z^3 and z^4, then
    Horner in M(z^4), seven matrix-vector products where term by term
    takes eighteen.  This is the one-row case of the stacked kernel behind
    the suites' dense exponentials.  Non-finite input, an M(z) too large to
    scale into a double, and a result that overflows raise
    ``InvalidArgument``.
    """
    pres = z.presentation
    table = core._rep_table(pres.modulus_coeffs)
    return AlgebraElement(pres, _exp_coords(z.coords[None, :], table)[0])


def trig_components(pres: PrincipalPresentation, m: int, theta) -> np.ndarray:
    """Coordinates s_1(theta), ..., s_n(theta) of exp(k^m * theta).

    For m = 1 these are the generalized trigonometric functions of the
    algebra (cosh/sinh-like for k^n = 1, cos/sin-like for k^n = -1).
    ``theta`` may be a real scalar or an array of reals; anything else
    raises ``InvalidArgument``.  The result has shape ``theta.shape + (n,)``
    and comes from one stacked monomial exponential over one series table
    for (modulus, m) (``_exp_monomial``), each row equal to the result at
    that theta alone.  It takes the squaring counts of
    ``exp(theta * k^m)`` but not its Taylor arithmetic, so the two agree to
    rounding, not bit for bit.
    """
    n = pres.degree
    if not core._is_integer(m) or not 1 <= m <= n - 1:
        raise InvalidPower(f"m must be an integer in [1, {n - 1}], got {_shown(m)}")
    thetas = core._real_array(theta)
    if thetas is None:
        raise InvalidArgument(f"theta must be real numbers, got {_shown(theta)}")
    coeffs = pres.modulus_coeffs
    return _exp_monomial(thetas, *_monomial_series(coeffs, int(m)), core._rep_table(coeffs))


def _modulus_coords(coords: np.ndarray, pres: PrincipalPresentation) -> np.ndarray:
    """modulus of every row of ``coords`` (m, n), as an (m,) array: one
    determinant over the stacked regular representations."""
    if not pres.is_pure_power():
        raise UnsupportedAlgebra(f"modulus needs a pure-power presentation, not {pres}")
    table = core._rep_table(pres.modulus_coeffs)
    # NaN, overflow and a determinant that is zero or underflows to zero are
    # refused below, so numpy's warnings about them are noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = np.linalg.det(core._rep_stack(coords, table))
    lowest = values.min(initial=np.inf)
    if not lowest > 0.0:
        raise NonPositivePythagorean(f"Pythagorean value {lowest:.3e} is not positive")
    if values.max(initial=0.0) == np.inf:
        raise InvalidArgument("modulus overflowed: the Pythagorean value is not finite")
    return values ** (1.0 / pres.degree)


def modulus(z: AlgebraElement) -> float:
    """The unique positive rho with F(z) = rho^n, for pure-power algebras."""
    return float(_modulus_coords(z.coords[None, :], z.presentation)[0])


def _decomposition_of(pres: PrincipalPresentation) -> SpectralDecomposition:
    """The decomposition of the unlabelled presentation of ``pres``'s
    modulus, which ``find_roots`` memoizes: every label of one modulus
    shares one root finding."""
    return find_roots(PrincipalPresentation(pres.modulus_coeffs))


# A series that overflows leaves a result that is not finite, which is
# refused, so numpy's warnings about it are noise.
@np.errstate(over="ignore", invalid="ignore")
def _log_nil(coords: np.ndarray) -> np.ndarray:
    """log f = log f_0 + g, g = log N of the series N = f / f_0, for every row f
    of finite ``coords`` on a nil presentation.  N g' = N' gives g_j = N_j -
    (1/j) sum_{0<i<j} i g_i N_{j-i} (Knuth, TAOCP vol. 2, 4.7): one update per j."""
    leading = coords[:, 0]
    lowest = leading.min(initial=np.inf)
    if not lowest > 0.0:
        raise OutsideLogDomain(f"leading coordinate {lowest} must be positive")
    series = coords / coords[:, :1]
    out = np.zeros_like(series)
    orders = np.arange(coords.shape[1])
    for j in range(1, coords.shape[1]):
        tail = (out[:, 1:j] * orders[1:j] * series[:, j - 1 : 0 : -1]).sum(axis=1)
        out[:, j] = series[:, j] - tail / j
    if not np.isfinite(out).all():
        raise InvalidArgument("log overflowed: the nilpotent part is not finite")
    out[:, 0] = np.log(leading)
    return out


def _log_coords(
    coords: np.ndarray,
    pres: PrincipalPresentation,
    spec: BranchSpec,
    dec: SpectralDecomposition | None,
) -> np.ndarray:
    """log of every row of ``coords`` (m, n), as an (m, n) array.

    Nil presentations take the power-series recurrence (``_log_nil``).
    Semisimple ones evaluate all rows at the roots at once, take the
    logarithm of each component, and interpolate all rows in one solve.
    Any row outside the domain raises ``OutsideLogDomain``.
    """
    if not np.isfinite(coords).all():
        raise OutsideLogDomain("log requires finite coordinates")
    if pres.is_nil():
        spec.indices_for(0)
        return _log_nil(coords)

    if dec is None:
        dec = _decomposition_of(pres)
    elif not dec.presentation.same_algebra(pres):
        raise PresentationMismatch("decomposition belongs to a different algebra")
    indices = spec.indices_for(dec.complex_count)

    values = _component_values(coords, dec)
    overflowed = None  # log z = log(z / 2^e) + e log 2 for the rows whose values overflow
    if not np.isfinite(values).all():
        overflowed = np.flatnonzero(~np.isfinite(values).all(axis=1))
        shifts = np.frexp(np.abs(coords[overflowed]).max(axis=1))[1]
        values[overflowed] = _component_values(np.ldexp(coords[overflowed], -shifts[:, None]), dec)
        if not np.isfinite(values).all():
            raise InvalidArgument("component values overflow or are not finite")
    r = dec.real_count
    lowest = values[:, :r].real.min(initial=np.inf)
    if not lowest > 0.0:
        raise OutsideLogDomain(f"real component {lowest:.6g} is not positive")
    if not values[:, r::2].all():  # a complex value tests false only at 0
        raise OutsideLogDomain("zero complex component")

    # Component logarithms in node order: log x at each real root, then
    # log w and its conjugate at each conjugate pair of roots.
    logs = np.log(values)
    angles = logs.imag
    angles[angles <= -np.pi] = np.pi  # the principal angle lies in (-pi, pi]
    if spec.branch_indices is not None:
        angles[:, r::2] += 2.0 * np.pi * np.array(indices, dtype=float)
    np.conjugate(logs[:, r::2], out=logs[:, r + 1 :: 2])
    out = _interpolate(logs, dec)
    if overflowed is not None:
        out[overflowed, 0] += shifts * math.log(2.0)
    return out


def _log_row(z: AlgebraElement, branch: BranchSpec | None, dec=None) -> np.ndarray:
    """log of the one row ``z``, as a writable (n,) array."""
    spec = branch if branch is not None else BranchSpec()
    return _log_coords(z.coords[None, :], z.presentation, spec, dec)[0]


def log(
    z: AlgebraElement,
    branch: BranchSpec | None = None,
    dec: SpectralDecomposition | None = None,
) -> AlgebraElement:
    """Inverse of the exponential on the logarithmic domain.

    Nil presentations (k^n = 0) require a positive leading coordinate and
    use the power-series recurrence.  Semisimple presentations require
    positive real components and nonzero complex components; the branch
    spec picks the 2*pi offset applied to each conjugate pair.  A result
    or component value that overflows raises ``InvalidArgument``.  This is
    the one-row case of the stacked logarithm.
    """
    return AlgebraElement(z.presentation, _log_row(z, branch, dec))


def arg(z: AlgebraElement, branch: BranchSpec | None = None) -> AlgebraElement:
    """Logarithm with the real part removed: k*theta_1 + ... + k^{n-1}*theta_{n-1}."""
    coords = _log_row(z, branch)
    coords[0] = 0.0
    return AlgebraElement(z.presentation, coords)


def polar(z: AlgebraElement, branch: BranchSpec | None = None) -> PolarForm:
    """z = rho * exp(arg) on pure-power algebras, from one logarithm x of z:
    tr M(k^j) = 0 for 0 < j < n, so log F(z) = n x_0, rho = exp(x_0), arg = x - x_0."""
    pres = z.presentation
    if not pres.is_pure_power():
        raise UnsupportedAlgebra(f"polar needs a pure-power presentation, not {pres}")
    coords = _log_row(z, branch)
    try:
        rho = math.exp(coords[0])
    except OverflowError:
        raise InvalidArgument(f"polar overflowed: rho = exp({coords[0]:.6g})") from None
    coords[0] = 0.0
    return PolarForm(rho=rho, arg=AlgebraElement(pres, coords))
