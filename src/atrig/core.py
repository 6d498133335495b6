"""Principal real algebras R[k]/<p(k)>: presentations, elements, and the
regular representation.

Elements are coordinate vectors over the power basis {1, k, ..., k^{n-1}}.
Products go through the regular representation M(z), built from one
multiplication table per modulus (``_rep_table``, cached), whose kind the
degree picks once.  Up to degree 16 it is the product table, whose entry
[i, r n + j] is the coordinate r of k^(i+j), so M(z) is the row z times
it.  Above that it is the fold table (the reduced coordinates of k^0, ...,
k^{2n-2}), and M(z) is the table times the Hankel matrix of z.  Either way
every M(z), for one row or a batch, is one BLAS call.  Everything here is
immutable and safe to share.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EmptyCoefficients,
    InvalidArgument,
    InvalidDegree,
    InvalidKind,
    NonFiniteCoefficient,
    NotAUnit,
    PresentationMismatch,
)

#: Scale-aware invertibility guard: z is treated as a unit iff
#: |F(z)| > UNIT_TOLERANCE * max(1, ||z||_inf ** n).
UNIT_TOLERANCE = 1e-12
_LOG_UNIT_TOLERANCE = math.log(UNIT_TOLERANCE)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

PRESET_KINDS = ("hyperbolic", "complicated", "nil")

#: A decorator turning numpy's floating-point warnings off, for functions that
#: check their results and refuse those that are not finite.
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _shown(value) -> str:
    """``repr(value)`` cut to 80 characters, for a refusal message; an int past
    Python's 4300-digit limit on ``str``, alone or in a sequence, shows its digit count."""
    try:
        return f"{value!r:.80}"
    except ValueError:
        pass
    if _is_integer(value):
        size = abs(int(value))
        digits = int((size.bit_length() - 1) * math.log10(2)) + 1
        return f"<int of {digits + (size >= 10**digits)} digits>"
    if isinstance(value, (list, tuple, np.ndarray)):
        return f"[{', '.join(map(_shown, list(value)))}]"[:80]
    return f"<{type(value).__name__} holding an int past the digit limit>"


def _scalar(value: numbers.Real) -> float:
    """``value`` as a float; an integer past the double range raises ``InvalidArgument``."""
    try:
        return float(value)
    except OverflowError:
        raise InvalidArgument(f"scalar {_shown(value)} is past the range of a double") from None


def _real_array(coords) -> np.ndarray | None:
    """``coords`` as a float array, or None where they are not real numbers:
    an array of objects, strings or complex numbers, or None or a string among
    the coordinates, which a float conversion would read as NaN or parse."""
    try:
        if isinstance(coords, np.ndarray):
            if coords.dtype.kind not in "biuf":
                return None
        elif not all(isinstance(x, numbers.Real) for x in np.asarray(coords, dtype=object).flat):
            return None
        return np.array(coords, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


def _is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, which are not counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PrincipalPresentation:
    """The algebra R[k]/<p(k)> for a monic modulus p.

    ``modulus_coeffs[i]`` is the coefficient of k^i, so
    p(k) = k^n + c_{n-1} k^{n-1} + ... + c_1 k + c_0.  The leading
    coefficient is implicit and always 1.
    """

    modulus_coeffs: tuple[float, ...]
    label: str | None = None

    @property
    def degree(self) -> int:
        return len(self.modulus_coeffs)

    def is_depressed(self) -> bool:
        """True iff the coefficient of k^{n-1} is exactly zero."""
        return self.modulus_coeffs[-1] == 0.0

    def is_pure_power(self) -> bool:
        """True iff k^n = -c_0, i.e. every intermediate coefficient is zero."""
        return all(c == 0.0 for c in self.modulus_coeffs[1:])

    def is_nil(self) -> bool:
        """True iff p(k) = k^n, so the generator is nilpotent."""
        return all(c == 0.0 for c in self.modulus_coeffs)

    def same_algebra(self, other: "PrincipalPresentation") -> bool:
        return self.modulus_coeffs == other.modulus_coeffs

    # -- element constructors ------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.degree))

    def one(self) -> "AlgebraElement":
        coords = np.zeros(self.degree)
        coords[0] = 1.0
        return AlgebraElement(self, coords)

    def generator(self, power: int = 1) -> "AlgebraElement":
        """The basis element k^power for an integer 0 <= power < n; any other
        power raises ``InvalidArgument``."""
        if not (_is_integer(power) and 0 <= power < self.degree):
            raise InvalidArgument(
                f"power must be an integer in [0, {self.degree - 1}], got {_shown(power)}"
            )
        coords = np.zeros(self.degree)
        coords[int(power)] = 1.0
        return AlgebraElement(self, coords)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {"coeffs": list(self.modulus_coeffs)}
        if self.label is not None:
            out["label"] = self.label
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "PrincipalPresentation":
        if not isinstance(data, dict) or "coeffs" not in data:
            raise InvalidArgument(f'an algebra needs an object with "coeffs", got {_shown(data)}')
        return make_presentation(data["coeffs"], label=data.get("label"))

    def __str__(self) -> str:
        return self.label or f"R[k]/<p>, coeffs={list(self.modulus_coeffs)}"


def make_presentation(coeffs, label: str | None = None) -> PrincipalPresentation:
    """Build a presentation from the non-leading coefficients [c0, ..., c_{n-1}].

    Raises InvalidArgument unless ``coeffs`` makes a flat numpy array of
    floats or 64-bit integers (so no strings, None, bools alone or nesting)
    and ``label`` is a string or None.
    """
    if label is not None and not isinstance(label, str):
        raise InvalidArgument(f"label must be a string, got {_shown(label)}")
    try:
        array = np.asarray(coeffs)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.ndim != 1 or array.dtype.kind not in "iuf":
        raise InvalidArgument(f"coefficients must be a flat list of numbers, got {_shown(coeffs)}")
    values = tuple(array.astype(float).tolist())
    if not values:
        raise EmptyCoefficients("at least one modulus coefficient is required")
    for c in values:
        if not math.isfinite(c):
            raise NonFiniteCoefficient(f"coefficient {c!r} is not finite")
    return PrincipalPresentation(values, label)


def preset(kind: str, n: int) -> PrincipalPresentation:
    """Standard families: hyperbolic k^n = 1, complicated k^n = -1, nil k^n = 0."""
    if kind not in PRESET_KINDS:
        raise InvalidKind(f"kind must be one of {PRESET_KINDS}, got {_shown(kind)}")
    if not _is_integer(n) or n < 1:
        raise InvalidDegree(f"degree must be a positive integer, got {_shown(n)}")
    if n > sys.maxsize:  # [0.0] * n would raise OverflowError
        raise InvalidDegree(f"degree {_shown(n)} is past the largest list size")
    n = int(n)
    coeffs = [0.0] * n
    if kind == "hyperbolic":
        coeffs[0] = -1.0
        label = f"H{n}"
    elif kind == "complicated":
        coeffs[0] = 1.0
        label = f"C{n}"
    else:
        label = f"Gamma{n}"
    return PrincipalPresentation(tuple(coeffs), label)


class AlgebraElement:
    """x1*1 + x2*k + ... + xn*k^{n-1}, tied to a presentation; immutable.

    Coordinates that are not n real numbers raise ``InvalidArgument``.  The
    arithmetic operators refuse a result that overflows or is not finite
    with ``InvalidArgument``, as ``mul`` does.
    """

    __slots__ = ("presentation", "_coords")

    def __init__(self, presentation: PrincipalPresentation, coords):
        if isinstance(coords, np.ndarray) and coords.dtype.kind == "f":
            arr = np.array(coords, dtype=float)
        else:
            arr = _real_array(coords)
        if arr is None or arr.ndim != 1 or arr.size != presentation.degree:
            raise InvalidArgument(
                f"expected {presentation.degree} real coordinates, got {_shown(coords)}"
            )
        arr.setflags(write=False)
        self.presentation = presentation
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        """Read-only coordinate vector over {1, k, ..., k^{n-1}}."""
        return self._coords

    def _require_same(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"expected AlgebraElement, got {type(other).__name__}")
        if not self.presentation.same_algebra(other.presentation):
            raise PresentationMismatch(
                f"operands live in different algebras: "
                f"{self.presentation} vs {other.presentation}"
            )

    def _finite(self, coords: np.ndarray) -> "AlgebraElement":
        """An element of this algebra; coordinates that are not finite raise
        ``InvalidArgument``."""
        if not np.isfinite(coords).all():
            raise InvalidArgument("the result overflows or is not finite")
        return AlgebraElement(self.presentation, coords)

    # A result that overflows, or divides by zero, is refused by _finite, so
    # numpy's warnings about it are noise.
    @_QUIET
    def __add__(self, other):
        self._require_same(other)
        return self._finite(self._coords + other._coords)

    @_QUIET
    def __sub__(self, other):
        self._require_same(other)
        return self._finite(self._coords - other._coords)

    def __neg__(self):
        return self._finite(-self._coords)

    @_QUIET
    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        if isinstance(other, numbers.Real):
            return self._finite(self._coords * _scalar(other))
        return NotImplemented

    __rmul__ = __mul__  # reached only for a left operand that is not an element

    @_QUIET
    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return self._finite(self._coords / _scalar(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.presentation.same_algebra(other.presentation) and np.array_equal(
            self._coords, other._coords
        )

    __hash__ = None  # mutable-feeling numeric payload; compare, don't hash

    def __repr__(self):
        return f"AlgebraElement({self.presentation}, {self._coords.tolist()})"


# -- low-level kernels shared with the transcendental module -----------------


def _fold_table(modulus_coeffs: tuple[float, ...]) -> np.ndarray:
    """The (n, 2n - 1) matrix whose column s holds the coordinates of k^s.

    The first n columns are the unit vectors.  From k^{n-1} on, each power
    is the one before it times k: shifted one place up, with the k^n that
    falls off the top folded back through k^n = -c_0 - c_1 k - ... -
    c_{n-1} k^{n-1}.

    A modulus whose reduced powers overflow raises ``InvalidArgument``: the
    last column of every M(z) weighs each of k^(n-1), ..., k^(2n-2), and an
    infinity times any weight, zero included, is not finite.
    """
    c = np.array(modulus_coeffs, dtype=float)
    n = len(c)
    fold = np.zeros((n, 2 * n - 1))
    fold[:, :n] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n, 2 * n - 1):
            top = fold[-1, s - 1]
            fold[0, s] = -c[0] * top
            fold[1:, s] = fold[:-1, s - 1] - c[1:] * top
    if not np.isfinite(fold).all():
        raise InvalidArgument(f"the powers of k overflow modulo {list(modulus_coeffs)!r:.80}")
    fold.setflags(write=False)
    return fold


@lru_cache(maxsize=128)
def _hankel_index(n: int) -> np.ndarray:
    """The (2n - 1, n) gather index whose entry [s, j] is s - j where
    0 <= s - j < n, and n, a zero slot appended to the coordinates, elsewhere."""
    shift = np.arange(2 * n - 1)[:, None] - np.arange(n)
    index = np.where((shift >= 0) & (shift < n), shift, n)
    index.setflags(write=False)
    return index


@lru_cache(maxsize=128)
def _product_index(n: int) -> np.ndarray:
    """The (n, n^2) gather index whose entry [i, r n + j] is r (2n - 1) + i + j,
    the flat position of fold[r, i + j] in an (n, 2n - 1) fold table."""
    steps = np.arange(n)
    index = steps[:, None] + ((2 * n - 1) * steps[:, None] + steps).reshape(n * n)
    index.setflags(write=False)
    return index


#: Largest degree whose table is the product table, n^3 doubles against the
#: fold table's n (2n - 1): 32 KB at n = 16, 256 KB at n = 32.  Product
#: tables at every degree raised the pointwise benchmark's peak RSS from
#: 44.6-45.0 to 53.8-55.6 MB; fold tables at every degree cost the roundtrip
#: benchmark throughput in 3 of 3 pairs (2 shared vCPUs).
_PRODUCT_TABLE_DEGREE = 16


# 128 tables of at most 32 KB (n^3 doubles at n = 16) hold 4 MB; a fold
# table passes 32 KB only above degree 45.
@lru_cache(maxsize=128)
def _rep_table(modulus_coeffs: tuple[float, ...]) -> np.ndarray:
    """The read-only table for ``_rep_stack`` that every presentation of the
    modulus shares: up to degree _PRODUCT_TABLE_DEGREE the product table
    (n, n^2), whose entry [i, r n + j] is fold[r, i + j], the coordinate r
    of k^(i+j); above it the fold table (n, 2n - 1) of ``_fold_table``."""
    fold = _fold_table(modulus_coeffs)
    n = len(modulus_coeffs)
    if n > _PRODUCT_TABLE_DEGREE:
        return fold
    table = fold.reshape(n * (2 * n - 1))[_product_index(n)]
    table.setflags(write=False)
    return table


def _rep_stack(coords: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Left-multiplication matrices of stacked coordinates.

    ``coords`` has shape (..., n) and the result (..., n, n).  Column j of
    M(z) is z * k^j = sum_i z_i k^{i+j}.  ``table`` is the modulus's
    ``_rep_table``, or a stack of them that broadcasts against the rows:

    - a product table, (..., n, n^2): M(z) is the row vector z times it,
      one vector-matrix product per row;
    - a fold table, (..., n, 2n - 1): M(z) is the table times the
      (2n - 1, n) Hankel matrix whose entry [s, j] is z_{s-j}, gathered per
      row.

    At n = 1 the two tables coincide.  Either way the product is one
    stacked matmul that runs the same BLAS call on every row, so a row of a
    batch is bit for bit the matrix it would get alone; each matrix is
    C-contiguous, so a later matmul treats it like a standalone matrix too.
    """
    n = coords.shape[-1]
    if table.shape[-1] == 2 * n - 1:
        ext = np.zeros(coords.shape[:-1] + (n + 1,))
        ext[..., :n] = coords
        return np.matmul(table, ext[..., _hankel_index(n)])
    flat = np.matmul(coords[..., None, :], table)
    return flat.reshape(flat.shape[:-2] + (n, n))


def _mul_coords(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Algebra products a * b of stacked coordinates, row by row: (..., n),
    with ``table`` as for ``_rep_stack``."""
    return np.matmul(_rep_stack(a, table), b[..., None])[..., 0]


# -- public operations --------------------------------------------------------


def _rep_of_finite(z: AlgebraElement, operation: str) -> np.ndarray:
    """M(z) with its entries as they come out, overflow included, for a
    caller under ``_QUIET``; coordinates that are not finite raise
    ``InvalidArgument``."""
    if not np.isfinite(z.coords).all():
        raise InvalidArgument(f"{operation} requires finite coordinates")
    return _rep_stack(z.coords, _rep_table(z.presentation.modulus_coeffs))


@_QUIET
def rep_matrix(z: AlgebraElement) -> np.ndarray:
    """Matrix of left-multiplication by z in the power basis.

    Column j (0-based) equals the coordinates of z * k^j, so the first
    column is z itself and rep_matrix(1) is the identity.  Coordinates that
    are not finite, and an M(z) that overflows, raise ``InvalidArgument``.
    """
    matrix = _rep_of_finite(z, "rep_matrix")
    if not np.isfinite(matrix).all():
        raise InvalidArgument("M(z) overflows")
    return matrix


def mul(z: AlgebraElement, w: AlgebraElement) -> AlgebraElement:
    """Product in the algebra, reduced modulo the modulus polynomial; a
    product that overflows or is not finite raises ``InvalidArgument``."""
    z._require_same(w)
    # Any entry of z, w or M(z) that is not finite leaves the product not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        coords = _rep_stack(z.coords, _rep_table(z.presentation.modulus_coeffs)) @ w.coords
    return z._finite(coords)


@_QUIET
def pythagorean(z: AlgebraElement) -> float:
    """Determinant of the regular representation (LU with partial pivoting);
    non-finite coordinates raise ``InvalidArgument``.

    On finite coordinates the value is returned as the determinant comes
    out, with no warning: ``inf`` or NaN where M(z) or its determinant
    overflows.
    """
    return float(np.linalg.det(_rep_of_finite(z, "pythagorean")))


@_QUIET
def invert(z: AlgebraElement) -> AlgebraElement:
    """Multiplicative inverse, solving M(z) w = e1; non-finite coordinates,
    and an M(z), F(z) or inverse that overflows, raise ``InvalidArgument``."""
    matrix = _rep_of_finite(z, "invert")
    # The unit test in logarithms: neither F(z) nor the scale can overflow.
    # An M(z) that overflows gives a log_det that is not finite, refused here.
    sign, log_det = np.linalg.slogdet(matrix)
    if not log_det < _LOG_FLOAT_MAX:
        raise InvalidArgument(f"Pythagorean value is not finite: log|F(z)| = {log_det}")
    n = z.presentation.degree
    log_scale = n * math.log(max(1.0, float(np.max(np.abs(z.coords)))))
    if log_det <= _LOG_UNIT_TOLERANCE + log_scale:
        det = float(sign) * math.exp(log_det)
        raise NotAUnit(f"Pythagorean value {det:.3e} is below the unit tolerance")
    rhs = np.zeros(n)
    rhs[0] = 1.0
    return z._finite(np.linalg.solve(matrix, rhs))


def _taylor_shift(values: np.ndarray, shift: float) -> np.ndarray:
    """Coefficients of q(t) = sum_i values[i] (t + shift)^i, same length.

    Coefficients that overflow come back not finite, for the caller to refuse.
    """
    out = np.zeros_like(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for v in values[::-1]:
            # out <- out * (t + shift) + v; the top coefficient is zero before
            # the final multiply, so the degree never overflows the buffer.
            out[1:] = out[:-1] + shift * out[1:]
            out[0] = shift * out[0] + v
    return out


def depress(pres: PrincipalPresentation) -> tuple[PrincipalPresentation, float]:
    """Shift the generator so the k^{n-1} coefficient vanishes.

    Returns the new presentation together with the shift s such that
    ``shift_element(z, s, new)`` rewrites coordinates (old k maps to k + s).
    Already-depressed input comes back unchanged with shift 0.  A shifted
    coefficient that overflows raises ``NonFiniteCoefficient``.
    """
    n = pres.degree
    shift = -pres.modulus_coeffs[-1] / n
    if shift == 0.0:
        return pres, 0.0
    full = np.append(pres.modulus_coeffs, 1.0)
    shifted = _taylor_shift(full, shift)
    coeffs = list(shifted[:n])
    coeffs[-1] = 0.0  # zero analytically; kill the shift's round-off residue
    label = f"{pres.label}-depressed" if pres.label else None
    return make_presentation(coeffs, label), shift


def shift_element(
    z: AlgebraElement, shift: float, target: PrincipalPresentation
) -> AlgebraElement:
    """Re-express z under the substitution k -> k + shift; a result that
    overflows or is not finite raises ``InvalidArgument``."""
    if target.degree != z.presentation.degree:
        raise PresentationMismatch(
            f"target degree {target.degree} != element degree {z.presentation.degree}"
        )
    coords = _taylor_shift(z.coords, shift)
    if not np.isfinite(coords).all():
        raise InvalidArgument("shifted coordinates overflow or are not finite")
    return AlgebraElement(target, coords)


# -- wire formats --------------------------------------------------------------


def parse_element(pres: PrincipalPresentation, text: str) -> AlgebraElement:
    """Parse the literal "x1,x2,...,xn" (ascending powers of k); a malformed
    literal raises ``InvalidArgument``."""
    parts = [p.strip() for p in text.split(",")]
    try:
        coords = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidArgument(f"bad element literal {text!r}: {exc}") from None
    if len(coords) != pres.degree:
        raise InvalidArgument(
            f"element literal has {len(coords)} coordinates, expected {pres.degree}"
        )
    return AlgebraElement(pres, coords)


def element_literal(z: AlgebraElement) -> str:
    return ",".join(repr(float(x)) for x in z.coords)
