"""Principal real algebras R[k]/<p(k)>: presentations, elements, and the
regular representation.

Elements are coordinate vectors over the power basis {1, k, ..., k^{n-1}}.
Products go through the regular representation M(z), built from a fold
table per modulus (the reduced coordinates of k^0, ..., k^{2n-2}, cached)
by one matrix product with the Hankel matrix of z.  That is 2n^3 flops
per matrix where a column recurrence takes 2n^2, but one BLAS call in
place of n numpy calls, which is the cheaper trade at the degrees used
here; the table is O(n^2) memory per modulus.  Everything here is
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
        """The basis element k^power for 0 <= power < n."""
        if not 0 <= power < self.degree:
            raise ValueError(f"power must lie in [0, {self.degree - 1}]")
        coords = np.zeros(self.degree)
        coords[power] = 1.0
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
            raise InvalidArgument(f'an algebra needs an object with "coeffs", got {data!r:.80}')
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
        raise InvalidArgument(f"label must be a string, got {label!r:.80}")
    try:
        array = np.asarray(coeffs)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.ndim != 1 or array.dtype.kind not in "iuf":
        raise InvalidArgument(f"coefficients must be a flat list of numbers, got {coeffs!r:.80}")
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
        raise InvalidKind(f"kind must be one of {PRESET_KINDS}, got {kind!r}")
    if not _is_integer(n) or n < 1:
        raise InvalidDegree(f"degree must be a positive integer, got {n!r}")
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
    """x1*1 + x2*k + ... + xn*k^{n-1}, tied to a presentation; immutable."""

    __slots__ = ("presentation", "_coords")

    def __init__(self, presentation: PrincipalPresentation, coords):
        arr = np.array(coords, dtype=float)
        if arr.ndim != 1 or arr.size != presentation.degree:
            raise ValueError(
                f"expected {presentation.degree} coordinates, got shape {arr.shape}"
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

    def __add__(self, other):
        self._require_same(other)
        return AlgebraElement(self.presentation, self._coords + other._coords)

    def __sub__(self, other):
        self._require_same(other)
        return AlgebraElement(self.presentation, self._coords - other._coords)

    def __neg__(self):
        return AlgebraElement(self.presentation, -self._coords)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        if isinstance(other, numbers.Real):
            return AlgebraElement(self.presentation, self._coords * float(other))
        return NotImplemented

    __rmul__ = __mul__  # reached only for a left operand that is not an element

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return AlgebraElement(self.presentation, self._coords / float(other))
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


@lru_cache(maxsize=128)
def _fold_table(modulus_coeffs: tuple[float, ...]) -> np.ndarray:
    """The (n, 2n - 1) matrix whose column s holds the coordinates of k^s.

    The first n columns are the unit vectors.  From k^{n-1} on, each power
    is the one before it times k: shifted one place up, with the k^n that
    falls off the top folded back through k^n = -c_0 - c_1 k - ... -
    c_{n-1} k^{n-1}.  Shared by every presentation with these coefficients.
    """
    c = np.array(modulus_coeffs, dtype=float)
    n = len(c)
    fold = np.zeros((n, 2 * n - 1))
    fold[:, :n] = np.eye(n)
    for s in range(n, 2 * n - 1):
        top = fold[-1, s - 1]
        fold[0, s] = -c[0] * top
        fold[1:, s] = fold[:-1, s - 1] - c[1:] * top
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


def _rep_stack(coords: np.ndarray, fold: np.ndarray) -> np.ndarray:
    """Left-multiplication matrices of stacked coordinates.

    ``coords`` has shape (..., n) and the result (..., n, n).  Column j of
    M(z) is z * k^j = sum_i z_i k^{i+j}, so M(z) is the fold table of the
    modulus (see ``_fold_table``) times the (2n - 1, n) Hankel matrix whose
    entry [s, j] is z_{s-j}.  The product is one stacked matmul that runs
    the same BLAS call on every row, so a row of a batch is bit for bit the
    matrix it would get alone; each matrix is C-contiguous, so a later
    matmul treats it like a standalone matrix too.
    """
    n = coords.shape[-1]
    ext = np.zeros(coords.shape[:-1] + (n + 1,))
    ext[..., :n] = coords
    return np.matmul(fold, ext[..., _hankel_index(n)])


def _mul_coords(a: np.ndarray, b: np.ndarray, fold: np.ndarray) -> np.ndarray:
    """Algebra products a * b of stacked coordinates, row by row: (..., n)."""
    return np.matmul(_rep_stack(a, fold), b[..., None])[..., 0]


# -- public operations --------------------------------------------------------


def rep_matrix(z: AlgebraElement) -> np.ndarray:
    """Matrix of left-multiplication by z in the power basis.

    Column j (0-based) equals the coordinates of z * k^j, so the first
    column is z itself and rep_matrix(1) is the identity.
    """
    return _rep_stack(z.coords, _fold_table(z.presentation.modulus_coeffs))


def mul(z: AlgebraElement, w: AlgebraElement) -> AlgebraElement:
    """Product in the algebra, reduced modulo the modulus polynomial; a
    product that overflows or is not finite raises ``InvalidArgument``."""
    z._require_same(w)
    with np.errstate(over="ignore", invalid="ignore"):
        coords = rep_matrix(z) @ w.coords
    if not np.isfinite(coords).all():
        raise InvalidArgument("product overflows or is not finite")
    return AlgebraElement(z.presentation, coords)


def pythagorean(z: AlgebraElement) -> float:
    """Determinant of the regular representation (LU with partial pivoting)."""
    return float(np.linalg.det(rep_matrix(z)))


def invert(z: AlgebraElement) -> AlgebraElement:
    """Multiplicative inverse, solving M(z) w = e1."""
    matrix = rep_matrix(z)
    # The unit test in logarithms: neither F(z) nor the scale can overflow.
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
    return AlgebraElement(z.presentation, np.linalg.solve(matrix, rhs))


def _taylor_shift(values: np.ndarray, shift: float) -> np.ndarray:
    """Coefficients of q(t) = sum_i values[i] (t + shift)^i, same length."""
    out = np.zeros_like(values, dtype=float)
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
    Already-depressed input comes back unchanged with shift 0.
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
    return PrincipalPresentation(tuple(float(c) for c in coeffs), label), shift


def shift_element(
    z: AlgebraElement, shift: float, target: PrincipalPresentation
) -> AlgebraElement:
    """Re-express z under the substitution k -> k + shift."""
    if target.degree != z.presentation.degree:
        raise PresentationMismatch(
            f"target degree {target.degree} != element degree {z.presentation.degree}"
        )
    return AlgebraElement(target, _taylor_shift(z.coords, shift))


# -- wire formats --------------------------------------------------------------


def parse_element(pres: PrincipalPresentation, text: str) -> AlgebraElement:
    """Parse the literal "x1,x2,...,xn" (ascending powers of k)."""
    parts = [p.strip() for p in text.split(",")]
    try:
        coords = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad element literal {text!r}: {exc}") from None
    if len(coords) != pres.degree:
        raise ValueError(
            f"element literal has {len(coords)} coordinates, expected {pres.degree}"
        )
    return AlgebraElement(pres, coords)


def element_literal(z: AlgebraElement) -> str:
    return ",".join(repr(float(x)) for x in z.coords)
