"""Independent checks of single library calls.

Each check recomputes the answer by another route and returns a residual
normalized by the scale at which floating point can resolve it, so that
results are compared to a fixed tolerance at every norm and degree.  The
reference regular representation is built here from companion-matrix
powers, not by the library's column recurrence.
"""

from __future__ import annotations

import math

import numpy as np

#: Smallest residual reported; below unit roundoff the digits are noise.
RESIDUAL_FLOOR = 2.0 ** -52

#: log of the largest finite double.
LOG_MAX_FLOAT = math.log(np.finfo(float).max)

#: Tolerance per operation, matching the acceptance tolerance of the
#: suite that certifies the same property.
TOLERANCE = {
    "exp": 1e-9,  # kthagorean: F(exp) = 1
    "log": 1e-8,  # roundtrip: exp(log z) = z
    "polar": 1e-8,  # polar: recombination
    "pythagorean": 1e-9,
    "mul": 1e-9,
    "invert": 1e-9,
    "find_roots": 1e-10,  # the library's default root tolerance
    "components": 1e-9,  # crt: component round trip
}


class Malformed(Exception):
    """The call returned a structurally wrong answer."""


class NonFinite(Malformed):
    """The call returned an answer holding inf or NaN."""


def _finite(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFinite("non-finite output")
    return arr


def reference_rep(coeffs, x) -> np.ndarray:
    """M(x) = sum_j x_j C^j, evaluated by Horner's rule in the companion C."""
    n = len(coeffs)
    companion = np.zeros((n, n))
    companion[1:, :-1] = np.eye(n - 1)
    companion[:, -1] = -np.asarray(coeffs, dtype=float)
    rep = x[-1] * np.eye(n)
    diagonal = np.diag_indices(n)
    for xj in x[-2::-1]:
        rep = rep @ companion
        rep[diagonal] += xj
    return rep


def _unit_residual(rep: np.ndarray, other: np.ndarray) -> float:
    """|M(z) w - 1| relative to |M(z)| |w|, the rounding scale of the product."""
    one = np.zeros(len(other))
    one[0] = 1.0
    scale = float(np.max(np.abs(rep) @ np.abs(other)))
    return float(np.max(np.abs(rep @ other - one))) / max(scale, 1e-300)


def _relative(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def _log_hadamard(rep: np.ndarray) -> float:
    """log of prod_j |column j|, Hadamard's bound on |det|."""
    return float(np.sum(np.log(np.maximum(np.linalg.norm(rep, axis=0), 1e-300))))


def check(atrig, op: str, req, result) -> float:
    """Normalized residual of ``result`` for request ``req``; raises Malformed.

    Overflow inside a check yields an inf or NaN residual, never a warning.
    """
    with np.errstate(all="ignore"):
        return _check(atrig, op, req, result)


def _check(atrig, op: str, req, result) -> float:
    coeffs = req.pres.modulus_coeffs
    if op == "exp":
        z = _finite(result.coords)
        rep = reference_rep(coeffs, z)
        try:
            inverse = atrig.exp(-req.x).coords
        except atrig.errors.AlgebraError:
            inverse = None  # only the determinant can be checked
        # det exp(M(w)) = exp(tr M(w)), compared on the scale of Hadamard's
        # bound so that cancellation inside the determinant is not charged.
        log_det = float(np.trace(reference_rep(coeffs, req.x.coords)))
        value = float(atrig.pythagorean(result))
        top = max(log_det, _log_hadamard(rep))
        if math.isfinite(value):
            sign, log_abs = math.copysign(1.0, value), math.log(abs(value)) if value else -math.inf
        elif top > LOG_MAX_FLOAT:  # a determinant this size may overflow
            sign, log_abs = np.linalg.slogdet(rep)
        else:
            raise NonFinite("non-finite Pythagorean value of exp")
        det_residual = abs(sign * math.exp(log_abs - top) - math.exp(log_det - top))
        if inverse is None:
            return det_residual
        return max(_unit_residual(rep, inverse), det_residual)
    if op == "log":
        _finite(result.coords)
        # An overflow on the check's own route gives a non-finite residual.
        back = atrig.exp(result).coords
        return _relative(back, req.x.coords)
    if op == "polar":
        if not math.isfinite(result.rho):
            raise NonFinite(f"modulus {result.rho!r}")
        if not result.rho > 0.0:
            raise Malformed(f"modulus {result.rho!r} is not positive")
        _finite(result.arg.coords)
        if result.arg.coords[0] != 0.0:
            raise Malformed("argument has a nonzero real part")
        back = result.recombine().coords
        return _relative(back, req.x.coords)
    if op == "pythagorean":
        value = float(result)
        if not math.isfinite(value):
            raise NonFinite("non-finite Pythagorean value")
        rep = reference_rep(coeffs, req.x.coords)
        want = float(np.linalg.det(rep))
        return abs(value - want) * math.exp(-_log_hadamard(rep))
    if op == "mul":
        product = _finite(result.coords)
        rep = reference_rep(coeffs, req.x.coords)
        y = req.y.coords
        scale = float(np.max(np.abs(rep) @ np.abs(y)))
        return float(np.max(np.abs(product - rep @ y))) / max(scale, 1e-300)
    if op == "invert":
        inverse = _finite(result.coords)
        return _unit_residual(reference_rep(coeffs, req.x.coords), inverse)
    if op == "find_roots":
        n = len(coeffs)
        roots = np.array(list(result.real_roots) + list(result.complex_roots), dtype=complex)
        if result.real_count + 2 * result.complex_count != n:
            raise Malformed("root count does not match the degree")
        if not np.all(np.isfinite(roots)):
            raise NonFinite("non-finite root")
        if any(r.imag <= 0 for r in result.complex_roots):
            raise Malformed("roots are not one per conjugate pair")
        full = np.append(np.asarray(coeffs, dtype=float), 1.0)
        powers = np.abs(roots)[:, None] ** np.arange(n + 1)
        scale = powers @ np.abs(full)
        values = np.abs(np.polyval(full[::-1], roots))
        return float(np.max(values / scale))
    if op == "components":
        back = _finite(result.coords)
        return _relative(back, req.x.coords)
    raise ValueError(f"unknown operation {op!r}")
