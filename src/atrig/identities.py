"""Exact symbolic adding-angle and De Moivre identities.

Expanding exp(k(a+b)) = exp(ka) exp(kb) or exp(k l a) = exp(ka)^l over the
power basis and reducing modulo the modulus polynomial yields, for each
component function s_i, a polynomial identity with exact rational
coefficients.  This module generates those identities, certifies them
numerically, and renders them as LaTeX or JSON.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .core import PrincipalPresentation
from .errors import InvalidPower, NonRationalCoefficients
from .transcendental import trig_components

#: Default ceiling on the De Moivre power, bounding term explosion.
DEFAULT_POWER_CAP = 12

_TAG_ARGUMENT = {"a": "alpha", "b": "beta"}


class TrigSymbol(NamedTuple):
    """One occurrence of a component function: s_<index>(<argument>).

    The field order makes plain tuple comparison the canonical symbol
    order: all first-argument symbols before second-argument ones, each
    block by ascending component index.
    """

    argument_tag: str  # "a" for the first argument, "b" for the second
    function_index: int  # 1-based component index

    @property
    def name(self) -> str:
        return f"s{self.function_index}{self.argument_tag}"


_SYMBOL_RE = re.compile(r"^s(\d+)([ab])$")


def _parse_symbol(name: str) -> TrigSymbol:
    m = _SYMBOL_RE.match(name)
    if not m:
        raise ValueError(f"bad symbol name {name!r}")
    return TrigSymbol(m.group(2), int(m.group(1)))


def _monomial_key(mono: tuple[TrigSymbol, ...]):
    # Graded lexicographic: total degree first, then the sorted symbol tuple.
    return (len(mono), mono)


class SymPoly:
    """Polynomial in trig symbols with exact rational coefficients.

    Monomials are stored as sorted symbol tuples; zero coefficients are
    never kept, so equality is canonical-form equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[TrigSymbol, ...], Fraction] = {}
        for mono, coeff in (terms or {}).items():
            q = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            key = tuple(sorted(mono))
            q = clean.get(key, Fraction(0)) + q
            if q == 0:
                clean.pop(key, None)
            else:
                clean[key] = q
        self._terms = clean

    @classmethod
    def zero(cls) -> "SymPoly":
        return cls()

    @classmethod
    def symbol(cls, sym: TrigSymbol) -> "SymPoly":
        return cls({(sym,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[tuple[TrigSymbol, ...], Fraction]]:
        """Terms in the canonical (graded lexicographic) order."""
        return sorted(self._terms.items(), key=lambda kv: _monomial_key(kv[0]))

    def __add__(self, other: "SymPoly") -> "SymPoly":
        merged = dict(self._terms)
        for mono, q in other._terms.items():
            merged[mono] = merged.get(mono, Fraction(0)) + q
        return SymPoly(merged)

    def __neg__(self) -> "SymPoly":
        return SymPoly({m: -q for m, q in self._terms.items()})

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SymPoly):
            out: dict[tuple[TrigSymbol, ...], Fraction] = {}
            for m1, q1 in self._terms.items():
                for m2, q2 in other._terms.items():
                    key = tuple(sorted(m1 + m2))
                    out[key] = out.get(key, Fraction(0)) + q1 * q2
            return SymPoly(out)
        if isinstance(other, (Fraction, int)):
            q = Fraction(other)
            return SymPoly({m: c * q for m, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Fraction, int)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if self.is_zero():
            return "SymPoly(0)"
        bits = [f"{q}*{'*'.join(s.name for s in m)}" for m, q in self.terms()]
        return "SymPoly(" + " + ".join(bits) + ")"

    def evaluate(self, values: dict) -> float | np.ndarray:
        """Numeric value given per-symbol values (scalars or equal-shape arrays)."""
        out = 0.0
        for mono, q in self._terms.items():
            factor = float(q)
            for sym in mono:
                factor = factor * values[sym]
            out = out + factor
        return out


@dataclass(frozen=True)
class IdentitySet:
    """The n component identities for one algebra and one expansion kind.

    ``formulas[i]`` expresses s_{i+1}(alpha+beta) (adding angle) or
    s_{i+1}(power*alpha) (De Moivre) in the trig symbols.
    """

    presentation: PrincipalPresentation
    kind: str  # "adding_angle" | "de_moivre"
    power: int | None
    formulas: tuple[SymPoly, ...]


@dataclass(frozen=True)
class VerificationReport:
    """Per-formula worst absolute residuals from random numeric sampling."""

    kind: str
    samples: int
    tol: float
    residuals: tuple[float, ...]
    formula_passed: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return all(self.formula_passed)

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def _rational_coeffs(pres: PrincipalPresentation) -> list[Fraction]:
    out = []
    for c in pres.modulus_coeffs:
        if not math.isfinite(c):
            raise NonRationalCoefficients(f"coefficient {c!r} has no rational value")
        out.append(Fraction(c))  # exact: every finite double is rational
    return out


def _reduce(vec: list[SymPoly], coeffs: list[Fraction]) -> list[SymPoly]:
    """Fold powers k^d with d >= n down via k^n = -sum c_j k^j, exactly."""
    n = len(coeffs)
    vec = list(vec)
    for d in range(len(vec) - 1, n - 1, -1):
        top = vec[d]
        if top.is_zero():
            continue
        for j, cj in enumerate(coeffs):
            if cj != 0:
                vec[d - n + j] = vec[d - n + j] - cj * top
    return vec[:n]


def _generic_exponential(n: int, tag: str) -> list[SymPoly]:
    return [SymPoly.symbol(TrigSymbol(tag, i + 1)) for i in range(n)]


def _multiply(f: list[SymPoly], g: list[SymPoly], coeffs: list[Fraction]) -> list[SymPoly]:
    """The product of two elements over the power basis, reduced modulo the
    modulus."""
    product = [SymPoly.zero() for _ in range(len(f) + len(g) - 1)]
    for d1, f1 in enumerate(f):
        if f1.is_zero():
            continue
        for d2, g2 in enumerate(g):
            product[d1 + d2] = product[d1 + d2] + f1 * g2
    return _reduce(product, coeffs)


def adding_angle(pres: PrincipalPresentation) -> IdentitySet:
    """Identities for s_i(alpha+beta) from multiplying two generic exponentials."""
    coeffs = _rational_coeffs(pres)
    n = pres.degree
    product = _multiply(_generic_exponential(n, "a"), _generic_exponential(n, "b"), coeffs)
    return IdentitySet(pres, "adding_angle", None, tuple(product))


def de_moivre_powers(
    pres: PrincipalPresentation, max_power: int, power_cap: int = DEFAULT_POWER_CAP
) -> list[IdentitySet]:
    """De Moivre identity sets for powers 1..max_power, built as one chain.

    Each power is the previous one times a generic exponential, reduced
    modulo the modulus, so the whole list costs what the top power alone does.
    """
    if not isinstance(max_power, int) or max_power < 1:
        raise InvalidPower(f"power must be a positive integer, got {max_power!r}")
    if max_power > power_cap:
        raise InvalidPower(f"power {max_power} exceeds the cap {power_cap}")
    coeffs = _rational_coeffs(pres)
    base = result = _generic_exponential(pres.degree, "a")
    sets = [IdentitySet(pres, "de_moivre", 1, tuple(result))]
    for power in range(2, max_power + 1):
        result = _multiply(result, base, coeffs)
        sets.append(IdentitySet(pres, "de_moivre", power, tuple(result)))
    return sets


def de_moivre(
    pres: PrincipalPresentation, power: int, power_cap: int = DEFAULT_POWER_CAP
) -> IdentitySet:
    """Identities for s_i(power*alpha) from the power of a generic exponential."""
    return de_moivre_powers(pres, power, power_cap)[-1]


def verify_identity(
    ids: IdentitySet, samples: int = 200, tol: float = 1e-9, seed: int = 0
) -> VerificationReport:
    """Certify an identity set by random sampling in [-2, 2].

    The left side evaluates the exponential series at the combined argument;
    the right side substitutes sampled component values into the symbolic
    formulas.  Reports the worst absolute residual per formula.
    """
    pres = ids.presentation
    n = pres.degree
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(-2.0, 2.0, samples)
    comp_a = trig_components(pres, 1, alphas)
    values = {TrigSymbol("a", i + 1): comp_a[:, i] for i in range(n)}
    if ids.kind == "adding_angle":
        betas = rng.uniform(-2.0, 2.0, samples)
        comp_b = trig_components(pres, 1, betas)
        values.update({TrigSymbol("b", i + 1): comp_b[:, i] for i in range(n)})
        lhs = trig_components(pres, 1, alphas + betas)
    elif ids.kind == "de_moivre":
        lhs = trig_components(pres, 1, ids.power * alphas)
    else:
        raise ValueError(f"unknown identity kind {ids.kind!r}")

    residuals = []
    for i, formula in enumerate(ids.formulas):
        rhs = formula.evaluate(values)
        residuals.append(float(np.abs(lhs[:, i] - rhs).max(initial=0.0)))
    return VerificationReport(
        kind=ids.kind,
        samples=samples,
        tol=tol,
        residuals=tuple(residuals),
        formula_passed=tuple(r <= tol for r in residuals),
    )


# -- rendering -----------------------------------------------------------------


def _symbol_latex_names(pres: PrincipalPresentation) -> list[str]:
    n = pres.degree
    if pres.is_pure_power() and pres.modulus_coeffs[0] == -1.0:
        head, tail = r"\cosh", r"\sinh"
    elif pres.is_pure_power() and pres.modulus_coeffs[0] == 1.0:
        head, tail = r"\cos", r"\sin"
    else:
        return [f"s_{{{i}}}" for i in range(1, n + 1)]
    sub = str(n) if n < 10 else f"{{{n}}}"
    names = [f"{head}_{sub}"]
    names.extend(f"{tail}_{{{n},{i}}}" for i in range(1, n))
    return names


def _latex_coefficient(q: Fraction) -> str:
    q = abs(q)
    if q == 1:
        return ""
    if q.denominator == 1:
        return str(q.numerator)
    return rf"\frac{{{q.numerator}}}{{{q.denominator}}}"


def _latex_monomial(mono: tuple[TrigSymbol, ...], names: list[str]) -> str:
    parts = []
    for sym, grouped in groupby(mono):
        count = len(list(grouped))
        base = names[sym.function_index - 1]
        sup = "" if count == 1 else f"^{{{count}}}"
        argument = rf"\{_TAG_ARGUMENT[sym.argument_tag]}"
        parts.append(f"{base}{sup}({argument})")
    return "".join(parts)


def _latex_formula(formula: SymPoly, names: list[str]) -> str:
    if formula.is_zero():
        return "0"
    pieces = []
    for position, (mono, q) in enumerate(formula.terms()):
        body = _latex_coefficient(q) + _latex_monomial(mono, names)
        if position == 0:
            pieces.append(("-" if q < 0 else "") + body)
        else:
            pieces.append((" - " if q < 0 else " + ") + body)
    return "".join(pieces)


def _latex_lhs_argument(ids: IdentitySet) -> str:
    if ids.kind == "adding_angle":
        return r"(\alpha+\beta)"
    if ids.power == 1:
        return r"(\alpha)"
    return rf"({ids.power}\alpha)"


def _coefficient_json(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render(ids: IdentitySet, format: str = "latex") -> str:
    """Render as display-math LaTeX (one formula per line) or as JSON.

    LaTeX uses the family naming scheme (cosh/sinh for k^n = 1, cos/sin
    for k^n = -1, plain s_i otherwise); JSON lists exact rational
    coefficients with symbol tuples, in the canonical term order.
    """
    if format == "latex":
        names = _symbol_latex_names(ids.presentation)
        argument = _latex_lhs_argument(ids)
        lines = []
        for i, formula in enumerate(ids.formulas):
            lhs = f"{names[i]}{argument}"
            lines.append(rf"\[ {lhs} = {_latex_formula(formula, names)} \]")
        return "\n".join(lines)
    if format == "json":
        payload = {
            f"s{i + 1}": [
                [_coefficient_json(q), [sym.name for sym in mono]]
                for mono, q in formula.terms()
            ]
            for i, formula in enumerate(ids.formulas)
        }
        return json.dumps(payload)
    raise ValueError(f"unknown render format {format!r}")


def parse_identities_json(
    text: str,
    pres: PrincipalPresentation,
    kind: str,
    power: int | None = None,
) -> IdentitySet:
    """Inverse of ``render(..., "json")`` given the owning context."""
    data = json.loads(text)
    formulas = []
    for i in range(pres.degree):
        terms: dict[tuple[TrigSymbol, ...], Fraction] = {}
        for coeff, names in data[f"s{i + 1}"]:
            mono = tuple(_parse_symbol(name) for name in names)
            terms[mono] = terms.get(mono, Fraction(0)) + Fraction(coeff)
        formulas.append(SymPoly(terms))
    return IdentitySet(pres, kind, power, tuple(formulas))
