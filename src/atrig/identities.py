"""Exact symbolic adding-angle and De Moivre identities.

Expanding exp(k(a+b)) = exp(ka) exp(kb) or exp(k l a) = exp(ka)^l over the
power basis and reducing modulo the modulus polynomial yields, for each
component function s_i, a polynomial identity with exact rational
coefficients: by the multinomial theorem, each coefficient is a multinomial
count times one coordinate of a reduced power of k.  This module generates
those identities, certifies them numerically, and renders them as LaTeX or
JSON.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from typing import NamedTuple

import numpy as np

from .core import PrincipalPresentation
from .errors import InvalidPower, NonRationalCoefficients
from .transcendental import trig_components

#: Ceiling on the De Moivre power, bounding term explosion.
POWER_CAP = 12

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


def _powers_of_k(coeffs: list[Fraction], top: int) -> list[list[Fraction]]:
    """Exact coordinates of k^0, ..., k^top reduced modulo the modulus.

    Each power is the one before it times k: shifted one place up, with the
    k^n that falls off the top folded back through k^n = -sum c_j k^j (the
    recurrence behind the float fold table of ``core._fold_table``).
    """
    column = [Fraction(1)] + [Fraction(0)] * (len(coeffs) - 1)
    powers = [column]
    for _ in range(top):
        carry = column[-1]
        column = [-coeffs[0] * carry] + [
            below - c * carry for below, c in zip(column, coeffs[1:])
        ]
        powers.append(column)
    return powers


def _multinomial(pick: tuple[int, ...]) -> int:
    """Number of orderings of a sorted multiset."""
    repeats = (math.factorial(len(list(run))) for _, run in groupby(pick))
    return math.factorial(len(pick)) // math.prod(repeats)


def _expand(pres: PrincipalPresentation, powers: dict[str, int]) -> tuple[SymPoly, ...]:
    """The coordinates of the product over tags of exp(k tag)^power.

    With exp(k tag) = sum_i s_{i+1}(tag) k^i, the multinomial theorem gives
    one monomial per choice of a multiset of component indices for each tag.
    Its coefficient in formula i is the multinomial count times coordinate i
    of k^(sum of the chosen indices).  The choices come in canonical term
    order and each is a distinct monomial, so nothing needs collecting.
    """
    coeffs = _rational_coeffs(pres)
    n = len(coeffs)
    reduced = _powers_of_k(coeffs, (n - 1) * sum(powers.values()))
    formulas: list[dict] = [{} for _ in range(n)]
    choices = (combinations_with_replacement(range(n), power) for power in powers.values())
    for picks in product(*choices):
        count = math.prod(_multinomial(pick) for pick in picks)
        mono = tuple(TrigSymbol(tag, i + 1) for tag, pick in zip(powers, picks) for i in pick)
        for formula, coordinate in zip(formulas, reduced[sum(map(sum, picks))]):
            if coordinate:
                formula[mono] = count * coordinate
    return tuple(SymPoly(terms) for terms in formulas)


def adding_angle(pres: PrincipalPresentation) -> IdentitySet:
    """Identities for s_i(alpha+beta), the coordinates of exp(k alpha) exp(k beta)."""
    return IdentitySet(pres, "adding_angle", None, _expand(pres, {"a": 1, "b": 1}))


def de_moivre(pres: PrincipalPresentation, power: int) -> IdentitySet:
    """Identities for s_i(power*alpha), the coordinates of exp(k alpha)^power."""
    if not isinstance(power, numbers.Integral) or isinstance(power, bool) or power < 1:
        raise InvalidPower(f"power must be a positive integer, got {power!r}")
    power = int(power)
    if power > POWER_CAP:
        raise InvalidPower(f"power {power} exceeds the cap {POWER_CAP}")
    return IdentitySet(pres, "de_moivre", power, _expand(pres, {"a": power}))


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
