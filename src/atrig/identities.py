"""Exact symbolic adding-angle and De Moivre identities.

Expanding exp(k(a+b)) = exp(ka) exp(kb) or exp(k l a) = exp(ka)^l over the
power basis and reducing modulo the modulus polynomial yields, for each
component function s_i, a polynomial identity with exact rational
coefficients: by the multinomial theorem, each coefficient is a multinomial
count times one coordinate of a reduced power of k.  This module generates
those identities from a table of monomials, counts and gather indices per
shape, with the reduced powers of k worked out in integers (every finite
double is an integer over a power of two).  A generated set certifies from
a dense form whose coefficients are divided straight from those integers,
from one stacked exponential per presentation and, per set, one gather,
product and matmul; its ``Fraction`` formulas are made only when read, for
rendering, comparison and tests.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations_with_replacement, compress, groupby, product
from operator import or_
from typing import NamedTuple

import numpy as np

from .core import PrincipalPresentation, _is_integer, _shown
from .errors import InvalidArgument, InvalidPower, NonRationalCoefficients
from .transcendental import trig_components

#: Ceiling on the De Moivre power, bounding term explosion.
POWER_CAP = 12
#: Ceiling on monomials times degree, bounding an expansion to about a second.
EXPANSION_CAP = 100_000

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
    def _canonical(cls, terms: dict) -> "SymPoly":
        """``terms`` as given: sorted distinct monomials, nonzero Fractions."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

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


@dataclass(frozen=True, init=False)
class IdentitySet:
    """The n component identities for one algebra and one expansion kind.

    ``formulas[i]`` expresses s_{i+1}(alpha+beta) (adding angle) or
    s_{i+1}(power*alpha) (De Moivre) in the trig symbols.  A set built as
    ``IdentitySet(presentation, kind, power, formulas)`` holds its formulas;
    one from ``adding_angle`` or ``de_moivre`` holds its expansion, the shape
    table and the integer powers of k, and makes its formulas when they are
    first read.  Equality and hashing compare the formulas.
    """

    presentation: PrincipalPresentation
    kind: str  # "adding_angle" | "de_moivre"
    power: int | None
    formulas: tuple[SymPoly, ...]

    def __init__(self, presentation, kind, power, formulas):
        vars(self).update(
            presentation=presentation, kind=kind, power=power, formulas=formulas, _expansion=None
        )

    @classmethod
    def _generated(cls, presentation, kind, power, expansion: tuple) -> "IdentitySet":
        """A set of the expansion ``(shape table, powers of k)``, formulas unmade."""
        ids = cls.__new__(cls)
        vars(ids).update(presentation=presentation, kind=kind, power=power, _expansion=expansion)
        return ids

    @cached_property
    def formulas(self) -> tuple[SymPoly, ...]:
        # Read only where __init__ left no formulas, so on generated sets.
        return _expansion_formulas(*self._expansion)

    @cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        """The formulas as read-only arrays over a value table
        ``[s(alpha) | s(beta) | 1]`` of one sampled row per case
        (``[s(alpha) | 1]`` for De Moivre), built on first certification:
        from the expansion's integers for a generated set, from the set's own
        terms otherwise, so that a parsed set is certified as it renders.

        Monomial t is the product of the table columns ``index[t]``, padded
        with -1, the column of ones; formula i is ``sum_t coeffs[t, i]`` times
        it.  Each coefficient is the correctly rounded double of its exact
        rational; one past the largest double, or a symbol the set's kind has
        no column for, raises ``InvalidArgument``.
        """
        if self._expansion is not None:
            return _expansion_dense(*self._expansion)
        return _formulas_dense(self)

    def _dense_values(self, table: np.ndarray) -> np.ndarray:
        """All formulas at each row of ``table``: one column per formula."""
        index, coeffs = self._dense
        # A product over the degree axis, one gathered column at a time, so
        # that only (rows, terms) values are ever held.
        values = table[:, index[:, 0]]
        for column in index.T[1:]:
            values *= table[:, column]
        return values @ coeffs


def _coefficients(rows, formulas: int) -> np.ndarray:
    """The (rows, formulas) doubles whose row t is ``numerators / denominator``
    of ``rows[t]``.  Python int true division rounds correctly, so each
    coefficient is the double nearest its rational, whichever integers feed it."""
    try:
        coeffs = np.array([a / d for numerators, d in rows for a in numerators], dtype=float)
    except OverflowError:
        raise InvalidArgument("a coefficient exceeds the largest double") from None
    return coeffs.reshape(len(rows), formulas)


def _dense_form(index: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dense form of gather ``index`` and ``coeffs``, both made read-only."""
    index.flags.writeable = coeffs.flags.writeable = False
    return index, coeffs


def _expansion_dense(shape: _Shape, powers: list) -> tuple[np.ndarray, np.ndarray]:
    """The dense form of an expansion: entry (t, i) is ``count_t * a_i / 2**e``
    for ``(a, e)`` the power of k at term t's index sum.  A row is kept where
    that power is not zero, and rows are ordered first by the first formula
    the term appears in, then in shape order, as the terms of the formulas
    would order them.  A row depends only on the term's (count, index sum),
    so each of the shape's ``pairs`` is divided out once and its row
    gathered for every term that shares it.  A pair whose power of k is
    zero gives a zero row that no kept term gathers: dividing its zeros
    costs less than sorting it out."""
    n = len(powers[0][0])
    # The first nonzero coordinate of each pair's power of k, n for a zero power.
    leads = [next(compress(range(n), powers[degree][0]), n) for _, degree in shape.pairs]
    keys = np.array(leads)[shape.pair_of]
    order = np.argsort(keys, kind="stable")[: np.count_nonzero(keys < n)]
    rows = [([count * a for a in powers[d][0]], 1 << powers[d][1]) for count, d in shape.pairs]
    return _dense_form(shape.index[order], _coefficients(rows, n)[shape.pair_of[order]])


def _formulas_dense(ids: IdentitySet) -> tuple[np.ndarray, np.ndarray]:
    """The dense form of a set's own terms, rows in order of first appearance,
    each row's rationals put over their least common denominator."""
    n, tags = ids.presentation.degree, "ab" if ids.kind == "adding_angle" else "a"
    columns = {TrigSymbol(t, i + 1): p * n + i for p, t in enumerate(tags) for i in range(n)}
    rows: dict = {}  # monomial -> its row of coefficients
    index = []
    for i, formula in enumerate(ids.formulas):
        for mono, q in formula._terms.items():
            row = rows.get(mono)
            if row is None:
                try:
                    index.append([columns[sym] for sym in mono])
                except KeyError as missing:
                    name = missing.args[0].name
                    raise InvalidArgument(f"{name} is not an argument of the set") from None
                row = rows[mono] = [Fraction(0)] * len(ids.formulas)
            row[i] = q
    width = max(map(len, index), default=0) or 1
    index = np.array([cols + [-1] * (width - len(cols)) for cols in index], dtype=np.intp)
    common = []
    for row in rows.values():
        d = math.lcm(*(q.denominator for q in row))
        common.append(([q.numerator * (d // q.denominator) for q in row], d))
    return _dense_form(index.reshape(len(rows), width), _coefficients(common, len(ids.formulas)))


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


def _powers_of_k(coeffs, top: int) -> list[tuple[list[int], int]]:
    """Exact coordinates of k^0, ..., k^top reduced modulo the modulus whose
    coefficients are the finite doubles ``coeffs``.

    Power d is ``(a, e)``: its coordinate j is the integer ``a[j]`` over
    ``2**e``, with ``e`` as small as it can be.  Every finite double is an
    integer over a power of two, so with c_j = f_j / 2**s the powers stay
    integers: each is the one before it times k, shifted one place up, with
    the k^n that falls off the top folded back through k^n = -sum c_j k^j
    (the recurrence behind the float tables of ``core._rep_table``),
    which scales the power by 2**s.
    """
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    shift = max(den.bit_length() for _, den in ratios) - 1
    folds = [
        (j, -num << (shift - den.bit_length() + 1)) for j, (num, den) in enumerate(ratios) if num
    ]
    column, exponent = [1] + [0] * (len(coeffs) - 1), 0
    powers = [(column, exponent)]
    for _ in range(top):
        carry = column[-1]
        column = [0] + column[:-1]
        if carry:
            column = [x << shift for x in column]
            for j, f in folds:
                column[j] += f * carry
            exponent += shift
            if exponent:  # cancel the factors of two that every coordinate shares
                bits = reduce(or_, column)
                low = min(exponent, (bits & -bits).bit_length() - 1)
                column, exponent = [x >> low for x in column], exponent - low
        powers.append((column, exponent))
    return powers


def _multinomial(pick: tuple[int, ...]) -> int:
    """Number of orderings of a sorted multiset."""
    repeats = (math.factorial(len(list(run))) for _, run in groupby(pick))
    return math.factorial(len(pick)) // math.prod(repeats)


class _Shape(NamedTuple):
    """The terms of one expansion shape: monomial t is ``monomials[t]``, with
    multinomial count ``counts[t]``, index sum ``degrees[t]`` and the columns
    ``index[t]`` of the value table ``[s(alpha) | s(beta) | 1]`` it multiplies.
    Its (count, index sum) is ``pairs[pair_of[t]]``: ``pairs`` holds each
    distinct one once, in order of its first term."""

    monomials: tuple[tuple[TrigSymbol, ...], ...]
    counts: tuple[int, ...]
    degrees: tuple[int, ...]
    index: np.ndarray  # read-only, (terms, total degree)
    pairs: tuple[tuple[int, int], ...]
    pair_of: np.ndarray  # read-only, (terms,)


@lru_cache(maxsize=32)
def _shape_table(n: int, powers: tuple[tuple[str, int], ...]) -> _Shape:
    """The terms of the product over (tag, power) of exp(k tag)^power at degree n,
    exp(k tag) = sum_i s_{i+1}(tag) k^i: one sorted monomial per choice of a
    multiset of indices per tag, in canonical order."""
    symbols = {tag: [TrigSymbol(tag, i + 1) for i in range(n)] for tag, _ in powers}
    monomials, counts, degrees, index = [], [], [], []
    for picks in product(*(combinations_with_replacement(range(n), p) for _, p in powers)):
        monomials.append(
            tuple(symbols[tag][i] for (tag, _), pick in zip(powers, picks) for i in pick)
        )
        counts.append(math.prod(map(_multinomial, picks)))
        degrees.append(sum(map(sum, picks)))
        index.append([p * n + i for p, pick in enumerate(picks) for i in pick])
    index = np.array(index, dtype=np.intp)
    places: dict = {}  # (count, index sum) -> its place in pairs
    pair_of = np.array([places.setdefault(pair, len(places)) for pair in zip(counts, degrees)])
    index.flags.writeable = pair_of.flags.writeable = False
    return _Shape(tuple(monomials), tuple(counts), tuple(degrees), index, tuple(places), pair_of)


def _expansion_formulas(shape: _Shape, powers: list) -> tuple[SymPoly, ...]:
    """The formulas of an expansion: formula i has each monomial's count times
    coordinate i of k^(its index sum), each coordinate reduced once."""
    top = max(shape.degrees)
    reduced = [[Fraction(a, 1 << exponent) for a in column] for column, exponent in powers[: top + 1]]
    formulas: list[dict] = [{} for _ in powers[0][0]]
    for mono, count, degree in zip(shape.monomials, shape.counts, shape.degrees):
        for formula, q in zip(formulas, reduced[degree]):
            if q:
                formula[mono] = count * q
    return tuple(SymPoly._canonical(terms) for terms in formulas)


def _expand(
    pres: PrincipalPresentation, kind: str, power: int | None, refusal: type, k_powers
) -> IdentitySet:
    """The set of the product over tags of exp(k tag)^power, with the reduced
    powers of k ``k_powers`` when given (``_powers_of_k`` at least up to the
    expansion's top index sum) and worked out here otherwise.  Raises
    ``refusal`` when the monomial count times n passes ``EXPANSION_CAP``."""
    coeffs = pres.modulus_coeffs
    bad = [c for c in coeffs if not math.isfinite(c)]
    if bad:
        raise NonRationalCoefficients(f"coefficient {bad[0]!r} has no rational value")
    n = len(coeffs)
    powers = {"a": 1, "b": 1} if kind == "adding_angle" else {"a": power}
    size = n * math.prod(math.comb(n + p - 1, p) for p in powers.values())
    if size > EXPANSION_CAP:
        raise refusal(f"expansion size {size} (monomials times degree) exceeds {EXPANSION_CAP}")
    if k_powers is None:
        k_powers = _powers_of_k(coeffs, (n - 1) * sum(powers.values()))
    shape = _shape_table(n, tuple(powers.items()))
    return IdentitySet._generated(pres, kind, power, (shape, k_powers))


def adding_angle(pres: PrincipalPresentation, *, _k_powers=None) -> IdentitySet:
    """Identities for s_i(alpha+beta), the coordinates of exp(k alpha) exp(k beta).

    ``_k_powers``, private and not checked, is the ``_powers_of_k`` table of
    the modulus up to at least 2(n - 1), so that the sets of one
    presentation share one table."""
    return _expand(pres, "adding_angle", None, InvalidArgument, _k_powers)


def de_moivre(pres: PrincipalPresentation, power: int, *, _k_powers=None) -> IdentitySet:
    """Identities for s_i(power*alpha), the coordinates of exp(k alpha)^power.

    ``_k_powers`` is as for ``adding_angle``, up to at least power·(n - 1)."""
    if not _is_integer(power) or power < 1:
        raise InvalidPower(f"power must be a positive integer, got {_shown(power)}")
    power = int(power)
    if power > POWER_CAP:
        raise InvalidPower(f"power {_shown(power)} exceeds the cap {POWER_CAP}")
    return _expand(pres, "de_moivre", power, InvalidPower, _k_powers)


def _draw_angles(ids: IdentitySet, samples: int, seed: int) -> tuple[np.ndarray, ...]:
    """alpha, beta, alpha+beta or alpha, power*alpha; alpha, beta from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(-2.0, 2.0, samples)
    if ids.kind == "adding_angle":
        betas = rng.uniform(-2.0, 2.0, samples)
        return alphas, betas, alphas + betas
    if ids.kind == "de_moivre":
        return alphas, ids.power * alphas
    raise InvalidArgument(f"unknown identity kind {ids.kind!r}")


def _verify_sets(sets: list, seeds: list, samples: int, tol: float) -> list[VerificationReport]:
    """The report of each set of one presentation, set i sampled from ``seeds[i]``,
    from one stacked exponential whose rows each equal the exponential alone
    and, per set, one evaluation of its dense form."""
    angles = [_draw_angles(ids, samples, seed) for ids, seed in zip(sets, seeds)]
    pres = sets[0].presentation
    comps = trig_components(pres, 1, np.stack([a for drawn in angles for a in drawn]))
    ones = np.ones((samples, 1))
    reports, start = [], 0
    for ids, drawn in zip(sets, angles):
        *sides, lhs = comps[start : start + len(drawn)]
        start += len(drawn)
        rhs = ids._dense_values(np.concatenate([*sides, ones], axis=1))
        residuals = tuple(np.abs(lhs - rhs).max(axis=0, initial=0.0).tolist())
        passed = tuple(r <= tol for r in residuals)
        reports.append(VerificationReport(ids.kind, samples, tol, residuals, passed))
    return reports


def verify_identity(
    ids: IdentitySet, samples: int = 200, tol: float = 1e-9, seed: int = 0
) -> VerificationReport:
    """Certify an identity set by random sampling in [-2, 2].

    The left side is the exponential at the combined argument, the right
    side the formulas at sampled component values; reports the worst absolute
    residual per formula.  The one-set case of ``identities_suite``'s check.
    """
    return _verify_sets([ids], [seed], samples, tol)[0]


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
    coefficients with symbol tuples, in the canonical term order.  A
    coefficient past Python's limit on the digits of an int converted to a
    string raises ``InvalidArgument``; the limit itself is left as it is.
    """
    if format not in ("latex", "json"):
        raise InvalidArgument(f"unknown render format {_shown(format)}")
    try:
        if format == "latex":
            names = _symbol_latex_names(ids.presentation)
            argument = _latex_lhs_argument(ids)
            lines = []
            for i, formula in enumerate(ids.formulas):
                lhs = f"{names[i]}{argument}"
                lines.append(rf"\[ {lhs} = {_latex_formula(formula, names)} \]")
            return "\n".join(lines)
        payload = {
            f"s{i + 1}": [
                [_coefficient_json(q), [sym.name for sym in mono]]
                for mono, q in formula.terms()
            ]
            for i, formula in enumerate(ids.formulas)
        }
        return json.dumps(payload)
    except ValueError as exc:  # the only one raised here is the int-to-string limit
        raise InvalidArgument(f"a coefficient is too long to render: {exc}") from None


def parse_identities_json(
    text: str,
    pres: PrincipalPresentation,
    kind: str,
    power: int | None = None,
) -> IdentitySet:
    """Inverse of ``render(..., "json")`` given the owning context.  Text that
    is not such a rendering (not JSON, a formula missing, a bad symbol name,
    a coefficient that is not a finite rational) raises ``InvalidArgument``."""
    try:
        data = json.loads(text)
        formulas = []
        for i in range(pres.degree):
            terms: dict[tuple[TrigSymbol, ...], Fraction] = {}
            for coeff, names in data[f"s{i + 1}"]:
                mono = tuple(_parse_symbol(name) for name in names)
                terms[mono] = terms.get(mono, Fraction(0)) + Fraction(coeff)
            formulas.append(SymPoly(terms))
    except (ValueError, KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidArgument(f"malformed identity JSON: {type(exc).__name__}: {exc}") from None
    return IdentitySet(pres, kind, power, tuple(formulas))
