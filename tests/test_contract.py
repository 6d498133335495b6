"""The public surface's contract: every call ends in a finite answer or a
typed ``AlgebraError``, with no warning and no traceback.

Presentations are presets or random moduli of degree 1-32; coordinates are
special values (signed zeros and ones, subnormals, the edges of the double
range, NaN, infinities) or uniform values scaled by 10^+-300.  Only
``pythagorean`` may answer inf or NaN: it returns the determinant as it
comes out, which the benchmark's checks read.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atrig
from atrig import cli
from atrig.core import AlgebraElement, PrincipalPresentation
from atrig.errors import AlgebraError
from atrig.spectral import ComponentVector, SpectralDecomposition
from atrig.transcendental import PolarForm

# Every warning is an error, save a deprecation in one of hypothesis's own
# dependencies that its reporting can raise while it prints a falsifying
# example, which would otherwise hide the example.
STRICT = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

SPECIAL = (
    0.0, -0.0, 1.0, -1.0, 5e-324, 1e-320, 1e154, 1e-154, 1e300, 1e-300,
    1e308, -1e308, 2.0**1023, math.nan, math.inf, -math.inf,
)

scaled = st.builds(
    lambda u, e: u * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 300)
)
values = st.one_of(st.sampled_from(SPECIAL), scaled)
finite_values = values.filter(math.isfinite)


@st.composite
def presentations(draw):
    n = draw(st.integers(1, 32))
    if draw(st.booleans()):
        return atrig.preset(draw(st.sampled_from(atrig.core.PRESET_KINDS)), n)
    return atrig.make_presentation(draw(st.lists(finite_values, min_size=n, max_size=n)))


@st.composite
def elements(draw, pres=None):
    pres = pres if pres is not None else draw(presentations())
    return pres.element(draw(st.lists(values, min_size=pres.degree, max_size=pres.degree)))


@st.composite
def element_pairs(draw):
    z = draw(elements())
    return z, draw(elements(z.presentation))


def _assert_finite(result):
    if isinstance(result, AlgebraElement):
        _assert_finite(result.coords)
    elif isinstance(result, PrincipalPresentation):
        _assert_finite(result.modulus_coeffs)
    elif isinstance(result, PolarForm):
        _assert_finite((result.rho, result.arg))
    elif isinstance(result, SpectralDecomposition):
        _assert_finite((result.real_roots, result.complex_roots))
    elif isinstance(result, ComponentVector):
        _assert_finite((result.real_parts, result.complex_parts))
    elif isinstance(result, tuple):
        for part in result:
            _assert_finite(part)
    else:
        assert np.isfinite(np.asarray(result)).all(), result


def _components(draw, dec):
    reals = draw(st.lists(values, min_size=dec.real_count, max_size=dec.real_count))
    pairs = st.tuples(values, values).map(lambda p: complex(*p))
    return ComponentVector(
        tuple(reals),
        tuple(draw(st.lists(pairs, min_size=dec.complex_count, max_size=dec.complex_count))),
    )


OPERATORS = {
    "+": lambda z, w, s: z + w,
    "-": lambda z, w, s: z - w,
    "neg": lambda z, w, s: -z,
    "*": lambda z, w, s: z * w,
    "* scalar": lambda z, w, s: z * s,
    "scalar *": lambda z, w, s: s * z,
    "/": lambda z, w, s: z / s,
}


def _operator(draw):
    z, w = draw(element_pairs())
    return OPERATORS[draw(st.sampled_from(sorted(OPERATORS)))](z, w, draw(values))


def _shift_element(draw):
    z = draw(elements())
    return atrig.shift_element(z, draw(values), z.presentation)


def _trig_components(draw):
    pres = draw(presentations())
    return atrig.trig_components(pres, draw(st.integers(0, 32)), draw(values))


def _to_components(draw):
    z = draw(elements())
    return atrig.to_components(z, atrig.find_roots(z.presentation))


def _from_components(draw):
    dec = atrig.find_roots(draw(presentations()))
    return atrig.from_components(_components(draw, dec), dec)


# Each entry draws its inputs and makes one call; find_roots may refuse the
# modulus before a component map is reached.
CALLS = {
    "rep_matrix": lambda draw: atrig.rep_matrix(draw(elements())),
    "mul": lambda draw: atrig.mul(*draw(element_pairs())),
    "pythagorean": lambda draw: atrig.pythagorean(draw(elements())),
    "invert": lambda draw: atrig.invert(draw(elements())),
    "operators": _operator,
    "depress": lambda draw: atrig.depress(draw(presentations())),
    "shift_element": _shift_element,
    "exp": lambda draw: atrig.exp(draw(elements())),
    "trig_components": _trig_components,
    "modulus": lambda draw: atrig.modulus(draw(elements())),
    "log": lambda draw: atrig.log(draw(elements())),
    "arg": lambda draw: atrig.arg(draw(elements())),
    "polar": lambda draw: atrig.polar(draw(elements())),
    "find_roots": lambda draw: atrig.find_roots(draw(presentations())),
    "to_components": _to_components,
    "from_components": _from_components,
}


@STRICT
@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_call_answers_finite_or_refuses(name, data):
    try:
        result = CALLS[name](data.draw)
    except AlgebraError:
        return
    if name == "pythagorean":  # the determinant as it comes out
        assert isinstance(result, float)
    else:
        _assert_finite(result)


# An int past Python's limit on converting ints to strings (4300 digits).
HUGE = 10**5000
H3 = atrig.preset("hyperbolic", 3)

PAST_THE_DIGIT_LIMIT = {
    "trig_components m": lambda: atrig.trig_components(H3, HUGE, 0.5),
    "trig_components theta": lambda: atrig.trig_components(H3, 1, HUGE),
    "de_moivre": lambda: atrig.de_moivre(H3, HUGE),
    "generator": lambda: H3.generator(HUGE),
    "BranchSpec": lambda: atrig.BranchSpec((HUGE,)),
    "element": lambda: H3.element([HUGE, 0, 0]),
    "make_presentation": lambda: atrig.make_presentation([HUGE, 0]),
    "scalar product": lambda: H3.one() * HUGE,
    "preset": lambda: atrig.preset("hyperbolic", HUGE),
}


@STRICT
@pytest.mark.parametrize("name", PAST_THE_DIGIT_LIMIT)
def test_an_int_past_the_digit_limit_is_refused_and_shown_by_its_digit_count(name):
    with pytest.raises(AlgebraError, match="<int of 5001 digits>") as excinfo:
        PAST_THE_DIGIT_LIMIT[name]()
    if name == "preset":
        assert isinstance(excinfo.value, atrig.errors.InvalidDegree)


def _literal(coords):
    return ",".join(repr(float(x)) for x in coords)


@st.composite
def argvs(draw):
    pres = draw(presentations())
    algebra = pres.label or _literal(pres.modulus_coeffs)
    command = draw(st.sampled_from(["exp", "pyth", "log", "arg", "polar", "trig", "roots"]))
    if command == "trig":
        rest = ["--m", str(draw(st.integers(0, 4))), "--theta", repr(draw(values))]
    elif command == "roots":
        rest = []
    else:
        count = draw(st.sampled_from([pres.degree, pres.degree, pres.degree + 1]))
        rest = ["--z", _literal(draw(st.lists(values, min_size=count, max_size=count)))]
    fmt = draw(st.sampled_from(["json", "csv"]))
    return ["--algebra", algebra, command, *rest, "--format", fmt]


def _strict(line):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=refuse)


@STRICT
@settings(max_examples=40, deadline=None)
@given(argv=argvs())
def test_cli_exits_with_a_documented_status(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        return
    assert len(err.getvalue().splitlines()) == 1
    if code == 3 or argv[-1] == "json":
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        _strict(lines[0])
