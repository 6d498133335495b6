"""Generalized trigonometry over principal real algebras R[k]/<p(k)>.

Arithmetic modulo a monic polynomial, the regular representation and its
determinant (the Pythagorean function), exponential/logarithm/polar form
with branch control, and exact generation of adding-angle and De Moivre
identities for the component functions of exp(k z).
"""

from . import errors
from .core import (
    AlgebraElement,
    PrincipalPresentation,
    UNIT_TOLERANCE,
    depress,
    element_literal,
    invert,
    make_presentation,
    mul,
    parse_element,
    preset,
    pythagorean,
    rep_matrix,
    shift_element,
)
from .identities import (
    IdentitySet,
    SymPoly,
    TrigSymbol,
    VerificationReport,
    adding_angle,
    de_moivre,
    de_moivre_powers,
    parse_identities_json,
    render,
    verify_identity,
)
from .spectral import (
    ComponentVector,
    SpectralDecomposition,
    find_roots,
    from_components,
    to_components,
)
from .transcendental import (
    BranchSpec,
    PolarForm,
    SeriesPolicy,
    arg,
    exp,
    log,
    modulus,
    polar,
    trig_components,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BranchSpec",
    "ComponentVector",
    "IdentitySet",
    "PolarForm",
    "PrincipalPresentation",
    "SeriesPolicy",
    "SpectralDecomposition",
    "SymPoly",
    "TrigSymbol",
    "UNIT_TOLERANCE",
    "VerificationReport",
    "adding_angle",
    "arg",
    "de_moivre",
    "de_moivre_powers",
    "depress",
    "element_literal",
    "errors",
    "exp",
    "find_roots",
    "from_components",
    "invert",
    "log",
    "make_presentation",
    "modulus",
    "mul",
    "parse_element",
    "parse_identities_json",
    "polar",
    "preset",
    "pythagorean",
    "render",
    "rep_matrix",
    "shift_element",
    "to_components",
    "trig_components",
    "verify_identity",
]
