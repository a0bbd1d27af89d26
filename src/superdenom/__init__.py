"""Exact verification of the Weyl denominator identity for gl, osp and q.

The package builds normalized root data for the basic classical
families, enumerates simple systems and admissible pairs through odd
reflections, draws and canonicalizes their bow diagrams, and compares
both sides of the denominator identity as truncated series with exact
integer coefficients.  See the README for the command-line interface.
"""

from .errors import (DomainError, ResourceLimitError, StructuralError,
                     ValidationError)
from .roots import RootSystem, SuperType, build
from .simple import (AdmissiblePair, SimpleSystem, derive, make_pair,
                     odd_reflection, pair_odd_reflection, second_type_move,
                     standard_pair)
from .weights import Weight, bilinear_form

__version__ = "1.0.0"

__all__ = [
    "AdmissiblePair",
    "DomainError",
    "ResourceLimitError",
    "RootSystem",
    "SimpleSystem",
    "StructuralError",
    "SuperType",
    "ValidationError",
    "Weight",
    "bilinear_form",
    "build",
    "derive",
    "make_pair",
    "odd_reflection",
    "pair_odd_reflection",
    "second_type_move",
    "standard_pair",
    "__version__",
]
