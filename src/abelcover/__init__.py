"""Exact arithmetic for abelian covers of the sphere.

The package enumerates the non-special invariant divisors of a branched
abelian cover, evaluates the generalized Dedekind sums that govern their
quadrilateral exponents, and assembles integral Thomae exponent tables.
Everything is exact: every result is a Fraction or an int, the library
has no floating point, and it needs nothing outside the standard
library.
"""

from .cover import (BranchPoint, BranchSite, CoverInvariants, CoverSpec,
                    validate)
from .dedekind import PhiKey, phi_exact
from .divisors import (DEFAULT_NODE_CAP, InvariantDivisor, chi_action,
                       enumerate_nonspecial, enumerate_orbits, is_nonspecial,
                       make_divisor, orbit)
from .errors import (AbelcoverError, ConsistencyError, DisconnectedCoverError,
                     DomainError, InvalidCoverError, MalformedDataError,
                     NoSolutionError, ParseError, ResourceCapError)
from .exponents import ExponentTable, exponent_table, thomae_exponent
from .group_core import (AbelianGroup, Character, GroupElement, dual_group,
                         element_order, intersection_data, pairing_u)
from .polykernel import (KernelSolution, UniPoly, build_pchichi,
                         solve_polexist)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "GroupElement", "Character",
    "element_order", "pairing_u", "dual_group", "intersection_data",
    "BranchPoint", "BranchSite", "CoverSpec", "CoverInvariants", "validate",
    "PhiKey", "phi_exact",
    "InvariantDivisor", "DEFAULT_NODE_CAP", "make_divisor", "is_nonspecial",
    "enumerate_nonspecial", "enumerate_orbits", "chi_action", "orbit",
    "ExponentTable", "thomae_exponent", "exponent_table",
    "UniPoly", "KernelSolution", "solve_polexist", "build_pchichi",
    "AbelcoverError", "MalformedDataError", "DomainError",
    "InvalidCoverError", "DisconnectedCoverError", "ConsistencyError",
    "ResourceCapError", "NoSolutionError", "ParseError",
    "__version__",
]
