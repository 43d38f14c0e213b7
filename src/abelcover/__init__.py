"""Exact arithmetic for abelian covers of the sphere.

The package enumerates the non-special invariant divisors of a branched
abelian cover, evaluates the generalized Dedekind sums that govern their
quadrilateral exponents, and assembles integral Thomae exponent tables.
Everything is exact: every result is a Fraction or an int, the library
has no floating point, and it needs nothing outside the standard
library.  The public names are those of each module's __all__.
"""

from . import (cover, dedekind, divisors, errors, exponents, group_core,
               polykernel)
from .cover import *
from .dedekind import *
from .divisors import *
from .errors import *
from .exponents import *
from .group_core import *
from .polykernel import *

__version__ = "0.1.0"

__all__ = [name for module in (group_core, cover, dedekind, divisors,
                               exponents, polykernel, errors)
           for name in module.__all__] + ["__version__"]
