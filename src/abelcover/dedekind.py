"""Generalized Dedekind sums, exactly.

The sum phi_{h+dZ}(s) is defined over the nonzero residues k modulo d by

    sum_k e(ks/d) / ((1 - e(kh/d)) (1 - e(-k/d))),

a rational number even though no single term is.  The exact evaluator
uses the equivalent real form

    d * sum_{u=0}^{d-1} (u/d - (d-1)/(2d)) ({(hu+s)/d} - (d-1)/(2d)),

which clears denominators to the integer expression

    sum_{u=0}^{d-1} (2u - d + 1) (2 ((hu+s) mod d) - d + 1)   over   4d,

so the whole computation is integer arithmetic with a single Fraction at
the end.  Only T(0) = 4d phi(0) is summed so; the shift law below walks
s = 0, h, 2h, ... mod d from there in O(d), with no cache.  Keys are
normalized to 0 <= h, s < d with gcd(h, d) = 1; d = 1 gives phi = 0.

Known laws, all exercised by the test suite: the shift law
phi(s+h) = phi(s) + s - (d-1)/2, the reciprocity recursion lowering d to
d mod h, the closed form (d^2 - 1 - 6s(d-s))/12 at h = 1, the zero sum
over s, the bridge phi(0) = d s(h,d) + (d-1)/4 to the classical Dedekind
sum, invariance under h -> h^{-1}, s -> -h^{-1} s, and the four-case
integrality pattern of phi modulo 1.  The defining complex sum (in
floating point), the classical sum and the integrality classes are not
part of the library; they are test oracles in tests/oracles.py.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError

__all__ = [
    "PhiKey",
    "phi_exact",
]


@dataclass(frozen=True)
class PhiKey:
    """A normalized argument triple (d, h, s) with d >= 1, 0 <= h < d,
    0 <= s < d and gcd(h, d) = 1.  For d = 1 the key is (1, 0, 0)."""

    d: int
    h: int
    s: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError(f"modulus d must be positive, got {self.d}")
        if not 0 <= self.h < self.d:
            raise DomainError(f"h={self.h} is not normalized modulo d={self.d}")
        if not 0 <= self.s < self.d:
            raise DomainError(f"s={self.s} is not normalized modulo d={self.d}")
        if gcd(self.h, self.d) != 1:
            raise DomainError(
                f"h={self.h} must be a unit modulo d={self.d}")

    @classmethod
    def of(cls, d: int, h: int, s: int) -> "PhiKey":
        """Normalize arbitrary integers h, s modulo d."""
        if d < 1:
            raise DomainError(f"modulus d must be positive, got {d}")
        return cls(d, h % d, s % d)


def _phi_walk(d: int, h: int) -> Iterator[tuple[int, int]]:
    """(s, T(s)) with T = 4d phi_{h+dZ}, for s = 0, h, 2h, ... mod d: T(0)
    from the real form, then T(s+h) = T(s) + 4ds - 2d(d-1), s in [0, d)."""
    shift, s = d - 1, 0
    t = sum((2 * u - shift) * (2 * (h * u % d) - shift) for u in range(d))
    for _ in range(d):
        yield s, t
        t += 4 * d * s - 2 * d * shift
        s = (s + h) % d


def phi_exact(key: PhiKey) -> Fraction:
    """The exact rational value of phi_{h+dZ}(s), read off the walk."""
    return next(Fraction(t, 4 * key.d) for s, t in _phi_walk(key.d, key.h)
                if s == key.s)
