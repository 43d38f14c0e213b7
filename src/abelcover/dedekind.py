"""Generalized Dedekind sums, exactly.

The sum phi_{h+dZ}(s) is defined over the nonzero residues k modulo d by

    sum_k e(ks/d) / ((1 - e(kh/d)) (1 - e(-k/d))),

a rational number even though no single term is.  Keys are normalized to
0 <= h, s < d with gcd(h, d) = 1; d = 1 gives phi = 0.  The library
evaluates T = 4d phi, an integer, by the reciprocity law

    phi_{h+dZ}(s) = (d^2 + h^2 + 3hd - 3d - 3h + 1 - 6s(d+h-1-s)) / (12h)
                    - (d/h) phi_{(d mod h)+hZ}(s mod h),

which runs (d, h, s) down the Euclid chain to d = 1 and climbs back in
O(log d) integer steps, each division checked exact; phi_exact returns
T / 4d as the one Fraction; _phi_walk steps T(0) along the shift law.

Other known laws, all exercised by the test suite: the shift law
phi(s+h) = phi(s) + s - (d-1)/2, the closed form (d^2 - 1 - 6s(d-s))/12
at h = 1, the zero sum over s, the bridge phi(0) = d s(h,d) + (d-1)/4 to
the classical Dedekind sum, invariance under h -> h^{-1},
s -> -h^{-1} s, and the four-case integrality pattern of phi modulo 1.
The defining complex sum (in floating point), its real form
4d phi(s) = sum_{u<d} (2u - d + 1) (2 ((hu+s) mod d) - d + 1), the
classical sum and the integrality classes are not part of the library;
they are test oracles in tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (ConsistencyError, DomainError, MalformedDataError,
                     _read_only)

__all__ = [
    "PhiKey",
    "phi_exact",
]


class PhiKey:
    """A normalized argument triple (d, h, s) with d >= 1, 0 <= h < d,
    0 <= s < d and gcd(h, d) = 1.  For d = 1 the key is (1, 0, 0).  Each
    field must be an int (not a bool); nothing is converted."""

    __slots__ = ("d", "h", "s")
    d: int
    h: int
    s: int

    def __init__(self, d: int, h: int, s: int) -> None:
        for name, x in (("d", d), ("h", h), ("s", s)):
            if type(x) is not int:
                raise MalformedDataError(f"{name}={x!r} is not an int")
        if d < 1:
            raise DomainError(f"modulus d must be positive, got {d}")
        if not 0 <= h < d:
            raise DomainError(f"h={h} is not normalized modulo d={d}")
        if not 0 <= s < d:
            raise DomainError(f"s={s} is not normalized modulo d={d}")
        if gcd(h, d) != 1:
            raise DomainError(f"h={h} must be a unit modulo d={d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "s", s)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d, self.h, self.s) == (other.d, other.h, other.s)

    def __hash__(self) -> int:
        return hash((self.d, self.h, self.s))

    def __repr__(self) -> str:
        return f"PhiKey(d={self.d!r}, h={self.h!r}, s={self.s!r})"

    def __reduce__(self):
        return PhiKey, (self.d, self.h, self.s)

    @classmethod
    def of(cls, d: int, h: int, s: int) -> "PhiKey":
        """Normalize arbitrary integers h, s modulo d."""
        if any(type(x) is not int for x in (d, h, s)) or d < 1:
            cls(d, h, s)  # refused there, before True % 5 or h % 0 runs
        return cls(d, h % d, s % d)


def _phi_t(d: int, h: int, s: int) -> int:
    """T = 4d phi_{h+dZ}(s) for a normalized key, by the reciprocity law:
    T = d (h N - 3d T') / (3h^2), with N its numerator and T' the value
    at (h, d mod h, s mod h)."""
    chain = []
    while d > 1:
        chain.append((d, h, s))
        d, h, s = h, d % h, s % h
    t = 0
    for d, h, s in reversed(chain):
        n = d * d + h * h + 3 * h * d - 3 * d - 3 * h + 1 \
            - 6 * s * (d + h - 1 - s)
        t, rest = divmod(d * (h * n - 3 * d * t), 3 * h * h)
        if rest:
            raise ConsistencyError(
                f"reciprocity step at d={d}, h={h}, s={s} is not integral")
    return t


def _phi_walk(d: int, h: int) -> list[int]:
    """T(s) = 4d phi_{h+dZ}(s) for s = 0 .. d-1 of a normalized (d, h),
    by the shift law T(s+h mod d) = T(s) + 4ds - 2d(d-1) from T(0); as h
    is a unit, the walk s = 0, h, 2h, ... meets every residue once."""
    row, t, s = [0] * d, _phi_t(d, h, 0), 0
    for _ in range(d):
        row[s] = t
        t += 4 * d * s - 2 * d * (d - 1)
        s = (s + h) % d
    return row


def phi_exact(key: PhiKey) -> Fraction:
    """The exact rational value of phi_{h+dZ}(s)."""
    return Fraction(_phi_t(key.d, key.h, key.s), 4 * key.d)
