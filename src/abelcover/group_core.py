"""Finite abelian groups given as explicit products of cyclic factors.

A group is described by its factor orders (m_1, ..., m_q); elements and
characters are both residue vectors taken modulo those orders.  A
character chi = (e_1, ..., e_q) pairs with an element s = (d_1, ..., d_q)
through the rational number

    sum_l e_l d_l / m_l   (mod 1),

which is always a multiple of 1/o(s), where o(s) is the order of s.  The
integer u with 0 <= u < o(s) and pairing value u/o(s) drives every later
construction, so it is computed here once and exactly.  Floating point is
banned from this module; everything is integer arithmetic.

The factor list is kept exactly as given.  No normalization to invariant
factors is performed, so Z_2 x Z_4 and Z_4 x Z_2 are distinct (isomorphic)
presentations and inputs match their fibered-product descriptions.

The GroupElement and Character constructors check a caller's residues.
A value this module generates (elements(), s + r, -s, k * s,
conjugate(), dual_group) has residues reduced mod the factor orders,
in range by construction, and _built makes it without that check.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .errors import (ConsistencyError, DomainError, MalformedDataError,
                     _sequence, _typed, _Value)

__all__ = [
    "AbelianGroup",
    "GroupElement",
    "Character",
    "element_order",
    "pairing_u",
    "dual_group",
    "intersection_data",
]


class AbelianGroup(_Value):
    """The product Z_{m_1} x ... x Z_{m_q}.

    The empty product is the trivial group.  Each factor order must be an
    int (not a bool) of at least 2; nothing is converted.
    """

    __slots__ = ("factor_orders",)
    factor_orders: tuple[int, ...]

    def __init__(self, factor_orders: Sequence[int]) -> None:
        orders = _sequence(factor_orders, "cyclic factor orders ")
        for m in orders:
            if _typed(m, int, "cyclic factor order ") < 2:
                raise MalformedDataError(
                    f"cyclic factor orders must be at least 2, got {m}")
        object.__setattr__(self, "factor_orders", orders)

    @property
    def order(self) -> int:
        """The number of elements n."""
        return prod(self.factor_orders)

    @property
    def exponent(self) -> int:
        """The exponent m, the lcm of the factor orders (1 for the trivial
        group)."""
        return lcm(*self.factor_orders) if self.factor_orders else 1

    def element(self, residues: Sequence[int]) -> "GroupElement":
        return GroupElement(self, residues)

    def character(self, residues: Sequence[int]) -> "Character":
        return Character(self, residues)

    def elements(self) -> Iterator["GroupElement"]:
        """All n elements in lexicographic residue order."""
        for residues in product(*(range(m) for m in self.factor_orders)):
            yield _built(GroupElement, self, residues)

    def __repr__(self) -> str:
        if not self.factor_orders:
            return "AbelianGroup(trivial)"
        return "AbelianGroup(%s)" % " x ".join(
            f"Z{m}" for m in self.factor_orders)


def _check_residues(group: AbelianGroup, residues: Sequence[int],
                    kind: str) -> tuple[int, ...]:
    """The residues as a tuple, each an int in range for its factor."""
    _typed(group, AbelianGroup, f"{kind} group ")
    residues = _sequence(residues, f"{kind} residues ")
    if len(residues) != len(group.factor_orders):
        raise MalformedDataError(
            f"{kind} has {len(residues)} residues for a group with "
            f"{len(group.factor_orders)} factors")
    what = f"{kind} residue "
    for r, m in zip(residues, group.factor_orders):
        if not 0 <= _typed(r, int, what) < m:
            raise MalformedDataError(f"{what}{r} out of range [0, {m})")
    return residues


class GroupElement(_Value):
    """An element of an AbelianGroup, stored as one int residue per
    factor; a bool or any other type is refused, not converted, and so
    is a multiplier k in k * s."""

    __slots__ = ("group", "residues")
    group: AbelianGroup
    residues: tuple[int, ...]

    def __init__(self, group: AbelianGroup, residues: Sequence[int]) -> None:
        residues = _check_residues(group, residues, "element")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "residues", residues)

    def is_identity(self) -> bool:
        return all(r == 0 for r in self.residues)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.group != self.group:
            raise MalformedDataError("cannot add elements of different groups")
        return _built(GroupElement, self.group, tuple(
            (a + b) % m for a, b, m in
            zip(self.residues, other.residues, self.group.factor_orders)))

    def __neg__(self) -> "GroupElement":
        return _built(GroupElement, self.group, tuple(
            (-r) % m for r, m in
            zip(self.residues, self.group.factor_orders)))

    def __mul__(self, k: int) -> "GroupElement":
        if type(k) is not int:
            return NotImplemented
        return _built(GroupElement, self.group, tuple(
            (r * k) % m for r, m in
            zip(self.residues, self.group.factor_orders)))

    __rmul__ = __mul__


class Character(_Value):
    """A character of an AbelianGroup.

    The int residue vector (e_1, ..., e_q) represents the homomorphism
    sending the l-th standard generator to e(e_l / m_l).  The conjugate
    character negates every residue.  A Character never equals the
    GroupElement with the same residues.
    """

    __slots__ = ("group", "residues")
    group: AbelianGroup
    residues: tuple[int, ...]

    def __init__(self, group: AbelianGroup, residues: Sequence[int]) -> None:
        residues = _check_residues(group, residues, "character")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "residues", residues)

    def is_trivial(self) -> bool:
        return all(r == 0 for r in self.residues)

    def conjugate(self) -> "Character":
        return _built(Character, self.group, tuple(
            (-r) % m for r, m in
            zip(self.residues, self.group.factor_orders)))


def element_order(group: AbelianGroup, s: GroupElement) -> int:
    """The order o(s), the least k >= 1 with k * s equal to the identity.

    Computed factorwise: o(s) = lcm_l(m_l / gcd(m_l, d_l)).  Divides the
    group exponent.
    """
    _member(group, s, GroupElement)
    factors = [m // gcd(m, r)
               for m, r in zip(group.factor_orders, s.residues)]
    return lcm(*factors) if factors else 1


def pairing_u(group: AbelianGroup, chi: Character, s: GroupElement) -> int:
    """The integer u with 0 <= u < o(s) and chi(s) = e(u / o(s)): the sum
    of e_l c_l mod o(s), by the rule of _pairing_coefficients that
    validate applies once per distinct branch element.  The arguments
    are checked before the cache hashes them, so an unhashable one is
    refused as MalformedDataError like any other."""
    _member(group, s, GroupElement)
    _member(group, chi, Character)
    return _pairing_u(group, chi, s)


# no library caller; perfbench reads its counters through
# pairing_u.cache_info() until ROADMAP item 1
@lru_cache(maxsize=None)
def _pairing_u(group: AbelianGroup, chi: Character, s: GroupElement) -> int:
    o = element_order(group, s)
    return sum(map(mul, chi.residues, _pairing_coefficients(group, s, o))) % o


pairing_u.cache_info = _pairing_u.cache_info


def _pairing_coefficients(group: AbelianGroup, s: GroupElement,
                          o: int) -> tuple[int, ...]:
    """c with c_l = d_l o / m_l for o = o(s), so that a character e pairs
    with s as sum_l e_l d_l / m_l = sum_l e_l c_l / o; each c_l is an
    integer since o s is the identity, and a remainder raises."""
    pairs = list(zip(s.residues, group.factor_orders))
    if any(r * o % m_l for r, m_l in pairs):
        raise ConsistencyError(f"o(s) = {o} does not kill {s.residues}")
    return tuple(r * o // m_l for r, m_l in pairs)


def dual_group(group: AbelianGroup) -> list[Character]:
    """All n characters, the trivial one first, then lexicographic order
    on residue vectors."""
    _typed(group, AbelianGroup, "group ")
    return [_built(Character, group, residues) for residues in
            product(*map(range, group.factor_orders))]


# value-keyed, spanning covers: 0.9 us a call, 9-12 us uncached (2-core x86)
@lru_cache(maxsize=None)
def intersection_data(group: AbelianGroup, s: GroupElement,
                      r: GroupElement) -> tuple[int, int]:
    """The pair (d, h) for two nontrivial elements s, r: d is the size of
    the intersection of the cyclic subgroups they generate, found by brute
    force (the subgroups in scope are tiny), and h is the unit modulo d
    with r^(o(r)/d) = (s^(o(s)/d))^h, the discrete logarithm with respect
    to s^(o(s)/d), which generates the intersection; gcd(h, d) = 1 is
    automatic since r^(o(r)/d) generates the same subgroup.  For equal
    inputs the result is (o(s), 1); h = 0 occurs only when d = 1.
    """
    o_s = element_order(group, s)
    o_r = element_order(group, r)
    if o_s == 1 or o_r == 1:  # only the identity has order 1
        raise DomainError("intersection data requires nontrivial elements")
    # the multiples k*s and k*r as residue tuples
    powers_s, powers_r = (
        [tuple([x * k % m for x, m in zip(e.residues, group.factor_orders)])
         for k in range(o)] for e, o in ((s, o_s), (r, o_r)))
    d = len(set(powers_s) & set(powers_r))
    if o_s % d or o_r % d:
        raise ConsistencyError("intersection size does not divide both orders")
    target = powers_r[o_r // d % o_r]
    for h in range(d):
        if powers_s[o_s // d * h % o_s] == target:
            if gcd(h, d) != 1:
                raise ConsistencyError(
                    f"discrete log h={h} is not a unit modulo d={d}")
            return d, h
    raise ConsistencyError(
        "no discrete log found; the intersection is not cyclic as expected")


def _built(kind: type, group: AbelianGroup, residues: tuple[int, ...]):
    """A kind (GroupElement or Character) of group without the entry
    check, for a residue tuple in range by construction."""
    x = object.__new__(kind)
    object.__setattr__(x, "group", group)
    object.__setattr__(x, "residues", residues)
    return x


def _member(group: AbelianGroup, x, kind: type) -> None:
    """x is a kind (GroupElement or Character) of group, else
    MalformedDataError; the one membership rule of the library."""
    if type(x) is not kind or x.group != group:
        what = "character" if kind is Character else "element"
        raise MalformedDataError(f"{what} does not belong to this group")
