"""Branching data for an abelian cover of the sphere.

A cover is described by its deck group A and a list of branch points,
each carrying a nontrivial element of A (the local monodromy generator)
and an exact rational branch value.  Infinity is assumed unramified, so
every branch value is finite and they must be pairwise distinct.

Validation checks three things and then derives the numeric invariants:

  * distinctness of the branch values,
  * monodromy closure, i.e. the branch elements sum to the identity,
    which is equivalent to every character integer t_chi being integral,
  * connectedness, i.e. the branch elements generate A, read off t:
    t_chi = 0 exactly for the characters trivial on the generated
    subgroup H, and there are n / |H| of them.

Each t_chi = sum over branch points of u_{chi,sigma} / o(sigma) is exact,
and g = sum_chi t_chi - n + 1 is checked by one Riemann-Hurwitz identity,

    2 sum_chi t_chi = sum over branch points of (n / o(sigma)) (o(sigma) - 1).

Connectedness leaves t_chi >= 1 at the n - 1 nontrivial characters, so
g >= 0.

validate is the only place where u_{chi,sigma} is computed for a cover,
by the integer rule it shares with pairing_u; it keeps the table as
CoverInvariants.u and packs the counting condition from it.  It proves
the degree identity once per cover: u_{chi,sigma} takes each value in
[0, o) n/o times as chi runs over the dual group, so the fields of
packed[k][v] total v n/o, and sum_chi t_chi = g - 1 + n; any beta that
meets packed_target has degree g - 1.  The helpers of later layers take
a validated CoverInvariants as given and check each divisor once.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from operator import attrgetter, mul

from .errors import (ConsistencyError, DisconnectedCoverError,
                     InvalidCoverError, MalformedDataError, ResourceCapError,
                     _read_only)
from .group_core import (AbelianGroup, Character, GroupElement,
                         _pairing_coefficients, dual_group, element_order)

__all__ = [
    "BranchPoint",
    "BranchSite",
    "CoverSpec",
    "CoverInvariants",
    "validate",
]

# the cover fingerprint prints each branch value, and str() refuses an int
# of more than 4300 digits on every Python that has the limit
_VALUE_LIMIT = 10 ** 4300

# validate's limits, checked before dual_group lists the n characters
MAX_GROUP_ORDER = 2 ** 16
MAX_PACKED_BITS = 2 ** 32


class BranchPoint:
    """One branch point: a nontrivial monodromy element and a finite
    rational branch value."""

    __slots__ = ("element", "value")
    element: GroupElement
    value: Fraction

    def __init__(self, element: GroupElement, value) -> None:
        value = Fraction(value)
        if max(abs(value.numerator), value.denominator) >= _VALUE_LIMIT:
            raise MalformedDataError("a branch value's numerator and "
                                     "denominator need at most 4300 digits")
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "value", value)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.element, self.value) == (other.element, other.value)

    def __hash__(self) -> int:
        return hash((self.element, self.value))

    def __repr__(self) -> str:
        return f"BranchPoint(element={self.element!r}, value={self.value!r})"

    def __reduce__(self):
        return BranchPoint, (self.element, self.value)


class BranchSite:
    """A branch point in canonical position.

    Sites are ordered by (element_rank, occurrence), where element_rank is
    the lexicographic rank of the monodromy element among the cover's
    distinct branch elements and occurrence is the 0-based index j among
    the points sharing that element, in document order.  All divisor
    weight vectors are aligned with this order, and a site's position is
    its index in CoverSpec.sites.
    """

    __slots__ = ("element", "element_rank", "occurrence", "value")
    element: GroupElement
    element_rank: int
    occurrence: int
    value: Fraction

    def __init__(self, element: GroupElement, element_rank: int,
                 occurrence: int, value: Fraction) -> None:
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "element_rank", element_rank)
        object.__setattr__(self, "occurrence", occurrence)
        object.__setattr__(self, "value", value)

    __setattr__ = __delattr__ = _read_only

    def _fields(self) -> tuple:
        return self.element, self.element_rank, self.occurrence, self.value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"BranchSite(element={self.element!r}, element_rank="
                f"{self.element_rank!r}, occurrence={self.occurrence!r}, "
                f"value={self.value!r})")

    def __reduce__(self):
        return BranchSite, self._fields()


class CoverSpec:
    """The raw branching data, prior to validation.  Immutable, but not
    slotted: the cached properties below are kept in its __dict__."""

    group: AbelianGroup
    branch_points: tuple[BranchPoint, ...]

    def __init__(self, group: AbelianGroup,
                 branch_points: Sequence[BranchPoint]) -> None:
        branch_points = tuple(branch_points)
        for k, bp in enumerate(branch_points):
            if bp.element.group != group:
                raise MalformedDataError(
                    f"branch point {k} carries an element of a different group")
            if bp.element.is_identity():
                raise MalformedDataError(
                    f"branch point {k} carries the identity; branch elements "
                    f"must be nontrivial")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "branch_points", branch_points)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.group, self.branch_points)
                == (other.group, other.branch_points))

    def __hash__(self) -> int:
        return hash((self.group, self.branch_points))

    def __repr__(self) -> str:
        return (f"CoverSpec(group={self.group!r}, "
                f"branch_points={self.branch_points!r})")

    @cached_property
    def sites(self) -> tuple[BranchSite, ...]:
        """The branch points in canonical order, by one stable sort."""
        key = attrgetter("element.residues")
        runs = groupby(sorted(self.branch_points, key=key), key=key)
        return tuple(
            BranchSite(element=bp.element, element_rank=rank, occurrence=j,
                       value=bp.value)
            for rank, (_, run) in enumerate(runs)
            for j, bp in enumerate(run))

    @cached_property
    def site_orders(self) -> tuple[int, ...]:
        return tuple(element_order(self.group, site.element)
                     for site in self.sites)

    @cached_property
    def fingerprint(self) -> str:
        """A short stable digest of the canonical branching data, used to
        keep divisors from different covers apart."""
        text = repr((self.group.factor_orders,
                     tuple((s.element.residues, str(s.value))
                           for s in self.sites)))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class CoverInvariants:
    """Validated numeric invariants of a cover: group order n, exponent m,
    genus g, the character integers t_chi (> 0 unless chi is trivial) and
    the pairing table u with u[chi][k] = u_{chi,sigma} for the site at
    canonical position k, both in dual-group order.  packed[k][v] has a
    bit field per character, 1 where weight v >= o(sigma) - u[chi][k]
    counts at site k; packed_target has t_chi there.
    Fields are B.bit_length() + 1 bits wide: a count never exceeds B, so
    sums never carry between fields and the top bit of each is a free
    guard bit, set in packed_guard.  (x | packed_guard) - y keeps a
    field's guard bit exactly when that field of x is >= that of y.
    cover_fingerprint is that of the validated CoverSpec.  The fields
    can be reassigned; equal fields compare equal, and it is unhashable."""

    __slots__ = ("n", "m", "g", "t", "u", "packed", "packed_target",
                 "packed_guard", "cover_fingerprint")
    n: int
    m: int
    g: int
    t: dict[Character, int]
    u: dict[Character, tuple[int, ...]]
    packed: tuple[tuple[int, ...], ...]
    packed_target: int
    packed_guard: int
    cover_fingerprint: str

    def __init__(self, n: int, m: int, g: int, t: dict[Character, int],
                 u: dict[Character, tuple[int, ...]],
                 packed: tuple[tuple[int, ...], ...], packed_target: int,
                 packed_guard: int, cover_fingerprint: str) -> None:
        self.n = n
        self.m = m
        self.g = g
        self.t = t
        self.u = u
        self.packed = packed
        self.packed_target = packed_target
        self.packed_guard = packed_guard
        self.cover_fingerprint = cover_fingerprint

    def _fields(self) -> tuple:
        return (self.n, self.m, self.g, self.t, self.u, self.packed,
                self.packed_target, self.packed_guard, self.cover_fingerprint)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return f"CoverInvariants(n={self.n!r}, m={self.m!r}, g={self.g!r})"


def validate(spec: CoverSpec) -> CoverInvariants:
    """Check every cover invariant; compute (n, m, g, t, u) and the
    packed tables from one pass over the dual group; prove the degree
    identity for every divisor the tables accept (module docstring).

    Raises MalformedDataError on duplicate branch values,
    InvalidCoverError (reason "monodromy") when the branch elements do not
    sum to the identity, ResourceCapError past MAX_GROUP_ORDER or
    MAX_PACKED_BITS, and DisconnectedCoverError when more than one t_chi
    is 0, i.e. they fail to generate the group.  A failed identity (t,
    Riemann-Hurwitz, degree) raises ConsistencyError; none can fail once
    monodromy closure holds."""
    group = spec.group
    n = group.order

    # a Fraction is in lowest terms, so its ratio names its value, and
    # hashing a tuple of ints is cheaper than Fraction.__hash__
    seen: set[tuple[int, int]] = set()
    for bp in spec.branch_points:
        if (key := bp.value.as_integer_ratio()) in seen:
            raise MalformedDataError(f"duplicate branch value {bp.value}")
        seen.add(key)

    residues = [bp.element.residues for bp in spec.branch_points]
    total = tuple(sum(r[i] for r in residues) % o
                  for i, o in enumerate(group.factor_orders))
    if any(total):
        raise InvalidCoverError(
            "monodromy",
            f"branch monodromies sum to {total} instead of the identity")

    width = len(spec.sites).bit_length() + 1  # counts <= B: top bit free
    bits = sum(spec.site_orders) * n * width
    for what, size, limit in (("group order", n, MAX_GROUP_ORDER),
                              ("packed table bits", bits, MAX_PACKED_BITS)):
        if size > limit:
            raise ResourceCapError(
                limit, f"{what}: {size}, over the limit of {limit}")

    weights = tuple(n // o for o in spec.site_orders)
    rules = [(o, _pairing_coefficients(group, s.element, o))
             for s, o in zip(spec.sites, spec.site_orders)]
    t: dict[Character, int] = {}
    u: dict[Character, tuple[int, ...]] = {}
    for chi in dual_group(group):
        u[chi] = tuple([sum(map(mul, chi.residues, c)) % o
                        for o, c in rules])
        t[chi], rest = divmod(sum(map(mul, u[chi], weights)), n)
        if rest:
            raise ConsistencyError(
                f"t for character {chi.residues} is non-integral despite "
                f"monodromy closure")

    blind = list(t.values()).count(0)  # n / |H|, H the generated subgroup
    if blind > 1:
        raise DisconnectedCoverError(
            f"branch elements generate a subgroup of order {n // blind} "
            f"inside a group of order {n}")

    g = sum(t.values()) - n + 1  # >= 0: t >= 1 at the n - 1 nontrivial chi
    ramification = sum(w * (o - 1) for w, o in zip(weights, spec.site_orders))
    if 2 * (g + n - 1) != ramification:
        raise ConsistencyError(f"Riemann-Hurwitz fails: 2 sum t = "
                               f"{2 * (g + n - 1)} != {ramification}")

    packed = []
    for k, o in enumerate(spec.site_orders):
        starts = [0] * (o + 1)  # character c counts from weight o - u on
        for c, row in enumerate(u.values()):
            starts[o - row[k]] += 1 << (c * width)
        packed.append(tuple(accumulate(starts[:o])))
        # each field is 0 or 1 (a character's bit enters the running sum
        # once), so bit_count totals the fields: v n / o at weight v
        if any(x.bit_count() != v * weights[k]
               for v, x in enumerate(packed[k])):
            raise ConsistencyError(f"packed[{k}] miscounts the u values")
    return CoverInvariants(
        n=n, m=group.exponent, g=g, t=t, u=u,
        packed=tuple(packed), packed_target=sum(
            tc << (c * width) for c, tc in enumerate(t.values())),
        packed_guard=sum(1 << (c * width + width - 1) for c in range(n)),
        cover_fingerprint=spec.fingerprint)


def _require_validated(spec: CoverSpec, inv: CoverInvariants) -> None:
    """inv came from validate on spec or on the same canonical sites."""
    if inv.cover_fingerprint != spec.fingerprint:
        raise MalformedDataError(
            "cover invariants belong to a different cover than the one given")


def _require_character(inv: CoverInvariants, chi: Character) -> None:
    """chi is a character of the group that inv was validated for."""
    if chi not in inv.u:
        raise MalformedDataError("character does not belong to this group")
