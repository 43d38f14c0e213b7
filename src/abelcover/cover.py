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
CoverInvariants.u and packs the counting condition from it.  t and u
are tuples indexed by a character's rank c in dual_group order, so
validate builds no Character; _character_rank gives a caller's c.
Sites are contiguous by element rank; CoverSpec._runs gives each rank's
first site, order and site count, which site_orders, validate and the
listing read.  validate works once per rank, that is per distinct
branch element: its pairing coefficients, its u column over the dual
group and its packed row, with the t and Riemann-Hurwitz sums weighted
by the rank's site count.  The sites of one rank share that column and
that packed row.  It proves the degree identity once per cover:
u_{chi,sigma} takes each value in [0, o) n/o times as chi runs over the
dual group, so the fields of packed[k][v] total v n/o, and
sum_chi t_chi = g - 1 + n; any beta that meets packed_target has degree
g - 1.  The helpers of later layers take a validated CoverInvariants as
given and check each divisor once.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from operator import attrgetter

from .errors import (ConsistencyError, DisconnectedCoverError,
                     InvalidCoverError, MalformedDataError, _bounded,
                     _rational, _sequence, _typed, _Value)
from .group_core import (AbelianGroup, Character, GroupElement, _member,
                         _pairing_coefficients, element_order)

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

# validate's limits, checked before any table of n entries is built
MAX_GROUP_ORDER = 2 ** 16
MAX_PACKED_BITS = 2 ** 32


class BranchPoint(_Value):
    """One branch point: a nontrivial monodromy element and a finite
    rational branch value, an int made a Fraction or a Fraction kept as
    it is (errors._rational: a bool, a float or a str is refused)."""

    __slots__ = ("element", "value")
    element: GroupElement
    value: Fraction

    def __init__(self, element: GroupElement, value: Fraction | int) -> None:
        _typed(element, GroupElement, "branch element ")
        value = _rational(value, "branch value ")
        if max(abs(value.numerator), value.denominator) >= _VALUE_LIMIT:
            raise MalformedDataError("a branch value's numerator and "
                                     "denominator need at most 4300 digits")
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "value", value)


class BranchSite(_Value):
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


class CoverSpec(_Value):
    """The raw branching data, prior to validation: an AbelianGroup and
    a sequence of BranchPoints, any other type refused.  Immutable, but
    with a __dict__ slot: the cached properties below are kept there."""

    __slots__ = ("group", "branch_points", "__dict__")
    group: AbelianGroup
    branch_points: tuple[BranchPoint, ...]

    def __init__(self, group: AbelianGroup,
                 branch_points: Sequence[BranchPoint]) -> None:
        _typed(group, AbelianGroup, "cover group ")
        branch_points = _sequence(branch_points, "branch points ")
        for k, bp in enumerate(branch_points):
            _typed(bp, BranchPoint, f"branch point {k} = ")
            if bp.element.group != group:
                raise MalformedDataError(
                    f"branch point {k} carries an element of a different group")
            if bp.element.is_identity():
                raise MalformedDataError(
                    f"branch point {k} carries the identity; branch elements "
                    f"must be nontrivial")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "branch_points", branch_points)

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
    def _runs(self) -> tuple[tuple[int, int, int], ...]:
        """(first site k, o(sigma), site count) per element rank: the one
        walk over the ranks that every per-rank table reads."""
        sites = self.sites
        firsts = [k for k, site in enumerate(sites) if not site.occurrence]
        return tuple((k, element_order(self.group, sites[k].element), end - k)
                     for k, end in zip(firsts, firsts[1:] + [len(sites)]))

    @cached_property
    def site_orders(self) -> tuple[int, ...]:
        """o(sigma) per site, computed once per element rank."""
        return tuple(o for _, o, count in self._runs for _ in range(count))

    @cached_property
    def fingerprint(self) -> str:
        """A short stable digest of the canonical branching data, used to
        keep divisors from different covers apart."""
        text = repr((self.group.factor_orders,
                     tuple((s.element.residues, str(s.value))
                           for s in self.sites)))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class CoverInvariants(_Value, mutable=True):
    """Validated numeric invariants of a cover: group order n, exponent m,
    genus g, the character integers t[c] = t_chi (> 0 unless c = 0) and
    the pairing table u[c][k] = u_{chi,sigma} for the site at canonical
    position k, tuples indexed by the rank c of chi in dual_group order
    (dict(zip(dual_group(group), t)) keys t by Character).  packed[k][v]
    has a bit field per character, 1 where weight v >= o(sigma) - u[c][k]
    counts at site k; packed_target has t[c] there.
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
    t: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    packed: tuple[tuple[int, ...], ...]
    packed_target: int
    packed_guard: int
    cover_fingerprint: str

    def __init__(self, n: int, m: int, g: int, t: tuple[int, ...],
                 u: tuple[tuple[int, ...], ...],
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

    def __repr__(self) -> str:
        return f"CoverInvariants(n={self.n!r}, m={self.m!r}, g={self.g!r})"


def validate(spec: CoverSpec) -> CoverInvariants:
    """Check every cover invariant; compute (n, m, g, t, u) and the
    packed tables once per distinct branch element, the sites of one
    rank sharing its u column and its packed row; prove the degree
    identity for every divisor the tables accept (module docstring).

    Raises MalformedDataError when spec is not a CoverSpec or on
    duplicate branch values, InvalidCoverError (reason "monodromy") when
    the branch elements do not sum to the identity, ResourceCapError
    past MAX_GROUP_ORDER or MAX_PACKED_BITS (both checked before any
    table is built), and DisconnectedCoverError when more than one
    t_chi is 0, i.e. they fail to generate the group.  A failed identity
    (t, Riemann-Hurwitz, degree) raises ConsistencyError; none can fail
    once monodromy closure holds."""
    group = _typed(spec, CoverSpec, "cover ").group
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

    sites, orders = spec.sites, spec.site_orders
    width = len(sites).bit_length() + 1  # counts <= B: top bit free
    _bounded(n, MAX_GROUP_ORDER, "group order")
    _bounded(sum(orders) * n * width, MAX_PACKED_BITS, "packed table bits")

    # per rank, u_{chi,sigma} over the dual group, one factor at a time
    columns, sums, ramification = [], [0] * n, 0
    for k, o, count in spec._runs:
        column = [0]
        for m_l, c_l in zip(group.factor_orders, _pairing_coefficients(
                group, sites[k].element, o)):
            steps = [e * c_l for e in range(m_l)]
            column = [(x + y) % o for x in column for y in steps]
        columns.append(column)
        scale = count * (n // o)
        sums = [s + scale * x for s, x in zip(sums, column)]
        ramification += scale * (o - 1)

    if any(total % n for total in sums):
        raise ConsistencyError("t is non-integral despite monodromy closure")
    t = tuple(total // n for total in sums)

    blind = t.count(0)  # n / |H|, H the generated subgroup
    if blind > 1:
        raise DisconnectedCoverError(
            f"branch elements generate a subgroup of order {n // blind} "
            f"inside a group of order {n}")

    g = sum(t) - n + 1  # >= 0: t >= 1 at the n - 1 nontrivial chi
    if 2 * (g + n - 1) != ramification:
        raise ConsistencyError(f"Riemann-Hurwitz fails: 2 sum t = "
                               f"{2 * (g + n - 1)} != {ramification}")

    rows = []
    for (k, o, _), column in zip(spec._runs, columns):
        starts = [0] * (o + 1)  # character c counts from weight o - u on
        for c, x in enumerate(column):
            starts[o - x] += 1 << (c * width)
        rows.append(tuple(accumulate(starts[:o])))
        # each field is 0 or 1 (a character's bit enters the running sum
        # once), so bit_count totals the fields: v n / o at weight v
        if any(x.bit_count() != v * (n // o) for v, x in enumerate(rows[-1])):
            raise ConsistencyError(f"packed[{k}] miscounts the u values")
    site_ranks = [site.element_rank for site in sites]
    # with no sites, zip(*) yields no rows: the one character's row is ()
    u = tuple(zip(*[columns[r] for r in site_ranks])) if sites else ((),) * n
    return CoverInvariants(
        n=n, m=group.exponent, g=g, t=t, u=u,
        packed=tuple(rows[r] for r in site_ranks), packed_target=sum(
            tc << (c * width) for c, tc in enumerate(t)),
        packed_guard=sum(1 << (c * width + width - 1) for c in range(n)),
        cover_fingerprint=spec.fingerprint)


def _require_validated(spec: CoverSpec, inv: CoverInvariants) -> None:
    """spec is a CoverSpec and inv a CoverInvariants, each by the type
    rule, and inv came from validate on spec or on the same canonical
    sites; else MalformedDataError."""
    _typed(spec, CoverSpec, "cover ")
    _typed(inv, CoverInvariants, "cover invariants ")
    if inv.cover_fingerprint != spec.fingerprint:
        raise MalformedDataError(
            "cover invariants belong to a different cover than the one given")


def _character_rank(spec: CoverSpec, chi: Character) -> int:
    """chi's mixed-radix index into t and u; only a spec.group Character."""
    _member(spec.group, chi, Character)
    c = 0
    for r, m in zip(chi.residues, spec.group.factor_orders):
        c = c * m + r
    return c
