"""Invariant divisors supported over the branch fibers.

A divisor is a vector of integer weights beta, one per branch site, with
0 <= beta < o(sigma) at a site whose monodromy is sigma, plus a pole
multiplicity p over infinity.  Its degree is

    sum over sites of beta * n / o(sigma)  -  p * n.

The non-special divisors are exactly those with p = 1 whose weights meet,
for every character chi, the counting condition

    #{ sites with beta >= o(sigma) - u_{chi,sigma} } = t_chi;

such a divisor automatically has degree g - 1, which validate proves
once per cover and no divisor rechecks.  This module decides the
condition, enumerates all solutions, and implements the dual-group action

    beta -> beta + u            when beta < o - u,
    beta -> beta + u - o        otherwise,

the negation involution beta -> o - 1 - beta and orbits under the
action.

The condition holds exactly when the packed ints inv.packed[k][beta_k]
compiled by validate sum to inv.packed_target.  Enumeration searches the
slice beta_0 = 0, which meets every orbit, by backtracking on that sum
over a prefix of the sites and reading the last s sites from a table of
their packed sums, s the most sites whose weight tails number at most
sum(o_k).  The node cap is charged once per call, one node per prefix
weight tried plus one per table lookup.  Each new hit, already proved
non-special by the search, labels itself and is expanded by the other
n - 1 characters on int tuples, each member checked by the packed sum,
n members per orbit in all; the order is lexicographic by canonical site.
The listing is plain weight tuples and labels, finished and checked in
full before it is returned, so that the CLI can write it record by
record; enumerate_orbits wraps each row in an InvariantDivisor.

The action reads u_{chi,sigma} from the table inv.u built by validate.
The helpers take a validated CoverInvariants as given and check each
divisor once: public functions check their input (weights too),
internal steps do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add, getitem, mod

from .cover import (CoverInvariants, CoverSpec, _require_character,
                    _require_validated)
from .errors import (ConsistencyError, DomainError, MalformedDataError,
                     ResourceCapError)
from .group_core import Character

__all__ = [
    "InvariantDivisor",
    "make_divisor",
    "is_nonspecial",
    "enumerate_nonspecial",
    "enumerate_orbits",
    "chi_action",
    "negation_N",
    "orbit",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 100_000_000


@dataclass(frozen=True)
class InvariantDivisor:
    """Weights in canonical site order, the pole multiplicity p, and the
    fingerprint of the cover the weights refer to.  Equality includes the
    fingerprint, so divisors of different covers never compare equal."""

    beta: tuple[int, ...]
    p: int
    cover_fingerprint: str


def make_divisor(spec: CoverSpec, beta, p: int = 1) -> InvariantDivisor:
    """Build a divisor for this cover, checking every weight range.  Each
    weight and p must be an int (not a bool); nothing is converted."""
    D = InvariantDivisor(tuple(beta), p, spec.fingerprint)
    _require_same_cover(spec, D)
    return D


def is_nonspecial(spec: CoverSpec, inv: CoverInvariants,
                  D: InvariantDivisor) -> bool:
    """Decide the per-character counting condition (with p = 1).

    A divisor that meets it has degree g - 1, which validate proved for
    the cover; it is not checked again here.
    """
    _require_validated(spec, inv)
    _require_same_cover(spec, D)
    return D.p == 1 and _meets_counts(inv, D.beta)


def _meets_counts(inv: CoverInvariants, beta: tuple[int, ...]) -> bool:
    """The packed counting test on in-range weights."""
    return sum(map(getitem, inv.packed, beta)) == inv.packed_target


def enumerate_nonspecial(spec: CoverSpec, inv: CoverInvariants, *,
                         cap: int = DEFAULT_NODE_CAP) -> list[InvariantDivisor]:
    """All non-special divisors, in lex order: enumerate_orbits(...)[0]."""
    return enumerate_orbits(spec, inv, cap=cap)[0]


def enumerate_orbits(spec: CoverSpec, inv: CoverInvariants, *,
                     cap: int = DEFAULT_NODE_CAP
                     ) -> tuple[list[InvariantDivisor], list[int]]:
    """All non-special divisors in lex order (maybe none) and the orbit
    label of each, by first appearance: _orbit_listing with each weight
    vector wrapped in an InvariantDivisor."""
    _require_validated(spec, inv)
    betas, labels = _orbit_listing(spec, inv, cap)
    return [InvariantDivisor(b, 1, spec.fingerprint) for b in betas], labels


def _orbit_listing(spec: CoverSpec, inv: CoverInvariants,
                   cap: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The non-special weight vectors in lex order and the orbit label of
    each, by first appearance.  Every orbit meets the slice beta_0 = 0
    first at its lex-min member: each unlabelled hit, which the search
    has already proved non-special, is labelled itself and expanded by
    the other n - 1 characters into its orbit, checked free and disjoint
    by one identity, n members per orbit in all (each orbit adds at most
    n)."""
    trivial, *rows = inv.u.values()
    if any(trivial):
        raise ConsistencyError("the first pairing row is not the trivial "
                               "character's")
    hits = _search_slice(spec, inv, cap)
    label: dict[tuple[int, ...], int] = {}
    orbits = 0
    for hit in hits:
        if hit not in label:
            label[hit] = orbits
            label.update(dict.fromkeys(_expand(spec, inv, hit, rows), orbits))
            orbits += 1
    if len(label) != orbits * inv.n:
        raise ConsistencyError("an orbit repeats a member or two orbits "
                               "share one, yet the action is free")
    # every expanded member with beta_0 = 0 must be a slice hit
    if sum(1 for b in label if not b or b[0] == 0) != len(hits):
        raise ConsistencyError("the slice search missed an orbit member")
    betas = sorted(label)
    return betas, list(map(label.__getitem__, betas))


def _search_slice(spec: CoverSpec, inv: CoverInvariants,
                  cap: int) -> list[tuple[int, ...]]:
    """The non-special weight vectors with beta_0 = 0, in lex order.

    The last s sites form the suffix, s the largest value <= B - 1 whose
    weight tails number at most sum(o_k), so the suffix table never holds
    more entries than the packed tables do.  The table maps each tail's
    packed sum to its tails, in lex order.  Backtracking over the prefix
    sites 0..B-s-1 carries one packed sum down and reads only inv.packed,
    inv.packed_target and inv.packed_guard; a branch dies once some field
    overshoots its target or can no longer reach it with the sites that
    remain, two guard-bit compares.  At the last prefix site each weight
    that survives them looks up target - sum and appends prefix + tail
    for every tail found.  The lookup is exact because fields never
    carry: a count is at most B < 2**(width - 1).  Every prefix weight a
    call tries costs one node, charged before its loop, and every lookup
    one more; over the cap raises ResourceCapError.
    """
    packed, target, guard = inv.packed, inv.packed_target, inv.packed_guard
    B = len(packed)
    if not B:
        return [()]
    orders = spec.site_orders
    # s: the suffix length, by the size rule above
    s, size, bound = 0, 1, sum(orders)
    while s < B - 1 and size * orders[B - 1 - s] <= bound:
        s += 1
        size *= orders[B - s]
    last = B - s - 1
    table: dict[int, list[tuple[int, ...]]] = {}
    for tail in product(*map(range, orders[last + 1:])):
        table.setdefault(sum(map(getitem, packed[last + 1:], tail)),
                         []).append(tail)
    # reach[k]: the most each field can gain from the sites >= k; the top
    # weight of a site counts for every character any weight there does
    reach = [0] * (B + 1)
    for k in range(B - 1, -1, -1):
        reach[k] = reach[k + 1] + packed[k][-1]
    ceiling = target | guard
    beta = [0] * (last + 1)
    found: list[tuple[int, ...]] = []
    nodes = 0

    def dfs(k: int, acc: int) -> None:
        nonlocal nodes
        row = packed[k] if k else packed[0][:1]
        nodes += len(row)
        if nodes > cap:
            raise ResourceCapError(cap)
        rest = reach[k + 1]
        live = [(v, now) for v, now in enumerate(map(acc.__add__, row))
                if (ceiling - now) & guard == guard and
                (((now + rest) | guard) - target) & guard == guard]
        if k < last:
            for beta[k], now in live:
                dfs(k + 1, now)
            return
        nodes += len(live)  # one lookup per surviving weight
        if nodes > cap:
            raise ResourceCapError(cap)
        for beta[k], now in live:
            tails = table.get(target - now)
            if tails:
                head = tuple(beta)
                found.extend([head + tail for tail in tails])

    dfs(0, 0)
    return found


def chi_action(spec: CoverSpec, inv: CoverInvariants, D: InvariantDivisor,
               chi: Character) -> InvariantDivisor:
    """The divisor chi . D.  Requires a non-special input and produces a
    non-special output with the same p."""
    _require_nonspecial(spec, inv, D)
    _require_character(inv, chi)
    [new] = _expand(spec, inv, D.beta, [inv.u[chi]])
    return InvariantDivisor(new, D.p, D.cover_fingerprint)


def _expand(spec: CoverSpec, inv: CoverInvariants, beta: tuple[int, ...],
            rows) -> list[tuple[int, ...]]:
    """chi . beta, sitewise beta + u mod o, for the non-special weights
    beta and each pairing row given, in order; each result is checked."""
    orders = spec.site_orders
    members = [tuple(map(mod, map(add, beta, row), orders)) for row in rows]
    if not all(_meets_counts(inv, member) for member in members):
        raise ConsistencyError(
            "dual-group action left the non-special set; this contradicts "
            "its defining property")
    return members


def negation_N(spec: CoverSpec, inv: CoverInvariants,
               D: InvariantDivisor) -> InvariantDivisor:
    """The negation involution, sitewise beta -> o - 1 - beta with p = 1."""
    _require_nonspecial(spec, inv, D)
    new = tuple(o - 1 - b for o, b in zip(spec.site_orders, D.beta))
    if not _meets_counts(inv, new):
        raise ConsistencyError("negation left the non-special set")
    return InvariantDivisor(new, 1, D.cover_fingerprint)


def orbit(spec: CoverSpec, inv: CoverInvariants,
          D: InvariantDivisor) -> list[InvariantDivisor]:
    """The full dual-group orbit of D, in dual-group order.

    The action is free on non-special divisors, so the orbit always has
    exactly n distinct members; a repeat is an internal error.
    """
    _require_nonspecial(spec, inv, D)
    members = _expand(spec, inv, D.beta, inv.u.values())
    if len(set(members)) != spec.group.order:
        raise ConsistencyError(
            "dual-group orbit has repeats; the action should be free")
    return [InvariantDivisor(b, D.p, D.cover_fingerprint) for b in members]


def _require_same_cover(spec: CoverSpec, D: InvariantDivisor) -> None:
    """D belongs to this cover, p and the weights are ints, and each
    weight is in [0, o(sigma))."""
    if not all(isinstance(x, int) and not isinstance(x, bool)
               for x in (D.p, *D.beta)):
        raise MalformedDataError(
            "divisor weights and pole multiplicity must be integers")
    if D.cover_fingerprint != spec.fingerprint:
        raise MalformedDataError(
            "divisor belongs to a different cover than the one given")
    if len(D.beta) != len(spec.sites):
        raise MalformedDataError("divisor length does not match the cover")
    for b, o in zip(D.beta, spec.site_orders):
        if not 0 <= b < o:
            raise MalformedDataError(f"weight {b} out of range [0, {o})")


def _require_nonspecial(spec: CoverSpec, inv: CoverInvariants,
                        D: InvariantDivisor) -> None:
    if not is_nonspecial(spec, inv, D):
        raise DomainError("operation requires a non-special divisor")
