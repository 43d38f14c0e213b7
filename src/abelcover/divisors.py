"""Invariant divisors supported over the branch fibers.

A divisor is a vector of integer weights beta, one per branch site, with
0 <= beta < o(sigma) at a site whose monodromy is sigma, plus one simple
pole over infinity.  Its degree is

    sum over sites of beta * n / o(sigma)  -  n.

The non-special divisors are exactly those whose weights meet, for every
character chi, the counting condition

    #{ sites with beta >= o(sigma) - u_{chi,sigma} } = t_chi;

such a divisor automatically has degree g - 1, which validate proves
once per cover and no divisor rechecks.  This module decides the
condition, enumerates all solutions, and implements the dual-group action

    beta -> beta + u            when beta < o - u,
    beta -> beta + u - o        otherwise,

and orbits under it.  The CLI selftest checks that the listing is also
closed under the negation involution beta -> o - 1 - beta.

The condition holds exactly when the packed ints inv.packed[k][beta_k]
compiled by validate sum to inv.packed_target.  Enumeration searches the
slice beta_0 = 0, which meets every orbit, by backtracking on that sum
over a prefix of the sites and reading the last s sites from a table of
their packed sums, s the most sites whose weight tails number at most
sum(o_k).  The search does not recurse, so a cover with any number of
sites ends in a result or at the node cap: one node per prefix weight
tried plus one per table lookup.  Each orbit is listed from its
representative, its lex-min member: the hits that every nontrivial
character of K_0 = {chi : u_{chi,0} = 0} moves up in lex order, every
hit when K_0 is trivial.  The representatives, already proved
non-special by the search, are expanded by each of the other n - 1
characters in one call per character, and the n members per orbit are
sorted once into lexicographic order by canonical site, orbit i being
the i-th representative.  No member is checked on its own: with
N_psi(beta) the count on the left for psi, the carries at each site sum to

    N_chi(beta) + N_psi(chi . beta) = C(chi, psi) + N_{chi psi}(beta),
    C(chi, psi) = #{ sites with u_{chi,sigma} + u_{psi,sigma} >= o(sigma) },

so chi keeps the non-special set exactly when C(chi, psi) = t_chi +
t_psi - t_{chi psi} for every psi.  The listing proves that once, from
inv.u and inv.t in O(n R) steps, R the distinct branch elements, when
the search found a hit (_prove_closure).

The search and the listing carry a weight vector as a str with one code
point per site (_letters, built once per listing and handed to the
search): weight v at a site is the code base + v, base the sum of the
orders of the distinct elements of lower rank.  Sites are sorted by
rank, so a position has the same base in every vector, and lex order of
the strings is lex order of the weights: sort and the repeat check
compare strings in C, not tuples of ints.  A character acts by one
str.translate, with a table over the codes the search found only, never
over the whole alphabet of Sigma_R codes, Sigma_R the sum over distinct
elements of o(sigma); validate's MAX_PACKED_BITS keeps Sigma_R below
0x110000 (_letters).  The listing is plain code strings and labels,
finished and checked in full before it is returned, so that the CLI can
write it in blocks of records, rendering each distinct half of a string
once; enumerate_orbits decodes each into an InvariantDivisor of int
weights.
chi_action, orbit and exponent_table act on one divisor at a time, on an
int tuple, by the one checked action _act.

The action reads u_{chi,sigma} from row c of inv.u, built by validate.
The helpers take a validated CoverInvariants as given and check each
divisor once: public functions check their input (weights too),
internal steps do not.
"""

from __future__ import annotations

from itertools import islice, product
from operator import add, eq, getitem, mod

from .cover import (CoverInvariants, CoverSpec, _character_rank, _column,
                    _require_validated)
from .errors import (ConsistencyError, DomainError, MalformedDataError,
                     ResourceCapError, _sequence, _typed, _Value)
from .group_core import Character

__all__ = [
    "InvariantDivisor",
    "make_divisor",
    "is_nonspecial",
    "enumerate_nonspecial",
    "enumerate_orbits",
    "chi_action",
    "orbit",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 100_000_000

_LEFT_THE_SET = ("dual-group action left the non-special set; this "
                 "contradicts its defining property")


class InvariantDivisor(_Value):
    """Weights in canonical site order and the fingerprint of the cover
    they refer to.  Equality includes the fingerprint, so divisors of
    different covers never compare equal."""

    __slots__ = ("beta", "cover_fingerprint")
    beta: tuple[int, ...]
    cover_fingerprint: str

    def __init__(self, beta: tuple[int, ...], cover_fingerprint: str) -> None:
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "cover_fingerprint", cover_fingerprint)


def make_divisor(spec: CoverSpec, beta) -> InvariantDivisor:
    """Build a divisor for the CoverSpec spec, checking every weight
    range.  Each weight must be an int (not a bool), unconverted."""
    _typed(spec, CoverSpec, "cover ")
    D = InvariantDivisor(_sequence(beta, "divisor weights "), spec.fingerprint)
    _require_same_cover(spec, D)
    return D


def is_nonspecial(spec: CoverSpec, inv: CoverInvariants,
                  D: InvariantDivisor) -> bool:
    """Decide the per-character counting condition.

    A divisor that meets it has degree g - 1, which validate proved for
    the cover; it is not checked again here.  A D that is not an
    InvariantDivisor raises MalformedDataError.
    """
    _typed(D, InvariantDivisor, "divisor ")
    _require_validated(spec, inv)
    _require_same_cover(spec, D)
    return _meets_counts(inv, D.beta)


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
    label of each, by first appearance: _orbit_listing with each code
    string decoded and wrapped in an InvariantDivisor; cap must be an
    int."""
    _require_validated(spec, inv)
    _typed(cap, int, "node cap ")
    codes, labels = _orbit_listing(spec, inv, cap)
    return [InvariantDivisor(beta, spec.fingerprint)
            for beta in _decode(spec, codes)], labels


def _orbit_listing(spec: CoverSpec, inv: CoverInvariants,
                   cap: int) -> tuple[list[str], list[int]]:
    """The non-special weight vectors in lex order, as code strings
    (_letters), and the orbit label of each, by first appearance.  An
    orbit first appears at its representative (_slice_rows), which lies
    in the slice beta_0 = 0 and is less than its other members there, the
    hit moved by each nontrivial row of K_0 = {chi : u_{chi,0} = 0}.  So
    orbit i is the i-th hit that every such row moves up; when site 0
    generates the group K_0 is trivial and every hit is one, at no cost
    per hit.  The representatives, already proved non-special by the
    search, are expanded by each other row in one _expand_codes call per
    row; no member is checked, since _prove_closure proves once that each
    row keeps the non-special set (it runs only when there are hits).
    The orbits * n members are sorted once through an index list, member
    j having label j % orbits.  A repeat in the sorted listing means an
    action that is not free or two orbits that share a member; the slice
    must hold |K_0| members of each orbit, and these must be the hits."""
    trivial, *rows = inv.u
    if any(trivial):
        raise ConsistencyError("the first pairing row is not the trivial "
                               "character's")
    letters = _letters(spec)
    hits = _search_slice(spec, inv, cap, letters)
    # each code the hits use, once, with its first site k and its weight v
    used = set("".join(hits))
    homes = [(ord(c), k, v) for k, _, _ in spec._runs
             for v, c in enumerate(letters[k]) if c in used]
    orders = spec.site_orders

    def act(row: tuple[int, ...]) -> dict[int, str]:
        """The action by chi's pairing row on the used codes, a
        str.translate table; no table spans the whole alphabet."""
        return {c: letters[k][(v + row[k]) % orders[k]] for c, k, v in homes}

    if hits:  # with no hits, closure holds vacuously
        _prove_closure(spec, inv)
    keep = _slice_rows(spec, inv, (0,))[1:]  # K_0 but its trivial row
    reps = hits
    for row in keep:  # the bare action: K_0 maps hits to hits
        table = act(row)
        reps = [h for h in reps if h < h.translate(table)]
    orbits = len(reps)
    members = reps.copy()
    for row in rows:
        members += _expand_codes(reps, act(row))
    order = sorted(range(len(members)), key=members.__getitem__)
    betas = list(map(members.__getitem__, order))
    if any(map(eq, betas, islice(betas, 1, None))):
        raise ConsistencyError("an orbit repeats a member or two orbits "
                               "share one, yet the action is free")
    # the slice beta_0 = 0 (code 0 at site 0) comes first in lex order:
    # its members must be the hits, |K_0| per orbit
    k = len(hits)
    if (k != orbits * (len(keep) + 1) or betas[:k] != hits
            or any(b[0] == "\0" for b in betas[k:k + 1])):
        raise ConsistencyError("the slice search missed an orbit member")
    ids = list(range(orbits))  # one int per orbit, shared by its labels
    return betas, [ids[j % orbits] for j in order]


def _prove_closure(spec: CoverSpec, inv: CoverInvariants) -> None:
    """Prove that every pairing row keeps the non-special set (the carry
    identity of the module docstring) from inv.u and inv.t, reading the
    first site of each rank, as the listing's action does.  A carry is
    (a + x - (a + x) mod o) / o, so when the rows are multiplicative,
    C(chi, psi) - t_chi - t_psi + t_{chi psi} = d_chi + d_psi - d_{chi psi}
    with d_chi = sum_k u_{chi,k} / o_k - t_chi: 0 for every pair exactly
    when d is additive on a finite group, that is 0.  So each rank's column
    must be the one its entries at the factor steps w_l (mixed-radix
    weights, each entry of order dividing m_l) build by cover._column, and
    n t_chi the sum over ranks of count * (n / o) * u: O(n R) steps."""
    u, t, n = inv.u, inv.t, spec.group.order
    orders, steps, w = spec.group.factor_orders, [], n
    for m in orders:  # w_l, factor l's mixed-radix weight
        w //= m
        steps.append(w)
    sums = [0] * n
    for k, o, count in spec._runs:
        column = [row[k] for row in u]
        entries = [column[w] for w in steps]
        if (any(m * x % o for m, x in zip(orders, entries))
                or _column(orders, entries, o) != column):
            raise ConsistencyError(_LEFT_THE_SET)
        scale = count * (n // o)
        sums = [s + scale * x for s, x in zip(sums, column)]
    if sums != [n * tc for tc in t]:
        raise ConsistencyError(_LEFT_THE_SET)


def _slice_rows(spec: CoverSpec, inv: CoverInvariants,
                beta: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The pairing rows that carry beta into the slice beta_0 = 0, those
    with beta_0 + u_{chi,0} = 0 mod o_0 (every row when there are no
    sites), in dual-group order.  chi -> u_{chi,0} is onto Z_{o_0}, so
    they number |K_0| = n / o_0, and at beta_0 = 0 they are K_0 itself,
    trivial row first.  An orbit's representative is its lex-min member;
    its beta_0 is 0, so it is the least of the members these rows give."""
    return [row for row in inv.u
            if not any(map(mod, map(add, beta[:1], row), spec.site_orders))]


def _search_slice(spec: CoverSpec, inv: CoverInvariants, cap: int,
                  letters: list[str]) -> list[str]:
    """The non-special weight vectors with beta_0 = 0, as code strings
    in lex order, letters the listing's alphabet (_letters).

    The last s sites form the suffix, s the largest value <= B - 1 whose
    weight tails number at most sum(o_k), so the suffix table never holds
    more entries than the packed tables do.  The table maps each tail's
    packed sum to its tails, in lex order.  Backtracking over the prefix
    sites 0..B-s-1 is one loop over a stack of entries (k, sum of the
    prefix before site k, code chosen at site k - 1), never a prefix
    copy: a pop writes that code into the shared prefix, whose first
    k - 1 entries LIFO order keeps valid, and pushes the codes that
    survive at k in reverse, so hits come out in lex order.  It reads
    only inv.packed, inv.packed_target and inv.packed_guard; a weight
    dies once some field overshoots its target or can no longer reach it
    with the sites that remain, two guard-bit compares.  At the last
    prefix site each weight that survives them looks up target - sum and
    appends prefix + tail for every tail found.  The lookup is exact
    because fields never carry: a count is at most B < 2**(width - 1).
    A pop costs one node per weight tried, plus one per lookup at the
    last prefix site; over the cap raises ResourceCapError.
    """
    packed, target, guard = inv.packed, inv.packed_target, inv.packed_guard
    B = len(packed)
    if not B:
        return [""]
    orders = spec.site_orders
    # s: the suffix length, by the size rule above
    s, size, bound = 0, 1, sum(orders)
    while s < B - 1 and size * orders[B - 1 - s] <= bound:
        s += 1
        size *= orders[B - s]
    last = B - s - 1
    table: dict[int, list[str]] = {}
    for tail in product(*map(range, orders[last + 1:])):
        table.setdefault(sum(map(getitem, packed[last + 1:], tail)), []
                         ).append("".join(map(getitem, letters[last + 1:],
                                                 tail)))
    # reach[k]: the most each field can gain from the sites >= k; the top
    # weight of a site counts for every character any weight there does
    reach = [0] * (B + 1)
    for k in range(B - 1, -1, -1):
        reach[k] = reach[k + 1] + packed[k][-1]
    ceiling = target | guard
    prefix = [""] * (last + 1)
    found: list[str] = []
    nodes = 0
    stack = [(0, 0, "")]
    while stack:
        # at k = 0 this writes prefix[-1], which the lookup loop rewrites
        k, acc, prefix[k - 1] = stack.pop()
        row = packed[k] if k else packed[0][:1]
        rest = reach[k + 1]
        live = [(c, now) for c, now in zip(letters[k], map(acc.__add__, row))
                if (ceiling - now) & guard == guard and
                (((now + rest) | guard) - target) & guard == guard]
        nodes += len(row) if k < last else len(row) + len(live)
        if nodes > cap:
            raise ResourceCapError(cap)
        if k < last:
            stack += [(k + 1, now, c) for c, now in reversed(live)]
            continue
        for prefix[k], now in live:
            tails = table.get(target - now)
            if tails:
                head = "".join(prefix)
                found.extend([head + tail for tail in tails])
    return found


def _letters(spec: CoverSpec) -> list[str]:
    """letters[k][v], the code of weight v at site k: one code point, base
    + v, base the sum of the orders of the distinct elements of lower
    rank.  The sites are sorted by rank, so a position has the same base
    in every weight vector, and lex order of the code strings is lex
    order of the weight vectors.  The codes number Sigma_R, the sum over
    distinct elements of o(sigma): Sigma_R < n**2 (at most n - 1
    elements, each of order at most n), and Sigma_R <= sum(o_k) allows
    at most 2**32 / (n * width) by validate's MAX_PACKED_BITS, with
    width >= 2 the field width.  So Sigma_R >= 0x110000 would need
    n > 1055 and then width <= 3, B <= 3 and Sigma_R <= 3n < 6000: every
    code is a valid code point."""
    letters, base = [], 0
    for _, o, count in spec._runs:
        letters += ["".join(map(chr, range(base, base + o)))] * count
        base += o
    return letters


def _weights(spec: CoverSpec) -> list[int]:
    """weights[c], the weight that code c stands for (_letters)."""
    return [v for _, o, _ in spec._runs for v in range(o)]


def _decode(spec: CoverSpec, codes):
    """An iterator over the weight tuple of each code string."""
    weight = _weights(spec).__getitem__
    return (tuple(map(weight, map(ord, b))) for b in codes)


def chi_action(spec: CoverSpec, inv: CoverInvariants, D: InvariantDivisor,
               chi: Character) -> InvariantDivisor:
    """The divisor chi . D.  Requires a non-special input and produces a
    non-special output."""
    _require_nonspecial(spec, inv, D)
    new = _act(spec, inv, D.beta, inv.u[_character_rank(spec, chi)])
    return InvariantDivisor(new, D.cover_fingerprint)


def _act(spec: CoverSpec, inv: CoverInvariants, beta: tuple[int, ...],
         row: tuple[int, ...]) -> tuple[int, ...]:
    """chi . beta, sitewise beta + u mod o, for chi's pairing row u and a
    non-special weight vector beta; the result is checked."""
    member = tuple(map(mod, map(add, beta, row), spec.site_orders))
    if not _meets_counts(inv, member):
        raise ConsistencyError(_LEFT_THE_SET)
    return member


def _expand_codes(codes: list[str], table: dict[int, str]) -> list[str]:
    """_act on code strings, unchecked: chi . beta for each string
    given, in order, one str.translate by chi's table."""
    return [b.translate(table) for b in codes]


def orbit(spec: CoverSpec, inv: CoverInvariants,
          D: InvariantDivisor) -> list[InvariantDivisor]:
    """The full dual-group orbit of D, in dual-group order.

    The action is free on non-special divisors, so the orbit always has
    exactly n distinct members; a repeat is an internal error.
    """
    _require_nonspecial(spec, inv, D)
    members = [_act(spec, inv, D.beta, row) for row in inv.u]
    if len(set(members)) != spec.group.order:
        raise ConsistencyError(
            "dual-group orbit has repeats; the action should be free")
    return [InvariantDivisor(b, D.cover_fingerprint) for b in members]


def _require_same_cover(spec: CoverSpec, D: InvariantDivisor) -> None:
    """D belongs to this cover, the weights are ints, and each weight
    is in [0, o(sigma))."""
    if D.cover_fingerprint != spec.fingerprint:
        raise MalformedDataError(
            "divisor belongs to a different cover than the one given")
    if len(D.beta) != len(spec.sites):
        raise MalformedDataError("divisor length does not match the cover")
    for b, o in zip(D.beta, spec.site_orders):
        if not 0 <= _typed(b, int, "divisor weight ") < o:
            raise MalformedDataError(f"weight {b} out of range [0, {o})")


def _require_nonspecial(spec: CoverSpec, inv: CoverInvariants,
                        D: InvariantDivisor) -> None:
    if not is_nonspecial(spec, inv, D):
        raise DomainError("operation requires a non-special divisor")
