"""Thomae exponent tables for non-special divisors.

For a non-special divisor D and a pair of branch sites a = (sigma, j),
b = (rho, i), the quantity q_D(a, b) is the product of the two centered
weights (beta/o - (o-1)/(2o)).  Summing q over the full dual-group orbit
of D gives q_e(a, b), which collapses to the closed form

    q_e(a, b) = (n / (o(sigma) o(rho))) phi_{h+dZ}(beta_b - h beta_a mod d)

with (d, h) the intersection data of the two monodromies.  The character
average

    gamma(sigma, rho) = (1/n) sum over chi of
                            u_{chi,sigma} u_{chi,rho} / (o(sigma) o(rho))

likewise collapses to phi_{h+dZ}(0)/(o o') + (o-1)(o'-1)/(4 o o').  The
exponent attached to the factor (lambda_a - lambda_b) is then

    4 m (2 q_e(a, b) + n gamma(sigma, rho)),

always an even integer; the full table over unordered pairs, together
with the det C exponent 4m and the theta exponent 8m, is what this
module assembles.  It is built from one integer row per pair of element
ranks r_a <= r_b, E[s] = m n (2 T(d,h,s) + T(d,h,0) + d (o_a-1)(o_b-1)) /
(d o_a o_b) with T = 4d phi walked along the shift law by
dedekind._phi_walk, so a row costs O(d), and checked to be an even
integer for every s < d as it is built.  A pair reads its row at
E[(beta_b - h beta_a) mod d]: exponent_table does so for every pair,
keyed (a, b) with a < b (no key cache), and thomae_exponent, given the
two positions, builds the one row of its pair and no table.  The orbit
sum q_e and the character average gamma, by definition and in closed
form, are oracles in tests/oracles.py.
"""

from __future__ import annotations

from .cover import CoverInvariants, CoverSpec, _require_validated
from .dedekind import _phi_walk
from .divisors import (InvariantDivisor, _act, _require_nonspecial,
                       _slice_rows)
from .errors import (ConsistencyError, DomainError, MalformedDataError,
                     _bounded, _typed, _Value)
from .group_core import intersection_data

__all__ = [
    "ExponentTable",
    "thomae_exponent",
    "exponent_table",
]

MAX_TABLE_PAIRS = 2 ** 19  # exponent_table's limit: B <= 1024 sites


class ExponentTable(_Value, mutable=True):
    """The assembled table: one even integer per site pair (a, b), a < b,
    in ascending pair order, the det C exponent 4m, the theta exponent
    8m, and a fingerprint naming the source divisor orbit.  The fields
    can be reassigned; equal fields compare equal, and it is unhashable."""

    __slots__ = ("entries", "detC_exponent", "theta_exponent",
                 "divisor_fingerprint")
    entries: dict[tuple[int, int], int]
    detC_exponent: int
    theta_exponent: int
    divisor_fingerprint: str

    def __init__(self, entries: dict[tuple[int, int], int],
                 detC_exponent: int, theta_exponent: int,
                 divisor_fingerprint: str) -> None:
        self.entries = entries
        self.detC_exponent = detC_exponent
        self.theta_exponent = theta_exponent
        self.divisor_fingerprint = divisor_fingerprint


def thomae_exponent(spec: CoverSpec, inv: CoverInvariants,
                    D: InvariantDivisor, a: int, b: int) -> int:
    """The exponent of (lambda_a - lambda_b), 4m (2 q_e + n gamma): the
    (a, b) entry of exponent_table, read from the pair's one row.  Checked
    in turn: int positions (not bools), 0 <= a < b (else DomainError), D
    non-special (DomainError), b a site position (MalformedDataError)."""
    for x in (a, b):
        _typed(x, int, "pair position ")
    if not 0 <= a < b:
        raise DomainError(f"pair ({a}, {b}) is not an ordered pair "
                          f"of distinct nonnegative positions")
    _require_nonspecial(spec, inv, D)
    if b >= len(spec.sites):
        raise MalformedDataError(f"site position {b} out of range "
                                 f"for {len(spec.sites)} sites")
    row, d, h = _exponent_row(spec, inv, a, b)
    return row[(D.beta[b] - h * D.beta[a]) % d]


def exponent_table(spec: CoverSpec, inv: CoverInvariants,
                   D: InvariantDivisor) -> ExponentTable:
    """The full table over unordered site pairs, keyed by (a, b) with
    a < b in ascending pair order, read from the integer rows of the
    module docstring.  Checked in turn: spec and inv a CoverSpec and its
    CoverInvariants (MalformedDataError), at most MAX_TABLE_PAIRS pairs
    (ResourceCapError), then D, by is_nonspecial: an InvariantDivisor of
    this cover (MalformedDataError) that is non-special (DomainError)."""
    _require_validated(spec, inv)
    B = len(spec.sites)
    _bounded(B * (B - 1) // 2, MAX_TABLE_PAIRS, "table pairs")
    _require_nonspecial(spec, inv, D)
    rep = min(_act(spec, inv, D.beta, row)
              for row in _slice_rows(spec, inv, D.beta))
    beta, ranks = D.beta, [site.element_rank for site in spec.sites]
    rows, entries = {}, {}
    for a in range(B):
        for b in range(a + 1, B):
            # canonical site order makes a < b imply r_a <= r_b
            pair_ranks = ranks[a], ranks[b]
            if pair_ranks not in rows:
                rows[pair_ranks] = _exponent_row(spec, inv, a, b)
            row, d, h = rows[pair_ranks]
            entries[a, b] = row[(beta[b] - h * beta[a]) % d]
    return ExponentTable(
        entries=entries,
        detC_exponent=4 * inv.m,
        theta_exponent=8 * inv.m,
        divisor_fingerprint=f"{spec.fingerprint}:orbit{list(rep)}")


def _exponent_row(spec: CoverSpec, inv: CoverInvariants, a: int,
                  b: int) -> tuple[tuple[int, ...], int, int]:
    """(E, d, h) for the monodromies of sites a, b; E[s] checked even."""
    d, h = intersection_data(spec.group, spec.sites[a].element,
                             spec.sites[b].element)
    oa, ob = spec.site_orders[a], spec.site_orders[b]
    scale, divisor, row = inv.m * inv.n, d * oa * ob, _phi_walk(d, h)
    base = row[0] + d * (oa - 1) * (ob - 1)
    for s, t in enumerate(row):
        value, rest = divmod(scale * (2 * t + base), divisor)
        if rest or value % 2:
            raise ConsistencyError(
                f"exponent row of sites ({a}, {b}) has an odd or "
                f"non-integral entry E[{s}] = {value} + {rest}/{divisor}")
        row[s] = value
    return tuple(row), d, h
