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
integer for every s < d as it is built.  Only exponent_table reads
these rows, a pair at E[(beta_b - h beta_a) mod d]; thomae_exponent
returns one entry of the table.  The orbit sum q_e and the character
average gamma, by definition and in closed form, are oracles in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cover import CoverInvariants, CoverSpec
from .dedekind import _phi_walk
from .divisors import InvariantDivisor, _expand, _require_nonspecial
from .errors import ConsistencyError, DomainError, MalformedDataError
from .group_core import intersection_data

__all__ = [
    "PairKey",
    "ExponentTable",
    "thomae_exponent",
    "exponent_table",
]


@dataclass(frozen=True, order=True)
class PairKey:
    """An unordered pair of site positions, stored with first < second."""

    first: int
    second: int

    def __post_init__(self) -> None:
        if not 0 <= self.first < self.second:
            raise DomainError(
                f"pair ({self.first}, {self.second}) is not an ordered pair "
                f"of distinct nonnegative positions")

    @classmethod
    def of(cls, a: int, b: int) -> "PairKey":
        if a == b:
            raise DomainError("a pair needs two distinct sites")
        return cls(min(a, b), max(a, b))


@dataclass
class ExponentTable:
    """The assembled table: one even integer per unordered site pair, the
    det C exponent 4m, the theta exponent 8m, and a fingerprint naming the
    source divisor orbit."""

    entries: dict[PairKey, int]
    detC_exponent: int
    theta_exponent: int
    divisor_fingerprint: str


def thomae_exponent(spec: CoverSpec, inv: CoverInvariants,
                    D: InvariantDivisor, pair: PairKey) -> int:
    """The exponent of (lambda_a - lambda_b), 4m (2 q_e + n gamma): the
    pair's entry of exponent_table, which checks D first."""
    entries = exponent_table(spec, inv, D).entries
    if pair not in entries:  # PairKey already holds 0 <= first < second
        raise MalformedDataError(f"site position {pair.second} out of "
                                 f"range for {len(spec.sites)} sites")
    return entries[pair]


def exponent_table(spec: CoverSpec, inv: CoverInvariants,
                   D: InvariantDivisor) -> ExponentTable:
    """The full table over unordered site pairs, in ascending pair order,
    read from the integer rows of the module docstring.  D must be
    non-special, otherwise DomainError is raised."""
    _require_nonspecial(spec, inv, D)
    rep = min(_expand(spec, inv, D.beta, inv.u.values()))
    rows, entries = {}, {}
    for key in _pair_keys(len(D.beta)):
        a, b = key.first, key.second
        # canonical site order makes a < b imply r_a <= r_b
        ranks = spec.sites[a].element_rank, spec.sites[b].element_rank
        if ranks not in rows:
            rows[ranks] = _exponent_row(spec, inv, a, b)
        row, d, h = rows[ranks]
        entries[key] = row[(D.beta[b] - h * D.beta[a]) % d]
    return ExponentTable(
        entries=entries,
        detC_exponent=4 * inv.m,
        theta_exponent=8 * inv.m,
        divisor_fingerprint=f"{spec.fingerprint}:orbit{list(rep)}")


# keyed by the site count B, shared by every cover of B sites: +4% without
@lru_cache(maxsize=None)
def _pair_keys(B: int) -> tuple[PairKey, ...]:
    return tuple(PairKey(a, b) for a in range(B) for b in range(a + 1, B))


def _exponent_row(spec: CoverSpec, inv: CoverInvariants, a: int,
                  b: int) -> tuple[tuple[int, ...], int, int]:
    """(E, d, h) for the monodromies of sites a, b; E[s] checked even."""
    data = intersection_data(spec.group, spec.sites[a].element,
                             spec.sites[b].element)
    d, h, oa, ob = data.d, data.h, spec.site_orders[a], spec.site_orders[b]
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
