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
module assembles.  Both q_e and gamma are provided in their definitional
brute-force form and in closed form so they can be played against each
other in tests, and thomae_exponent combines the closed forms.
exponent_table instead builds one integer row per pair of element ranks
r_a <= r_b, E[s] = m n (2 T(d,h,s) + T(d,h,0) + d (o_a-1)(o_b-1)) /
(d o_a o_b) with T = 4d phi, checks it to be an even integer for every
s < d as it builds it, and reads a pair as E[(beta_b - h beta_a) mod d].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from .cover import CoverInvariants, CoverSpec
from .dedekind import PhiKey, _phi_sum, phi_exact
from .divisors import (InvariantDivisor, _expand, _require_same_cover,
                       is_nonspecial, orbit)
from .errors import ConsistencyError, DomainError
from .group_core import (AbelianGroup, GroupElement, _require_membership,
                         element_order, intersection_data)

__all__ = [
    "PairKey",
    "ExponentTable",
    "q_delta",
    "q_e",
    "q_e_closed_form",
    "gamma",
    "gamma_closed_form",
    "thomae_exponent",
    "exponent_table",
    "relabel_equivalent",
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


def _centered(o: int, b: int) -> Fraction:
    return Fraction(2 * b - o + 1, 2 * o)


def q_delta(spec: CoverSpec, D: InvariantDivisor, a: int, b: int) -> Fraction:
    """The product of the centered weights of D at sites a and b."""
    _require_same_cover(spec, D, a, b)
    oa, ob = spec.site_orders[a], spec.site_orders[b]
    return _centered(oa, D.beta[a]) * _centered(ob, D.beta[b])


def q_e(spec: CoverSpec, inv: CoverInvariants, D: InvariantDivisor,
        a: int, b: int) -> Fraction:
    """Orbit sum of q_delta: the definitional, brute-force route."""
    return sum(
        (q_delta(spec, member, a, b) for member in orbit(spec, inv, D)),
        Fraction(0))


def q_e_closed_form(spec: CoverSpec, inv: CoverInvariants,
                    D: InvariantDivisor, a: int, b: int) -> Fraction:
    """The Dedekind-sum closed form of the orbit sum.

    Any member of the orbit of D gives the same value, because the
    argument beta_b - h beta_a is constant modulo d along the orbit.
    """
    _require_same_cover(spec, D, a, b)
    group = spec.group
    oa, ob = spec.site_orders[a], spec.site_orders[b]
    data = intersection_data(group, spec.sites[a].element,
                             spec.sites[b].element)
    s = (D.beta[b] - data.h * D.beta[a]) % data.d
    return Fraction(group.order, oa * ob) * \
        phi_exact(PhiKey.of(data.d, data.h, s))


def gamma(group: AbelianGroup, s: GroupElement,
          r: GroupElement) -> Fraction:
    """The definitional character average (1/n) sum over chi of
    u_{chi,s} u_{chi,r} / (o(s) o(r)), summed in ints: u_{chi,s} / o(s) =
    sum_l e_l d_l / m_l mod 1 = (sum_l e_l d_l (m/m_l) mod m) / m."""
    if s.is_identity() or r.is_identity():
        raise DomainError("gamma requires nontrivial elements")
    _require_membership(group, s)
    _require_membership(group, r)
    m = group.exponent
    ws, wr = ([x * (m // f) for x, f in zip(e.residues, group.factor_orders)]
              for e in (s, r))
    total = sum(sum(map(mul, e, ws)) % m * (sum(map(mul, e, wr)) % m)
                for e in product(*map(range, group.factor_orders)))
    return Fraction(total, group.order * m * m)


def gamma_closed_form(group: AbelianGroup, s: GroupElement,
                      r: GroupElement) -> Fraction:
    """gamma via intersection data:
    phi_{h+dZ}(0)/(o o') + (o-1)(o'-1)/(4 o o')."""
    if s.is_identity() or r.is_identity():
        raise DomainError("gamma requires nontrivial elements")
    o_s = element_order(group, s)
    o_r = element_order(group, r)
    data = intersection_data(group, s, r)
    phi0 = phi_exact(PhiKey.of(data.d, data.h, 0))
    return (phi0 + Fraction((o_s - 1) * (o_r - 1), 4)) / (o_s * o_r)


def thomae_exponent(spec: CoverSpec, inv: CoverInvariants,
                    D: InvariantDivisor, pair: PairKey) -> int:
    """The exponent of (lambda_a - lambda_b):  4m (2 q_e + n gamma).

    Assembled in exact rational arithmetic and only then converted; a
    non-integral or odd result is an internal error, never silently
    truncated.
    """
    if not is_nonspecial(spec, inv, D):
        raise DomainError("exponents are defined for non-special divisors")
    a, b = pair.first, pair.second
    value = 4 * inv.m * (
        2 * q_e_closed_form(spec, inv, D, a, b)
        + inv.n * gamma_closed_form(spec.group, spec.sites[a].element,
                                    spec.sites[b].element))
    if value.denominator != 1 or value.numerator % 2:
        raise ConsistencyError(
            f"exponent for pair ({a}, {b}) is not an even integer: {value}")
    return int(value)


def exponent_table(spec: CoverSpec, inv: CoverInvariants,
                   D: InvariantDivisor) -> ExponentTable:
    """The full table over unordered site pairs, in ascending pair order,
    read from the integer rows of the module docstring.  D must be
    non-special, otherwise DomainError is raised."""
    if not is_nonspecial(spec, inv, D):
        raise DomainError("exponents are defined for non-special divisors")
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


@lru_cache(maxsize=None)
def _pair_keys(B: int) -> tuple[PairKey, ...]:
    return tuple(PairKey(a, b) for a in range(B) for b in range(a + 1, B))


def _exponent_row(spec: CoverSpec, inv: CoverInvariants, a: int,
                  b: int) -> tuple[tuple[int, ...], int, int]:
    """(E, d, h) for the monodromies of sites a, b; E[s] checked even."""
    data = intersection_data(spec.group, spec.sites[a].element,
                             spec.sites[b].element)
    d, h, oa, ob = data.d, data.h, spec.site_orders[a], spec.site_orders[b]
    base = _phi_sum(d, h, 0) + d * (oa - 1) * (ob - 1)
    row = [divmod(inv.m * inv.n * (2 * _phi_sum(d, h, s) + base),
                  d * oa * ob) for s in range(d)]
    if any(rest or value % 2 for value, rest in row):
        raise ConsistencyError(f"exponent row of sites ({a}, {b}) has an "
                               f"odd or non-integral entry: {row}")
    return tuple(value for value, _ in row), d, h


def relabel_equivalent(spec: CoverSpec, inv: CoverInvariants,
                       D1: InvariantDivisor,
                       D2: InvariantDivisor) -> tuple[int, ...] | None:
    """A site permutation carrying the weights of D1 to those of D2, if
    the two divisors have identical weight-level cardinalities within
    every monodromy block; None otherwise.

    The permutation acts within each block, and position a of D1 maps to
    position perm[a] of D2 with D2.beta[perm[a]] = D1.beta[a].  When it
    exists, the two exponent tables agree up to relabeling pairs by it.
    """
    for D in (D1, D2):
        if not is_nonspecial(spec, inv, D):
            raise DomainError(
                "relabel equivalence is defined for non-special divisors")
    B = len(spec.sites)
    blocks: dict[int, list[int]] = {}
    for k, site in enumerate(spec.sites):
        blocks.setdefault(site.element_rank, []).append(k)
    perm: list[int | None] = [None] * B
    for positions in blocks.values():
        by_value_1: dict[int, list[int]] = {}
        by_value_2: dict[int, list[int]] = {}
        for k in positions:
            by_value_1.setdefault(D1.beta[k], []).append(k)
            by_value_2.setdefault(D2.beta[k], []).append(k)
        if {v: len(ks) for v, ks in by_value_1.items()} != \
                {v: len(ks) for v, ks in by_value_2.items()}:
            return None
        for v, ks in by_value_1.items():
            for src, dst in zip(ks, by_value_2[v]):
                perm[src] = dst
    out = tuple(perm)  # type: ignore[arg-type]
    for a in range(B):
        if D2.beta[out[a]] != D1.beta[a]:
            raise ConsistencyError("relabeling permutation failed to verify")
    return out
