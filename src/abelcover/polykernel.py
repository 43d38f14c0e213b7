"""Constructive kernel polynomials bounding a mixed degree.

Given f_0 of degree d+e and f_1 of degree d+e-1 whose leading coefficient
is d times that of f_0, there exist f_2, ..., f_d with deg f_l <= d+e-l
such that the assembly

    S(z, w) = sum_{l=0}^{d} f_l(w) (z - w)^l

has degree at most e in w.  That leading-coefficient relation is also
necessary, so the solver refuses anything else.

Writing f_l(w) = sum_k a_{l,k} (-w)^k, the vanishing of the coefficient
of z^i w^j for every j > e groups into levels indexed by
h = d + e - i - j with 0 <= h < d.  Level h couples the anti-diagonal
coefficients x_l = a_{l, d+e-h-l} through the equations

    sum_l C(l, i) x_l = 0          for i = 0, ..., d-h-1.

With a = min(h, e) and r = d - h, the canonical solution sets the free
x_l with 2 <= l <= a, and every coefficient in no constraint, to zero.
x_0 and x_1 are given (x_1 is only checked at level 0), so level h is a
square system in x_{a+1}, ..., x_{a+r} of determinant 1 whose right-hand
side is zero past its first two entries; solve_level solves it in closed
form, with no elimination.  At level 0 the matrix M has the entries
C(l, i) for i = 0..d-1 and l = 1..d, and M^-1[0][0] = d forces
x_1 = -d x_0, that is lead(f_1) = d lead(f_0).
The finished solution is checked on every coefficient of z^i w^j with
j > e, the ones the bound constrains.

One integer core runs the levels, the check and the output on L f_0 and
L f_1 over a common denominator L: solve_polexist scales its inputs by
the lcm of their denominators, build_pchichi builds its rows from the
branch values, f_1 from the derivative of f_0.  Row l has d+e-l+1
entries, so deg f_l <= d+e-l holds by construction.  Every coefficient
a caller sees is a Fraction, built once at the end; the zero ones share
one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from itertools import count, repeat
from math import comb, lcm

from .cover import (CoverInvariants, CoverSpec, _character_rank,
                    _require_validated)
from .errors import (ConsistencyError, DomainError, NoSolutionError,
                     _rational, _typed, _Value)
from .group_core import Character

__all__ = [
    "UniPoly",
    "KernelSolution",
    "solve_polexist",
    "build_pchichi",
]


class UniPoly(_Value):
    """A univariate polynomial with exact rational coefficients, stored
    low degree first with trailing zeros trimmed.  The zero polynomial
    has degree -1.  Coefficients must be Fractions or ints (not bools)."""

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence) -> None:
        cs = [c if type(c) is Fraction else _rational(c, "polynomial input ")
              for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def monomial(cls, c, k: int) -> "UniPoly":
        if _typed(k, int, "monomial degree ") < 0:
            raise DomainError(f"monomial degree must be an int >= 0, got {k!r}")
        return cls((Fraction(0),) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, x) -> Fraction:
        """The value at x, which must be an int or a Fraction."""
        x, acc = _rational(x, "polynomial input "), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class KernelSolution(_Value):
    """The list f_0, ..., f_d together with the degree parameters."""

    __slots__ = ("polys", "d", "e")
    polys: tuple[UniPoly, ...]
    d: int
    e: int

    def __init__(self, polys: tuple[UniPoly, ...], d: int, e: int) -> None:
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)


def solve_level(a: int, r: int, b0: int, b1: int) -> list[int]:
    """Solve sum_{l=a+1}^{a+r} C(l, i) x_l = b_i for i = 0..r-1, where
    b_0 = b0, b_1 = b1 (absent when r = 1) and every other b_i is zero.

    As sum_i C(l, i) y^i = (1+y)^l, x_{a+j} is the coefficient of s^(j-1)
    in Q(s-1), Q(y) = (b0 - b1)(1+y)^-(a+1) + b1 (1+y)^-a mod y^r.  In
    ((1+y)^-p mod y^r)(s-1), s^m has the coefficient
    (-1)^m C(p-1+m, m) C(p-1+r, r-1-m) by the hockey-stick identity, an
    integer, so integer right-hand sides give integer x_l.
    """
    def at_s_minus_one(p: int, m: int) -> int:
        if p == 0:
            return int(m == 0)
        return (-1) ** m * comb(p - 1 + m, m) * comb(p - 1 + r, r - 1 - m)
    c = b0 - b1
    return [c * at_s_minus_one(a + 1, m) + b1 * at_s_minus_one(a, m)
            for m in range(r)]


def _check_bound(rows: list[list[int]], d: int, e: int) -> None:
    """Refuse the rows a_{l,k} of L f_0, ..., L f_d (by power of -w, row l
    of d+e-l+1 entries) if their assembly has a nonzero coefficient of
    z^i w^j with j > e.  Only those coefficients are computed: in
    L S(z, w), z^i (-w)^j has the coefficient sum_l C(l, i) a_{l,j-l+i}."""
    high = [[0] * (d - i) for i in range(d + 1)]  # j = e+1+t <= d+e-i
    for l, row in enumerate(rows):
        for i in range(l + 1):
            lo, dst, c = max(e + 1 - l + i, 0), high[i], comb(l, i)
            t = lo + l - i - e - 1
            dst[t:] = [x + c * a for x, a in zip(dst[t:], row[lo:])]
    wdeg = max((e + 1 + t for dst in high for t, x in enumerate(dst) if x),
               default=e)
    if wdeg > e:
        raise ConsistencyError(
            f"assembly has w-degree {wdeg}, above the bound e = {e}")


def _solve(f0: UniPoly, f1: UniPoly, rows: list[list[int]], scale: int,
           d: int, e: int) -> KernelSolution:
    """The canonical solution from rows = [L f_0, L f_1], int coefficients
    by power of w over L = scale: level solves, bound check, output."""
    n = d + e
    # a_{l,k} = rows[l][k] is the coefficient of (-w)^k in L f_l
    rows = [[-c if k & 1 else c for k, c in enumerate(row)] for row in rows]
    rows += ([0] * (n - l + 1) for l in range(2, d + 1))
    for h in range(d):
        x1 = rows[1][n - h - 1] if h else 0  # unknown at level 0, checked
        top = min(h, e)
        sol = solve_level(top, d - h, -(rows[0][n - h] + x1), -x1)
        if h == 0 and sol[0] != rows[1][n - 1]:
            raise NoSolutionError(
                f"the leading coefficient of f1 must be d = {d} times "
                f"that of f0; got {f1.lead} against {f0.lead}")
        # at h = 0 the first entry rewrites lead(L f_1) with itself
        for l, x in enumerate(sol, top + 1):
            rows[l][n - h - l] = x
    _check_bound(rows, d, e)
    zero = Fraction(0)
    return KernelSolution((f0, f1, *(UniPoly(tuple(
        Fraction(-c if k & 1 else c, scale) if c else zero
        for k, c in enumerate(row))) for row in rows[2:])), d, e)


def _check_inputs(f0: UniPoly, f1: UniPoly, d: int, e: int) -> None:
    for name, x in (("d=", d), ("e=", e)):
        _typed(x, int, name)
    if d < 1 or e < 1:
        raise DomainError(f"need d >= 1 and e >= 1, got d={d}, e={e}")
    for name, f, want in (("f0", f0, d + e), ("f1", f1, d + e - 1)):
        if _typed(f, UniPoly, f"{name} ").degree != want:
            raise DomainError(
                f"{name} must have degree {want}, got {f.degree}")


def solve_polexist(f0: UniPoly, f1: UniPoly, d: int, e: int) -> KernelSolution:
    """Construct the canonical f_2, ..., f_d for the given f_0, f_1.

    Preconditions: d >= 1, e >= 1, deg f_0 = d+e, deg f_1 = d+e-1, with
    f_0 and f_1 UniPolys and d and e ints by the type rule.
    Raises NoSolutionError when lead(f_1) differs from d * lead(f_0); the
    level-0 system leaves no other choice.  The returned solution sets
    every free coefficient to zero and is verified on every coefficient
    the bound constrains.  The levels and the check run on L f_l as
    ints, L the lcm of the denominators in f_0 and f_1; each new
    coefficient becomes a Fraction once, at the end.
    """
    _check_inputs(f0, f1, d, e)
    scale = lcm(*(c.denominator for f in (f0, f1) for c in f.coeffs))
    return _solve(f0, f1, [[c.numerator * (scale // c.denominator)
                            for c in f.coeffs] for f in (f0, f1)],
                  scale, d, e)


def build_pchichi(spec: CoverSpec, inv: CoverInvariants,
                  chi: Character) -> KernelSolution:
    """The kernel construction attached to a nontrivial character.

    f_0 is the monic product of (z - lambda) over the sites whose monodromy
    lies outside ker chi, of degree t_chi + t_conj as u_conj = -u mod o.
    f_1 is f_0 times the sum of u_{chi,sigma}/o(sigma) / (z - lambda), of
    lead t_chi.  The solver's checks (d = t_chi, e = t_conj, both >= 1 as
    the cover is connected) see the degree and the lead; on a validated
    cover both hold, so their DomainError and NoSolutionError never fire.

    Both are built over the integers.  With lambda = p/q in lowest terms,
    F_0 = prod (q z - p) has the lead Q = prod q and f_0 = F_0 / Q.  With
    m the lcm of the active site orders, site k has the weight
    c_k = u_k m / o_k; with c_0 the most common weight,

        m Q f_1 = c_0 F_0' + sum_{c_k != c_0} (c_k - c_0) q_k
                  prod_{j != k} (q_j z - p_j).

    The sites of weight c_0 are multiplied into F_0 first; each later
    factor (q z - p) multiplies both rows and adds (c_k - c_0) q_k times
    the old F_0 to the second.  A cover whose active sites share one
    weight builds F_0 alone, nothing is divided, and the solver core takes
    m F_0 and m Q f_1 over the scale m Q.
    """
    _require_validated(spec, inv)
    c = _character_rank(spec, chi)
    if not c:
        raise DomainError("the construction needs a nontrivial character")
    tchi, tbar = inv.t[c], inv.t[_character_rank(spec, chi.conjugate())]
    active = [(site.value, u, o) for site, u, o in zip(
        spec.sites, inv.u[c], spec.site_orders) if u > 0]
    m = lcm(*(o for _, _, o in active))
    sites = [(v.numerator, v.denominator, u * (m // o)) for v, u, o in active]
    c0 = Counter(w for _, _, w in sites).most_common(1)[0][0] if sites else 0
    row0, row1 = [1], []
    for p, q, w in sorted(sites, key=lambda site: site[2] != c0):
        if w != c0:  # so is every later weight; row1 is 0 up to here
            w, row1 = (w - c0) * q, row1 or [0] * len(row0)
            row1 = [q * hi - p * lo + w * f
                    for lo, hi, f in zip(row1 + [0], [0] + row1, row0 + [0])]
        row0 = [q * hi - p * lo for lo, hi in zip(row0 + [0], [0] + row0)]
    # m Q f_1 = c_0 F_0' + row1, whose top entry is 0
    row1 = [c0 * k * a + b
            for k, a, b in zip(count(1), row0[1:], row1 or repeat(0))]
    lead, scale = row0[-1], m * row0[-1]
    f0 = UniPoly(tuple(Fraction(x, lead) for x in row0))
    f1 = UniPoly(tuple(Fraction(x, scale) for x in row1))
    _check_inputs(f0, f1, tchi, tbar)
    return _solve(f0, f1, [[m * c for c in row0], row1], scale, tchi, tbar)
