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
The finished solution is verified by fully expanding S(z, w) and reading
off its w-degree.

The solver clears denominators once: f_0 and f_1 are scaled to integer
rows over one common denominator L, and the levels and the expansion
run on ints.  Row l has d+e-l+1 entries, so deg f_l <= d+e-l holds by
construction; each coefficient becomes a Fraction only at the end.
build_pchichi builds f_0 and f_1 over the integers too, multiplying in
one branch factor at a time: f_1 is a weighted logarithmic derivative
of f_0, so the product rule builds it alongside f_0 with no division.
Every coefficient a caller sees is a Fraction.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
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


def _row_degree(row: Sequence[int]) -> int:
    """The degree of the polynomial with these coefficients; -1 if zero."""
    k = len(row) - 1
    while k >= 0 and not row[k]:
        k -= 1
    return k


def _expand(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """S(z, w) = sum_l f_l(w) (z - w)^l expanded fully from the integer
    rows of f_0, ..., f_d: entry i lists the coefficients of z^i by
    power of w."""
    width = max(len(row) + l for l, row in enumerate(rows))
    out = [[0] * width for _ in rows]
    for l, row in enumerate(rows):
        for i in range(l + 1):
            c, dst, lo = comb(l, i) * (-1) ** (l - i), out[i], l - i
            hi = lo + len(row)
            dst[lo:hi] = [x + c * a for x, a in zip(dst[lo:hi], row)]
    return out


def solve_polexist(f0: UniPoly, f1: UniPoly, d: int, e: int) -> KernelSolution:
    """Construct the canonical f_2, ..., f_d for the given f_0, f_1.

    Preconditions: d >= 1, e >= 1, deg f_0 = d+e, deg f_1 = d+e-1, with
    f_0 and f_1 UniPolys and d and e ints by the type rule.
    Raises NoSolutionError when lead(f_1) differs from d * lead(f_0); the
    level-0 system leaves no other choice.  The returned solution sets
    every free coefficient to zero and is verified by full expansion.
    The levels, the checks and the expansion run on L f_l as ints, L the
    lcm of the denominators in f_0 and f_1; each new coefficient becomes
    a Fraction once, at the end.
    """
    for name, x in (("d=", d), ("e=", e)):
        _typed(x, int, name)
    if d < 1 or e < 1:
        raise DomainError(f"need d >= 1 and e >= 1, got d={d}, e={e}")
    n = d + e
    for name, f, want in (("f0", f0, n), ("f1", f1, n - 1)):
        if _typed(f, UniPoly, f"{name} ").degree != want:
            raise DomainError(
                f"{name} must have degree {want}, got {f.degree}")
    scale = lcm(*(c.denominator for f in (f0, f1) for c in f.coeffs))
    rows = [[c.numerator * (scale // c.denominator) for c in f.coeffs]
            for f in (f0, f1)]
    # a_{l,k} is the coefficient of (-w)^k in L f_l, rows[l][k] that of w^k
    a0, a1 = ([c if k % 2 == 0 else -c for k, c in enumerate(row)]
              for row in rows)
    rows += ([0] * (n - l + 1) for l in range(2, d + 1))
    for h in range(d):
        x1 = a1[n - h - 1] if h else 0  # unknown at level 0, checked below
        top = min(h, e)
        sol = solve_level(top, d - h, -(a0[n - h] + x1), -x1)
        if h == 0 and sol[0] != a1[n - 1]:
            raise NoSolutionError(
                f"the leading coefficient of f1 must be d = {d} times "
                f"that of f0; got {f1.lead} against {f0.lead}")
        # at h = 0 the first entry rewrites lead(L f_1) with itself
        for l, x in enumerate(sol, top + 1):
            k = n - h - l
            rows[l][k] = x if k % 2 == 0 else -x
    wdeg = max(map(_row_degree, _expand(rows)))
    if wdeg > e:
        raise ConsistencyError(
            f"assembly has w-degree {wdeg}, above the bound e = {e}")
    return KernelSolution((f0, f1, *(
        UniPoly(tuple(Fraction(c, scale) for c in row)) for row in rows[2:])),
        d, e)


def build_pchichi(spec: CoverSpec, inv: CoverInvariants,
                  chi: Character) -> KernelSolution:
    """The kernel construction attached to a nontrivial character.

    f_0 is the monic product of (z - lambda) over the sites whose monodromy
    lies outside ker chi, of degree t_chi + t_conj as u_conj = -u mod o.
    f_1 is f_0 times the sum of u_{chi,sigma}/o(sigma) / (z - lambda), of
    lead t_chi.  solve_polexist (d = t_chi, e = t_conj, both >= 1 as the
    cover is connected) checks the degree and the lead; on a validated
    cover both hold, so its DomainError and NoSolutionError never fire.

    Both are built over the integers, in one pass over the active sites.
    With lambda = p/q in lowest terms, F_0 = prod (q z - p) has the lead
    Q = prod q and f_0 = F_0 / Q.  With m the lcm of the active site
    orders, m Q f_1 = sum_k w_k prod_{j != k} (q_j z - p_j) with
    w = u (m/o) q; by the product rule, each factor (q z - p) multiplies
    both rows and adds w times the old F_0 to the second, so nothing is
    divided.
    """
    _require_validated(spec, inv)
    c = _character_rank(spec, chi)
    if not c:
        raise DomainError("the construction needs a nontrivial character")
    tchi, tbar = inv.t[c], inv.t[_character_rank(spec, chi.conjugate())]
    active = [(site.value.numerator, site.value.denominator, u, o)
              for site, u, o in zip(spec.sites, inv.u[c], spec.site_orders)
              if u > 0]
    m = lcm(*(o for _, _, _, o in active))
    row0, row1 = [1], [0]
    for p, q, u, o in active:  # both times (q z - p), row1 plus w F_0
        w = u * (m // o) * q
        row0, row1 = (
            [q * hi - p * lo for lo, hi in zip(row0 + [0], [0] + row0)],
            [q * hi - p * lo + w * f
             for lo, hi, f in zip(row1 + [0], [0] + row1, row0 + [0])])
    scale = m * row0[-1]  # m Q; UniPoly trims row1's top entry, always 0
    return solve_polexist(
        UniPoly(tuple(Fraction(c, row0[-1]) for c in row0)),
        UniPoly(tuple(Fraction(c, scale) for c in row1)), tchi, tbar)
