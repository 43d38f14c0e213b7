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

At level 0 the unknowns x_1, ..., x_d form the square system M x = b with
M[i][l] = C(l, i) and b determined by the leading coefficient of f_0.
M factors as J T with T the upper unipotent Pascal matrix and J the lower
unipotent Jordan matrix, so it is invertible, and the upper-left entry of
its inverse equals d; that entry is exactly why lead(f_1) = d lead(f_0)
is forced.  At level h >= 1 the coefficients x_l with 2 <= l <= min(h, e)
are free and the canonical solution sets them, along with every
coefficient that appears in no constraint, to zero; the remaining square
system is solved exactly.  The finished solution is verified by fully
expanding S(z, w) symbolically and reading off its w-degree.

All arithmetic is over exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .cover import CoverInvariants, CoverSpec
from .errors import ConsistencyError, DomainError, NoSolutionError
from .group_core import Character

__all__ = [
    "UniPoly",
    "KernelSolution",
    "solve_polexist",
    "build_pchichi",
    "assembly_by_z_power",
    "assembly_w_degree",
    "binomial_level_matrix",
    "pascal_factor",
    "jordan_factor",
    "matrix_multiply",
    "matrix_inverse",
    "solve_linear_system",
]


@dataclass(frozen=True)
class UniPoly:
    """A univariate polynomial with exact rational coefficients, stored
    low degree first with trailing zeros trimmed.  The zero polynomial
    has degree -1."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def of(cls, coeffs: Sequence) -> "UniPoly":
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def monomial(cls, c, k: int) -> "UniPoly":
        return cls((Fraction(0),) * k + (Fraction(c),))

    @classmethod
    def from_roots(cls, roots: Sequence) -> "UniPoly":
        out = cls((Fraction(1),))
        for r in roots:
            out = out * cls((-Fraction(r), Fraction(1)))
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self.coefficient(k) + other.coefficient(k)
                             for k in range(n)))

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero() or other.is_zero():
                return UniPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(tuple(out))
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "UniPoly":
        """Multiply by w^k."""
        if self.is_zero():
            return self
        return UniPoly((Fraction(0),) * k + self.coeffs)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Exact rational polynomial division, quotient and remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.lead
        dlen = len(other.coeffs)
        for k in range(len(rem) - dlen, -1, -1):
            factor = rem[k + dlen - 1] / dlead
            q[k] = factor
            if factor:
                for j, c in enumerate(other.coeffs):
                    rem[k + j] -= factor * c
        return UniPoly(tuple(q)), UniPoly(tuple(rem[:dlen - 1]))

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = [f"{c}*w^{k}" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(parts)


@dataclass(frozen=True)
class KernelSolution:
    """The list f_0, ..., f_d together with the degree parameters."""

    polys: tuple[UniPoly, ...]
    d: int
    e: int


def binomial_level_matrix(d: int) -> list[list[Fraction]]:
    """The level-0 system matrix M: rows i = 0..d-1, columns l = 1..d,
    entries C(l, i)."""
    return [[Fraction(comb(l, i)) for l in range(1, d + 1)]
            for i in range(d)]


def pascal_factor(d: int) -> list[list[Fraction]]:
    """The upper unipotent Pascal matrix T with T[i][l] = C(l, i) for
    i, l = 0..d-1."""
    return [[Fraction(comb(l, i)) for l in range(d)] for i in range(d)]


def jordan_factor(d: int) -> list[list[Fraction]]:
    """The lower unipotent Jordan matrix J: ones on the diagonal and the
    first subdiagonal."""
    return [[Fraction(1) if i == l or i == l + 1 else Fraction(0)
             for l in range(d)] for i in range(d)]


def matrix_multiply(A: list[list[Fraction]],
                    B: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
             for j in range(len(B[0]))] for i in range(len(A))]


def _gauss_jordan(work: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduce the augmented rows [A | R] of a square A to [I | A^-1 R] in
    place and return the right-hand blocks A^-1 R."""
    n = len(work)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ConsistencyError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [c * inv for c in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [c - factor * p for c, p in zip(work[r], work[col])]
    return [row[n:] for row in work]


def matrix_inverse(A: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(A)
    return _gauss_jordan([list(row) + [Fraction(int(i == j)) for j in range(n)]
                          for i, row in enumerate(A)])


def solve_linear_system(A: list[list[Fraction]],
                        b: list[Fraction]) -> list[Fraction]:
    """Solve the square system A x = b exactly by Gauss-Jordan elimination."""
    work = [list(row) + [rhs] for row, rhs in zip(A, b)]
    return [x for (x,) in _gauss_jordan(work)]


def solve_polexist(f0: UniPoly, f1: UniPoly, d: int, e: int) -> KernelSolution:
    """Construct the canonical f_2, ..., f_d for the given f_0, f_1.

    Preconditions: d >= 1, e >= 1, deg f_0 = d+e, deg f_1 = d+e-1.
    Raises NoSolutionError when lead(f_1) differs from d * lead(f_0); the
    level-0 system leaves no other choice.  The returned solution sets
    every free coefficient to zero and is verified by full expansion.
    """
    if d < 1 or e < 1:
        raise DomainError(f"need d >= 1 and e >= 1, got d={d}, e={e}")
    if f0.degree != d + e:
        raise DomainError(
            f"f0 must have degree d+e = {d + e}, got {f0.degree}")
    if f1.degree != d + e - 1:
        raise DomainError(
            f"f1 must have degree d+e-1 = {d + e - 1}, got {f1.degree}")

    def a_known(l: int, k: int) -> Fraction:
        # coefficient of (-w)^k in f_l for the two given polynomials
        c = (f0 if l == 0 else f1).coefficient(k)
        return c if k % 2 == 0 else -c

    # unknown a-coefficients per polynomial index l, keyed by power k
    a_solved: dict[int, dict[int, Fraction]] = {l: {} for l in range(2, d + 1)}

    for h in range(d):
        if h == 0:
            A = binomial_level_matrix(d)
            b = [-a_known(0, d + e)] + [Fraction(0)] * (d - 1)
            sol = solve_linear_system(A, b)
            if sol[0] != a_known(1, d + e - 1):
                raise NoSolutionError(
                    f"the leading coefficient of f1 must be d = {d} times "
                    f"that of f0; got {f1.lead} against {f0.lead}")
            for l in range(2, d + 1):
                a_solved[l][d + e - l] = sol[l - 1]
            continue
        L = min(d, d + e - h)
        frozen_top = min(h, e)
        unknowns = list(range(frozen_top + 1, L + 1))
        if not unknowns:
            continue
        rows = d - h
        A = [[Fraction(comb(l, i)) for l in unknowns] for i in range(rows)]
        b = []
        for i in range(rows):
            rhs = -(a_known(0, d + e - h) * comb(0, i)
                    + a_known(1, d + e - h - 1) * comb(1, i))
            b.append(Fraction(rhs))
        sol = solve_linear_system(A, b)
        for l, val in zip(unknowns, sol):
            a_solved[l][d + e - h - l] = val

    polys = [f0, f1]
    for l in range(2, d + 1):
        size = max(a_solved[l], default=-1) + 1
        std = [Fraction(0)] * size
        for k, val in a_solved[l].items():
            std[k] = val if k % 2 == 0 else -val
        polys.append(UniPoly(tuple(std)))

    solution = KernelSolution(tuple(polys), d, e)
    _verify(solution)
    return solution


def assembly_by_z_power(solution: KernelSolution) -> list[UniPoly]:
    """The assembly S(z, w), expanded fully: entry i is the coefficient
    of z^i as a polynomial in w."""
    d = solution.d
    out = [UniPoly.zero() for _ in range(d + 1)]
    for l, fl in enumerate(solution.polys):
        for i in range(l + 1):
            c = comb(l, i) * (-1) ** (l - i)
            out[i] = out[i] + fl.shift(l - i) * c
    return out


def assembly_w_degree(solution: KernelSolution) -> int:
    """The exact w-degree of the assembly, from the full expansion."""
    return max(p.degree for p in assembly_by_z_power(solution))


def _verify(solution: KernelSolution) -> None:
    d, e = solution.d, solution.e
    for l, fl in enumerate(solution.polys):
        if fl.degree > d + e - l:
            raise ConsistencyError(
                f"f_{l} has degree {fl.degree}, above the bound {d + e - l}")
    wdeg = assembly_w_degree(solution)
    if wdeg > e:
        raise ConsistencyError(
            f"assembly has w-degree {wdeg}, above the bound e = {e}")


def build_pchichi(spec: CoverSpec, inv: CoverInvariants,
                  chi: Character) -> KernelSolution:
    """The kernel construction attached to a nontrivial character.

    f_0 is the monic product of (z - lambda) over the branch sites whose
    monodromy lies outside ker chi; its degree is t_chi + t_conj.  f_1
    multiplies f_0 by the weighted sum of 1/(z - lambda) with weights
    u_{chi,sigma}/o(sigma), each term an exact polynomial quotient, so
    lead(f_1) = t_chi.  The pair is then handed to solve_polexist with
    d = t_chi and e = t_conj.
    """
    if chi.is_trivial():
        raise DomainError("the construction needs a nontrivial character")
    tchi = inv.t[chi]
    tbar = inv.t[chi.conjugate()]
    if tchi < 1 or tbar < 1:
        raise DomainError(
            f"need t_chi >= 1 on both chi and its conjugate, got "
            f"{tchi} and {tbar}")
    active = [(site.value, u, o) for site, u, o in
              zip(spec.sites, inv.u[chi], spec.site_orders) if u > 0]
    f0 = UniPoly.from_roots([value for value, _, _ in active])
    if f0.degree != tchi + tbar:
        raise ConsistencyError(
            f"support polynomial has degree {f0.degree}, expected "
            f"t_chi + t_conj = {tchi + tbar}")
    f1 = UniPoly.zero()
    for value, u, o in active:
        quotient, remainder = f0.divmod(UniPoly.of([-value, 1]))
        if not remainder.is_zero():
            raise ConsistencyError(
                "dividing out a branch factor left a remainder")
        f1 = f1 + quotient * Fraction(u, o)
    if f1.lead != tchi * f0.lead:
        raise ConsistencyError(
            f"lead(f1) = {f1.lead} is not t_chi = {tchi} times lead(f0)")
    return solve_polexist(f0, f1, tchi, tbar)
