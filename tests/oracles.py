"""Test oracles that the library itself never calls.

The library is exact: every result is a Fraction or an int, and it has
no third-party dependency.  Two independent routes are kept here, beside
the tests that use them, to cross-check its closed forms:

  * phi_numeric_oracle, the defining root-of-unity sum of
    phi_{h+dZ}(s) evaluated in high precision floating point (mpmath);
  * exact Gauss-Jordan elimination over Fractions and the Pascal-shaped
    level matrices of the kernel solver, which check solve_level and the
    level-0 identity M^-1[0][0] = d.

Tests import this module the way they import conftest.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath

from abelcover import ConsistencyError, DomainError, PhiKey


@lru_cache(maxsize=None)
def _unit_roots(d: int, prec: int):
    with mpmath.workprec(prec):
        return tuple(mpmath.expjpi(mpmath.mpf(2 * j) / d) for j in range(d))


@lru_cache(maxsize=None)
def _oracle_weights(d: int, h: int, prec: int):
    """1 / ((1 - zeta^{kh}) (1 - zeta^{-k})) for k = 1 .. d-1, with
    zeta = e(1/d); shared by every s of the oracle at this (d, h)."""
    roots = _unit_roots(d, prec)
    with mpmath.workprec(prec):
        return tuple(1 / ((1 - roots[(k * h) % d]) * (1 - roots[d - k]))
                     for k in range(1, d))


def phi_numeric_oracle(key: PhiKey, precision_bits: int = 64) -> mpmath.mpc:
    """The defining root-of-unity sum, evaluated in floating point.

    Intended only as a test oracle against phi_exact; the imaginary part
    of the result must vanish up to roundoff.  Requires d >= 2 because
    the defining sum is empty for d = 1.
    """
    if key.d < 2:
        raise DomainError("the defining sum needs d >= 2")
    prec = max(precision_bits + 12, 32)
    d, s = key.d, key.s
    roots = _unit_roots(d, prec)
    weights = _oracle_weights(d, key.h, prec)
    with mpmath.workprec(prec):
        total = mpmath.mpc(0)
        for k, weight in enumerate(weights, start=1):
            total += roots[(k * s) % d] * weight
        return total


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
