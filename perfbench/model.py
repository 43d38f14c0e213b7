"""The benchmark's own arithmetic for cover documents.

Everything the benchmark needs in order to pick inputs and to check
outputs is recomputed here from the cover document, without importing
abelcover: the canonical site order, element orders, the pairing
integers u, the character integers t, the counting condition that makes
a divisor non-special, the kernel polynomials f_0 and f_1, and the
expansion of a kernel assembly.  A defect in the library
therefore cannot hide behind the check that is meant to catch it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm, prod


class CoverModel:
    """A cover document in canonical site order, with u and t tables.

    Sites are sorted by element residues, ties kept in document order,
    which is the site order abelcover documents for weight vectors.
    """

    def __init__(self, doc: dict):
        self.factors = tuple(doc["group"])
        points = doc["branch_points"]
        order = sorted(range(len(points)),
                       key=lambda i: (tuple(points[i]["element"]), i))
        self.elements = [tuple(points[i]["element"]) for i in order]
        self.values = [Fraction(points[i]["lambda"]) for i in order]
        self.n = prod(self.factors)
        self.m = lcm(*self.factors)
        self.orders = [lcm(*(f // gcd(f, r)
                             for f, r in zip(self.factors, e)))
                       for e in self.elements]
        self.chars = [chi for chi in product(*(range(f)
                                               for f in self.factors))
                      if any(chi)]
        # u[chi][k]: chi(sigma_k) = e(u / o_k)
        self.u = {chi: [self._pairing(chi, e, o)
                        for e, o in zip(self.elements, self.orders)]
                  for chi in self.chars}
        self.t = {}
        for chi in self.chars:
            total = sum((Fraction(u, o) for u, o in
                         zip(self.u[chi], self.orders)), Fraction(0))
            if total.denominator != 1:
                raise ValueError(f"cover document does not close: t{chi} "
                                 f"= {total}")
            self.t[chi] = int(total)

    def _pairing(self, chi, element, o: int) -> int:
        value = sum((Fraction(c * r, f) for c, r, f in
                     zip(chi, element, self.factors)), Fraction(0)) % 1
        return int(value * o)

    @property
    def sites(self) -> int:
        return len(self.elements)

    def conjugate(self, chi: tuple) -> tuple:
        return tuple((-c) % f for c, f in zip(chi, self.factors))

    def is_nonspecial(self, beta) -> bool:
        """The counting condition: for every nontrivial chi, exactly t_chi
        sites have beta >= o - u_chi."""
        for chi in self.chars:
            count = sum(1 for b, o, u in zip(beta, self.orders, self.u[chi])
                        if b >= o - u)
            if count != self.t[chi]:
                return False
        return True

    def random_weights(self, rng) -> list[int]:
        return [rng.randrange(o) for o in self.orders]

    def sample_nonspecial(self, rng) -> list[int]:
        """A uniform non-special weight vector, by rejection."""
        while True:
            beta = self.random_weights(rng)
            if self.is_nonspecial(beta):
                return beta

    def sample_special(self, rng) -> list[int]:
        """A weight vector in range that fails the counting condition."""
        while True:
            beta = self.random_weights(rng)
            if not self.is_nonspecial(beta):
                return beta

    def degree_identity(self) -> int:
        """2m times the sum of t(t-1) over characters: the sum of every
        exponent table of the cover."""
        return 2 * self.m * sum(t * (t - 1) for t in self.t.values())


def poly_from_roots(roots) -> list[Fraction]:
    """Coefficients, low degree first, of the monic product of (z - r)."""
    out = [Fraction(1)]
    for r in roots:
        shifted = [Fraction(0)] + out
        for k, c in enumerate(out):
            shifted[k] -= r * c
        out = shifted
    return out


def poly_degree(coeffs) -> int:
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k]:
            return k
    return -1


def assembly_w_degree(polys: list[list[Fraction]]) -> int:
    """The w-degree of S(z, w) = sum_l f_l(w) (z - w)^l.

    The coefficient of z^i is sum over l >= i of
    C(l, i) (-1)^(l-i) w^(l-i) f_l(w).
    """
    worst = -1
    for i in range(len(polys)):
        acc: dict[int, Fraction] = {}
        for l in range(i, len(polys)):
            scale = comb(l, i) * (-1) ** (l - i)
            for k, c in enumerate(polys[l]):
                if c:
                    acc[k + l - i] = acc.get(k + l - i, 0) + scale * c
        nonzero = [k for k, c in acc.items() if c]
        if nonzero:
            worst = max(worst, max(nonzero))
    return worst
