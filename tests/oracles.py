"""Test oracles that the library itself never calls.

The library takes one exact route to each quantity and has no
third-party dependency.  Second, independent routes are kept here,
beside the tests that use them, to cross-check it:

  * phi_numeric_oracle, the defining root-of-unity sum of
    phi_{h+dZ}(s) in high precision floating point (mpmath), and the
    classical Dedekind sum and integrality classes of the phi laws;
  * phi_sum_definition, the per-point integer real-form sum 4d phi(s),
    which the library no longer evaluates: dedekind.py reaches every
    value by the reciprocity law, and this sum checks it point by point;
  * q_delta, the orbit sum q_e and the character average gamma in
    definitional and closed form, and thomae_exponent_closed_form,
    which checks the integer exponent rows in rational arithmetic;
  * exact Gauss-Jordan elimination over Fractions and the Pascal-shaped
    level matrices of the kernel solver, which check solve_level and the
    level-0 identity M^-1[0][0] = d;
  * poly_from_roots and kernel_pair, the Fraction construction of the
    kernel's f_0 = prod (z - lambda) and f_1, which check the integer
    rows that build_pchichi builds over one common denominator; the
    oracle divides f_0 by each branch factor, while build_pchichi
    multiplies the factors in by the product rule, so the two reach f_1
    by independent routes;
  * pairing_u_definition, the character pairing reduced modulo 1 in
    Fraction arithmetic, which checks the integer pairing_u;
  * generated_subgroup, the breadth-first closure of the branch elements
    that checks the connectedness validate reads off t, and
    packed_tables, the per-weight definition of validate's packed
    counting tables;
  * cyclic_subgroup, the list of multiples of an element, which checks
    intersection_data by brute-force intersection; degree, the divisor
    degree by its definition, which checks the degree g - 1 that validate
    proves once per cover; support_p, the root set of the support
    polynomial; differential_basis_descriptor, the (chi, k) markers of a
    basis of holomorphic differentials, which checks that the counts t
    give g of them; negation_N, the involution beta -> o - 1 - beta on
    InvariantDivisors (the CLI selftest checks the listing's closure
    under it on weight tuples); relabel_equivalent, a blockwise site
    permutation carrying one divisor's weights to another's, under which
    the two exponent tables must agree;
  * assembly_by_z_power and assembly_w_degree, the kernel assembly
    S(z, w) expanded in Fraction arithmetic, which checks the degree
    bound that solve_polexist verifies on integer rows;
  * hyperelliptic_periods, even_characteristics and theta_constant, the
    period matrix of y^2 = prod (x - lambda) over real branch values by
    numerical quadrature and its theta constants by a truncated lattice
    sum (mpmath), which check the exponent tables against the Thomae
    formula itself.

Tests import this module the way they import conftest.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd
from operator import mul

import mpmath

from abelcover import (AbelianGroup, Character, ConsistencyError,
                       CoverInvariants, CoverSpec, DomainError, GroupElement,
                       InvariantDivisor, KernelSolution, MalformedDataError,
                       PhiKey, UniPoly, dual_group, element_order,
                       intersection_data, is_nonspecial, orbit, phi_exact)
from abelcover.cover import _character_rank
from abelcover.divisors import _require_same_cover
from abelcover.group_core import _member
from abelcover.errors import _rational as _exact


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


def phi_sum_definition(d: int, h: int, s: int) -> int:
    """The integer numerator 4d phi_{h+dZ}(s), summed on its own."""
    shift = d - 1
    total = 0
    for u in range(d):
        total += (2 * u - shift) * (2 * ((h * u + s) % d) - shift)
    return total


def classical_dedekind_sum(h: int, d: int) -> Fraction:
    """The classical Dedekind sum s(h, d) = sum_{k=1}^{d-1} ((k/d))((hk/d)).

    (( )) is the sawtooth, x - floor(x) - 1/2 away from integers and 0 on
    them.  With gcd(h, d) = 1 no interior term hits an integer, so the sum
    clears to sum_k (2k - d)(2 (hk mod d) - d) over 4 d^2.
    """
    if d < 1:
        raise DomainError(f"modulus d must be positive, got {d}")
    if gcd(h, d) != 1:
        raise DomainError(f"h={h} must be coprime to d={d}")
    total = 0
    for k in range(1, d):
        total += (2 * k - d) * (2 * ((h * k) % d) - d)
    return Fraction(total, 4 * d * d)


def integrality_class(key: PhiKey) -> Fraction:
    """The predicted value of phi modulo 1, as a representative in [0, 1).

    Four cases:  phi is an integer when d is coprime to 6; it lies in
    -h/3 + Z when d is odd and divisible by 3; in (1+2s)/4 + Z when d is
    even and coprime to 3; and in (1+2s)/4 - h/3 + Z when 6 divides d.
    """
    if key.d < 2:
        raise DomainError("integrality classes are stated for d >= 2")
    rep = Fraction(0)
    if key.d % 2 == 0:
        rep += Fraction(1 + 2 * key.s, 4)
    if key.d % 3 == 0:
        rep -= Fraction(key.h, 3)
    return rep % 1


def cyclic_subgroup(group: AbelianGroup, s: GroupElement) -> list[GroupElement]:
    """The multiples 0*s, 1*s, ..., (o(s)-1)*s in that order."""
    return [s * k for k in range(element_order(group, s))]


def degree(spec: CoverSpec, D: InvariantDivisor) -> int:
    """sum over sites of beta n / o(sigma), minus n for the simple pole
    over infinity."""
    n = spec.group.order
    return sum(b * (n // o) for b, o in zip(D.beta, spec.site_orders)) - n


def support_p(spec: CoverSpec, inv: CoverInvariants, D: InvariantDivisor,
              chi: Character) -> frozenset[int]:
    """Positions of the sites with beta >= o - u_{chi,sigma}, the root set
    of the support polynomial for chi; of size t_chi when D is
    non-special."""
    row = inv.u[_character_rank(spec, chi)]
    return frozenset(
        k for k, (o, u, b) in
        enumerate(zip(spec.site_orders, row, D.beta)) if b >= o - u)


def differential_basis_descriptor(
        spec: CoverSpec, inv: CoverInvariants) -> list[tuple[Character, int]]:
    """Basis markers (chi, k) for the holomorphic differentials z^k psi_chi:
    one for each nontrivial chi and each 0 <= k <= t_{conj(chi)} - 2, in
    dual-group order with k ascending; g of them in all."""
    return [(chi, k) for chi in dual_group(spec.group) if not chi.is_trivial()
            for k in range(inv.t[_character_rank(spec, chi.conjugate())] - 1)]


def negation_N(spec: CoverSpec, inv: CoverInvariants,
               D: InvariantDivisor) -> InvariantDivisor:
    """The negation involution, sitewise beta -> o - 1 - beta, of a
    non-special D; the image must be non-special too."""
    if not is_nonspecial(spec, inv, D):
        raise DomainError("negation is defined for non-special divisors")
    new = InvariantDivisor(tuple(o - 1 - b for o, b in
                                 zip(spec.site_orders, D.beta)),
                           D.cover_fingerprint)
    if not is_nonspecial(spec, inv, new):
        raise ConsistencyError("negation left the non-special set")
    return new


def relabel_equivalent(spec: CoverSpec, inv: CoverInvariants,
                       D1: InvariantDivisor,
                       D2: InvariantDivisor) -> tuple[int, ...] | None:
    """A site permutation perm with D2.beta[perm[a]] = D1.beta[a], acting
    within each monodromy block and keeping sites of equal weight in
    order, when the two divisors have the same weights in every block;
    None otherwise.  Both must be non-special."""
    if not (is_nonspecial(spec, inv, D1) and is_nonspecial(spec, inv, D2)):
        raise DomainError("relabeling is defined for non-special divisors")
    blocks: dict[int, list[int]] = {}
    for k, site in enumerate(spec.sites):
        blocks.setdefault(site.element_rank, []).append(k)
    perm = [0] * len(spec.sites)
    for positions in blocks.values():
        src = sorted(positions, key=lambda k: (D1.beta[k], k))
        dst = sorted(positions, key=lambda k: (D2.beta[k], k))
        if [D1.beta[k] for k in src] != [D2.beta[k] for k in dst]:
            return None
        for a, b in zip(src, dst):
            perm[a] = b
    return tuple(perm)


def _centered(o: int, b: int) -> Fraction:
    return Fraction(2 * b - o + 1, 2 * o)


def _require_sites(spec: CoverSpec, D: InvariantDivisor, a: int,
                   b: int) -> None:
    """D belongs to this cover and a, b are site positions of it."""
    _require_same_cover(spec, D)
    for k in (a, b):
        if not 0 <= k < len(spec.sites):
            raise MalformedDataError(f"site position {k} out of range")


def q_delta(spec: CoverSpec, D: InvariantDivisor, a: int, b: int) -> Fraction:
    """The product of the centered weights of D at sites a and b."""
    _require_sites(spec, D, a, b)
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
    _require_sites(spec, D, a, b)
    group = spec.group
    oa, ob = spec.site_orders[a], spec.site_orders[b]
    d, h = intersection_data(group, spec.sites[a].element,
                             spec.sites[b].element)
    s = (D.beta[b] - h * D.beta[a]) % d
    return Fraction(group.order, oa * ob) * phi_exact(PhiKey.of(d, h, s))


def gamma(group: AbelianGroup, s: GroupElement,
          r: GroupElement) -> Fraction:
    """The definitional character average (1/n) sum over chi of
    u_{chi,s} u_{chi,r} / (o(s) o(r)), summed in ints: u_{chi,s} / o(s) =
    sum_l e_l d_l / m_l mod 1 = (sum_l e_l d_l (m/m_l) mod m) / m."""
    if s.is_identity() or r.is_identity():
        raise DomainError("gamma requires nontrivial elements")
    _member(group, s, GroupElement)
    _member(group, r, GroupElement)
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
    phi0 = phi_exact(PhiKey.of(*intersection_data(group, s, r), 0))
    return (phi0 + Fraction((o_s - 1) * (o_r - 1), 4)) / (o_s * o_r)


def thomae_exponent_closed_form(spec: CoverSpec, inv: CoverInvariants,
                                D: InvariantDivisor, a: int, b: int) -> int:
    """The exponent of (lambda_a - lambda_b):  4m (2 q_e + n gamma).

    Assembled in exact rational arithmetic and only then converted; a
    non-integral or odd result is an internal error, never silently
    truncated.
    """
    if not is_nonspecial(spec, inv, D):
        raise DomainError("exponents are defined for non-special divisors")
    value = 4 * inv.m * (
        2 * q_e_closed_form(spec, inv, D, a, b)
        + inv.n * gamma_closed_form(spec.group, spec.sites[a].element,
                                    spec.sites[b].element))
    if value.denominator != 1 or value.numerator % 2:
        raise ConsistencyError(
            f"exponent for pair ({a}, {b}) is not an even integer: {value}")
    return int(value)


def pairing_u_definition(group: AbelianGroup, chi: Character,
                         s: GroupElement) -> int:
    """The integer u with 0 <= u < o(s) and chi(s) = e(u / o(s)).

    The pairing value sum_l e_l d_l / m_l is reduced modulo 1 in exact
    fraction arithmetic and then scaled by o(s); the result is an integer
    because chi(s) is an o(s)-th root of unity.
    """
    _member(group, s, GroupElement)
    if chi.group != group:
        raise MalformedDataError("character does not belong to this group")
    total = sum(
        (Fraction(e * r, m) for e, r, m in
         zip(chi.residues, s.residues, group.factor_orders)),
        Fraction(0)) % 1
    scaled = total * element_order(group, s)
    if scaled.denominator != 1:
        raise ConsistencyError(
            f"pairing of {chi.residues} with {s.residues} is not a root of "
            f"unity of order dividing o(s)")
    return int(scaled)


def generated_subgroup(orders: tuple[int, ...],
                       gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The residue vectors of the subgroup that gens generate."""
    identity = (0,) * len(orders)
    closure = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = tuple([(a + b) % o for a, b, o in zip(x, gen, orders)])
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    return closure


def packed_tables(spec: CoverSpec,
                  inv: CoverInvariants) -> tuple[tuple[tuple[int, ...], ...],
                                                 int, int]:
    """(packed, packed_target, packed_guard) by definition: field c of
    packed[k][v] is 1 when weight v counts for character c at site k,
    i.e. v >= o - u[c][k]; fields are B.bit_length() + 1 bits wide."""
    width = len(spec.sites).bit_length() + 1
    packed = tuple(tuple(sum(1 << (c * width)
                             for c, row in enumerate(inv.u)
                             if v >= o - row[k]) for v in range(o))
                   for k, o in enumerate(spec.site_orders))
    target = sum(tc << (c * width) for c, tc in enumerate(inv.t))
    guard = sum(1 << (c * width + width - 1) for c in range(inv.n))
    return packed, target, guard


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


def poly_from_roots(roots) -> UniPoly:
    """The monic polynomial prod (z - r), in Fraction arithmetic; an
    inexact root is refused as UniPoly refuses an inexact coefficient."""
    out = [Fraction(1)]
    for r in map(_exact, roots):
        out = [Fraction(0)] + out  # times z, then minus r times the old
        for k in range(len(out) - 1):
            out[k] -= r * out[k + 1]
    return UniPoly(tuple(out))


def kernel_pair(spec: CoverSpec, inv: CoverInvariants,
                chi: Character) -> tuple[UniPoly, UniPoly]:
    """(f_0, f_1) of build_pchichi by definition: f_0 = prod (z - lambda)
    over the sites with u > 0, and f_1 = sum (u/o) f_0/(z - lambda), each
    quotient a Fraction synthetic division with a zero remainder."""
    active = [(site.value, u, o) for site, u, o in
              zip(spec.sites, inv.u[_character_rank(spec, chi)],
                  spec.site_orders) if u > 0]
    f0 = poly_from_roots([value for value, _, _ in active])
    f1_coeffs = [Fraction(0)] * f0.degree
    for value, u, o in active:
        # synthetic division of f0 by (z - value), top coefficient first
        weight, carry = Fraction(u, o), Fraction(0)
        for k in range(f0.degree, 0, -1):
            carry = carry * value + f0.coeffs[k]
            f1_coeffs[k - 1] += weight * carry
        if carry * value + f0.coeffs[0]:
            raise ConsistencyError(
                "dividing out a branch factor left a remainder")
    return f0, UniPoly(tuple(f1_coeffs))


def assembly_by_z_power(solution: KernelSolution) -> list[UniPoly]:
    """S(z, w) = sum_l f_l(w) (z - w)^l expanded in Fraction arithmetic,
    with (z - w)^l = sum_i C(l, i) z^i (-w)^(l-i): entry i is the
    coefficient of z^i as a polynomial in w."""
    polys = solution.polys
    width = max(len(f.coeffs) + l for l, f in enumerate(polys))
    out = [[Fraction(0)] * width for _ in polys]
    for l, f in enumerate(polys):
        for i in range(l + 1):
            c = comb(l, i) * (-1) ** (l - i)
            for k, a in enumerate(f.coeffs):
                out[i][k + l - i] += c * a
    return [UniPoly(tuple(row)) for row in out]


def assembly_w_degree(solution: KernelSolution) -> int:
    """The w-degree of the assembly S(z, w); -1 when it is zero."""
    return max(p.degree for p in assembly_by_z_power(solution))


def _mpf(value: Fraction):
    return mpmath.mpf(value.numerator) / value.denominator


def hyperelliptic_periods(values) -> tuple:
    """(A, tau) for y^2 = prod (x - lambda) over 2g + 2 sorted real
    values, at the caller's mpmath precision.

    A[j][k] is the period of x^j dx / y over alpha_k, which circles the
    interval (lambda_{2k}, lambda_{2k+1}) (counting from 0), twice the
    interval integral I; B[j][k] sums 2 I over the intervals
    (lambda_{2i+1}, lambda_{2i+2}) for i >= k.  The orientation of each
    of the 2g cycles is the first sign vector for which tau = A^-1 B is
    symmetric to 1e-15 with a positive definite imaginary part.
    """
    g = len(values) // 2 - 1
    lam = [_mpf(v) for v in values]

    def integral(j, i):
        return mpmath.quad(
            lambda x: x ** j / mpmath.sqrt(
                mpmath.fprod(x - l for l in lam) + 0j),
            [lam[i], lam[i + 1]])

    I = [[integral(j, i) for i in range(2 * g)] for j in range(g)]
    for signs in product((1, -1), repeat=2 * g):
        s, t = signs[:g], signs[g:]
        A = mpmath.matrix([[2 * s[k] * I[j][2 * k] for k in range(g)]
                           for j in range(g)])
        B = mpmath.matrix([[sum(2 * t[i] * I[j][2 * i + 1]
                                for i in range(k, g)) for k in range(g)]
                           for j in range(g)])
        tau = A ** -1 * B
        im = mpmath.matrix([[tau[j, k].imag for k in range(g)]
                            for j in range(g)])
        if all(abs(tau[j, k] - tau[k, j]) < 1e-15
               for j in range(g) for k in range(j)) and \
                all(mpmath.det(im[:k, :k]) > 0 for k in range(1, g + 1)):
            return A, tau
    raise ConsistencyError("no cycle orientation gives a Riemann matrix")


def even_characteristics(g: int):
    """The even half-integer characteristics (a, b), a and b in
    {0, 1/2}^g with 4 a.b even."""
    half = Fraction(1, 2)
    return [(a, b) for a in product((0, half), repeat=g)
            for b in product((0, half), repeat=g)
            if 4 * sum(map(mul, a, b)) % 2 == 0]


def theta_constant(tau, a, b, N: int):
    """theta[a; b](0, tau), the sum over n in [-N, N]^g of
    exp(pi i (n+a).tau (n+a) + 2 pi i (n+a).b), at the caller's mpmath
    precision."""
    g = tau.rows
    total = mpmath.mpc(0)
    for n in product(range(-N, N + 1), repeat=g):
        v = [_mpf(Fraction(nk) + ak) for nk, ak in zip(n, a)]
        quad = sum(v[j] * tau[j, k] * v[k]
                   for j in range(g) for k in range(g))
        total += mpmath.exp(1j * mpmath.pi * (
            quad + 2 * sum(x * _mpf(Fraction(y)) for x, y in zip(v, b))))
    return total
