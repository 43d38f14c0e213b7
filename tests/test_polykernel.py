"""Kernel polynomial solver: the exact coefficient container, the
Pascal-shaped level matrices and their closed-form solution, the existence
construction with its degree bound, the perturbation refusals, and the
cover-derived instances, with integer and rational branch values."""

from __future__ import annotations

import copy
import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest

from abelcover import (AbelianGroup, ConsistencyError, DomainError,
                       MalformedDataError, NoSolutionError, UniPoly,
                       build_pchichi, dual_group, solve_polexist, validate)
from abelcover.polykernel import solve_level
from conftest import build_cover
from oracles import (assembly_by_z_power, assembly_w_degree,
                     binomial_level_matrix, jordan_factor, kernel_pair,
                     matrix_inverse, matrix_multiply, pascal_factor,
                     poly_from_roots, solve_linear_system)


def eval_assembly(polys, z: Fraction, w: Fraction) -> Fraction:
    """The bivariate combination evaluated directly: an oracle that does
    not share code with the solver's own verification."""
    total = Fraction(0)
    for l, f in enumerate(polys):
        total += f(w) * (z - w) ** l
    return total


class TestUniPoly:
    def test_trimming_and_degree(self):
        assert UniPoly([1, 2, 0, 0]).degree == 1
        assert UniPoly(()).degree == -1
        assert UniPoly([0]).degree == -1

    def test_lead_and_coefficient(self):
        p = UniPoly([3, 0, 5])
        assert p.lead == 5
        assert p.coeffs == (3, 0, 5)

    @pytest.mark.parametrize("k", [-1, -2, 1.0, True, "2", None])
    def test_monomial_bad_degree_rejected(self, k):
        error = DomainError if type(k) is int else MalformedDataError
        with pytest.raises(error):
            UniPoly.monomial(5, k)

    def test_from_roots(self):
        p = poly_from_roots([1, 2])
        assert p == UniPoly([2, -3, 1])
        assert p(1) == 0 and p(2) == 0 and p(0) == 2

    @pytest.mark.parametrize("bad", [0.5, True, "1/2", None])
    def test_inexact_argument_rejected(self, bad):
        with pytest.raises(MalformedDataError):
            UniPoly([1, 1])(bad)

    def test_int_coefficients_become_fractions(self):
        p = UniPoly([3, Fraction(1, 2), 0])
        assert p.coeffs == (Fraction(3), Fraction(1, 2))
        assert all(type(c) is Fraction for c in p.coeffs)
        assert all(type(c) is Fraction
                   for c in poly_from_roots([1, 2]).coeffs)

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1/3", None])
    def test_inexact_coefficients_rejected(self, bad):
        with pytest.raises(MalformedDataError):
            UniPoly([bad, 1])
        with pytest.raises(MalformedDataError):
            UniPoly((Fraction(1), bad))
        with pytest.raises(MalformedDataError):
            UniPoly.monomial(bad, 2)
        with pytest.raises(MalformedDataError):
            poly_from_roots([1, bad])


class TestLevelMatrices:
    def test_binomial_level_matrix(self):
        assert binomial_level_matrix(2) == [
            [Fraction(1), Fraction(1)],
            [Fraction(1), Fraction(2)]]

    def test_factorization(self):
        for d in range(1, 13):
            M = binomial_level_matrix(d)
            assert matrix_multiply(jordan_factor(d), pascal_factor(d)) == M

    def test_inverse_upper_left_entry_is_d(self):
        for d in range(1, 13):
            M = binomial_level_matrix(d)
            inv = matrix_inverse(M)
            assert inv[0][0] == d
            product = matrix_multiply(M, inv)
            for i in range(d):
                for j in range(d):
                    assert product[i][j] == (1 if i == j else 0)

    def test_closed_form_level_solve_matches_gauss_jordan(self):
        """solve_level against elimination on the level matrix C(l, i),
        l = a+1..a+r, with a right-hand side zero past b0 and b1."""
        rng = random.Random(31)
        for a in range(11):
            for r in range(1, 13):
                for _ in range(2):
                    b0, b1 = (Fraction(rng.randint(-30, 30),
                                       rng.randint(1, 12)) for _ in range(2))
                    A = [[Fraction(comb(l, i))
                          for l in range(a + 1, a + r + 1)]
                         for i in range(r)]
                    b = ([b0, b1] + [Fraction(0)] * r)[:r]
                    assert solve_level(a, r, b0, b1) == \
                        solve_linear_system(A, b)

    def test_level_zero_gives_d_times_b0(self):
        b0 = Fraction(-2, 3)
        for d in range(1, 13):
            assert solve_level(0, d, b0, 0)[0] == d * b0

    def test_integer_right_hand_side_gives_integers(self):
        for a in range(6):
            for r in range(1, 8):
                sol = solve_level(a, r, -7, 3)
                assert all(type(x) is int for x in sol)
                assert sol == solve_level(a, r, Fraction(-7), Fraction(3))


def solutions_digest(solutions) -> str:
    """sha256 over the solutions, one JSON line each with every
    coefficient as its exact fraction string."""
    h = hashlib.sha256()
    for s in solutions:
        h.update(json.dumps({
            "d": s.d, "e": s.e,
            "polys": [[str(c) for c in p.coeffs] for p in s.polys],
        }).encode() + b"\n")
    return h.hexdigest()


# solutions_digest of the kernel solutions, recorded from the Gauss-Jordan
# solver.  The canonical solution zeroes every free coefficient; a degree
# or w-degree check alone would accept other choices.
BATTERY_KERNEL_SHA256 = {
    "hyperelliptic":
        "c9fd8f8a45760eaa6da22e85e7c9be05789b8271f7ff45f3d1158acb47ac598b",
    "cyclic3":
        "fda4154fcaf0ea3f577d05ac07589663e4e2bd3d7ce27858ae66d2374de4c1ea",
    "cyclic4":
        "fd576bf0a54362e8f33a6ac38d155f9fdb69a7f616ebd614fb7db2f1c49060d6",
    "klein":
        "7bc574c86ea8a8c5c2c8afbbb5ceab1d09c949bd8b758cb2b6a654eb2553f2c6",
    "cyclic6":
        "7c0176c0476ad69ac6dfea1ae495faf2f0139f3f661ca2898789a454abeb7233",
}
RANDOM_KERNEL_SHA256 = \
    "634cdb83f44154328171f858c1b2d0f1047418c388339288341166dc4b40d411"


def random_instance(rng, d, e):
    """f0 of degree d+e with random coefficients, f1 with the forced
    leading coefficient and random lower part."""
    lead0 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    if rng.random() < 0.5:
        lead0 = -lead0
    f0 = UniPoly(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
         for _ in range(d + e)] + [lead0])
    f1 = UniPoly(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
         for _ in range(d + e - 1)] + [d * lead0])
    return f0, f1


class TestSolvePolexist:
    def test_worked_example(self):
        f0 = UniPoly.monomial(1, 3)
        f1 = UniPoly.monomial(2, 2)
        solution = solve_polexist(f0, f1, 2, 1)
        assert solution.polys[2] == UniPoly.monomial(1, 1)
        per_power = assembly_by_z_power(solution)
        # the combination collapses to w * z^2
        assert per_power[2] == UniPoly.monomial(1, 1)
        assert all(p.degree == -1 for i, p in enumerate(per_power) if i != 2)

    def test_degree_bound_and_counts(self):
        rng = random.Random(7)
        for _ in range(40):
            d = rng.randint(1, 6)
            e = rng.randint(1, 6)
            f0, f1 = random_instance(rng, d, e)
            solution = solve_polexist(f0, f1, d, e)
            assert len(solution.polys) == d + 1
            for l, f in enumerate(solution.polys):
                assert f.degree <= d + e - l
            assert assembly_w_degree(solution) <= e

    def test_assembly_matches_direct_evaluation(self):
        rng = random.Random(21)
        for _ in range(10):
            d = rng.randint(1, 4)
            e = rng.randint(1, 4)
            f0, f1 = random_instance(rng, d, e)
            solution = solve_polexist(f0, f1, d, e)
            per_power = assembly_by_z_power(solution)
            for _ in range(5):
                z = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                w = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                direct = eval_assembly(solution.polys, z, w)
                via_powers = sum(
                    (p(w) * z ** i for i, p in enumerate(per_power)),
                    Fraction(0))
                assert direct == via_powers

    def test_perturbed_lead_refused(self):
        rng = random.Random(13)
        for _ in range(40):
            d = rng.randint(1, 6)
            e = rng.randint(1, 6)
            f0, f1 = random_instance(rng, d, e)
            bad = UniPoly(
                list(f1.coeffs[:-1]) + [f1.lead + Fraction(1, 3)])
            with pytest.raises(NoSolutionError):
                solve_polexist(f0, bad, d, e)

    def test_no_solution_message_prints_fraction_leads(self):
        f0 = UniPoly([1, 0, 0, Fraction(3, 2)])
        f1 = UniPoly([0, 1, Fraction(10, 3)])
        with pytest.raises(NoSolutionError) as info:
            solve_polexist(f0, f1, 2, 1)
        assert str(info.value) == (
            "the leading coefficient of f1 must be d = 2 times that of f0; "
            "got 10/3 against 3/2")

    def test_perturbed_level_entry_caught(self, monkeypatch):
        """One entry off by one at a level h >= 1 leaves some coefficient
        of z^i w^j with j > e nonzero; the integer expansion must see it."""
        rng = random.Random(17)
        for _ in range(30):
            d = rng.randint(2, 7)
            e = rng.randint(1, 7)
            f0, f1 = random_instance(rng, d, e)
            level = rng.randint(1, d - 1)

            def perturbed(a, r, b0, b1, level=level, d=d):
                sol = solve_level(a, r, b0, b1)
                if d - r == level:
                    sol[level % r] += 1
                return sol

            monkeypatch.setattr("abelcover.polykernel.solve_level", perturbed)
            with pytest.raises(ConsistencyError, match="w-degree"):
                solve_polexist(f0, f1, d, e)
            monkeypatch.undo()
            solve_polexist(f0, f1, d, e)

    def test_precondition_errors(self):
        f0 = UniPoly.monomial(1, 3)
        f1 = UniPoly.monomial(2, 2)
        with pytest.raises(DomainError):
            solve_polexist(f0, f1, 0, 1)
        with pytest.raises(DomainError):
            solve_polexist(f0, f1, 2, 0)
        with pytest.raises(DomainError):
            solve_polexist(UniPoly.monomial(1, 4), f1, 2, 1)
        with pytest.raises(DomainError):
            solve_polexist(f0, UniPoly.monomial(2, 1), 2, 1)

    def test_solutions_match_recorded_digest(self):
        rng = random.Random(404)
        solutions = []
        for _ in range(30):
            d = rng.randint(1, 12)
            e = rng.randint(1, 12)
            f0, f1 = random_instance(rng, d, e)
            solutions.append(solve_polexist(f0, f1, d, e))
        assert solutions_digest(solutions) == RANDOM_KERNEL_SHA256

    def test_d_equals_one(self):
        f0 = UniPoly([1, 2, 1])
        f1 = UniPoly([5, 1])
        solution = solve_polexist(f0, f1, 1, 1)
        assert assembly_w_degree(solution) <= 1


# Covers with rational branch values, so that F_0 = prod (q z - p) has a
# lead Q = prod q > 1: Z3 with 18 negative non-integer values, Z2 x Z2,
# and Z4 with site orders 4, 4 and 2, where m = 4 differs from o = 2.
def _z3_values():
    rng = random.Random(9)
    values = []
    while len(values) < 18:
        v = Fraction(-rng.randint(1, 60), rng.randint(2, 9))
        if v.denominator > 1 and v not in values:
            values.append(v)
    return values


RATIONAL_COVERS = {
    "z3x18": ([3], [([1 + k % 2], v) for k, v in enumerate(_z3_values())]),
    "klein8": ([2, 2], [
        ([1, 0], Fraction(1, 2)), ([1, 0], Fraction(-3, 4)),
        ([0, 1], Fraction(5, 7)), ([0, 1], Fraction(2, 9)),
        ([1, 1], Fraction(-7, 3)), ([1, 1], Fraction(8, 5)),
        ([1, 1], Fraction(11, 6)), ([1, 1], Fraction(-1, 8))]),
    "z4_442": ([4], [([1], Fraction(-5, 3)), ([1], Fraction(1, 2)),
                     ([2], Fraction(7, 9))]),
}


class TestBuildPchichi:
    @pytest.mark.parametrize("name", sorted(RATIONAL_COVERS))
    def test_rational_values_match_fraction_oracle(self, name):
        spec = build_cover(*RATIONAL_COVERS[name])
        inv = validate(spec)
        built = 0
        ts = dict(zip(dual_group(spec.group), inv.t))
        for chi in ts:
            t, tc = ts[chi], ts[chi.conjugate()]
            if chi.is_trivial() or t < 1 or tc < 1:
                continue
            solution = build_pchichi(spec, inv, chi)
            assert solution.polys[:2] == kernel_pair(spec, inv, chi)
            assert (solution.d, solution.e) == (t, tc)
            assert all(type(c) is Fraction
                       for f in solution.polys for c in f.coeffs)
            built += 1
        assert built >= 2

    def test_battery_lead_relation(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            ts = dict(zip(dual_group(spec.group), inv.t))
            for chi in ts:
                if chi.is_trivial() or ts[chi] < 1:
                    continue
                if ts[chi.conjugate()] < 1:
                    continue
                solution = build_pchichi(spec, inv, chi)
                t = ts[chi]
                tc = ts[chi.conjugate()]
                assert (solution.d, solution.e) == (t, tc)
                f0, f1 = solution.polys[0], solution.polys[1]
                assert f0.degree == t + tc
                assert f1.lead == t * f0.lead
                assert assembly_w_degree(solution) <= tc

    def test_battery_solutions_match_recorded_digests(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            ts = dict(zip(dual_group(spec.group), inv.t))
            solutions = [
                build_pchichi(spec, inv, chi) for chi in ts
                if not chi.is_trivial() and ts[chi] >= 1
                and ts[chi.conjugate()] >= 1]
            assert solutions_digest(solutions) == \
                BATTERY_KERNEL_SHA256[cover.name], cover.name

    def test_roots_are_active_branch_values(self, cyclic3):
        spec, inv = cyclic3.spec, cyclic3.inv
        chi = spec.group.character([1])
        solution = build_pchichi(spec, inv, chi)
        f0 = solution.polys[0]
        for site in spec.sites:
            assert f0(site.value) == 0

    def test_invariants_of_another_cover_refused(self, cyclic3, cyclic4):
        chi = cyclic4.spec.group.character([1])
        with pytest.raises(MalformedDataError):
            build_pchichi(cyclic3.spec, cyclic4.inv, chi)

    def test_trivial_character_rejected(self, cyclic3):
        spec, inv = cyclic3.spec, cyclic3.inv
        with pytest.raises(DomainError):
            build_pchichi(spec, inv, spec.group.character([0]))

    def test_foreign_character_refused(self, cyclic3):
        # refused before inv.t is read, and before the trivial check
        spec, inv = cyclic3.spec, cyclic3.inv
        for residues in ([1], [0]):
            with pytest.raises(MalformedDataError, match="does not belong"):
                build_pchichi(spec, inv, AbelianGroup((2,)).character(residues))

    @pytest.mark.parametrize("dt, dtbar, error, match", [
        (1, 0, DomainError, "f0 must have degree 7, got 6"),
        (1, -1, NoSolutionError, "leading coefficient of f1")])
    def test_wrong_t_refused_by_the_solver(self, dt, dtbar, error, match):
        # Z3 with six sites at 1: t = 2 at chi = [1], 4 at its conjugate.
        # build_pchichi checks neither the degree nor the lead itself;
        # solve_polexist refuses t values the sites do not give
        spec = build_cover([3], [([1], v) for v in range(6)])
        inv = validate(spec)
        chi = spec.group.character([1])
        assert inv.t == (0, 2, 4)  # ranks 0, 1 = chi, 2 = conj chi
        perturbed = copy.copy(inv)
        perturbed.t = (0, 2 + dt, 4 + dtbar)
        with pytest.raises(error, match=match):
            build_pchichi(spec, perturbed, chi)
