"""Exponent machinery: centered weight products, orbit sums against
their Dedekind closed forms, the character average gamma, assembled
integer exponent tables, and relabeling equivalence."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import mpmath
import pytest

import abelcover.exponents as exponents_module
from abelcover import (AbelianGroup, ConsistencyError, DomainError,
                       MalformedDataError, ResourceCapError,
                       dual_group, enumerate_nonspecial,
                       enumerate_orbits, exponent_table,
                       make_divisor, orbit, pairing_u, thomae_exponent,
                       validate)
from conftest import build_cover
from oracles import (even_characteristics, gamma, gamma_closed_form, q_delta,
                     q_e, q_e_closed_form, relabel_equivalent, theta_constant,
                     thomae_exponent_closed_form)


def all_small_factorizations(max_order=24):
    """Every tuple of cyclic factors (each at least 2) with product up to
    the bound; covers every abelian group of that order up to isomorphism,
    with redundancy."""
    out = []

    def extend(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        for f in range(2, remaining + 1):
            extend(prefix + [f], remaining // f)

    extend([], max_order)
    return out


def spoil_last_residue(monkeypatch):
    """Wrap the Dedekind row walk as exponents imports it, adding 1 to T
    only at s = d - 1."""
    walk = exponents_module._phi_walk

    def spoiled(d, h):
        row = walk(d, h)
        row[-1] += 1
        return row

    monkeypatch.setattr(exponents_module, "_phi_walk", spoiled)


class TestPairKey:
    """The pair key of thomae_exponent: two plain site positions a < b."""

    def test_equal_positions_rejected(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        with pytest.raises(DomainError, match="not an ordered pair"):
            thomae_exponent(spec, inv, D, 2, 2)

    def test_unordered_direct_construction_rejected(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        for a, b in ((3, 1), (-1, 2)):
            with pytest.raises(DomainError, match="not an ordered pair"):
                thomae_exponent(spec, inv, D, a, b)

    @pytest.mark.parametrize("first, second", [(0.5, 2), ("0", 1),
                                               (0, 1.0), (False, True)])
    def test_non_int_position_refused(self, hyperelliptic, first, second):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        with pytest.raises(MalformedDataError, match="is not an int"):
            thomae_exponent(spec, inv, D, first, second)

    def test_bool_pair_does_not_read_an_entry(self, hyperelliptic):
        # False < True holds, and such a pair would read the (0, 1) entry
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        with pytest.raises(MalformedDataError, match="is not an int"):
            thomae_exponent(spec, inv, D, False, True)


class TestQDelta:
    def test_hyperelliptic_example(self, hyperelliptic):
        spec = hyperelliptic.spec
        D = make_divisor(spec, [0, 1, 1, 0, 0, 1])
        assert q_delta(spec, D, 1, 2) == Fraction(1, 16)
        assert q_delta(spec, D, 0, 1) == Fraction(-1, 16)

    def test_centered_zero(self, cyclic3):
        spec = cyclic3.spec
        D = make_divisor(spec, [2, 1, 0])
        # middle weight of an odd order is centered at zero
        assert q_delta(spec, D, 0, 1) == 0
        assert q_delta(spec, D, 0, 2) == Fraction(1, 3) * Fraction(-1, 3)

    def test_position_range_checked(self, cyclic3):
        spec = cyclic3.spec
        D = make_divisor(spec, [2, 1, 0])
        with pytest.raises(MalformedDataError):
            q_delta(spec, D, 0, 3)


class TestQe:
    def test_hyperelliptic_values(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        assert q_e(spec, inv, D, 3, 4) == Fraction(1, 8)
        assert q_e(spec, inv, D, 0, 1) == Fraction(1, 8)
        assert q_e(spec, inv, D, 0, 3) == Fraction(-1, 8)

    def test_cyclic3_value(self, cyclic3):
        spec, inv = cyclic3.spec, cyclic3.inv
        D = make_divisor(spec, [2, 1, 0])
        assert q_e(spec, inv, D, 0, 1) == Fraction(-1, 9)

    def test_closed_form_examples(self, hyperelliptic, cyclic3):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        assert q_e_closed_form(spec, inv, D, 3, 4) == Fraction(1, 8)
        spec, inv = cyclic3.spec, cyclic3.inv
        D = make_divisor(spec, [2, 1, 0])
        assert q_e_closed_form(spec, inv, D, 0, 1) == Fraction(-1, 9)

    def test_brute_equals_closed_everywhere(self, hyperelliptic, cyclic3,
                                            cyclic4, klein, mixed4):
        for cover in (hyperelliptic, cyclic3, cyclic4, klein, mixed4):
            spec, inv = cover.spec, cover.inv
            B = len(spec.sites)
            for D in enumerate_nonspecial(spec, inv):
                for a in range(B):
                    for b in range(a, B):
                        assert q_e(spec, inv, D, a, b) == \
                            q_e_closed_form(spec, inv, D, a, b)

    def test_diagonal_law(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            D = enumerate_nonspecial(spec, inv, cap=10 ** 6)[0] \
                if cover.name != "cyclic6" else \
                make_divisor(spec, [5, 4, 3, 2, 1, 0])
            for a, o in enumerate(spec.site_orders):
                expected = Fraction(inv.n * (o * o - 1), 12 * o * o)
                assert q_e(spec, inv, D, a, a) == expected
                assert q_e_closed_form(spec, inv, D, a, a) == expected

    def test_representative_independence(self, cyclic4):
        spec, inv = cyclic4.spec, cyclic4.inv
        D = enumerate_nonspecial(spec, inv)[0]
        base = [q_e_closed_form(spec, inv, D, a, b)
                for a in range(4) for b in range(a + 1, 4)]
        for member in orbit(spec, inv, D):
            got = [q_e_closed_form(spec, inv, member, a, b)
                   for a in range(4) for b in range(a + 1, 4)]
            assert got == base

    def test_swap_symmetry(self, mixed4):
        spec, inv = mixed4.spec, mixed4.inv
        B = len(spec.sites)
        for D in enumerate_nonspecial(spec, inv)[:10]:
            for a in range(B):
                for b in range(a + 1, B):
                    assert q_e_closed_form(spec, inv, D, a, b) == \
                        q_e_closed_form(spec, inv, D, b, a)


class TestGamma:
    def test_pinned_values(self):
        z2 = AbelianGroup((2,))
        inv2 = z2.element([1])
        assert gamma(z2, inv2, inv2) == Fraction(1, 8)
        z3 = AbelianGroup((3,))
        g3 = z3.element([1])
        assert gamma(z3, g3, g3) == Fraction(5, 27)
        kl = AbelianGroup((2, 2))
        assert gamma(kl, kl.element([1, 0]), kl.element([0, 1])) == \
            Fraction(1, 16)

    def test_identity_rejected(self):
        z2 = AbelianGroup((2,))
        with pytest.raises(DomainError):
            gamma(z2, z2.element([0]), z2.element([1]))
        with pytest.raises(DomainError):
            gamma_closed_form(z2, z2.element([1]), z2.element([0]))

    def test_diagonal_law(self):
        for order in range(2, 13):
            g = AbelianGroup((order,))
            s = g.element([1])
            expected = Fraction((order - 1) * (2 * order - 1),
                                6 * order * order)
            assert gamma(g, s, s) == expected
            assert gamma_closed_form(g, s, s) == expected

    def test_closed_form_on_all_small_groups(self):
        for factors in all_small_factorizations(24):
            group = AbelianGroup(factors)
            nontrivial = [s for s in group.elements()
                          if not s.is_identity()]
            for s in nontrivial:
                for r in nontrivial:
                    assert gamma(group, s, r) == \
                        gamma_closed_form(group, s, r)

    def test_symmetric(self):
        group = AbelianGroup((2, 4))
        nontrivial = [s for s in group.elements() if not s.is_identity()]
        for s in nontrivial:
            for r in nontrivial:
                assert gamma(group, s, r) == gamma(group, r, s)


class TestThomaeExponent:
    def test_hyperelliptic_pairs(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        assert thomae_exponent(spec, inv, D, 3, 4) == 4
        assert thomae_exponent(spec, inv, D, 0, 1) == 4
        assert thomae_exponent(spec, inv, D, 0, 3) == 0

    def test_cyclic3_pairs(self, cyclic3):
        spec, inv = cyclic3.spec, cyclic3.inv
        D = make_divisor(spec, [2, 1, 0])
        for a in range(3):
            for b in range(a + 1, 3):
                assert thomae_exponent(spec, inv, D, a, b) == 4

    def test_genus_zero_cover(self):
        spec = build_cover([2], [([1], 0), ([1], 1)])
        inv = validate(spec)
        D = make_divisor(spec, [1, 0])
        assert thomae_exponent(spec, inv, D, 0, 1) == 0

    def test_requires_nonspecial(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        with pytest.raises(DomainError):
            thomae_exponent(spec, inv, make_divisor(spec, [1] * 6), 0, 1)
        with pytest.raises(DomainError):
            exponent_table(spec, inv, make_divisor(spec, [1] * 6))

    def test_foreign_divisor_and_position_refused(self, hyperelliptic,
                                                  cyclic3):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        with pytest.raises(MalformedDataError):
            thomae_exponent(spec, inv, D, 0, 6)
        foreign = make_divisor(cyclic3.spec, [2, 1, 0])
        with pytest.raises(MalformedDataError):
            thomae_exponent(spec, inv, foreign, 0, 1)

    def test_special_divisor_refused_before_position(self, hyperelliptic):
        # D is checked before the site position, so a special divisor
        # with an out-of-range pair is a DomainError
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        with pytest.raises(DomainError):
            thomae_exponent(spec, inv, make_divisor(spec, [1] * 6), 0, 6)

    def test_matches_closed_form_on_battery(self, battery, z5h2):
        # the integer rows, read through thomae_exponent, against the
        # rational closed-form route, on every pair of every divisor of
        # every battery cover and of z5h2
        for cover in (*battery, z5h2):
            spec, inv = cover.spec, cover.inv
            B = len(spec.sites)
            for D in enumerate_nonspecial(spec, inv):
                for a in range(B):
                    for b in range(a + 1, B):
                        assert thomae_exponent(spec, inv, D, a, b) == \
                            thomae_exponent_closed_form(spec, inv, D, a, b)

    def test_equals_table_entry_on_battery(self, battery, z5h2):
        # the lookup contract on every divisor: each pair reads its table
        # entry, and a pair past the last site is refused with
        # MalformedDataError after D has been checked
        for cover in (*battery, z5h2):
            spec, inv = cover.spec, cover.inv
            B = len(spec.sites)
            for D in enumerate_nonspecial(spec, inv):
                table = exponent_table(spec, inv, D)
                for (a, b), value in table.entries.items():
                    assert thomae_exponent(spec, inv, D, a, b) == value
                with pytest.raises(MalformedDataError):
                    thomae_exponent(spec, inv, D, 0, B)

    def test_reads_one_row_and_builds_no_table(self, cyclic6, monkeypatch):
        spec, inv = cyclic6.spec, cyclic6.inv
        D = enumerate_nonspecial(spec, inv)[7]
        expected = exponent_table(spec, inv, D).entries[1, 4]
        row, calls = exponents_module._exponent_row, []

        def spy(*args):
            calls.append(args[2:])
            return row(*args)

        def refuse(*args):
            raise AssertionError("thomae_exponent built a table")

        monkeypatch.setattr(exponents_module, "_exponent_row", spy)
        monkeypatch.setattr(exponents_module, "exponent_table", refuse)
        assert thomae_exponent(spec, inv, D, 1, 4) == expected
        assert calls == [(1, 4)]

    def test_no_pair_bound(self):
        # Z2 with 1 500 sites has 1 124 250 pairs, over the table's bound,
        # yet one entry needs one row; a hyperelliptic pair on the same
        # side of D reads 4, across it 0
        spec = build_cover([2], [([1], v) for v in range(1500)])
        inv = validate(spec)
        D = make_divisor(spec, [0] * 750 + [1] * 750)
        with pytest.raises(ResourceCapError):
            exponent_table(spec, inv, D)
        assert thomae_exponent(spec, inv, D, 0, 1) == 4
        assert thomae_exponent(spec, inv, D, 0, 1499) == 0


class TestExponentTable:
    def test_hyperelliptic_table(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        table = exponent_table(spec, inv, D)
        assert table.theta_exponent == 16
        assert table.detC_exponent == 8
        assert len(table.entries) == 15
        same_side = {(a, b) for a in range(3) for b in range(a + 1, 3)} \
            | {(a, b) for a in range(3, 6) for b in range(a + 1, 6)}
        for key, value in table.entries.items():
            assert value == (4 if key in same_side else 0)
        assert sum(table.entries.values()) == 24

    def test_entries_cover_all_pairs_in_order(self, klein):
        spec, inv = klein.spec, klein.inv
        D = enumerate_nonspecial(spec, inv)[0]
        table = exponent_table(spec, inv, D)
        keys = list(table.entries)
        expected = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        assert keys == expected
        assert all(type(a) is int and type(b) is int for a, b in keys)

    def test_pair_bound(self, hyperelliptic, monkeypatch):
        # 6 sites have 15 pairs: a bound of 15 admits the table, 14 does
        # not, and the bound is checked before the non-special test
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        monkeypatch.setattr(exponents_module, "MAX_TABLE_PAIRS", 15)
        assert len(exponent_table(spec, inv, D).entries) == 15
        monkeypatch.setattr(exponents_module, "MAX_TABLE_PAIRS", 14)
        for divisor in (D, make_divisor(spec, [1] * 6)):
            with pytest.raises(ResourceCapError) as info:
                exponent_table(spec, inv, divisor)
            assert info.value.cap == 14
            assert str(info.value) == \
                "table pairs: 15, over the limit of 14"

    def test_orbit_members_share_fingerprint_and_entries(self, cyclic3):
        spec, inv = cyclic3.spec, cyclic3.inv
        D = make_divisor(spec, [2, 1, 0])
        base = exponent_table(spec, inv, D)
        for member in orbit(spec, inv, D):
            table = exponent_table(spec, inv, member)
            assert table.entries == base.entries
            assert table.divisor_fingerprint == base.divisor_fingerprint

    def test_degree_identity(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            divisors = enumerate_nonspecial(spec, inv)
            sample = divisors[:: max(1, len(divisors) // 6)]
            expected = 2 * inv.m * sum(t * (t - 1) for t in inv.t)
            for D in sample:
                table = exponent_table(spec, inv, D)
                assert sum(table.entries.values()) == expected

    def test_per_point_identity(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            group = spec.group
            divisors = enumerate_nonspecial(spec, inv)
            D = divisors[0]
            B = len(spec.sites)
            for a in range(B):
                o_a = spec.site_orders[a]
                sigma = spec.sites[a].element
                lhs = sum(
                    (2 * q_e_closed_form(spec, inv, D, a, b)
                     + inv.n * gamma_closed_form(
                         group, sigma, spec.sites[b].element)
                     for b in range(B) if b != a),
                    Fraction(0))
                rhs = sum(
                    (Fraction((t - 1) * pairing_u(group, chi, sigma), o_a)
                     for chi, t in zip(dual_group(group), inv.t)),
                    Fraction(0))
                assert lhs == rhs

    def test_rows_match_thomae_exponent_on_battery(self, battery, z5h2):
        # the whole table, read from the integer rows, against the
        # rational closed form of the Thomae exponent: same pairs, same
        # values, on every divisor of every battery cover and of z5h2
        for cover in (*battery, z5h2):
            spec, inv = cover.spec, cover.inv
            B = len(spec.sites)
            for D in enumerate_nonspecial(spec, inv):
                expected = {(a, b): thomae_exponent_closed_form(
                    spec, inv, D, a, b)
                    for a in range(B) for b in range(a + 1, B)}
                assert exponent_table(spec, inv, D).entries == expected

    def test_rows_on_every_pair_of_small_group_elements(self):
        # one cover per group carrying every nontrivial element twice, so
        # sites 2i and 2i + 1 carry the element of rank i; every pair of
        # ranks i <= j, the only pairs a table reads, gets a row, and
        # every entry of every row must be an even integer
        for factors in all_small_factorizations(24):
            group = AbelianGroup(factors)
            elements = [s for s in group.elements() if not s.is_identity()]
            spec = build_cover(factors, [(s.residues, k) for k, s in
                                         enumerate(elements + elements)])
            inv = validate(spec)
            for i in range(len(elements)):
                for j in range(i, len(elements)):
                    row, d, _ = exponents_module._exponent_row(
                        spec, inv, 2 * i, 2 * j + (i == j))
                    assert len(row) == d and all(e % 2 == 0 for e in row)

    def test_every_residue_of_a_row_is_checked(self, hyperelliptic,
                                               monkeypatch):
        # spoil T(d, h, s) only at s = d - 1 = 1; a divisor whose pairs
        # all read s = 0 is still refused, because the row is checked
        # for every s when it is built
        spoil_last_residue(monkeypatch)
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        with pytest.raises(ConsistencyError, match="odd or non-integral"):
            exponent_table(spec, inv, D)

    def test_row_error_names_one_residue(self, monkeypatch):
        # the message names the bad residue alone, not the whole row, so
        # the CLI error payload stays small at d = 4001
        p = 4001
        spec = build_cover((p,), [((1,), 0), ((1,), 1), ((p - 2,), 2)])
        inv = validate(spec)
        D = make_divisor(spec, [0, 2000, 4000])
        spoil_last_residue(monkeypatch)
        with pytest.raises(ConsistencyError,
                           match="odd or non-integral") as caught:
            exponent_table(spec, inv, D)
        message = str(caught.value)
        assert f"E[{p - 1}]" in message and len(message) < 200

    def test_evenness_on_mixed_cover(self, mixed4):
        spec, inv = mixed4.spec, mixed4.inv
        for D in enumerate_nonspecial(spec, inv)[:12]:
            table = exponent_table(spec, inv, D)
            for value in table.entries.values():
                assert value % 2 == 0


class TestSuperellipticLaw:
    """The tables of y^N = prod (x - lambda_i), Z_N with every branch
    element 1 ([BR1], [Na], [EG2]), against a law that does not go
    through the Dedekind walk: every entry depends only on
    delta = (beta_b - beta_a) mod N,

        E_ab = 2N(N - 1) - 4 delta (N - delta),

    with theta exponent 8N and det C exponent 4N.  At N = 2 this is
    Thomae's hyperelliptic formula (Mumford, Tata II, IIIa section 8): 4
    when beta_a = beta_b, else 0, theta exponent 16 and det C exponent 8.
    The law was measured on every orbit of these covers and of Z5 with
    10 sites (about 2 s, so not here).  Z2 cannot tell delta from
    beta_a + beta_b; the larger N can, so a table read at -h fails."""

    @pytest.mark.parametrize("N, k", [(2, k) for k in range(2, 8)]
                             + [(3, 2), (3, 3), (4, 1), (4, 2), (5, 1),
                                (6, 1), (7, 1)])
    def test_every_orbit_obeys_the_law(self, N, k):
        spec = build_cover([N], [([1], v) for v in range(N * k)])
        inv = validate(spec)
        divisors, labels = enumerate_orbits(spec, inv)
        # the sites split into N labelled sets of k
        assert len(divisors) == factorial(N * k) // factorial(k) ** N
        representatives = {}
        for D, label in zip(divisors, labels):
            representatives.setdefault(label, D)
        assert len(representatives) * N == len(divisors)
        for D in representatives.values():
            table = exponent_table(spec, inv, D)
            assert (table.theta_exponent, table.detC_exponent) == \
                (8 * N, 4 * N)
            for (a, b), value in table.entries.items():
                delta = (D.beta[b] - D.beta[a]) % N
                assert value == 2 * N * (N - 1) - 4 * delta * (N - delta), \
                    (D.beta, a, b)


class TestRelabelEquivalent:
    def test_cyclic3_rotation(self, cyclic3):
        spec, inv = cyclic3.spec, cyclic3.inv
        D1 = make_divisor(spec, [2, 1, 0])
        D2 = make_divisor(spec, [1, 0, 2])
        perm = relabel_equivalent(spec, inv, D1, D2)
        assert perm is not None
        for a in range(3):
            assert D2.beta[perm[a]] == D1.beta[a]

    def test_hyperelliptic_all_equivalent(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        divisors = enumerate_nonspecial(spec, inv)
        D1 = divisors[0]
        for D2 in divisors:
            assert relabel_equivalent(spec, inv, D1, D2) is not None

    def test_inequivalent_pair(self, mixed4):
        spec, inv = mixed4.spec, mixed4.inv
        divisors = enumerate_nonspecial(spec, inv)

        def signature(D):
            blocks = {}
            for k, site in enumerate(spec.sites):
                blocks.setdefault(site.element_rank, []).append(D.beta[k])
            return tuple(tuple(sorted(v)) for _, v in sorted(blocks.items()))

        by_sig = {}
        for D in divisors:
            by_sig.setdefault(signature(D), []).append(D)
        assert len(by_sig) > 1, "fixture should have several weight shapes"
        sigs = sorted(by_sig)
        D1 = by_sig[sigs[0]][0]
        D2 = by_sig[sigs[1]][0]
        assert relabel_equivalent(spec, inv, D1, D2) is None
        same = by_sig[sigs[0]]
        if len(same) > 1:
            assert relabel_equivalent(spec, inv, same[0], same[1]) is not None

    def test_requires_nonspecial(self, cyclic3):
        spec, inv = cyclic3.spec, cyclic3.inv
        good = make_divisor(spec, [2, 1, 0])
        bad = make_divisor(spec, [2, 2, 0])
        with pytest.raises(DomainError):
            relabel_equivalent(spec, inv, good, bad)

    def test_equal_weights_keep_their_order(self, hyperelliptic, cyclic3,
                                            mixed4):
        # within a block, sites of equal weight map in increasing order
        for cover in (hyperelliptic, cyclic3, mixed4):
            spec, inv = cover.spec, cover.inv
            ranks = [site.element_rank for site in spec.sites]
            divisors = enumerate_nonspecial(spec, inv)
            for D1, D2 in product(divisors, repeat=2):
                perm = relabel_equivalent(spec, inv, D1, D2)
                if perm is None:
                    continue
                for a, b in combinations(range(len(ranks)), 2):
                    if ranks[a] == ranks[b] and D1.beta[a] == D1.beta[b]:
                        assert perm[a] < perm[b]

    def test_tables_match_under_relabeling(self, hyperelliptic, cyclic3,
                                           mixed4):
        for cover in (hyperelliptic, cyclic3, mixed4):
            spec, inv = cover.spec, cover.inv
            divisors = enumerate_nonspecial(spec, inv)
            D1 = divisors[0]
            matched = 0
            for D2 in divisors[1:]:
                perm = relabel_equivalent(spec, inv, D1, D2)
                if perm is None:
                    continue
                t1 = exponent_table(spec, inv, D1)
                t2 = exponent_table(spec, inv, D2)
                for (a, b), value in t1.entries.items():
                    image = tuple(sorted((perm[a], perm[b])))
                    assert t2.entries[image] == value
                matched += 1
                if matched >= 4:
                    break
            assert matched > 0


class TestThetaOracle:
    def test_even_characteristic_counts(self):
        # 2^(g-1) (2^g + 1) even characteristics
        assert [len(even_characteristics(g)) for g in (1, 2)] == [3, 10]

    def test_jacobi_quartic_identity(self):
        # theta[0;0]^4 = theta[0;1/2]^4 + theta[1/2;0]^4 at genus 1
        half = Fraction(1, 2)
        with mpmath.workdps(40):
            tau = mpmath.matrix([[mpmath.mpc("0.3", "1.1")]])
            t00, t01, t10 = (theta_constant(tau, a, b, 8) for a, b in
                             (((0,), (0,)), ((0,), (half,)),
                              ((half,), (0,))))
            assert abs(t00 ** 4 - t01 ** 4 - t10 ** 4) < 1e-35 * abs(t00 ** 4)
