"""Group layer: element orders, the character pairing, the dual group,
and pairwise intersection data, each checked against a brute-force
reimplementation."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import add, neg

import pytest
from hypothesis import given, strategies as st

import abelcover.group_core as group_core
from abelcover import (AbelianGroup, Character, DomainError, GroupElement,
                       MalformedDataError, dual_group, element_order,
                       intersection_data, pairing_u)
from oracles import cyclic_subgroup, pairing_u_definition
from test_exponents import all_small_factorizations

groups = st.lists(st.integers(min_value=2, max_value=8),
                  min_size=1, max_size=3).map(
    lambda fs: AbelianGroup(tuple(fs)))


@st.composite
def group_and_element(draw, nontrivial=False):
    group = draw(groups)
    residues = draw(st.tuples(*(st.integers(min_value=0, max_value=m - 1)
                                for m in group.factor_orders)))
    if nontrivial and all(r == 0 for r in residues):
        residues = (1,) + residues[1:]
    return group, group.element(residues)


class TestAbelianGroup:
    def test_order_and_exponent(self):
        g = AbelianGroup((2, 4))
        assert g.order == 8
        assert g.exponent == 4

    def test_factor_below_two_rejected(self):
        with pytest.raises(MalformedDataError):
            AbelianGroup((2, 1))

    def test_out_of_range_residues_rejected(self):
        g = AbelianGroup((3,))
        with pytest.raises(MalformedDataError):
            g.element([5])
        with pytest.raises(MalformedDataError):
            g.element([-1])
        # generated values skip this check; the public constructors keep it
        for kind in (GroupElement, Character):
            for residues in [(3,), (-1,)]:
                with pytest.raises(MalformedDataError, match="out of range"):
                    kind(g, residues)

    @pytest.mark.parametrize("bad", [2.9, "4", Fraction(4), True])
    def test_non_int_factor_order_rejected(self, bad):
        with pytest.raises(MalformedDataError):
            AbelianGroup((bad,))

    @pytest.mark.parametrize("bad", [1.7, "1", Fraction(1), True])
    def test_non_int_residue_rejected(self, bad):
        g = AbelianGroup((4,))
        with pytest.raises(MalformedDataError):
            g.element((bad,))
        with pytest.raises(MalformedDataError):
            g.character((bad,))

    def test_wrong_length_rejected(self):
        g = AbelianGroup((2, 2))
        with pytest.raises(MalformedDataError):
            g.element([1])

    def test_arithmetic(self):
        g = AbelianGroup((2, 4))
        a = g.element([1, 3])
        b = g.element([1, 2])
        assert (a + b).residues == (0, 1)
        assert (-a).residues == (1, 1)
        assert (3 * a).residues == (1, 1)
        assert (a + (-a)).is_identity()

    @pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2"])
    def test_non_int_multiplier_rejected(self, bad):
        # a bool was taken as 0 or 1 before: e * True returned e
        a = AbelianGroup((4,)).element([1])
        with pytest.raises(TypeError):
            a * bad
        with pytest.raises(TypeError):
            bad * a

    def test_cross_group_addition_rejected(self):
        a = AbelianGroup((2,)).element([1])
        b = AbelianGroup((4,)).element([1])
        with pytest.raises(MalformedDataError,
                           match="^cannot add elements of different groups$"):
            a + b

    @pytest.mark.parametrize("factors", [(2, 4), (6,)], ids=["Z2xZ4", "Z6"])
    def test_generated_values_skip_the_entry_check(self, factors,
                                                   monkeypatch):
        # elements(), s + r, -s, k * s and chi.conjugate() reduce their
        # residues mod the factor orders, so they build through _built and
        # equal what the checked constructors give for the same residues
        g = AbelianGroup(factors)
        vectors = list(product(*map(range, factors)))

        def reduced(residues):
            return tuple(r % m for r, m in zip(residues, factors))

        characters = [Character(g, v) for v in vectors]

        def no_check(*args):
            raise AssertionError("a generated value was checked")

        monkeypatch.setattr(group_core, "_check_residues", no_check)
        elements = list(g.elements())
        sums = [(s, r, s + r) for s in elements for r in elements]
        negatives = [(s, -s) for s in elements]
        multiples = [(s, k, k * s, s * k) for s in elements
                     for k in range(-7, 8)]
        conjugates = [(chi, chi.conjugate()) for chi in characters]
        monkeypatch.undo()

        def checked(residues):
            return GroupElement(g, reduced(residues))

        assert elements == [GroupElement(g, v) for v in vectors]
        assert all(x == checked(map(add, s.residues, r.residues))
                   for s, r, x in sums)
        assert all(x == checked(map(neg, s.residues)) for s, x in negatives)
        assert all(x == y == checked(r * k for r in s.residues)
                   for s, k, x, y in multiples)
        assert all(x == Character(g, reduced(map(neg, chi.residues)))
                   for chi, x in conjugates)
        values = [x for row in (sums, negatives, multiples, conjugates)
                  for *_, x in row] + elements
        assert all(type(x.residues) is tuple and x.group is g
                   and hash(x) == hash(type(x)(g, x.residues))
                   for x in values)


class TestElementOrder:
    def test_identity_has_order_one(self):
        g = AbelianGroup((2, 4))
        assert element_order(g, g.element([0, 0])) == 1

    def test_examples(self):
        g = AbelianGroup((2, 4))
        assert element_order(g, g.element([1, 2])) == 2
        assert element_order(g, g.element([0, 1])) == 4
        assert element_order(g, g.element([1, 1])) == 4
        z6 = AbelianGroup((6,))
        assert element_order(z6, z6.element([1])) == 6
        assert element_order(z6, z6.element([2])) == 3

    @given(group_and_element())
    def test_matches_brute_force(self, ge):
        group, s = ge
        k, acc = 1, s
        while not acc.is_identity():
            acc = acc + s
            k += 1
        assert element_order(group, s) == k

    @given(group_and_element())
    def test_divides_group_order(self, ge):
        group, s = ge
        assert group.order % element_order(group, s) == 0


class TestPairing:
    def test_hyperelliptic_value(self):
        g = AbelianGroup((2,))
        assert pairing_u(g, g.character([1]), g.element([1])) == 1

    def test_foreign_group_objects_rejected(self):
        z2, z3 = AbelianGroup((2,)), AbelianGroup((3,))
        with pytest.raises(MalformedDataError, match="does not belong"):
            pairing_u(z2, z3.character([1]), z2.element([1]))
        with pytest.raises(MalformedDataError, match="does not belong"):
            element_order(z2, z3.element([1]))
        with pytest.raises(MalformedDataError, match="does not belong"):
            cyclic_subgroup(z2, z3.element([1]))
        # a foreign element is refused before either element's identity
        for foreign in (z3.element([1]), z3.element([0])):
            with pytest.raises(MalformedDataError, match="does not belong"):
                intersection_data(z2, z2.element([1]), foreign)

    def test_unhashable_argument_refused_before_the_cache(self):
        # the cache hashed the arguments before any check ran, so a list
        # raised TypeError: unhashable type: 'list'
        g = AbelianGroup((2,))
        before = pairing_u.cache_info()
        for args in ((g, [1], g.element([1])), (g, g.character([1]), [1]),
                     ([2], g.character([1]), g.element([1]))):
            with pytest.raises(MalformedDataError, match="does not belong"):
                pairing_u(*args)
        after = pairing_u.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_orthogonal_pair_gives_zero(self):
        # chi = (1,1) annihilates s = (1,2) in Z2 x Z4: the angle sum is
        # 1/2 + 2/4, an integer, so u = 0.
        g = AbelianGroup((2, 4))
        assert pairing_u(g, g.character([1, 1]), g.element([1, 2])) == 0

    def test_trivial_character_gives_zero(self):
        g = AbelianGroup((3, 5))
        for s in g.elements():
            assert pairing_u(g, g.character([0, 0]), s) == 0

    @given(group_and_element())
    def test_range_and_exactness(self, ge):
        group, s = ge
        o = element_order(group, s)
        for chi in dual_group(group):
            u = pairing_u(group, chi, s)
            assert 0 <= u < o
            # u/o must reproduce the angle sum modulo 1
            angle = sum(
                Fraction(e * d, m) for e, d, m in
                zip(chi.residues, s.residues, group.factor_orders)) % 1
            assert Fraction(u, o) == angle

    @given(group_and_element())
    def test_additive_in_the_character(self, ge):
        group, s = ge
        o = element_order(group, s)
        chars = dual_group(group)
        for chi1 in chars[:4]:
            for chi2 in chars[:4]:
                chi12 = group.character(
                    [(a + b) % m for a, b, m in
                     zip(chi1.residues, chi2.residues, group.factor_orders)])
                lhs = pairing_u(group, chi12, s)
                rhs = (pairing_u(group, chi1, s)
                       + pairing_u(group, chi2, s)) % o
                assert lhs == rhs

    def test_zero_iff_annihilating(self):
        group = AbelianGroup((2, 4))
        for s in group.elements():
            sub = cyclic_subgroup(group, s)
            for chi in dual_group(group):
                kills = all(
                    sum(Fraction(e * d, m) for e, d, m in
                        zip(chi.residues, t.residues,
                            group.factor_orders)) % 1 == 0
                    for t in sub)
                assert (pairing_u(group, chi, s) == 0) == kills

    def test_conjugate_pairing_sum(self):
        # u of chi and of its conjugate add to 0 or to the full order
        for factors in ((2, 4), (3, 3), (6,), (2, 2, 2)):
            group = AbelianGroup(factors)
            for s in group.elements():
                o = element_order(group, s)
                for chi in dual_group(group):
                    u = pairing_u(group, chi, s)
                    uc = pairing_u(group, chi.conjugate(), s)
                    assert u + uc == (0 if u == 0 else o)

    def test_values_evenly_distributed(self):
        # over the whole dual group, each residue class modulo o appears
        # n/o times
        for factors in ((2, 4), (12,), (2, 2, 3)):
            group = AbelianGroup(factors)
            n = group.order
            for s in group.elements():
                if s.is_identity():
                    continue
                o = element_order(group, s)
                counts = {}
                for chi in dual_group(group):
                    u = pairing_u(group, chi, s)
                    counts[u] = counts.get(u, 0) + 1
                assert counts == {u: n // o for u in range(o)}

    def test_matches_fraction_definition_on_all_small_groups(self):
        for factors in all_small_factorizations(24):
            group = AbelianGroup(factors)
            for s in group.elements():
                for chi in dual_group(group):
                    assert pairing_u(group, chi, s) == \
                        pairing_u_definition(group, chi, s)


class TestDualGroup:
    def test_size_and_uniqueness(self):
        g = AbelianGroup((2, 3))
        chars = dual_group(g)
        assert len(chars) == 6
        assert len(set(chars)) == 6

    def test_equals_the_checked_characters(self):
        # dual_group builds its characters without the entry check
        g = AbelianGroup((2, 3, 4))
        chars = dual_group(g)
        checked = [Character(g, r) for r in product(range(2), range(3),
                                                    range(4))]
        assert chars == checked
        assert [hash(c) for c in chars] == [hash(c) for c in checked]
        assert all(type(c) is Character and type(c.residues) is tuple
                   and c.group is g for c in chars)

    def test_trivial_first_then_lex(self):
        g = AbelianGroup((2, 2))
        assert [c.residues for c in dual_group(g)] == \
            [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_conjugate(self):
        g = AbelianGroup((5,))
        chi = g.character([2])
        assert chi.conjugate().residues == (3,)
        assert g.character([0]).conjugate().is_trivial()


class TestIntersectionData:
    def test_identity_rejected(self):
        g = AbelianGroup((2,))
        with pytest.raises(DomainError):
            intersection_data(g, g.element([0]), g.element([1]))

    def test_equal_elements(self):
        g = AbelianGroup((6,))
        s = g.element([1])
        assert intersection_data(g, s, s) == (6, 1)

    def test_disjoint_cyclic_subgroups(self):
        g = AbelianGroup((2, 2))
        assert intersection_data(g, g.element([1, 0]),
                                 g.element([0, 1])) == (1, 0)

    def test_partial_overlap(self):
        # <2> and <3> in Z12 intersect in <6>, of size 2
        g = AbelianGroup((12,))
        d, h = intersection_data(g, g.element([2]), g.element([3]))
        assert d == 2
        # generators of the intersection: 2*(6/2)=... s^(o_s/d) = 6*... both
        # land on the element (6); h relates them, so h = 1 here
        assert h == 1

    @given(group_and_element(nontrivial=True).flatmap(
        lambda ge: st.tuples(
            st.just(ge),
            st.tuples(*(st.integers(min_value=0, max_value=m - 1)
                        for m in ge[0].factor_orders)))))
    def test_against_brute_force(self, payload):
        (group, s), r_res = payload
        if all(x == 0 for x in r_res):
            r_res = (1,) + r_res[1:]
        r = group.element(r_res)
        d, h = intersection_data(group, s, r)

        common = set(cyclic_subgroup(group, s)) & set(cyclic_subgroup(group, r))
        assert d == len(common)
        assert math.gcd(h, d) == 1 if d > 1 else h == 0

        o_s = element_order(group, s)
        o_r = element_order(group, r)
        assert o_s % d == 0 and o_r % d == 0
        gen_s = (o_s // d) * s
        gen_r = (o_r // d) * r
        assert gen_r.residues == (h * gen_s).residues

    def test_exhaustive_on_z2_z4(self):
        group = AbelianGroup((2, 4))
        nontrivial = [s for s in group.elements() if not s.is_identity()]
        for s in nontrivial:
            for r in nontrivial:
                d, _ = intersection_data(group, s, r)
                common = set(cyclic_subgroup(group, s)) \
                    & set(cyclic_subgroup(group, r))
                assert d == len(common)

    def test_swap_compatibility(self):
        # swapping the arguments keeps d and inverts h modulo d
        for factors in ((12,), (2, 4), (3, 6)):
            group = AbelianGroup(factors)
            nontrivial = [s for s in group.elements()
                          if not s.is_identity()]
            for s in nontrivial:
                for r in nontrivial:
                    d, h = intersection_data(group, s, r)
                    d_swapped, h_swapped = intersection_data(group, r, s)
                    assert d == d_swapped
                    if d > 1:
                        assert (h * h_swapped) % d == 1

    def test_pairing_congruence(self):
        # u_{chi,r} is h times u_{chi,s} modulo d, for every character
        for factors in ((12,), (2, 4), (2, 2, 2)):
            group = AbelianGroup(factors)
            nontrivial = [s for s in group.elements()
                          if not s.is_identity()]
            for s in nontrivial:
                for r in nontrivial:
                    d, h = intersection_data(group, s, r)
                    for chi in dual_group(group):
                        u = pairing_u(group, chi, s)
                        v = pairing_u(group, chi, r)
                        assert (v - h * u) % d == 0
