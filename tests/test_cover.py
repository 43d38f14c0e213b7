"""Cover validation: site canonicalization, monodromy closure,
connectedness, the ramification counts t, the genus, and the packed
counting tables."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count

import pytest
from hypothesis import given, settings, strategies as st

import abelcover.cover as cover_module
from abelcover import (AbelianGroup, BranchPoint, ConsistencyError,
                       CoverSpec, DisconnectedCoverError, InvalidCoverError,
                       MalformedDataError, dual_group, element_order,
                       validate)
from conftest import build_cover
from oracles import (differential_basis_descriptor, generated_subgroup,
                     packed_tables)
from test_divisors import draw_noncyclic_cover
from test_exponents import all_small_factorizations


def disconnected_message(spec: CoverSpec) -> str | None:
    """The DisconnectedCoverError text for spec by the subgroup closure,
    or None when the branch elements generate the group."""
    gens = list(dict.fromkeys(bp.element.residues
                              for bp in spec.branch_points))
    order = len(generated_subgroup(spec.group.factor_orders, gens))
    if order == spec.group.order:
        return None
    return (f"branch elements generate a subgroup of order {order} "
            f"inside a group of order {spec.group.order}")


class TestSpecConstruction:
    def test_identity_branch_element_rejected(self):
        g = AbelianGroup((2,))
        with pytest.raises(MalformedDataError):
            CoverSpec(g, (BranchPoint(g.identity(), Fraction(0)),))

    def test_wrong_group_element_rejected(self):
        g = AbelianGroup((2,))
        other = AbelianGroup((3,))
        with pytest.raises(MalformedDataError):
            CoverSpec(g, (BranchPoint(other.element([1]), Fraction(0)),))

    def test_site_order_sorts_by_element_then_occurrence(self):
        # document order deliberately interleaves the two elements
        spec = build_cover([4], [([3], 0), ([1], 1), ([3], 2), ([1], 3)])
        ranks = [(s.element.residues, s.occurrence) for s in spec.sites]
        assert ranks == [((1,), 0), ((1,), 1), ((3,), 0), ((3,), 1)]
        # occurrence follows document order within each element
        assert [s.value for s in spec.sites] == [1, 3, 0, 2]

    @pytest.mark.parametrize("value", [
        Fraction(10 ** 5000 + 1, 3), Fraction(-(10 ** 4300)),
        Fraction(1, 10 ** 4300)])
    def test_value_over_4300_digits_rejected(self, value):
        g = AbelianGroup((2,))
        with pytest.raises(MalformedDataError, match="4300 digits"):
            BranchPoint(g.element([1]), value)

    def test_value_of_4300_digits_validates(self):
        # str() of each part, as the cover fingerprint needs, still works
        big = 10 ** 4300 - 1
        spec = build_cover([2], [([1], Fraction(-big, big - 1)),
                                 ([1], Fraction(1, big))])
        assert validate(spec).g == 0

    def test_fingerprint_distinguishes_values(self):
        a = build_cover([2], [([1], v) for v in range(6)])
        b = build_cover([2], [([1], v) for v in range(5)] + [([1], 7)])
        assert a.fingerprint != b.fingerprint
        again = build_cover([2], [([1], v) for v in range(6)])
        assert a.fingerprint == again.fingerprint


def small_group_covers(limit: int) -> list[CoverSpec]:
    """One cover per group of order at most limit, carrying every
    nontrivial element twice."""
    specs = []
    for factors in all_small_factorizations(limit):
        elements = [s for s in AbelianGroup(factors).elements()
                    if not s.is_identity()]
        specs.append(build_cover(factors, [
            (s.residues, k) for k, s in enumerate(elements + elements)]))
    return specs


class TestValidate:
    def test_duplicate_branch_values_rejected(self):
        spec = build_cover([2], [([1], 0), ([1], 0)])
        with pytest.raises(MalformedDataError):
            validate(spec)

    def test_monodromy_violation(self):
        spec = build_cover([3], [([1], 0), ([1], 1)])
        with pytest.raises(InvalidCoverError) as info:
            validate(spec)
        assert info.value.reason == "monodromy"

    def test_disconnected_cover(self):
        spec = build_cover([2, 2], [([1, 0], 0), ([1, 0], 1)])
        with pytest.raises(DisconnectedCoverError):
            validate(spec)

    def test_repeated_generator_disconnected(self):
        # four copies of 2 in Z4 close the monodromy but generate {0, 2}
        spec = build_cover([4], [([2], v) for v in range(4)])
        with pytest.raises(DisconnectedCoverError) as info:
            validate(spec)
        assert str(info.value) == ("branch elements generate a subgroup of "
                                   "order 2 inside a group of order 4")

    @pytest.mark.parametrize("factors,points", [
        ([6], [([2], v) for v in range(3)]),
        ([2, 4], [([0, 2], 0), ([0, 2], 1)]),
        ([3, 6], [([0, 2], 0), ([0, 2], 1), ([0, 2], 2)]),
        ([8], [([2], 0), ([6], 1)]),
        ([4, 4], [([2, 0], 0), ([2, 0], 1)])])
    def test_disconnected_names_the_subgroup_order(self, factors, points):
        # subgroups H with |H| != n / |H|, so the order is told apart from
        # the number of characters trivial on H
        spec = build_cover(factors, points)
        expected = disconnected_message(spec)
        assert expected is not None
        with pytest.raises(DisconnectedCoverError) as info:
            validate(spec)
        assert str(info.value) == expected

    def test_hyperelliptic_invariants(self, hyperelliptic):
        inv = hyperelliptic.inv
        assert (inv.n, inv.m, inv.g) == (2, 2, 2)
        chars = dual_group(hyperelliptic.spec.group)
        assert [inv.t[c] for c in chars] == [0, 3]

    def test_battery_genera(self, battery):
        for cover in battery:
            assert cover.inv.g == cover.genus

    def test_t_tables(self, cyclic3, cyclic4, klein, cyclic6):
        assert sorted(cyclic3.inv.t.values()) == [0, 1, 2]
        assert sorted(cyclic4.inv.t.values()) == [0, 1, 2, 3]
        assert sorted(klein.inv.t.values()) == [0, 2, 2, 2]
        assert sorted(cyclic6.inv.t.values()) == [0, 1, 2, 3, 4, 5]

    def test_trivial_character_count_is_zero(self, battery):
        for cover in battery:
            trivial = cover.spec.group.character(
                [0] * len(cover.spec.group.factor_orders))
            assert cover.inv.t[trivial] == 0

    def test_genus_matches_dimension_sum(self, battery, mixed4, sparse6):
        # Riemann-Hurwitz from orders computed here, beside the dimension
        # count; one cover per group up to order 24, non-cyclic ones too
        specs = [cover.spec for cover in (*battery, mixed4, sparse6)]
        specs += small_group_covers(24)
        for spec in specs:
            inv = validate(spec)
            group = spec.group
            orders = [element_order(group, bp.element)
                      for bp in spec.branch_points]
            ramification = sum(inv.n // o * (o - 1) for o in orders)
            assert ramification % 2 == 0
            assert inv.g == 1 - inv.n + ramification // 2
            total = sum(max(inv.t[chi.conjugate()] - 1, 0)
                        for chi in dual_group(group)
                        if not chi.is_trivial())
            assert total == inv.g
            assert len(differential_basis_descriptor(inv)) == inv.g

    def test_genus_zero_cover(self):
        spec = build_cover([2], [([1], 0), ([1], 1)])
        assert validate(spec).g == 0

    def test_pairing_table_matches_pairing_u(self, battery, mixed4):
        # validate and pairing_u apply one integer rule; beside the
        # battery, one cover per group up to order 24, non-cyclic ones
        # too, carries every nontrivial element twice
        from abelcover import pairing_u
        specs = [cover.spec for cover in (*battery, mixed4)]
        for spec in specs + small_group_covers(24):
            inv = validate(spec)
            group = spec.group
            assert list(inv.u) == dual_group(group) == list(inv.t)
            for chi, row in inv.u.items():
                assert row == tuple(pairing_u(group, chi, site.element)
                                    for site in spec.sites)

    def test_spoiled_packed_row_raises(self, cyclic6, monkeypatch):
        # weight 0 counts for no character; a set bit there breaks the
        # count v n / o that proves the degree identity once per cover
        def spoiled(starts):
            first, *rest = accumulate(starts)
            return [first | 1, *rest]

        monkeypatch.setattr(cover_module, "accumulate", spoiled)
        with pytest.raises(ConsistencyError,
                           match=r"packed\[0\] miscounts the u values"):
            validate(cyclic6.spec)

    def test_riemann_hurwitz_identity_raises(self, hyperelliptic,
                                             monkeypatch):
        # zero coefficients at the first two sites keep t integral and
        # the cover connected, but 2 sum t = 4 against sum (n/o)(o-1) = 6
        pairing_coefficients = cover_module._pairing_coefficients
        calls = count()

        def spoiled(group, s, o):
            c = pairing_coefficients(group, s, o)
            return tuple(0 for _ in c) if next(calls) < 2 else c

        monkeypatch.setattr(cover_module, "_pairing_coefficients", spoiled)
        with pytest.raises(ConsistencyError,
                           match=r"Riemann-Hurwitz fails: 2 sum t = 4 != 6"):
            validate(hyperelliptic.spec)

    def test_conjugate_count_sum(self, battery, mixed4):
        # t of chi plus t of its conjugate counts the branch points whose
        # monodromy chi does not annihilate
        from abelcover import pairing_u
        for cover in list(battery) + [mixed4]:
            spec, inv = cover.spec, cover.inv
            group = spec.group
            for chi in dual_group(group):
                if chi.is_trivial():
                    continue
                outside_kernel = sum(
                    1 for site in spec.sites
                    if pairing_u(group, chi, site.element) != 0)
                assert inv.t[chi] + inv.t[chi.conjugate()] == outside_kernel

    def test_ramification_weight_identity(self, battery, mixed4, sparse6):
        # the per-site half weights (o-1)/(2o) sum to (g+n-1)/n
        for cover in list(battery) + [mixed4, sparse6]:
            spec, inv = cover.spec, cover.inv
            total = sum(Fraction(o - 1, 2 * o) for o in spec.site_orders)
            assert total == Fraction(inv.g + inv.n - 1, inv.n)

    def test_mixed_orders(self, mixed4):
        inv = mixed4.inv
        assert inv.g == 5
        assert sorted(inv.t.values()) == [0, 2, 3, 3]
        assert mixed4.spec.site_orders == (4, 4, 2, 2, 4, 4)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_closed_covers_have_integer_genus(self, data):
        factors = tuple(data.draw(st.lists(
            st.integers(min_value=2, max_value=6),
            min_size=1, max_size=2)))
        group = AbelianGroup(factors)
        k = data.draw(st.integers(min_value=2, max_value=5))
        elements = []
        for _ in range(k):
            res = data.draw(st.tuples(
                *(st.integers(min_value=0, max_value=m - 1)
                  for m in factors)))
            elements.append(group.element(res))
        closing = -sum(elements[1:], elements[0])
        elements.append(closing)
        usable = [e for e in elements if not e.is_identity()]
        if len(usable) < 1:
            return
        spec = CoverSpec(group, tuple(
            BranchPoint(e, Fraction(i)) for i, e in enumerate(usable)))
        # monodromy closes by construction: validate fails exactly when
        # the closure of the branch elements is a proper subgroup
        expected = disconnected_message(spec)
        if expected is not None:
            with pytest.raises(DisconnectedCoverError) as info:
                validate(spec)
            assert str(info.value) == expected
            return
        inv = validate(spec)
        assert inv.g >= 0
        assert all(t >= 0 for t in inv.t.values())
        assert sum(max(inv.t[chi.conjugate()] - 1, 0)
                   for chi in dual_group(group)
                   if not chi.is_trivial()) == inv.g


class TestPackedTables:
    """validate's packed tables, built by threshold, against the
    per-weight definition."""

    @staticmethod
    def check(spec, inv):
        assert (inv.packed, inv.packed_target, inv.packed_guard) == \
            packed_tables(spec, inv)

    def test_battery(self, battery, mixed4, sparse6, z7x7):
        for cover in (*battery, mixed4, sparse6, z7x7):
            self.check(cover.spec, cover.inv)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_noncyclic_covers(self, data):
        cover = draw_noncyclic_cover(data)
        self.check(cover.spec, cover.inv)

    @pytest.mark.parametrize("p", [211, 1009])
    def test_large_cyclic_group(self, p):
        spec = build_cover([p], [([1], 0), ([1], 1), ([p - 2], 2)])
        inv = validate(spec)
        assert inv.g == (p - 1) // 2
        self.check(spec, inv)


class TestDifferentialBasis:
    def test_length_is_genus(self, battery):
        for cover in battery:
            basis = differential_basis_descriptor(cover.inv)
            assert len(basis) == cover.inv.g

    def test_hyperelliptic_basis(self, hyperelliptic):
        basis = differential_basis_descriptor(hyperelliptic.inv)
        assert len(basis) == 2
        chis = {chi.residues for chi, _ in basis}
        assert chis == {(1,)}
        assert sorted(k for _, k in basis) == [0, 1]

    def test_powers_below_conjugate_count(self, battery):
        for cover in battery:
            inv = cover.inv
            for chi, k in differential_basis_descriptor(inv):
                assert not chi.is_trivial()
                assert 0 <= k <= inv.t[chi.conjugate()] - 2
