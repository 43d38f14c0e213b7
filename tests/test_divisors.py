"""Non-special divisors: the counting criterion against a brute-force
filter, pruned enumeration, the dual-group action, negation, orbits,
support sets, and half-form exponent vectors."""

from __future__ import annotations

import copy
import tracemalloc
from fractions import Fraction
from itertools import product
from math import factorial
from operator import getitem

import pytest
from hypothesis import assume, given, settings, strategies as st

import abelcover.divisors as divisors_module
from abelcover import (AbelianGroup, ConsistencyError, DisconnectedCoverError,
                       DomainError, InvariantDivisor, MalformedDataError,
                       ResourceCapError, chi_action, dual_group,
                       enumerate_nonspecial, enumerate_orbits, exponent_table,
                       is_nonspecial, make_divisor, orbit,
                       pairing_u, validate)
from conftest import Cover, build_cover
from oracles import _centered, degree, negation_N, support_p


def brute_force_nonspecial(cover):
    """Independent reimplementation of the counting criterion: try every
    weight vector, keep those meeting the per-character counts."""
    spec, inv = cover.spec, cover.inv
    group = spec.group
    out = []
    for beta in product(*(range(o) for o in spec.site_orders)):
        ok = True
        for chi, t in zip(dual_group(group), inv.t):
            if chi.is_trivial():
                continue
            hits = sum(
                1 for site, o, b in
                zip(spec.sites, spec.site_orders, beta)
                if b >= o - pairing_u(group, chi, site.element))
            if hits != t:
                ok = False
                break
        if ok:
            out.append(beta)
    return sorted(out)


def encode(spec, beta) -> str:
    """The code string of a weight vector, as the listing carries it."""
    return "".join(map(getitem, divisors_module._letters(spec), beta))


def reference_orbit_labels(cover):
    """Orbit labels by the direct route: every non-special weight vector
    of the full weight space, then orbit() of each one not yet labelled,
    labels numbered by first appearance in lex order."""
    spec, inv = cover.spec, cover.inv
    betas = [beta for beta in product(*(range(o) for o in spec.site_orders))
             if is_nonspecial(spec, inv, make_divisor(spec, beta))]
    index_of = {beta: i for i, beta in enumerate(betas)}
    labels: dict[int, int] = {}
    next_orbit = 0
    for i, beta in enumerate(betas):
        if i in labels:
            continue
        for member in orbit(spec, inv, make_divisor(spec, beta)):
            labels[index_of[member.beta]] = next_orbit
        next_orbit += 1
    return betas, [labels[i] for i in range(len(betas))]


def assert_representatives(cover):
    """Orbit i of the listing first appears at the i-th divisor that is
    the least of the members _slice_rows carries it to, and the exponent
    table of every divisor names min(orbit()) as its orbit."""
    spec, inv = cover.spec, cover.inv
    divisors, labels = enumerate_orbits(spec, inv)
    first: dict[int, tuple[int, ...]] = {}
    for D, label in zip(divisors, labels):
        first.setdefault(label, D.beta)
    act, slice_rows = divisors_module._act, divisors_module._slice_rows
    reps = [D.beta for D in divisors
            if D.beta == min(act(spec, inv, D.beta, row)
                             for row in slice_rows(spec, inv, D.beta))]
    assert reps == [first[i] for i in range(len(first))]
    for D, label in zip(divisors, labels):
        least = min(member.beta for member in orbit(spec, inv, D))
        assert least == first[label]
        assert exponent_table(spec, inv, D).divisor_fingerprint == \
            f"{spec.fingerprint}:orbit{list(least)}"


def draw_noncyclic_cover(data) -> Cover:
    """A random connected cover of Z2xZ2, Z2xZ4, Z3xZ3 or Z2^3 with at
    most 6 branch sites."""
    factors = data.draw(st.sampled_from([(2, 2), (2, 4), (3, 3), (2, 2, 2)]))
    group = AbelianGroup(factors)
    nontrivial = [s for s in group.elements() if not s.is_identity()]
    elements = data.draw(st.lists(st.sampled_from(nontrivial),
                                  min_size=2, max_size=5))
    closing = -sum(elements[1:], elements[0])
    if not closing.is_identity():
        elements.append(closing)
    spec = build_cover(factors, [(s.residues, i)
                                 for i, s in enumerate(elements)])
    try:
        inv = validate(spec)
    except DisconnectedCoverError:
        assume(False)
    return Cover(name="random", spec=spec, inv=inv, genus=inv.g)


class TestMakeDivisor:
    def test_range_checked(self, hyperelliptic):
        with pytest.raises(MalformedDataError):
            make_divisor(hyperelliptic.spec, [0, 0, 0, 0, 0, 2])
        with pytest.raises(MalformedDataError):
            make_divisor(hyperelliptic.spec, [0, 0, 0, 0, 0, -1])

    def test_length_checked(self, hyperelliptic):
        with pytest.raises(MalformedDataError):
            make_divisor(hyperelliptic.spec, [0, 0, 0])

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "1", None])
    def test_non_integer_weight_rejected(self, hyperelliptic, bad):
        with pytest.raises(MalformedDataError):
            make_divisor(hyperelliptic.spec, [bad, 0, 0, 1, 1, 1])

    def test_cross_cover_divisor_rejected(self, hyperelliptic, cyclic3):
        D = make_divisor(cyclic3.spec, [2, 1, 0])
        with pytest.raises(MalformedDataError):
            is_nonspecial(hyperelliptic.spec, hyperelliptic.inv, D)


class TestDegree:
    def test_hyperelliptic(self, hyperelliptic):
        spec = hyperelliptic.spec
        assert degree(spec, make_divisor(spec, [1, 1, 1, 0, 0, 0])) == 1
        assert degree(spec, make_divisor(spec, [1] * 6)) == 4
        assert degree(spec, make_divisor(spec, [0] * 6)) == -2

    def test_mixed_orders(self, mixed4):
        spec = mixed4.spec
        D = make_divisor(spec, [3, 0, 1, 0, 1, 0])
        # site orders (4,4,2,2,4,4); n = 4
        assert degree(spec, D) == 3 + 0 + 2 + 0 + 1 + 0 - 4


class TestIsNonspecial:
    def test_known_positive(self, hyperelliptic):
        D = make_divisor(hyperelliptic.spec, [0, 0, 0, 1, 1, 1])
        assert is_nonspecial(hyperelliptic.spec, hyperelliptic.inv, D)

    def test_known_negative(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        assert not is_nonspecial(spec, inv, make_divisor(spec, [1] * 6))
        assert not is_nonspecial(spec, inv, make_divisor(spec, [0] * 6))

    def test_invariants_of_another_cover_refused(self, hyperelliptic,
                                                 klein):
        spec = hyperelliptic.spec
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        with pytest.raises(MalformedDataError):
            is_nonspecial(spec, klein.inv, D)
        with pytest.raises(MalformedDataError):
            enumerate_orbits(spec, klein.inv)
        # the same canonical sites, listed in another document order
        shuffled = build_cover([2, 2], [
            ([1, 1], 4), ([0, 1], 2), ([1, 0], 0),
            ([1, 1], 5), ([0, 1], 3), ([1, 0], 1)])
        assert enumerate_orbits(shuffled, klein.inv) == \
            enumerate_orbits(klein.spec, klein.inv)

    def test_matches_brute_force(self, cyclic3, cyclic4, klein):
        for cover in (cyclic3, cyclic4, klein):
            expected = set(brute_force_nonspecial(cover))
            for beta in product(*(range(o)
                                  for o in cover.spec.site_orders)):
                D = make_divisor(cover.spec, beta)
                assert is_nonspecial(cover.spec, cover.inv, D) == \
                    (beta in expected)


def character_counts(cover, beta):
    """Per character, in dual-group order, the number of sites whose
    weight counts for it, straight from the counting definition."""
    spec = cover.spec
    return [sum(1 for site, o, b in zip(spec.sites, spec.site_orders, beta)
                if b >= o - pairing_u(spec.group, chi, site.element))
            for chi in dual_group(spec.group)]


def packed_fields(cover, beta):
    """The packed sum of beta cut back into its per-character fields."""
    width = len(beta).bit_length() + 1
    total = sum(cover.inv.packed[k][b] for k, b in enumerate(beta))
    return [total >> (c * width) & ((1 << width) - 1)
            for c in range(cover.inv.n)]


class TestPackedCheck:
    """The packed counting test of validate against the per-character
    counting definition."""

    @staticmethod
    def check(cover, beta):
        counts = character_counts(cover, beta)
        # every field holds its exact count: no carry between fields
        assert packed_fields(cover, beta) == counts
        expected = counts == list(cover.inv.t)
        D = make_divisor(cover.spec, beta)
        assert is_nonspecial(cover.spec, cover.inv, D) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_noncyclic_covers(self, data):
        cover = draw_noncyclic_cover(data)
        beta = data.draw(st.tuples(*(st.integers(0, o - 1)
                                     for o in cover.spec.site_orders)))
        self.check(cover, beta)

    @pytest.mark.parametrize("order,sites", [(3, 3), (4, 4), (7, 7), (2, 8)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_counts_reaching_the_site_count(self, order, sites, data):
        # all weights o - 1 make every nontrivial character count at every
        # site, so each field holds B, which needs its full width
        spec = build_cover([order], [([1], v) for v in range(sites)])
        inv = validate(spec)
        cover = Cover("cyclic", spec, inv, inv.g)
        top = tuple(o - 1 for o in cover.spec.site_orders)
        assert max(character_counts(cover, top)) == sites
        self.check(cover, top)
        beta = data.draw(st.tuples(*(st.integers(0, o - 1)
                                     for o in cover.spec.site_orders)))
        self.check(cover, beta)

    def test_full_weight_space_of_the_battery(self, battery, mixed4):
        for cover in (*battery[:4], mixed4):
            for beta in product(*(range(o)
                                  for o in cover.spec.site_orders)):
                self.check(cover, beta)

    @pytest.mark.parametrize("beta", [(2, 0, 0, 1, 1, 1), (-1, 0, 0, 1, 1, 1),
                                      (0, 0, 0, 1, 1, -2), (1.0, 0, 0, 1, 1, 1)])
    def test_hand_built_weights_out_of_range(self, hyperelliptic, beta):
        # the weights index the packed tables, so each one is checked first
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = InvariantDivisor(beta, spec.fingerprint)
        for call in (is_nonspecial, orbit, exponent_table, negation_N):
            with pytest.raises(MalformedDataError):
                call(spec, inv, D)


class TestEnumerate:
    def test_counts(self, battery):
        expected = {"hyperelliptic": 20, "cyclic3": 6, "cyclic4": 24,
                    "klein": 8, "cyclic6": 720}
        for cover in battery:
            divisors = enumerate_nonspecial(cover.spec, cover.inv)
            assert len(divisors) == expected[cover.name]

    def test_agrees_with_brute_force(self, cyclic3, cyclic4, klein, mixed4):
        for cover in (cyclic3, cyclic4, klein, mixed4):
            divisors = enumerate_nonspecial(cover.spec, cover.inv)
            assert [D.beta for D in divisors] == brute_force_nonspecial(cover)

    def test_lexicographic_order_no_duplicates(self, battery):
        for cover in battery:
            betas = [D.beta for D in
                     enumerate_nonspecial(cover.spec, cover.inv)]
            assert betas == sorted(set(betas))

    def test_every_result_is_nonspecial_of_degree_g_minus_1(self, battery):
        for cover in battery:
            for D in enumerate_nonspecial(cover.spec, cover.inv):
                assert is_nonspecial(cover.spec, cover.inv, D)
                assert degree(cover.spec, D) == cover.inv.g - 1

    def test_empty_enumeration_is_valid(self, sparse6):
        assert enumerate_nonspecial(sparse6.spec, sparse6.inv) == []
        # confirmed against the brute-force filter
        assert brute_force_nonspecial(sparse6) == []

    def test_cap_enforced(self, cyclic6):
        with pytest.raises(ResourceCapError) as info:
            enumerate_nonspecial(cyclic6.spec, cyclic6.inv, cap=10)
        assert info.value.cap == 10
        assert "10" in str(info.value)

    @pytest.mark.parametrize("name,minimal_cap", [
        ("cyclic6", 266), ("klein", 10), ("mixed4", 42),
        ("z7x7", 2_288), ("z4z4x6", 71), ("klein10", 81),
        ("z31", 18_966), ("z101", 7_422), ("z2003", 3_006)],
        ids=["cyclic6", "klein", "mixed4", "z7x7", "z4z4x6", "klein10",
             "z31", "z101", "z2003"])
    def test_minimal_cap_pins_node_accounting(self, request, name,
                                              minimal_cap):
        # one node per attempted assignment of a weight to a prefix site
        # plus one per suffix-table lookup; only the slice beta_0 = 0 is
        # searched, so site 0 costs one node
        cover = request.getfixturevalue(name)
        enumerate_nonspecial(cover.spec, cover.inv, cap=minimal_cap)
        with pytest.raises(ResourceCapError):
            enumerate_nonspecial(cover.spec, cover.inv, cap=minimal_cap - 1)

    def test_many_sites_end_at_the_cap(self):
        # Z2 with 4 000 sites: a search with one Python frame per prefix
        # site ended in RecursionError, and stack entries that copy the
        # prefix peaked at 16.5 MB under tracemalloc, quadratic in the depth
        spec = build_cover([2], [([1], v) for v in range(4000)])
        inv = validate(spec)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                enumerate_orbits(spec, inv, cap=20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_cyclic_covers(self, data):
        order = data.draw(st.integers(min_value=2, max_value=5))
        count = data.draw(st.integers(min_value=2, max_value=4))
        residues = [data.draw(st.integers(min_value=1, max_value=order - 1))
                    for _ in range(count)]
        total = sum(residues) % order
        if total:
            residues.append(order - total)
        spec = build_cover([order], [([r], i)
                                     for i, r in enumerate(residues)])
        try:
            inv = validate(spec)
        except DisconnectedCoverError:
            return
        divisors = enumerate_nonspecial(spec, inv)
        for D in divisors:
            assert is_nonspecial(spec, inv, D)
            assert degree(spec, D) == inv.g - 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_noncyclic_covers_match_brute_force(self, data):
        cover = draw_noncyclic_cover(data)
        assert [D.beta for D in
                enumerate_nonspecial(cover.spec, cover.inv)] == \
            brute_force_nonspecial(cover)

    @pytest.mark.parametrize("N,k", [
        *((2, k) for k in range(1, 9)), *((3, k) for k in range(1, 4)),
        (4, 1), (4, 2), (5, 1), (6, 1), (7, 1)])
    def test_all_ones_cyclic_partition_count(self, N, k):
        # [Na], [EG2]: on Z_N with N*k points all at the element 1 the
        # non-special divisors are indexed by the partitions of the points
        # into N labelled sets of k, (Nk)!/(k!)^N of them ([BR1]'s
        # C(2g+2, g+1) at N = 2); the action is free, N per orbit
        spec = build_cover([N], [([1], v) for v in range(N * k)])
        divisors, labels = enumerate_orbits(spec, validate(spec))
        count = factorial(N * k) // factorial(k) ** N
        assert len(divisors) == count
        assert len(set(labels)) == count // N


class TestOrbitLabels:
    """enumerate_orbits against reference_orbit_labels, and each of its
    consistency checks against a broken action or search."""

    def test_battery_matches_reference(self, battery, mixed4):
        for cover in (*battery, mixed4):
            divisors, labels = enumerate_orbits(cover.spec, cover.inv)
            assert ([D.beta for D in divisors], labels) == \
                reference_orbit_labels(cover)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_noncyclic_covers_match_reference(self, data):
        # o(sigma_0) < n on all of these groups, so an orbit meets the
        # slice beta_0 = 0 more than once
        cover = draw_noncyclic_cover(data)
        divisors, labels = enumerate_orbits(cover.spec, cover.inv)
        assert ([D.beta for D in divisors], labels) == \
            reference_orbit_labels(cover)

    def test_alphabet_built_once_per_listing(self, battery, mixed4,
                                             monkeypatch):
        # _orbit_listing hands its one alphabet to _search_slice
        calls = []
        letters = divisors_module._letters

        def spy(spec):
            calls.append(spec)
            return letters(spec)

        monkeypatch.setattr(divisors_module, "_letters", spy)
        for cover in (*battery, mixed4):
            calls.clear()
            enumerate_orbits(cover.spec, cover.inv)
            assert calls == [cover.spec]

    def test_codes_past_255_match_the_brute_force_slice(self):
        # Z_257 with elements (1, 1, 255): the codes run to 2 * 257 - 1, so
        # each code string is stored 2 bytes per character
        spec = build_cover([257], [([1], 0), ([1], 1), ([255], 2)])
        inv = validate(spec)
        codes, _ = divisors_module._orbit_listing(spec, inv, 10**6)
        assert max(map(ord, "".join(codes))) > 255
        # every orbit meets the slice beta_0 = 0, so its hits expanded by
        # orbit() are the whole listing
        least = {}
        for beta in product([0], range(257), range(257)):
            D = make_divisor(spec, beta)
            if is_nonspecial(spec, inv, D):
                members = [m.beta for m in orbit(spec, inv, D)]
                least.update(dict.fromkeys(members, min(members)))
        betas = sorted(least)
        ids: dict[tuple[int, ...], int] = {}
        labels = [ids.setdefault(least[beta], len(ids)) for beta in betas]
        assert len(betas) == 514
        divisors, got = enumerate_orbits(spec, inv)
        assert ([D.beta for D in divisors], got) == (betas, labels)

    def test_corrupted_pairing_row_is_caught(self, mixed4):
        # the listing acts on codes, reading a row once per element rank:
        # row 1 carries the two sites of the element 2 by 0, not by 3
        spec, inv = mixed4.spec, mixed4.inv
        bad = copy.copy(inv)
        bad.u = (inv.u[0], inv.u[1][:4] + (0, 0), *inv.u[2:])
        with pytest.raises(ConsistencyError, match="non-special set"):
            enumerate_orbits(spec, bad)

    def test_representatives_are_first_members(self, battery, klein10,
                                               z4z4x6):
        for cover in (*battery, klein10, z4z4x6):
            assert_representatives(cover)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_noncyclic_representatives(self, data):
        # K_0 is nontrivial on all of these groups
        assert_representatives(draw_noncyclic_cover(data))

    def test_pairing_rows_must_start_at_the_trivial_character(
            self, hyperelliptic):
        # each representative is expanded by the other rows only
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        trivial_row, chi_row = inv.u
        bad = copy.copy(inv)
        bad.u = (chi_row, trivial_row)
        with pytest.raises(ConsistencyError, match="trivial"):
            enumerate_orbits(spec, bad)

    def test_action_that_is_not_free_is_caught(self, hyperelliptic,
                                               monkeypatch):
        # K_0 is trivial on this cover, so every slice hit is a
        # representative and the broken action reaches only the expansion
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        monkeypatch.setattr(divisors_module, "_expand_codes",
                            lambda inv, flat, codes, table: list(codes))
        with pytest.raises(ConsistencyError, match="repeats"):
            enumerate_orbits(spec, inv)

    def test_overlapping_orbits_are_caught(self, hyperelliptic,
                                           monkeypatch):
        # every representative expands to the orbit of the first one
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        first = encode(spec, enumerate_nonspecial(spec, inv)[0].beta)
        expand = divisors_module._expand_codes
        monkeypatch.setattr(divisors_module, "_expand_codes",
                            lambda inv, flat, codes, table:
                            expand(inv, flat, [first] * len(codes), table))
        with pytest.raises(ConsistencyError, match="two"):
            enumerate_orbits(spec, inv)

    def test_missed_slice_member_is_caught(self, klein, monkeypatch):
        # each Klein orbit meets the slice beta_0 = 0 twice, so the last
        # slice hit is no representative: dropping it leaves every orbit
        # expanded but the slice one hit short
        search = divisors_module._search_slice
        monkeypatch.setattr(divisors_module, "_search_slice",
                            lambda spec, inv, cap, letters:
                            search(spec, inv, cap, letters)[:-1])
        with pytest.raises(ConsistencyError, match="missed"):
            enumerate_orbits(klein.spec, klein.inv)

    def test_hit_outside_the_listed_orbits_is_caught(self, klein,
                                                     monkeypatch):
        # without orbit 0's representative and orbit 1's other slice
        # member, the hits still number |K_0| = 2 per listed orbit, but
        # orbit 0's remaining hit is no member of the listing
        divisors, labels = enumerate_orbits(klein.spec, klein.inv)
        slice_members: dict[int, list[tuple[int, ...]]] = {}
        for D, label in zip(divisors, labels):
            if D.beta[0] == 0:
                slice_members.setdefault(label, []).append(D.beta)
        drop = {encode(klein.spec, slice_members[0][0]),
                encode(klein.spec, slice_members[1][1])}
        search = divisors_module._search_slice
        monkeypatch.setattr(divisors_module, "_search_slice",
                            lambda spec, inv, cap, letters:
                            [h for h in search(spec, inv, cap, letters)
                             if h not in drop])
        with pytest.raises(ConsistencyError, match="missed"):
            enumerate_orbits(klein.spec, klein.inv)


class TestActions:
    def test_chi_action_is_modular_translation(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            group = spec.group
            divisors = enumerate_nonspecial(spec, inv)
            for D in divisors[:6]:
                for chi in dual_group(group):
                    moved = chi_action(spec, inv, D, chi)
                    for k, site in enumerate(spec.sites):
                        o = spec.site_orders[k]
                        u = pairing_u(group, chi, site.element)
                        assert moved.beta[k] == (D.beta[k] + u) % o

    def test_requires_nonspecial(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        bad = make_divisor(spec, [1] * 6)
        chi = spec.group.character([1])
        with pytest.raises(DomainError):
            chi_action(spec, inv, bad, chi)
        with pytest.raises(DomainError):
            negation_N(spec, inv, bad)

    def test_foreign_character_rejected(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        chi = AbelianGroup((3,)).character([1])
        with pytest.raises(MalformedDataError, match="does not belong"):
            chi_action(spec, inv, D, chi)

    def test_negation_is_an_involution(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            for D in enumerate_nonspecial(spec, inv)[:10]:
                N = negation_N(spec, inv, D)
                assert N.beta == tuple(
                    o - 1 - b for o, b in zip(spec.site_orders, D.beta))
                assert negation_N(spec, inv, N) == D

    def test_closure_and_dihedral(self, hyperelliptic, cyclic3, cyclic4,
                                  klein):
        for cover in (hyperelliptic, cyclic3, cyclic4, klein):
            spec, inv = cover.spec, cover.inv
            group = spec.group
            divisors = enumerate_nonspecial(spec, inv)
            universe = {D.beta for D in divisors}
            for D in divisors:
                assert negation_N(spec, inv, D).beta in universe
                for chi in dual_group(group):
                    moved = chi_action(spec, inv, D, chi)
                    assert moved.beta in universe
                    lhs = negation_N(spec, inv, moved)
                    rhs = chi_action(spec, inv, negation_N(spec, inv, D),
                                     chi.conjugate())
                    assert lhs == rhs

    def test_orbit_is_free_of_size_n(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            divisors = enumerate_nonspecial(spec, inv)
            for D in divisors[:8]:
                members = orbit(spec, inv, D)
                assert len(members) == inv.n
                assert len({m.beta for m in members}) == inv.n
                assert D in members

    def test_orbits_partition_the_set(self, hyperelliptic, cyclic3):
        for cover, orbits_expected in ((hyperelliptic, 10), (cyclic3, 2)):
            spec, inv = cover.spec, cover.inv
            divisors = enumerate_nonspecial(spec, inv)
            reps = {min(m.beta for m in orbit(spec, inv, D))
                    for D in divisors}
            assert len(reps) == orbits_expected
            assert len(divisors) == orbits_expected * inv.n


class TestSupport:
    def test_sizes_match_counts(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            for D in enumerate_nonspecial(spec, inv)[:8]:
                for chi, t in zip(dual_group(spec.group), inv.t):
                    expected = 0 if chi.is_trivial() else t
                    assert len(support_p(spec, inv, D, chi)) == expected

    def test_hyperelliptic_support_is_the_selected_set(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 1, 0, 1, 0, 1])
        chi = spec.group.character([1])
        assert support_p(spec, inv, D, chi) == frozenset({1, 3, 5})

    def test_foreign_character_rejected(self, hyperelliptic):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        D = make_divisor(spec, [0, 1, 0, 1, 0, 1])
        chi = AbelianGroup((3,)).character([1])
        with pytest.raises(MalformedDataError, match="does not belong"):
            support_p(spec, inv, D, chi)

    def test_complementary_under_negation(self, battery):
        # support of p for (D, chi) and for (ND, conj chi) tile the sites
        # where chi is nontrivial, without overlap
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            group = spec.group
            for D in enumerate_nonspecial(spec, inv)[:6]:
                ND = negation_N(spec, inv, D)
                for chi in dual_group(group):
                    outside_kernel = frozenset(
                        k for k, site in enumerate(spec.sites)
                        if pairing_u(group, chi, site.element) != 0)
                    left = support_p(spec, inv, D, chi)
                    right = support_p(spec, inv, ND, chi.conjugate())
                    assert left & right == frozenset()
                    assert left | right == outside_kernel


class TestHalfForm:
    """The half-form exponent vector beta/o - (o-1)/(2o), one centered
    weight of oracles._centered per site."""

    @staticmethod
    def exponents(spec, D):
        return tuple(map(_centered, spec.site_orders, D.beta))

    def test_values(self, hyperelliptic):
        spec = hyperelliptic.spec
        D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
        assert self.exponents(spec, D) == \
            (Fraction(-1, 4),) * 3 + (Fraction(1, 4),) * 3

    def test_scaled_integrality_and_zero_sum(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            for D in enumerate_nonspecial(spec, inv)[:8]:
                exps = self.exponents(spec, D)
                assert sum(exps) == 0
                for e in exps:
                    assert (2 * inv.m * e).denominator == 1

    def test_negation_flips_signs(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            for D in enumerate_nonspecial(spec, inv)[:6]:
                plus = self.exponents(spec, D)
                minus = self.exponents(
                    spec, negation_N(spec, inv, D))
                assert minus == tuple(-e for e in plus)

    def test_action_shifts_by_pairing_mod_one(self, battery):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            group = spec.group
            for D in enumerate_nonspecial(spec, inv)[:6]:
                base = self.exponents(spec, D)
                for chi in dual_group(group):
                    moved = self.exponents(
                        spec, chi_action(spec, inv, D, chi))
                    for k, site in enumerate(spec.sites):
                        u = pairing_u(group, chi, site.element)
                        o = spec.site_orders[k]
                        shift = moved[k] - base[k] - Fraction(u, o)
                        assert shift.denominator == 1
