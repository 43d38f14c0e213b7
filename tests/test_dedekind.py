"""Generalized Dedekind sums: the exact reciprocity evaluator against its
defining root-of-unity oracle, the classical sum, and the full law
battery (shift, reciprocity, closed form at h=1, zero-sum, bridge,
inverse symmetry, integrality classes)."""

from __future__ import annotations

import math
import random
import re
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from abelcover import DomainError, MalformedDataError, PhiKey, phi_exact
from abelcover.dedekind import _phi_walk
from oracles import (classical_dedekind_sum, integrality_class,
                     phi_numeric_oracle, phi_sum_definition)


@st.composite
def phi_keys(draw, max_d=60, min_d=1):
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    units = [h for h in range(d) if math.gcd(h, d) == 1] or [0]
    h = draw(st.sampled_from(units))
    s = draw(st.integers(min_value=0, max_value=max(d - 1, 0)))
    return PhiKey(d, h, s)


def to_fraction(key: PhiKey) -> Fraction:
    return phi_exact(key)


class TestPhiKey:
    def test_normalization(self):
        key = PhiKey.of(5, 7, -3)
        assert (key.d, key.h, key.s) == (5, 2, 2)

    def test_modulus_one(self):
        key = PhiKey.of(1, 0, 3)
        assert (key.d, key.h, key.s) == (1, 0, 0)

    def test_noncoprime_rejected(self):
        with pytest.raises(DomainError):
            PhiKey(6, 2, 0)

    def test_nonpositive_modulus_rejected(self):
        with pytest.raises(DomainError):
            PhiKey(0, 0, 0)
        # refused before h % d can divide by zero
        with pytest.raises(DomainError, match="must be positive"):
            PhiKey.of(0, 1, 1)

    @pytest.mark.parametrize("args", [(5, 7, 0), (5, 2, 9)])
    def test_unnormalized_rejected(self, args):
        with pytest.raises(DomainError, match="not normalized"):
            PhiKey(*args)

    @pytest.mark.parametrize("args, bad", [
        ((5, 2.0, 0), "h=2.0"), ((5, 2, 1.5), "s=1.5"),
        ((5, True, 0), "h=True"), ((5.0, 2, 0), "d=5.0"),
        ((True, 0, 0), "d=True"), ((5, 2, "0"), "s='0'")])
    @pytest.mark.parametrize("make", [PhiKey, PhiKey.of],
                             ids=["init", "of"])
    def test_non_int_field_refused(self, make, args, bad):
        # nothing is converted: True % 5 would be 1, and a float would
        # fail later inside gcd or phi_exact
        with pytest.raises(MalformedDataError, match=f"^{re.escape(bad)} "
                           "is not an int$"):
            make(*args)


class TestPhiExact:
    def test_pinned_values(self):
        assert phi_exact(PhiKey(2, 1, 0)) == Fraction(1, 4)
        assert phi_exact(PhiKey(2, 1, 1)) == Fraction(-1, 4)
        assert phi_exact(PhiKey(3, 2, 0)) == Fraction(1, 3)
        assert phi_exact(PhiKey(1, 0, 0)) == 0

    def test_h1_closed_form(self):
        for d in range(1, 30):
            for s in range(d):
                expected = Fraction(d * d - 1 - 6 * s * (d - s), 12)
                assert phi_exact(PhiKey(d, 1 % d, s)) == expected

    @given(phi_keys(max_d=40, min_d=2))
    def test_shift_law(self, key):
        shifted = PhiKey.of(key.d, key.h, key.s + key.h)
        assert phi_exact(shifted) == \
            phi_exact(key) + key.s - Fraction(key.d - 1, 2)
        # the row walk follows the law from s = 0 and must land on the
        # reciprocity value at s
        assert _phi_walk(key.d, key.h)[key.s] == 4 * key.d * phi_exact(key)

    @given(phi_keys(max_d=40, min_d=2))
    def test_inverse_symmetry(self, key):
        hinv = pow(key.h, -1, key.d)
        mirrored = PhiKey.of(key.d, hinv, -hinv * key.s)
        assert phi_exact(key) == phi_exact(mirrored)

    @given(phi_keys(max_d=40, min_d=2))
    def test_reciprocity(self, key):
        d, h, s = key.d, key.h, key.s
        head = Fraction(
            d * d + h * h + 3 * h * d - 3 * d - 3 * h + 1
            - 6 * s * (d + h - 1 - s), 12 * h)
        tail = Fraction(d, h) * phi_exact(PhiKey.of(h, d % h, s % h))
        assert phi_exact(key) == head - tail

    @settings(deadline=None)
    @given(st.integers(min_value=2, max_value=50))
    def test_zero_sum(self, d):
        for h in range(1, d):
            if math.gcd(h, d) != 1:
                continue
            assert sum(phi_exact(PhiKey(d, h, s)) for s in range(d)) == 0

    def test_bridge_to_classical(self):
        for d in range(1, 30):
            for h in range(d if d > 1 else 1):
                if math.gcd(h, d) != 1:
                    continue
                lhs = phi_exact(PhiKey(d, h % d, 0))
                rhs = d * classical_dedekind_sum(h, d) + Fraction(d - 1, 4)
                assert lhs == rhs


class TestWalkAgainstDefinition:
    """phi_exact evaluates T = 4d phi by the reciprocity law, so the
    reciprocity test above restates the library; the per-point sum, the
    shift law and the inverse symmetry are independent checks, beside the
    root-of-unity oracle, and they reach moduli far past d = 60."""

    @staticmethod
    def check_every_s(d, h):
        walk = _phi_walk(d, h)
        for s in range(d):
            assert 4 * d * phi_exact(PhiKey(d, h, s)) == walk[s] == \
                phi_sum_definition(d, h, s)

    def test_every_key_up_to_60(self):
        for d in range(1, 61):
            for h in range(d):
                if math.gcd(h, d) == 1:  # h = 0 only for d = 1
                    self.check_every_s(d, h)

    @pytest.mark.parametrize("h", [1, 2, 500])
    def test_prime_modulus_1009(self, h):
        self.check_every_s(1009, h)

    @pytest.mark.parametrize("h", [1, 2, 5003])
    def test_prime_modulus_10007(self, h):
        d = 10007
        for s in range(0, d, 1001):
            assert 4 * d * phi_exact(PhiKey(d, h, s)) == \
                phi_sum_definition(d, h, s)

    @staticmethod
    def hundred_digit_keys(seed, count=20):
        rng = random.Random(seed)
        keys = []
        while len(keys) < count:
            d = rng.randrange(10 ** 99, 10 ** 100)
            h = rng.randrange(1, d)
            if math.gcd(h, d) == 1:
                keys.append(PhiKey(d, h, rng.randrange(d)))
        return keys

    def test_shift_law_at_100_digits(self):
        for key in self.hundred_digit_keys(1):
            shifted = PhiKey.of(key.d, key.h, key.s + key.h)
            assert phi_exact(shifted) == \
                phi_exact(key) + key.s - Fraction(key.d - 1, 2)

    def test_inverse_symmetry_at_100_digits(self):
        for key in self.hundred_digit_keys(2):
            hinv = pow(key.h, -1, key.d)
            mirrored = PhiKey.of(key.d, hinv, -hinv * key.s)
            assert phi_exact(key) == phi_exact(mirrored)

    def test_no_row_is_kept(self):
        # a list of d entries would alone take d * 8 bytes, 160 kB here
        tracemalloc.start()
        try:
            phi_exact(PhiKey.of(20011, 2, 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestClassicalSum:
    def test_pinned_values(self):
        assert classical_dedekind_sum(1, 1) == 0
        assert classical_dedekind_sum(1, 2) == 0
        assert classical_dedekind_sum(1, 3) == Fraction(1, 18)
        assert classical_dedekind_sum(1, 5) == Fraction(1, 5)

    def test_sawtooth_definition(self):
        def saw(x: Fraction) -> Fraction:
            if x.denominator == 1:
                return Fraction(0)
            return x - x.numerator // x.denominator - Fraction(1, 2)

        for d in range(1, 20):
            for h in range(1, d + 1):
                if math.gcd(h, d) != 1:
                    continue
                direct = sum(
                    (saw(Fraction(k, d)) * saw(Fraction(h * k, d))
                     for k in range(1, d)), Fraction(0))
                assert classical_dedekind_sum(h, d) == direct

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            classical_dedekind_sum(2, 4)
        with pytest.raises(DomainError):
            classical_dedekind_sum(1, 0)


class TestNumericOracle:
    def test_pinned_values(self):
        v = phi_numeric_oracle(PhiKey(2, 1, 0))
        assert abs(v.real - 0.25) < 1e-12
        assert abs(v.imag) < 1e-12
        v = phi_numeric_oracle(PhiKey(3, 1, 1))
        assert abs(v.real + Fraction(1, 3)) < 1e-12

    def test_modulus_one_rejected(self):
        with pytest.raises(DomainError):
            phi_numeric_oracle(PhiKey(1, 0, 0))

    @settings(max_examples=60, deadline=None)
    @given(phi_keys(max_d=30, min_d=2))
    def test_agrees_with_exact(self, key):
        exact = phi_exact(key)
        value = phi_numeric_oracle(key, precision_bits=64)
        target = mpmath.mpf(exact.numerator) / exact.denominator
        assert abs(value.real - target) < mpmath.mpf(2) ** -40
        assert abs(value.imag) < mpmath.mpf(2) ** -40


class TestIntegralityClass:
    def test_pinned_values(self):
        assert integrality_class(PhiKey(5, 2, 3)) == 0
        assert integrality_class(PhiKey(3, 1, 0)) == Fraction(2, 3)
        assert integrality_class(PhiKey(2, 1, 0)) == Fraction(1, 4)

    def test_modulus_one_rejected(self):
        with pytest.raises(DomainError):
            integrality_class(PhiKey(1, 0, 0))

    @given(phi_keys(max_d=60, min_d=2))
    def test_matches_fractional_part(self, key):
        assert phi_exact(key) % 1 == integrality_class(key)

    def test_coprime_to_six_is_integral(self):
        for d in (5, 7, 11, 25, 35, 49):
            for h in range(1, d):
                if math.gcd(h, d) != 1:
                    continue
                for s in range(d):
                    assert phi_exact(PhiKey(d, h, s)).denominator == 1
