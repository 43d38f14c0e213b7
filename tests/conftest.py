"""Shared cover fixtures and the acceptance summary hook.

The battery fixture is the fixed list of covers used by the equivalence,
identity, and determinism acceptance tests: the genus 2 hyperelliptic
cover, a cyclic triple cover of genus 1, a cyclic quadruple cover of
genus 3, the Klein cover with two points on each involution, and a
cyclic sextic cover of genus 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import pytest

from abelcover import (AbelianGroup, BranchPoint, CoverInvariants, CoverSpec,
                       validate)


def build_cover(factors, points) -> CoverSpec:
    """points: list of (residues, lambda) pairs."""
    group = AbelianGroup(tuple(factors))
    return CoverSpec(group, tuple(
        BranchPoint(group.element(residues), Fraction(value))
        for residues, value in points))


@dataclass(frozen=True)
class Cover:
    name: str
    spec: CoverSpec
    inv: CoverInvariants
    genus: int


def _make(name, factors, points, genus) -> Cover:
    spec = build_cover(factors, points)
    return Cover(name=name, spec=spec, inv=validate(spec), genus=genus)


@pytest.fixture(scope="session")
def hyperelliptic() -> Cover:
    return _make("hyperelliptic", [2], [([1], v) for v in range(6)], 2)


@pytest.fixture(scope="session")
def cyclic3() -> Cover:
    return _make("cyclic3", [3], [([1], v) for v in range(3)], 1)


@pytest.fixture(scope="session")
def cyclic4() -> Cover:
    return _make("cyclic4", [4], [([1], v) for v in range(4)], 3)


@pytest.fixture(scope="session")
def klein() -> Cover:
    return _make("klein", [2, 2], [
        ([1, 0], 0), ([1, 0], 1),
        ([0, 1], 2), ([0, 1], 3),
        ([1, 1], 4), ([1, 1], 5)], 3)


@pytest.fixture(scope="session")
def cyclic6() -> Cover:
    return _make("cyclic6", [6], [([1], v) for v in range(6)], 10)


@pytest.fixture(scope="session")
def battery(hyperelliptic, cyclic3, cyclic4, klein, cyclic6) -> list[Cover]:
    return [hyperelliptic, cyclic3, cyclic4, klein, cyclic6]


@pytest.fixture(scope="session")
def mixed4() -> Cover:
    """Z4 cover with sites of different local orders (4, 4, 2): exercises
    nontrivial intersection data and inequivalent weight multisets."""
    return _make("mixed4", [4], [
        ([1], 0), ([1], 1), ([3], 2), ([3], 3), ([2], 4), ([2], 5)], 5)


@pytest.fixture(scope="session")
def z5h2() -> Cover:
    """Z5 cover with sites 1, 2, 2: the pair (1, 2) has h = 2, so its
    exponent row is read at (beta_b - 2 beta_a) mod 5 and not at the
    negative, which the battery (h = 1 or d <= 2 throughout) cannot tell
    apart."""
    return _make("z5h2", [5], [([1], 0), ([2], 1), ([2], 2)], 2)


@pytest.fixture(scope="session")
def sparse6() -> Cover:
    """Z6 cover whose non-special divisor set is empty; a valid cover for
    which enumeration legitimately returns nothing."""
    return _make("sparse6", [6], [([2], 0), ([3], 1), ([1], 2)], 1)


@pytest.fixture(scope="session")
def z7x7() -> Cover:
    """Z7 with seven sites: B = 7 = 2^3 - 1, so a packed field holding B
    fills every bit below its guard bit."""
    return _make("z7x7", [7], [([1], v) for v in range(7)], 15)


@pytest.fixture(scope="session")
def z4z4x6() -> Cover:
    """Z4 x Z4 with six sites of order 4."""
    return _make("z4z4x6", [4, 4], [
        ([1, 0], 0), ([3, 0], 1), ([0, 1], 2),
        ([0, 3], 3), ([1, 1], 4), ([3, 3], 5)], 21)


@pytest.fixture(scope="session")
def klein10() -> Cover:
    """The Klein cover with four points on each of two involutions and
    two on the third."""
    return _make("klein10", [2, 2], [([1, 0], v) for v in range(4)]
                 + [([0, 1], v) for v in range(4, 8)]
                 + [([1, 1], 8), ([1, 1], 9)], 7)


@pytest.fixture(scope="session")
def z31() -> Cover:
    """Z31 with sites (1, 1, 1, 1, 27): 744 divisors in 24 orbits.  A
    search of the full weight space spends many times the nodes of the
    slice beta_0 = 0 here, so its node pin guards the slice."""
    return _make("z31", [31], [([r], v) for v, r in
                               enumerate((1, 1, 1, 1, 27))], 45)


@pytest.fixture(scope="session")
def z101() -> Cover:
    """Z101 with sites (1, 2, 3, 95): no non-special divisor, and like
    z31 many times the slice's nodes for a full weight-space search."""
    return _make("z101", [101], [([r], v) for v, r in
                                 enumerate((1, 2, 3, 95))], 100)


@pytest.fixture(scope="session")
def z2003() -> Cover:
    """Z2003 with sites (1, 1, 2001): 4006 divisors in 2 orbits.  The
    last site is one lookup in the suffix table, so the search spends
    one node per weight of the middle site plus one per lookup; trying
    every last weight would take about 2 million nodes, so its node pin
    guards the lookup."""
    return _make("z2003", [2003], [([r], v) for v, r in
                                   enumerate((1, 1, 2001))], 1001)


_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def acceptance_record():
    def record(number: int, description: str, passed: bool,
               elapsed: float, limit: float | None) -> None:
        verdict = "PASS" if passed else "FAIL"
        if limit is not None:
            timing = f" ({elapsed:.2f}s < {limit:.0f}s)"
            if elapsed >= limit:
                verdict = "FAIL"
                timing = f" ({elapsed:.2f}s, over the {limit:.0f}s limit)"
        else:
            timing = f" ({elapsed:.2f}s)"
        _ACCEPTANCE_LINES.append(
            (number, f"ACCEPTANCE {number} {verdict}: {description}{timing}"))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
