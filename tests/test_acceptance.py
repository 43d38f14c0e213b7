"""Acceptance gate: nine criteria, each timed against its stated
budget and summarized as one PASS/FAIL line at the end of the run.

Every check here is exact (zero tolerance) except the two numeric
oracle comparisons: the root-of-unity sum within 2 to the minus 40, and
the Thomae formula against theta constants within a relative 1e-15.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from abelcover import (NoSolutionError, PairKey, PhiKey, UniPoly,
                       build_pchichi, chi_action, dual_group,
                       enumerate_nonspecial, enumerate_orbits, exponent_table,
                       negation_N, orbit, pairing_u, phi_exact,
                       solve_polexist, validate)
from abelcover.cli import main as cli_main
from conftest import build_cover
from oracles import (assembly_w_degree, binomial_level_matrix,
                     classical_dedekind_sum, degree, even_characteristics,
                     gamma, gamma_closed_form, hyperelliptic_periods,
                     integrality_class, matrix_inverse, phi_numeric_oracle,
                     q_delta, q_e, q_e_closed_form, relabel_equivalent,
                     theta_constant)
from test_polykernel import random_instance


class Criterion:
    """Times a criterion body, records its summary line, and fails the
    test if the body errors or overruns the budget."""

    def __init__(self, record, number, description, limit=None):
        self.record = record
        self.number = number
        self.description = description
        self.limit = limit
        self.elapsed = 0.0

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        ok = exc_type is None
        self.record(self.number, self.description, ok,
                    self.elapsed, self.limit)
        if ok and self.limit is not None and self.elapsed >= self.limit:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.limit}s "
                f"budget: {self.elapsed:.2f}s")
        return False


def coprime_residues(d):
    return [h for h in range(1, d) if math.gcd(h, d) == 1]


def test_criterion_1_dedekind_laws(acceptance_record):
    with Criterion(acceptance_record, 1,
                   "Dedekind law battery d<=40 exact, "
                   "integrality classes d<=60", 10.0):
        for d in range(2, 41):
            for h in coprime_residues(d):
                hinv = pow(h, -1, d)
                zero_sum = Fraction(0)
                for s in range(d):
                    value = phi_exact(PhiKey(d, h, s))
                    zero_sum += value
                    # shift law
                    assert phi_exact(PhiKey.of(d, h, s + h)) == \
                        value + s - Fraction(d - 1, 2)
                    # reciprocity recursion
                    head = Fraction(
                        d * d + h * h + 3 * h * d - 3 * d - 3 * h + 1
                        - 6 * s * (d + h - 1 - s), 12 * h)
                    tail = Fraction(d, h) * phi_exact(
                        PhiKey.of(h, d % h, s % h))
                    assert value == head - tail
                    # inverse symmetry
                    assert value == phi_exact(
                        PhiKey.of(d, hinv, -hinv * s))
                    # closed form at h = 1
                    if h == 1:
                        assert value == Fraction(
                            d * d - 1 - 6 * s * (d - s), 12)
                assert zero_sum == 0
                # bridge to the classical sum
                assert phi_exact(PhiKey(d, h, 0)) == \
                    d * classical_dedekind_sum(h, d) + Fraction(d - 1, 4)
        for d in range(2, 61):
            for h in coprime_residues(d):
                for s in range(d):
                    key = PhiKey(d, h, s)
                    assert phi_exact(key) % 1 == integrality_class(key)


def test_criterion_2_numeric_oracle(acceptance_record):
    with Criterion(acceptance_record, 2,
                   "root-of-unity oracle agreement d<=30, |err|<2^-40",
                   5.0):
        bound = mpmath.mpf(2) ** -40
        for d in range(2, 31):
            for h in coprime_residues(d):
                for s in range(d):
                    key = PhiKey(d, h, s)
                    exact = phi_exact(key)
                    value = phi_numeric_oracle(key, precision_bits=64)
                    target = mpmath.mpf(exact.numerator) / exact.denominator
                    assert abs(value.real - target) < bound
                    assert abs(value.imag) < bound


def test_criterion_3_closed_form_equivalence(acceptance_record, battery):
    with Criterion(acceptance_record, 3,
                   "q_e and gamma closed forms across the cover battery",
                   60.0):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            group = spec.group
            B = len(spec.sites)
            pairs = [(a, b) for a in range(B) for b in range(a, B)]
            divisors = enumerate_nonspecial(spec, inv)
            big = len(divisors) > 100
            for index, D in enumerate(divisors):
                if big:
                    # identical definitional route, orbit computed once
                    members = orbit(spec, inv, D)
                    for a, b in pairs:
                        brute = sum(
                            (q_delta(spec, member, a, b)
                             for member in members), Fraction(0))
                        assert brute == \
                            q_e_closed_form(spec, inv, D, a, b)
                    if index < 10:
                        for a, b in pairs:
                            assert q_e(spec, inv, D, a, b) == \
                                q_e_closed_form(spec, inv, D, a, b)
                else:
                    for a, b in pairs:
                        assert q_e(spec, inv, D, a, b) == \
                            q_e_closed_form(spec, inv, D, a, b)
            nontrivial = [s for s in group.elements()
                          if not s.is_identity()]
            for s in nontrivial:
                for r in nontrivial:
                    assert gamma(group, s, r) == \
                        gamma_closed_form(group, s, r)


def test_criterion_4_enumeration_counts(acceptance_record, hyperelliptic,
                                        cyclic3):
    with Criterion(acceptance_record, 4,
                   "enumeration counts 20/10 and 6/2 with closure and "
                   "the dihedral relation"):
        for cover, count, orbits in ((hyperelliptic, 20, 10),
                                     (cyclic3, 6, 2)):
            spec, inv = cover.spec, cover.inv
            divisors = enumerate_nonspecial(spec, inv)
            assert len(divisors) == count
            universe = {D.beta for D in divisors}
            reps = set()
            for D in divisors:
                assert degree(spec, D) == inv.g - 1
                reps.add(min(m.beta for m in orbit(spec, inv, D)))
                negated = negation_N(spec, inv, D)
                assert negated.beta in universe
                for chi in dual_group(spec.group):
                    moved = chi_action(spec, inv, D, chi)
                    assert moved.beta in universe
                    assert negation_N(spec, inv, moved) == chi_action(
                        spec, inv, negated, chi.conjugate())
            assert len(reps) == orbits


def test_criterion_5_hyperelliptic_table(acceptance_record, hyperelliptic):
    with Criterion(acceptance_record, 5,
                   "hyperelliptic g=2 Thomae table: 4/0 split, "
                   "theta 16, detC 8, total 24"):
        spec, inv = hyperelliptic.spec, hyperelliptic.inv
        for D in enumerate_nonspecial(spec, inv):
            table = exponent_table(spec, inv, D)
            assert table.theta_exponent == 16
            assert table.detC_exponent == 8
            selected = {k for k, b in enumerate(D.beta) if b == 1}
            for key, value in table.entries.items():
                same_side = (key.first in selected) == \
                    (key.second in selected)
                assert value == (4 if same_side else 0)
            assert sum(table.entries.values()) == 24
            assert sum(table.entries.values()) == 2 * inv.m * sum(
                t * (t - 1) for t in inv.t.values())


def test_criterion_6_global_identities(acceptance_record, battery):
    with Criterion(acceptance_record, 6,
                   "evenness, degree and per-point identities, "
                   "relabel-matched tables on the battery"):
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            group = spec.group
            B = len(spec.sites)
            divisors = enumerate_nonspecial(spec, inv)
            sample = divisors[:: max(1, len(divisors) // 8)]
            homogeneity = 2 * inv.m * sum(
                t * (t - 1) for t in inv.t.values())
            for D in sample:
                table = exponent_table(spec, inv, D)
                for value in table.entries.values():
                    assert isinstance(value, int)
                    assert value % 2 == 0
                assert sum(table.entries.values()) == homogeneity
                for a in range(B):
                    sigma = spec.sites[a].element
                    o_a = spec.site_orders[a]
                    lhs = sum(
                        (2 * q_e_closed_form(spec, inv, D, a, b)
                         + inv.n * gamma_closed_form(
                             group, sigma, spec.sites[b].element)
                         for b in range(B) if b != a),
                        Fraction(0))
                    rhs = sum(
                        (Fraction((inv.t[chi] - 1)
                                  * pairing_u(group, chi, sigma), o_a)
                         for chi in dual_group(group)),
                        Fraction(0))
                    assert lhs == rhs
            D1 = divisors[0]
            t1 = exponent_table(spec, inv, D1)
            matched = 0
            for D2 in divisors[1:]:
                perm = relabel_equivalent(spec, inv, D1, D2)
                if perm is None:
                    continue
                t2 = exponent_table(spec, inv, D2)
                for key, value in t1.entries.items():
                    image = PairKey.of(perm[key.first], perm[key.second])
                    assert t2.entries[image] == value
                matched += 1
                if matched >= 3:
                    break
            assert matched > 0


def test_criterion_7_polexist_suite(acceptance_record, battery):
    with Criterion(acceptance_record, 7,
                   "200 solved kernel instances, 100/100 refusals, "
                   "inverse entry, cover-derived builds"):
        rng = random.Random(2024)
        for _ in range(200):
            d = rng.randint(1, 6)
            e = rng.randint(1, 6)
            f0, f1 = random_instance(rng, d, e)
            solution = solve_polexist(f0, f1, d, e)
            assert assembly_w_degree(solution) <= e
            for l, f in enumerate(solution.polys):
                assert f.degree <= d + e - l
        refused = 0
        for _ in range(100):
            d = rng.randint(1, 6)
            e = rng.randint(1, 6)
            f0, f1 = random_instance(rng, d, e)
            offset = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            bad = UniPoly.of(list(f1.coeffs[:-1]) + [f1.lead + offset])
            try:
                solve_polexist(f0, bad, d, e)
            except NoSolutionError:
                refused += 1
        assert refused == 100
        for d in range(1, 13):
            assert matrix_inverse(binomial_level_matrix(d))[0][0] == d
        for cover in battery:
            spec, inv = cover.spec, cover.inv
            for chi in dual_group(spec.group):
                if chi.is_trivial():
                    continue
                if inv.t[chi] < 1 or inv.t[chi.conjugate()] < 1:
                    continue
                solution = build_pchichi(spec, inv, chi)
                f0, f1 = solution.polys[0], solution.polys[1]
                assert f1.lead == inv.t[chi] * f0.lead
                assert assembly_w_degree(solution) <= \
                    inv.t[chi.conjugate()]


BATTERY_DOCUMENTS = {
    "hyperelliptic": {
        "group": [2],
        "branch_points": [{"element": [1], "lambda": str(v)}
                          for v in range(6)]},
    "cyclic3": {
        "group": [3],
        "branch_points": [{"element": [1], "lambda": str(v)}
                          for v in range(3)]},
    "cyclic4": {
        "group": [4],
        "branch_points": [{"element": [1], "lambda": str(v)}
                          for v in range(4)]},
    "klein": {
        "group": [2, 2],
        "branch_points": [
            {"element": [1, 0], "lambda": "0"},
            {"element": [1, 0], "lambda": "1"},
            {"element": [0, 1], "lambda": "2"},
            {"element": [0, 1], "lambda": "3"},
            {"element": [1, 1], "lambda": "4"},
            {"element": [1, 1], "lambda": "5"}]},
    "cyclic6": {
        "group": [6],
        "branch_points": [{"element": [1], "lambda": str(v)}
                          for v in range(6)]},
}


# sha256 of the CLI output for each battery document and verb; a change
# in any byte fails criterion 8, so an intended output change updates these
BATTERY_OUTPUT_SHA256 = {
    "hyperelliptic": {
        "enumerate --json":
            "3e8344cd9683c3d957248ed9671ddd739d8235a87be4987b75f4e21172125114",
        "enumerate --csv":
            "cae4c6a7e630afe929253d6224e9ab8464c82e119944de44b93cbe02774df1d4",
        "exponents --divisor 0 --json":
            "0c7c268af6e9450132b191e3e6de53bd91345b5e0473bbeece4cb946ea324b40",
        "exponents --divisor 0 --csv":
            "ef65686d77bdb270827aaf6c386c211d21ae2b5537ffc25d9409cc34b36fa79f",
    },
    "cyclic3": {
        "enumerate --json":
            "4c15e0acb5626f8f7a429e21882284aef38941d10c1de4db860befcba2c5a133",
        "enumerate --csv":
            "aab5145c5e1dbf6caef1eae05f1605c22487bee9eee6bf7caf4a6fdf267834a6",
        "exponents --divisor 0 --json":
            "e5d4b23fb024d943230eb6f601f55ea25b89267337752c132320efbe1d3aec04",
        "exponents --divisor 0 --csv":
            "dd90f6dea247e590d7f6555eeaaa95ee17977f298a3f0f194be72f00d7b01c89",
    },
    "cyclic4": {
        "enumerate --json":
            "4b298f72a29dab55d48ee17c58b50906ccd51887d1fd89102610efb8b052b86e",
        "enumerate --csv":
            "f412742c1919a3a8731c0925d04daed2ad86b635f50539426b8cab49ffa44bf8",
        "exponents --divisor 0 --json":
            "05727647a03130de194458fb6d049e1dd5f05507bf16f117eeb757dfc963e04f",
        "exponents --divisor 0 --csv":
            "2c9e4b9e8b4b5f27a39401c4a6941c4899a1fdbe7fd465884646f4631418056e",
    },
    "klein": {
        "enumerate --json":
            "6cb2a1221b3fbbac097aaea0bc0aeec6d221f70296d1e28ccd67bd5434b63ad6",
        "enumerate --csv":
            "aca126c67071c26a6d3739b15fb5545d1b6e064ea995d8eb0b14221b33ab165a",
        "exponents --divisor 0 --json":
            "ad3a4c604ec7222253c21d543d49205e0a6ec8b8a8b78b527b5801f6488f4b9a",
        "exponents --divisor 0 --csv":
            "e5c4a2de85ee241330061eb74ae1feb6ef69fca5308e06184d19b95ba48a7d96",
    },
    "cyclic6": {
        "enumerate --json":
            "bc959502fcaed03e1f5fcb1f49d7d9fcf04fcb10ace80d33477e493598e0417b",
        "enumerate --csv":
            "5cd4a6f2234509219444e95a98b2a2900f16d0f31d770a3a61eaa662a24d661a",
        "exponents --divisor 0 --json":
            "04633b332a4f1b573780dc0071773d172e777c282975ab17d422108c15540fbb",
        "exponents --divisor 0 --csv":
            "0cbfa7c191995e11c090d4ad89b43f38fdab6e611911c7b934f0db5931791f21",
    },
}


def test_criterion_8_determinism(acceptance_record, tmp_path, capsys):
    with Criterion(acceptance_record, 8,
                   "battery outputs byte-identical to recorded digests"):
        for name, document in BATTERY_DOCUMENTS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document))
            for verb, digest in BATTERY_OUTPUT_SHA256[name].items():
                code = cli_main(verb.split() + [str(path)])
                captured = capsys.readouterr()
                assert code == 0
                assert hashlib.sha256(
                    captured.out.encode("utf-8")).hexdigest() == digest, \
                    f"{name}: {verb}"


def _random_real_values(seed: int, count: int) -> list[Fraction]:
    """count distinct sorted values v / q, v from -20..20, q from 1..4."""
    rng = random.Random(seed)
    while True:
        values = sorted(Fraction(v, rng.randrange(1, 5))
                        for v in rng.sample(range(-20, 21), count))
        if len(set(values)) == count:
            return values


def test_criterion_9_thomae_against_theta(acceptance_record):
    # orbits and characteristics are matched by rank after sorting, only
    # moduli are compared, and only Z2 covers with real branch values
    with Criterion(acceptance_record, 9,
                   "Thomae formula against theta constants, Z2, g=1,2, "
                   "two seeds each, relative error < 1e-15", 15.0):
        for g, N in ((1, 8), (2, 7)):
            for seed in (1, 2):
                spec = build_cover([2], [([1], v) for v in
                                         _random_real_values(seed, 2 * g + 2)])
                inv = validate(spec)
                values = [site.value for site in spec.sites]
                divisors, labels = enumerate_orbits(spec, inv)
                # one divisor per orbit, the first in lex order
                reps = dict(zip(reversed(labels), reversed(divisors)))
                with mpmath.workdps(40):
                    lam = [mpmath.mpf(v.numerator) / v.denominator
                           for v in values]
                    A, tau = hyperelliptic_periods(values)
                    thetas = [abs(theta_constant(tau, a, b, N))
                              for a, b in even_characteristics(g)]
                    lhs = sorted(t ** (8 * inv.m) for t in thetas
                                 if t > 1e-15)
                    det = abs(mpmath.det(A / (2 * mpmath.pi)))
                    rhs = []
                    for D in reps.values():
                        table = exponent_table(spec, inv, D)
                        assert table.theta_exponent == 8 * inv.m
                        assert table.detC_exponent == 4 * inv.m
                        rhs.append(det ** table.detC_exponent * mpmath.fprod(
                            abs(lam[k.first] - lam[k.second]) ** e
                            for k, e in table.entries.items()))
                    assert len(lhs) == len(rhs) == len(set(labels))
                    for x, y in zip(lhs, sorted(rhs)):
                        assert abs(x - y) < 1e-15 * y
