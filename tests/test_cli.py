"""Command line front end: document parsing, the four data verbs plus
selftest, output schemas, exit codes, and cross-format determinism."""

from __future__ import annotations

import ast
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import abelcover.divisors as divisors_module
from abelcover import enumerate_orbits, exponent_table, make_divisor, validate
from abelcover.cli import (build_parser, console_main, main,
                           parse_cover_object)
from test_divisors import draw_noncyclic_cover

HYPERELLIPTIC = {
    "group": [2],
    "branch_points": [
        {"element": [1], "lambda": str(v)} for v in range(6)],
}

CYCLIC3 = {
    "group": [3],
    "branch_points": [
        {"element": [1], "lambda": str(v)} for v in range(3)],
}

EMPTY_ENUMERATION = {
    "group": [6],
    "branch_points": [
        {"element": [2], "lambda": "0"},
        {"element": [3], "lambda": "1"},
        {"element": [1], "lambda": "2"}],
}


@pytest.fixture
def write_doc(tmp_path):
    def _write(payload, name="cover.json"):
        path = tmp_path / name
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParsing:
    def test_malformed_json_exit_1_with_position(self, write_doc, capsys):
        path = write_doc('{"group": [2,')
        code, out = run(capsys, "validate", path)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "parse"
        assert "line" in error

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, out = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "parse"

    def test_float_lambda_rejected(self, write_doc, capsys):
        doc = {"group": [2], "branch_points": [
            {"element": [1], "lambda": 0.5},
            {"element": [1], "lambda": "1"}]}
        code, out = run(capsys, "validate", write_doc(doc))
        assert code == 1
        assert "exact" in json.loads(out)["error"]["detail"]

    def test_missing_field_has_path(self, write_doc, capsys):
        doc = {"group": [2], "branch_points": [{"element": [1]}]}
        code, out = run(capsys, "validate", write_doc(doc))
        assert code == 1
        assert json.loads(out)["error"]["path"] == \
            "branch_points[0].lambda"
        point = {"element": [1], "lambda": "0"}
        lam = "lambda must be a string or integer"
        for doc, detail, path in (
                ({"branch_points": [point]}, "missing field", "group"),
                ({"group": [2]}, "missing field", "branch_points"),
                ({"group": [2], "branch_points": [{"lambda": "0"}]},
                 "missing field", "branch_points[0].element"),
                ({"group": [2], "branch_points": {}},
                 "branch_points must be a list", "branch_points"),
                ({"group": [2], "branch_points": [
                    {"element": "1", "lambda": "0"}]},
                 "element must be a list of integers",
                 "branch_points[0].element"),
                ({"group": [2], "branch_points": [
                    {"element": [1], "lambda": None}]},
                 lam, "branch_points[0].lambda"),
                ({"group": [2], "branch_points": [
                    {"element": [1], "lambda": [0]}]},
                 lam, "branch_points[0].lambda")):
            code, out = run(capsys, "validate", write_doc(doc))
            assert code == 1
            assert json.loads(out)["error"] == {
                "kind": "parse", "detail": detail, "path": path}

    def test_bool_lambda_rejected(self, write_doc, capsys):
        # true is a JSON bool, not the integer 1
        doc = {"group": [2], "branch_points": [
            {"element": [1], "lambda": True},
            {"element": [1], "lambda": "1"}]}
        code, out = run(capsys, "validate", write_doc(doc))
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "parse", "detail": "lambda must be a string or integer",
            "path": "branch_points[0].lambda"}

    def test_fraction_and_decimal_lambdas(self, write_doc, capsys):
        doc = {"group": [2], "branch_points": [
            {"element": [1], "lambda": "1/3"},
            {"element": [1], "lambda": "0.25"}]}
        code, _ = run(capsys, "validate", write_doc(doc))
        assert code == 0

    def test_decimal_equivalent_to_fraction_collides(self, write_doc,
                                                     capsys):
        # 0.25 and 1/4 are the same exact rational: duplicate branch value
        doc = {"group": [2], "branch_points": [
            {"element": [1], "lambda": "0.25"},
            {"element": [1], "lambda": "1/4"}]}
        code, out = run(capsys, "validate", write_doc(doc))
        assert code == 2

    @pytest.mark.parametrize("payload", [
        b'{"group": [' + b"1" * 5000 + b'], "branch_points": []}',
        b'{"group": [2], "branch_points": '
        + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"group": [2], "branch_points": [], "note": "\xff"}'],
        ids=["integer-too-long", "nesting-too-deep", "not-utf8"])
    def test_unreadable_document_exit_1(self, tmp_path, capsys, payload):
        path = tmp_path / "cover.json"
        path.write_bytes(payload)
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["kind"] == "parse"
        assert captured.err == ""

    @pytest.mark.parametrize("value", [
        "1e5000", "1e-5000", "0.5e4400", "1e4300", "1e-4300", ".1e-4299",
        "1e999999999"])
    @pytest.mark.parametrize("verb", [
        ["validate"], ["enumerate"], ["exponents", "--divisor", "0"]],
        ids=["validate", "enumerate", "exponents"])
    def test_lambda_with_too_many_digits_exit_1(self, write_doc, capsys,
                                                value, verb):
        # each value has a numerator or denominator of over 4300 digits,
        # which BranchPoint refuses; the last is refused before Fraction
        # would build 10**999999999
        doc = {"group": [2], "branch_points": [
            {"element": [1], "lambda": "0"},
            {"element": [1], "lambda": value}]}
        code = main([verb[0], write_doc(doc), *verb[1:]])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.out)["error"]
        assert (error["kind"], error["path"]) == \
            ("parse", "branch_points[1].lambda")
        assert captured.err == ""

    def test_lambda_at_the_digit_limit_is_listed(self, write_doc, capsys):
        for value in (".1e-4298", "1e-4298", "9e4298", "-" + "9" * 4299,
                      "1e-4299", "1e4299", "0.1e4300"):
            doc = {"group": [2], "branch_points": [
                {"element": [1], "lambda": "0"},
                {"element": [1], "lambda": value}]}
            code, out = run(capsys, "enumerate", write_doc(doc))
            assert code == 0
            assert json.loads(out)["count"] == 2

    def test_long_bad_lambda_is_not_echoed_whole(self, write_doc, capsys):
        doc = {"group": [2], "branch_points": [
            {"element": [1], "lambda": "1/" + "x" * 200_000},
            {"element": [1], "lambda": "1"}]}
        code = main(["validate", write_doc(doc)])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.out)["error"]
        assert (error["kind"], error["path"]) == \
            ("parse", "branch_points[0].lambda")
        assert "200002 characters" in error["detail"]
        assert len(captured.out.encode()) < 1024


class TestCommandLine:
    def test_console_script_entry_point(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["abelcover", "selftest"])
        with pytest.raises(SystemExit) as exc:
            console_main()
        assert exc.value.code == 0
        assert capsys.readouterr().out.endswith("selftest ok\n")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--workers", "2"], ["enumerate", "--bogus"],
        ["exponents"], ["frobnicate"], [], ["dedekind", "a", "1", "0"],
        ["dedekind", "5", "2"], ["enumerate", "--json", "--csv"]])
    def test_usage_error_exit_1_with_json(self, write_doc, capsys, argv):
        path = write_doc(HYPERELLIPTIC)
        if argv and argv[0] in ("enumerate", "exponents"):
            argv = argv + [path]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["kind"] == "parse"
        assert captured.err == ""

    def test_help_still_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: abelcover" in capsys.readouterr().out

    @pytest.mark.parametrize("cap", ["0", "-1", "abc", "2.5"])
    def test_cap_must_be_positive_int(self, write_doc, capsys, cap):
        code, out = run(capsys, "enumerate", "--cap", cap,
                        write_doc(HYPERELLIPTIC))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "parse"
        assert error["path"] == "--cap"

    def test_cap_of_one_is_a_cap(self, write_doc, capsys):
        code, out = run(capsys, "exponents", "--divisor", "0", "--cap", "1",
                        write_doc(HYPERELLIPTIC))
        assert code == 3
        assert json.loads(out)["error"]["cap"] == 1

    @pytest.mark.parametrize("argv", [
        ["exponents", "--divisor=--"], ["enumerate", "--cap=--"]])
    def test_option_value_of_double_dash_exit_1(self, write_doc, capsys,
                                                 argv):
        # argparse stores an empty list for "--opt=--"
        code, out = run(capsys, *argv, write_doc(HYPERELLIPTIC))
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "parse"


# any JSON value, for a field that should hold something else
ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=5), inner,
                                            max_size=3)),
    max_leaves=6)

EXACT_LAMBDAS = st.one_of(
    st.integers(min_value=-20, max_value=20).map(str),
    st.fractions(max_denominator=9).map(str),
    st.decimals(places=2, allow_nan=False, allow_infinity=False).map(str),
    st.integers())


@st.composite
def cover_documents(draw):
    """A cover document with random values in every field.  A group has
    at most 3 factors of order at most 8.  Half the documents have
    in-range elements closed up to the identity, so many are valid
    covers; then one field may be swapped for any JSON value."""
    clean = draw(st.booleans())
    factors = draw(st.lists(st.integers(min_value=2 if clean else -1,
                                        max_value=8), max_size=3))
    elements = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        elements.append([draw(st.integers(min_value=0, max_value=m - 1)
                              if clean and m > 1 else
                              st.integers(min_value=-1, max_value=8))
                         for m in factors])
    if clean and elements and all(m > 1 for m in factors):
        elements.append([-sum(col) % m
                         for col, m in zip(zip(*elements), factors)])
    lambdas = draw(st.lists(
        EXACT_LAMBDAS if clean else st.one_of(EXACT_LAMBDAS, st.floats(),
                                              st.text(max_size=5)),
        min_size=len(elements), max_size=len(elements),
        unique_by=Fraction if clean else None))
    document = {"group": factors, "branch_points": [
        {"element": e, "lambda": v} for e, v in zip(elements, lambdas)]}
    swap = draw(st.one_of(st.none(), st.sampled_from([
        "document", "group", "branch_points", "element", "lambda", "point"])))
    if swap == "document":
        return draw(ANY_JSON)
    if swap in ("group", "branch_points"):
        document[swap] = draw(ANY_JSON)
    elif swap is not None and elements:
        point = document["branch_points"][0]
        if swap == "point":
            document["branch_points"][0] = draw(ANY_JSON)
        else:
            point[swap] = draw(ANY_JSON)
    return document


class TestFuzz:
    """Random selectors and caps through enumerate and exponents on a
    battery document, and random cover documents through validate and
    enumerate: every case ends in exit 0-3 with JSON on stdout and nothing
    on stderr, and none raises."""

    SELECTORS = st.one_of(
        st.text(max_size=30),
        st.integers(min_value=-3, max_value=40).map(str),
        st.lists(st.integers(min_value=-2, max_value=3), max_size=8)
        .map(json.dumps),
        st.lists(st.one_of(st.integers(), st.floats(), st.booleans(),
                           st.none(), st.text(max_size=3)), max_size=7)
        .map(json.dumps),
        st.lists(st.integers(min_value=-2, max_value=3), max_size=8)
        .map(lambda xs: ",".join(map(str, xs))),
        st.sampled_from(["1" * 5000, "[" * 5000, "[" + "1" * 5000 + "]",
                         "--", "-h", "NaN", "1e400", "[0,0,0,1,1,1]"]))
    CAPS = st.one_of(
        st.integers(min_value=-3, max_value=300).map(str),
        st.text(max_size=12),
        st.sampled_from(["1" * 5000, "--", "1_000", " 7", "1e3"]))

    # raw bytes that a Python value cannot carry through json.dumps
    POISON = st.one_of(st.none(), st.sampled_from([
        b"1" * 5000, b"-" + b"7" * 4400, b"[" * 50_000 + b"]" * 50_000,
        b'"\xff\xfe"', b'"\xc3"']))

    @pytest.fixture(scope="class")
    def document_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("documents") / "cover.json"

    @settings(max_examples=150, deadline=None)
    @given(document=cover_documents(), poison=POISON,
           field=st.sampled_from(["group", "branch_points", "note"]))
    def test_random_documents(self, document_path, document, poison,
                              field):
        text = json.dumps(document).encode()
        if poison is not None and isinstance(document, dict):
            text = json.dumps({**document, field: "POISON"}).encode() \
                .replace(b'"POISON"', poison)
        elif poison is not None:
            text = poison
        document_path.write_bytes(text)
        for argv in (["validate"], ["enumerate", "--cap", "10000"]):
            code, payload = self.run_quietly(argv + [str(document_path)])
            assert ("error" in payload) == (code != 0)

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "hyperelliptic.json"
        path.write_text(json.dumps(HYPERELLIPTIC))
        return str(path)

    @staticmethod
    def run_quietly(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert err.getvalue() == ""
        return code, json.loads(out.getvalue())

    @settings(max_examples=100, deadline=None)
    @given(selector=SELECTORS, cap=st.one_of(st.none(), CAPS),
           joined=st.booleans())
    def test_exponents_selector_and_cap(self, path, selector, cap, joined):
        argv = ["exponents", path]
        argv += [f"--divisor={selector}"] if joined else \
            ["--divisor", selector]
        if cap is not None:
            argv += [f"--cap={cap}"] if joined else ["--cap", cap]
        code, payload = self.run_quietly(argv)
        assert ("error" in payload) == (code != 0)

    @settings(max_examples=80, deadline=None)
    @given(cap=CAPS, joined=st.booleans())
    def test_enumerate_cap(self, path, cap, joined):
        argv = ["enumerate", path]
        argv += [f"--cap={cap}"] if joined else ["--cap", cap]
        code, payload = self.run_quietly(argv)
        if code == 0:
            assert payload["count"] == 20 and payload["orbit_count"] == 10
        else:
            assert payload["error"]["kind"] in ("parse", "resource-cap")


class TestValidate:
    def test_hyperelliptic_report(self, write_doc, capsys):
        code, out = run(capsys, "validate", write_doc(HYPERELLIPTIC))
        assert code == 0
        report = json.loads(out)
        assert (report["n"], report["m"], report["g"]) == (2, 2, 2)
        assert {tuple(row["character"]): row["t"]
                for row in report["t"]} == {(0,): 0, (1,): 3}

    def test_monodromy_violation_exit_2(self, write_doc, capsys):
        doc = {"group": [3], "branch_points": [
            {"element": [1], "lambda": "0"},
            {"element": [1], "lambda": "1"}]}
        code, out = run(capsys, "validate", write_doc(doc))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "monodromy"

    def test_disconnected_exit_2(self, write_doc, capsys):
        doc = {"group": [2, 2], "branch_points": [
            {"element": [1, 0], "lambda": "0"},
            {"element": [1, 0], "lambda": "1"}]}
        code, out = run(capsys, "validate", write_doc(doc))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "disconnected"


class TestEnumerate:
    def test_hyperelliptic_json(self, write_doc, capsys):
        code, out = run(capsys, "enumerate", write_doc(HYPERELLIPTIC))
        assert code == 0
        listing = json.loads(out)
        assert listing["count"] == 20
        assert listing["orbit_count"] == 10
        assert listing["empty"] is False
        assert len(listing["divisors"]) == 20
        first = listing["divisors"][0]
        assert set(first) == {"index", "orbit", "p", "beta"}
        assert all(row["p"] == 1 for row in listing["divisors"])

    def test_cyclic3_counts(self, write_doc, capsys):
        code, out = run(capsys, "enumerate", write_doc(CYCLIC3))
        listing = json.loads(out)
        assert (listing["count"], listing["orbit_count"]) == (6, 2)

    def test_empty_marker(self, write_doc, capsys):
        code, out = run(capsys, "enumerate", write_doc(EMPTY_ENUMERATION))
        assert code == 0
        listing = json.loads(out)
        assert listing["empty"] is True
        assert listing["count"] == 0
        assert listing["divisors"] == []

    def test_csv_shape(self, write_doc, capsys):
        code, out = run(capsys, "enumerate", "--csv",
                        write_doc(HYPERELLIPTIC))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "orbit", "p"] \
            + [f"beta_{k}" for k in range(6)]
        assert len(rows) == 21

    def test_orbit_labels_number_by_first_appearance(self, write_doc,
                                                     capsys):
        _, out = run(capsys, "enumerate", write_doc(HYPERELLIPTIC))
        listing = json.loads(out)
        seen = []
        for row in listing["divisors"]:
            if row["orbit"] not in seen:
                seen.append(row["orbit"])
        assert seen == sorted(seen)

    def test_cap_exit_3(self, write_doc, capsys):
        code, out = run(capsys, "enumerate", "--cap", "3",
                        write_doc(HYPERELLIPTIC))
        assert code == 3
        error = json.loads(out)["error"]
        assert error["kind"] == "resource-cap"
        assert error["cap"] == 3

    @pytest.mark.parametrize("fmt", ["--json", "--csv"])
    def test_listing_is_written_record_by_record(self, write_doc, tmp_path,
                                                 fmt):
        # Z2 with 16 sites lists C(16, 8) = 12 870 divisors (3 MB of
        # JSON); holding an InvariantDivisor per row and every formatted
        # record peaked at 14.6 MB here
        path = write_doc({"group": [2], "branch_points": [
            {"element": [1], "lambda": str(v)} for v in range(16)]})
        listing = tmp_path / "listing.out"
        with open(listing, "w") as out, contextlib.redirect_stdout(out):
            tracemalloc.start()
            try:
                code = main(["enumerate", fmt, path])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20
        if fmt == "--json":
            assert json.loads(listing.read_text())["count"] == 12870
        else:
            assert len(listing.read_text().splitlines()) == 12871

    def test_broken_orbit_prints_only_the_error(self, write_doc, capsys,
                                                monkeypatch):
        # every check runs before the first byte of the listing
        monkeypatch.setattr(divisors_module, "_expand",
                            lambda spec, inv, beta, rows:
                            [beta for _ in rows])
        code, out = run(capsys, "enumerate", write_doc(HYPERELLIPTIC))
        assert code == 2
        assert json.loads(out) == {"error": {
            "kind": "ConsistencyError",
            "detail": "an orbit repeats a member or two orbits share one, "
                      "yet the action is free"}}


class TestExponents:
    def test_by_index_json(self, write_doc, capsys):
        code, out = run(capsys, "exponents", "--divisor", "0",
                        write_doc(HYPERELLIPTIC))
        assert code == 0
        table = json.loads(out)
        assert table["theta_exponent"] == 16
        assert table["detC_exponent"] == 8
        assert len(table["pairs"]) == 15
        values = sorted(row["exponent"] for row in table["pairs"])
        assert values == [0] * 9 + [4] * 6

    def test_by_beta_vector(self, write_doc, capsys):
        path = write_doc(CYCLIC3)
        code, out = run(capsys, "exponents", "--divisor", "[2, 1, 0]", path)
        assert code == 0
        assert all(row["exponent"] == 4
                   for row in json.loads(out)["pairs"])
        code2, out2 = run(capsys, "exponents", "--divisor", "2,1,0", path)
        assert code2 == 0
        assert out2 == out

    def test_csv_columns(self, write_doc, capsys):
        code, out = run(capsys, "exponents", "--divisor", "0", "--csv",
                        write_doc(HYPERELLIPTIC))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["sigma_rank", "j", "rho_rank", "i",
                           "lambda_a", "lambda_b", "exponent"]
        assert len(rows) == 16
        assert rows[1][:6] == ["0", "0", "0", "1", "0", "1"]

    def test_special_divisor_exit_2(self, write_doc, capsys):
        code, out = run(capsys, "exponents", "--divisor", "[1,1,1,1,1,1]",
                        write_doc(HYPERELLIPTIC))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "not-nonspecial"

    def test_index_out_of_range_exit_1(self, write_doc, capsys):
        code, out = run(capsys, "exponents", "--divisor", "99",
                        write_doc(CYCLIC3))
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "parse"

    @pytest.mark.parametrize("selector", [
        '["a",0,0,0,0,0]', '[null,0,0,0,0,0]', '[1.7,0,0,0,0,0]',
        '[1.0,0,0,1,1,0]', '[true,0,0,1,1,0]', '[[0],0,0,1,1,1]'])
    def test_non_integer_weights_exit_1(self, write_doc, capsys, selector):
        code, out = run(capsys, "exponents", "--divisor", selector,
                        write_doc(HYPERELLIPTIC))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "parse"
        assert error["path"] == "--divisor"

    @pytest.mark.parametrize("selector", [
        "1" * 5000, "[" * 5000, "[" + "1" * 5000 + ",0,0,0,0,0]"],
        ids=["digits", "nesting", "digits-in-list"])
    def test_unreadable_json_selector_exit_1(self, write_doc, capsys,
                                             selector):
        # json.loads raises ValueError past 4300 digits and RecursionError
        # on deep nesting; neither is a JSONDecodeError
        code, out = run(capsys, "exponents", "--divisor", selector,
                        write_doc(HYPERELLIPTIC))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "parse"
        assert error["path"] == "--divisor"

    @pytest.mark.parametrize("weights", [
        [1, 1, 0], [2, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 1, 1, 0]],
        ids=["short", "too-large", "negative", "long"])
    def test_comma_and_json_selectors_agree(self, write_doc, capsys,
                                            weights):
        # a comma list that parses is checked exactly as the JSON list is
        path = write_doc({"group": [2], "branch_points": [
            {"element": [1], "lambda": str(v)} for v in range(4)]})
        comma = ",".join(map(str, weights))
        spelled = [run(capsys, "exponents", f"--divisor={selector}", path)
                   for selector in (comma, json.dumps(weights))]
        assert spelled[0] == spelled[1]
        assert spelled[0][0] == 2
        assert json.loads(spelled[0][1])["error"]["kind"] == \
            "MalformedDataError"

    @pytest.mark.parametrize("weights", [
        "\u0661,1,0,0", "+1,1,0,0", "01,1,0,0", "1_0,1,0,0"],
        ids=["arabic-indic-digit", "plus-sign", "leading-zero", "underscore"])
    def test_comma_selector_has_the_json_grammar(self, write_doc, capsys,
                                                 weights):
        # JSON reads none of these weights, bracketed or not
        path = write_doc({"group": [2], "branch_points": [
            {"element": [1], "lambda": str(v)} for v in range(4)]})
        for selector in (weights, f"[{weights}]"):
            code, out = run(capsys, "exponents", f"--divisor={selector}",
                            path)
            assert code == 1
            error = json.loads(out)["error"]
            assert (error["kind"], error["path"]) == ("parse", "--divisor")

    def test_round_trip_with_enumeration(self, write_doc, capsys):
        """Feeding enumerated beta vectors back as selectors reproduces
        the by-index tables byte for byte."""
        path = write_doc(HYPERELLIPTIC)
        _, listing_out = run(capsys, "enumerate", path)
        listing = json.loads(listing_out)
        for row in listing["divisors"][:5]:
            _, by_index = run(capsys, "exponents", "--divisor",
                              str(row["index"]), path)
            _, by_beta = run(capsys, "exponents", "--divisor",
                             json.dumps(row["beta"]), path)
            assert by_index == by_beta

    @pytest.mark.parametrize("p, selector, digest", [
        (4001, "[0,2000,4000]",
         "3b970e3925bc4c39457003db509d51092787bae285e84959808bd63bd6e90134"),
        (2003, "[0,1001,2002]",
         "d48104a47c33c661cf2942fec103d1438180808db851d274f3395ebf14a88496"),
    ], ids=["z4001", "z2003"])
    def test_large_cyclic_group_digest(self, write_doc, capsys, p, selector,
                                       digest):
        # sites (1, 1, p - 2); the digests were recorded when every row
        # entry was summed on its own, before rows were filled by the
        # reciprocity evaluator
        document = {"group": [p], "branch_points": [
            {"element": [e], "lambda": str(k)}
            for k, e in enumerate((1, 1, p - 2))]}
        code, out = run(capsys, "exponents", "--divisor", selector,
                        write_doc(document))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def cover_document(spec) -> dict:
    return {"group": list(spec.group.factor_orders),
            "branch_points": [{"element": list(bp.element.residues),
                               "lambda": str(bp.value)}
                              for bp in spec.branch_points]}


def dumps_listing(document) -> str:
    """The enumerate listing as json.dumps(indent=2) of one dict per
    record: the oracle for the CLI's format-string writer."""
    spec = parse_cover_object(document)
    inv = validate(spec)
    divisors, labels = enumerate_orbits(spec, inv)
    return json.dumps({
        "count": len(divisors),
        "orbit_count": len(divisors) // inv.n,
        "empty": not divisors,
        "divisors": [{"index": i, "orbit": labels[i], "p": D.p,
                      "beta": list(D.beta)}
                     for i, D in enumerate(divisors)],
    }, indent=2) + "\n"


def dumps_tables(document):
    """(beta, json.dumps(indent=2) of the exponents table) for every
    non-special divisor of the document."""
    spec = parse_cover_object(document)
    inv = validate(spec)
    for D in enumerate_orbits(spec, inv)[0]:
        table = exponent_table(spec, inv, D)
        rows = []
        for key, value in table.entries.items():
            sa, sb = spec.sites[key.first], spec.sites[key.second]
            rows.append({
                "sigma_rank": sa.element_rank, "j": sa.occurrence,
                "rho_rank": sb.element_rank, "i": sb.occurrence,
                "lambda_a": str(sa.value), "lambda_b": str(sb.value),
                "exponent": value,
            })
        yield D.beta, json.dumps({
            "theta_exponent": table.theta_exponent,
            "detC_exponent": table.detC_exponent,
            "divisor": {"p": D.p, "beta": list(D.beta),
                        "orbit_fingerprint": table.divisor_fingerprint},
            "pairs": rows,
        }, indent=2) + "\n"


# negative fractions, decimal strings and integers; str() of the parsed
# Fraction is what lambda_a and lambda_b print
SIGNED_LAMBDAS = {
    "group": [4],
    "branch_points": [
        {"element": [1], "lambda": "-1/3"},
        {"element": [1], "lambda": "0.25"},
        {"element": [3], "lambda": "-2.5"},
        {"element": [3], "lambda": -7},
        {"element": [2], "lambda": "-0.125"},
        {"element": [2], "lambda": "22/7"}],
}

NO_SITES = {"group": [], "branch_points": []}


class TestWriterOracle:
    """The enumerate and exponents JSON writers reproduce
    json.dumps(indent=2) of the record dicts byte for byte."""

    COVERS = ["hyperelliptic", "cyclic3", "cyclic4", "klein", "cyclic6",
              "mixed4"]

    @pytest.mark.parametrize("name", COVERS + ["sparse6"])
    def test_listing(self, request, write_doc, capsys, name):
        document = cover_document(request.getfixturevalue(name).spec)
        code, out = run(capsys, "enumerate", write_doc(document))
        assert code == 0
        assert out == dumps_listing(document)

    @pytest.mark.parametrize("document", [SIGNED_LAMBDAS, NO_SITES],
                             ids=["signed-lambdas", "no-sites"])
    def test_listing_of_document(self, write_doc, capsys, document):
        code, out = run(capsys, "enumerate", write_doc(document))
        assert code == 0
        assert out == dumps_listing(document)

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracle") / "cover.json"

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_listing_noncyclic(self, path, data):
        document = cover_document(draw_noncyclic_cover(data).spec)
        path.write_text(json.dumps(document))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["enumerate", str(path)]) == 0
        assert out.getvalue() == dumps_listing(document)

    @pytest.mark.parametrize("name", COVERS)
    def test_every_table(self, request, write_doc, capsys, name):
        document = cover_document(request.getfixturevalue(name).spec)
        self.check_every_table(write_doc(document), document, capsys)

    @pytest.mark.parametrize("document", [SIGNED_LAMBDAS, NO_SITES],
                             ids=["signed-lambdas", "no-sites"])
    def test_every_table_of_document(self, write_doc, capsys, document):
        self.check_every_table(write_doc(document), document, capsys)

    @staticmethod
    def check_every_table(path, document, capsys):
        checked = 0
        for beta, expected in dumps_tables(document):
            code, out = run(capsys, "exponents", "--divisor",
                            json.dumps(list(beta)), path)
            assert code == 0
            assert out == expected, beta
            checked += 1
        assert checked > 0


class TestErrorPayloads:
    """Small payloads still go through json.dumps(indent=2); their bytes
    are pinned here."""

    def test_not_nonspecial(self, write_doc, capsys):
        assert run(capsys, "exponents", "--divisor", "[0,0,0,0,0,0]",
                   write_doc(HYPERELLIPTIC)) == (2, (
                       '{\n  "error": {\n    "kind": "not-nonspecial",\n'
                       '    "detail": "selected divisor fails the counting '
                       'condition"\n  }\n}\n'))

    def test_parse_error_with_position(self, write_doc, capsys):
        path = write_doc('{"group": [2],\n "branch_points": [}')
        assert run(capsys, "enumerate", path) == (1, (
            '{\n  "error": {\n    "kind": "parse",\n'
            '    "detail": "invalid JSON: Expecting value",\n'
            '    "line": 2,\n    "column": 20\n  }\n}\n'))

    def test_parse_error_with_path(self, write_doc, capsys):
        path = write_doc({"group": [2], "branch_points": [{"element": [1]}]})
        assert run(capsys, "validate", path) == (1, (
            '{\n  "error": {\n    "kind": "parse",\n'
            '    "detail": "missing field",\n'
            '    "path": "branch_points[0].lambda"\n  }\n}\n'))

    def test_resource_cap(self, write_doc, capsys):
        assert run(capsys, "enumerate", "--cap", "3",
                   write_doc(HYPERELLIPTIC)) == (3, (
                       '{\n  "error": {\n    "kind": "resource-cap",\n'
                       '    "detail": "search exceeded the configured cap '
                       'of 3 nodes",\n    "cap": 3\n  }\n}\n'))

    def test_repeated_generator_disconnected(self, write_doc, capsys):
        path = write_doc({"group": [4], "branch_points": [
            {"element": [2], "lambda": str(v)} for v in range(4)]})
        assert run(capsys, "validate", path) == (2, (
            '{\n  "error": {\n    "kind": "disconnected",\n'
            '    "detail": "branch elements generate a subgroup of order 2 '
            'inside a group of order 4"\n  }\n}\n'))


class TestLongArguments:
    """An argument thousands of characters long is quoted in the error
    detail, not echoed whole."""

    @pytest.mark.parametrize("argv,code", [
        (["dedekind", "7" * 5000, "1", "0"], 1),
        (["enumerate", "--cap", "7" * 5000], 1),
        (["exponents", "--divisor", "7" * 5000], 1),
        (["exponents", "--divisor", "7" * 4000], 1),
        (["exponents", "--divisor", "1," * 3000 + "x"], 1),
        (["dedekind", "1" + "0" * 4200, "2", "0"], 2)],
        ids=["dedekind-d", "cap", "divisor", "index", "comma-selector",
             "dedekind-domain"])
    def test_error_output_is_bounded(self, write_doc, capsys, argv, code):
        if argv[0] != "dedekind":
            argv = argv + [write_doc(HYPERELLIPTIC)]
        got, out = run(capsys, *argv)
        assert got == code
        assert json.loads(out)["error"]["detail"].endswith(" characters)")
        assert len(out.encode()) < 1024


class TestDedekind:
    def test_values(self, capsys):
        assert run(capsys, "dedekind", "2", "1", "0") == (0, "1/4\n")
        assert run(capsys, "dedekind", "1", "0", "0") == (0, "0\n")
        assert run(capsys, "dedekind", "3", "2", "0") == (0, "1/3\n")

    def test_normalizes_inputs(self, capsys):
        code, out = run(capsys, "dedekind", "5", "7", "-3")
        assert code == 0
        code2, out2 = run(capsys, "dedekind", "5", "2", "2")
        assert out == out2

    def test_large_modulus(self, capsys):
        # walking the shift law to s = 5 took about 7 s on a 2-core x86
        # box; the reciprocity law takes a few Euclid steps
        assert run(capsys, "dedekind", "10000019", "2", "5") == \
            (0, "4166672500001\n")

    def test_value_past_the_str_digit_limit(self, capsys):
        # at h = 1, phi(0) = (d^2 - 1)/12 has 4999 digits for this d
        d = 10 ** 2500 + 1
        code, out = run(capsys, "dedekind", str(d), "1", "0")
        assert code == 0
        assert len(out) == 5000 and 12 * int(Decimal(out)) == d * d - 1

    def test_invalid_key_exit_2(self, capsys):
        code, out = run(capsys, "dedekind", "6", "2", "0")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "DomainError"


class TestDeterminism:
    def test_repeated_runs_identical(self, write_doc, capsys):
        path = write_doc(HYPERELLIPTIC)
        _, first = run(capsys, "exponents", "--divisor", "0", path)
        _, second = run(capsys, "exponents", "--divisor", "0", path)
        assert first == second


class TestParserReuse:
    """main builds its argparse parser on the first call and reuses it;
    no flag or default of one call may reach the next."""

    def test_reused_parser_matches_fresh_parser(self, write_doc, capsys):
        path = write_doc(HYPERELLIPTIC)
        calls = [["exponents", "--divisor", "0", "--csv", path],
                 ["exponents", "--divisor", "0", path],
                 ["enumerate", "--cap", "1", path],
                 ["enumerate", path],
                 ["enumerate", "--csv", "--cap", "1000", path],
                 ["exponents", "--divisor", "[1,1,1,0,0,0]", "--json", path]]
        build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in calls]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        # the calls differ, so a leaked flag would have shown
        assert len({out for _, out in fresh}) == len(calls)
        assert [code for code, _ in fresh] == [0, 0, 3, 0, 0, 0]

    def test_not_built_at_import(self):
        script = ("import abelcover.cli as cli\n"
                  "assert cli.build_parser.cache_info().currsize == 0\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        assert out.rstrip().endswith("selftest ok")

    def test_runs_without_mpmath(self):
        """The library needs nothing outside the standard library: with
        mpmath made unimportable, abelcover and its CLI still import and
        the selftest passes.  With mpmath and the test oracles importable,
        the selftest loads neither."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), str(root / "tests")])}
        for block in ("sys.modules['mpmath'] = None\n", ""):
            script = ("import sys\n" + block +
                      "import abelcover, abelcover.cli\n"
                      "code = abelcover.cli.main(['selftest'])\n"
                      "assert not {'mpmath', 'oracles'} & {\n"
                      "    k for k, v in sys.modules.items() if v}, 'loaded'\n"
                      "sys.exit(code)\n")
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.rstrip().endswith("selftest ok")


class TestBenchmarkTracer:
    def test_traced_names_resolve(self):
        # perfbench/tracer.py wraps each TRACED "module.attr" of abelcover
        # and perfbench/worker.py reads pairing_u.cache_info()
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        [traced] = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["TRACED"]]
        for label in traced:
            module_name, attr = label.split(".")
            module = importlib.import_module(f"abelcover.{module_name}")
            assert callable(getattr(module, attr, None)), label
        assert importlib.import_module(
            "abelcover.group_core").pairing_u.cache_info().maxsize is None
