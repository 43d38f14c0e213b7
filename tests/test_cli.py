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
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import abelcover.cli as cli_module
import abelcover.divisors as divisors_module
from abelcover import enumerate_orbits, exponent_table, validate
from abelcover.cli import (_parse_value, build_parser, console_main, main,
                           parse_cover_object)
from abelcover.errors import ConsistencyError, ParseError
from test_divisors import draw_noncyclic_cover
from test_exponents import spoil_last_residue

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

    @pytest.mark.parametrize("value", ["1_000", "1e1_0", "1/1_0"])
    def test_underscore_lambda_rejected(self, write_doc, capsys, value):
        # Fraction reads digit groups from CPython 3.11 on but not before;
        # the document must not parse on one interpreter only
        doc = {"group": [2], "branch_points": [
            {"element": [1], "lambda": "0"},
            {"element": [1], "lambda": value}]}
        code, out = run(capsys, "validate", write_doc(doc))
        assert code == 1
        error = json.loads(out)["error"]
        assert (error["kind"], error["path"]) == \
            ("parse", "branch_points[1].lambda")
        assert "as a rational" in error["detail"]

    @pytest.mark.parametrize("value", [
        "\u0661/\u0663", "\uff11", "1/\u0663", "\u00a01", "1\u2003"])
    def test_non_ascii_lambda_rejected(self, write_doc, capsys, value):
        # Fraction reads any Unicode digit and space; --divisor refuses
        # non-ASCII digits, and so does lambda
        doc = {"group": [2], "branch_points": [
            {"element": [1], "lambda": "0"},
            {"element": [1], "lambda": value}]}
        code, out = run(capsys, "validate", write_doc(doc))
        assert code == 1
        error = json.loads(out)["error"]
        assert (error["kind"], error["path"]) == \
            ("parse", "branch_points[1].lambda")
        assert "as a rational" in error["detail"]

    def test_ascii_whitespace_around_lambda_accepted(self, write_doc,
                                                     capsys):
        doc = {"group": [2], "branch_points": [
            {"element": [1], "lambda": " 3/4 "},
            {"element": [1], "lambda": "\t0.5\n"}]}
        code, _ = run(capsys, "validate", write_doc(doc))
        assert code == 0
        padded = parse_cover_object(doc)
        assert [bp.value for bp in padded.branch_points] == \
            [Fraction(3, 4), Fraction(1, 2)]

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

    # int() refuses more than 4300 digits from CPython 3.11 on, and
    # Fraction(raw) reads its digits with int(), so both refuse alike
    @pytest.mark.parametrize("raw, accepted", [
        ("0", True), ("-0", True), ("007", True), ("-12", True),
        ("3/4", True), ("-3/4", True), ("6/8", True), ("0/5", True),
        ("1/0", False), ("3/-4", False), ("+3", True), (" 3", True),
        ("3 /4", False), ("0.75", True), ("75e-2", True), ("١/٣", False),
        ("7" * 4300, True),
        ("7" * 4301, not hasattr(sys, "get_int_max_str_digits"))])
    def test_value_matches_fraction_of_the_string(self, raw, accepted):
        # p/q strings skip Fraction's regex; every value and every error
        # stays what Fraction(raw) gives
        if accepted:
            value = _parse_value(raw, "lambda")
            assert type(value) is Fraction and value == Fraction(raw)
            return
        with pytest.raises(ParseError) as info:
            _parse_value(raw, "lambda")
        assert type(info.value) is ParseError
        assert info.value.path == "lambda"
        assert str(info.value) == (f"cannot parse {raw[:40]!r} ({len(raw)} "
                                   f"characters) as a rational")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 6, 10 ** 6))
    def test_int_pairs_read_as_fraction_does(self, p, q):
        for raw in (str(p), f"{p}/{q}"):
            try:
                expected = Fraction(raw)
            except (ValueError, ZeroDivisionError):  # q < 0, or q = 0
                with pytest.raises(ParseError):
                    _parse_value(raw, "lambda")
            else:
                assert _parse_value(raw, "lambda") == expected

    def test_lambda_spellings_give_identical_output(self, write_doc, capsys):
        # one cover, its values spelled as p/q, decimals and exponents
        spellings = [
            ["0/1", "1/4", "2/4", "3/4", "-1", "5/2"],
            ["0.0", "0.25", "0.5", "0.75", "-1.0", "2.5"],
            ["0e0", "25e-2", "5E-1", "75e-2", "-1e0", "25e-1"]]
        outputs = set()
        for k, values in enumerate(spellings):
            path = write_doc({"group": [2], "branch_points": [
                {"element": [1], "lambda": v} for v in values]},
                name=f"cover{k}.json")
            codes_and_outs = (run(capsys, "validate", path),
                              run(capsys, "exponents", "--divisor",
                                  "[0,0,0,1,1,1]", path))
            assert [code for code, _ in codes_and_outs] == [0, 0]
            outputs.add(tuple(out for _, out in codes_and_outs))
        assert len(outputs) == 1


class TestCommandLine:
    def test_console_script_entry_point(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["abelcover", "selftest"])
        with pytest.raises(SystemExit) as exc:
            console_main()
        assert exc.value.code == 0
        assert capsys.readouterr().out.endswith("selftest ok\n")

    def test_module_runs_as_a_script(self, write_doc):
        # python -m abelcover.cli VERB runs the CLI; without the __main__
        # guard it only imported the module and exited 0 in silence
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}

        def run_module(*argv):
            return subprocess.run(
                [sys.executable, "-m", "abelcover.cli", *argv], env=env,
                capture_output=True, text=True, timeout=120)

        proc = run_module("selftest")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("selftest ok\n")
        # five sites of Z2 sum to the generator, not the identity
        invalid = {**HYPERELLIPTIC,
                   "branch_points": HYPERELLIPTIC["branch_points"][:5]}
        proc = run_module("validate", write_doc(invalid))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["error"]["kind"] == "monodromy"

    def test_reader_that_stops_early_gets_no_traceback(self, write_doc):
        # C(14, 7) = 3 432 records, 0.8 MB of JSON, more than a pipe holds:
        # the writer is still writing when the reader closes its end, and
        # the BrokenPipeError used to escape as a traceback with exit 1
        path = write_doc({"group": [2], "branch_points": [
            {"element": [1], "lambda": str(v)} for v in range(14)]})
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        with subprocess.Popen(
                [sys.executable, "-m", "abelcover.cli", "enumerate", path],
                env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(100).startswith(b'{\n  "count": 3432,')
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 141
        assert "Traceback" not in stderr, stderr

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

    @pytest.mark.parametrize("factors, elements, digest", [
        ([4, 4], ([1, 0], [3, 0], [0, 1], [0, 3], [1, 1], [3, 3]),
         "bc81f671b377f1f26dd18679b9b2a9c0428de7581bd9c9aad70e3253db2fb965"),
        ([2, 3, 4], ([1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 2, 0], [0, 0, 1],
                     [0, 0, 3]),
         "5166b4027029598efa1970142d46f59ecc9bf011d21fdde06ac0a008fa032090"),
    ], ids=["z4z4x6", "z2z3z4"])
    def test_multi_factor_report_digest(self, write_doc, capsys, factors,
                                        elements, digest):
        # the t listing of a group with several factors names each
        # character by its residues, in dual_group (lexicographic) order;
        # the digests were recorded when t was a dict keyed by Character
        document = {"group": factors, "branch_points": [
            {"element": e, "lambda": str(k)} for k, e in enumerate(elements)]}
        code, out = run(capsys, "validate", write_doc(document))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("n, elements, cap", [
        (10 ** 30, (1, 10 ** 30 - 1), 2 ** 16),  # the group order
        (1000003, (1, 1000002), 2 ** 16),
        (65521, (1, 1, 65519), 2 ** 32),  # the packed bits, 3.9e10 here
    ], ids=["z10^30", "z1000003", "z65521"])
    def test_huge_cover_exit_3(self, write_doc, capsys, n, elements, cap):
        # refused before any table of n entries is built: listing the
        # characters overflowed at 10**30, and packing Z_1000003 would
        # exhaust memory
        doc = {"group": [n], "branch_points": [
            {"element": [e], "lambda": str(k)}
            for k, e in enumerate(elements)]}
        code, out = run(capsys, "validate", write_doc(doc))
        error = json.loads(out)["error"]
        assert (code, error["kind"], error["cap"]) == (3, "resource-cap", cap)
        assert str(cap) in error["detail"]


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

    @pytest.mark.parametrize("argv", [
        ["enumerate"], ["exponents", "--divisor", "0"]])
    def test_many_sites_exit_3(self, write_doc, capsys, argv):
        # Z2 with 2 000 sites: a search with one Python frame per prefix
        # site ended in a RecursionError traceback with exit 1
        path = write_doc({"group": [2], "branch_points": [
            {"element": [1], "lambda": str(v)} for v in range(2000)]})
        code, out = run(capsys, *argv, "--cap", "20000", path)
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "resource-cap"

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
        monkeypatch.setattr(divisors_module, "_expand_codes",
                            lambda inv, flat, codes, table: list(codes))
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

    @pytest.mark.parametrize("index", ["-1", str(6 ** 12), "1" * 4000],
                             ids=["negative", "6**12", "4000-digits"])
    def test_impossible_index_refused_before_the_search(
            self, write_doc, capsys, monkeypatch, index):
        # the 6**12 weight vectors bound the listing; "-1" ran the whole
        # search, expansion and sort of enumerate before it was refused
        def no_search(*args):
            raise AssertionError("the divisor search ran")
        monkeypatch.setattr(divisors_module, "_search_slice", no_search)
        path = write_doc({"group": [6], "branch_points": [
            {"element": [1], "lambda": str(v)} for v in range(12)]})
        code, out = run(capsys, "exponents", "--divisor", index, path)
        error = json.loads(out)["error"]
        assert (code, error["kind"], error["path"]) == (1, "parse",
                                                        "--divisor")

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

    def test_table_past_the_pair_bound_exit_3(self, write_doc, capsys):
        # Z2 with 1 500 sites has 1 124 250 pairs; holding every one took
        # 6.4 s and 898 MB of peak memory on a 2-core x86 box
        path = write_doc({"group": [2], "branch_points": [
            {"element": [1], "lambda": str(v)} for v in range(1500)]})
        selector = json.dumps([1] * 750 + [0] * 750)
        start = time.perf_counter()
        code, out = run(capsys, "exponents", "--divisor", selector, path)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        error = json.loads(out)["error"]
        assert (error["kind"], error["cap"]) == ("resource-cap", 524288)

    @pytest.mark.parametrize("fmt", ["--json", "--csv"])
    def test_table_is_written_pair_by_pair(self, write_doc, tmp_path, fmt):
        # Z2 with 300 sites has 44 850 pairs (7 MB of JSON); holding a
        # row list beside the table peaked at 9.8 MiB in CSV, and the
        # whole document as one string at 32.6 MiB in JSON
        path = write_doc({"group": [2], "branch_points": [
            {"element": [1], "lambda": str(v)} for v in range(300)]})
        selector = json.dumps([1] * 150 + [0] * 150)
        table = tmp_path / "table.out"
        with open(table, "w") as out, contextlib.redirect_stdout(out):
            tracemalloc.start()
            try:
                code = main(["exponents", fmt, "--divisor", selector, path])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 9 * 2**20
        if fmt == "--json":
            assert len(json.loads(table.read_text())["pairs"]) == 44850
        else:
            assert len(table.read_text().splitlines()) == 44851

    def test_broken_row_prints_only_the_error(self, write_doc, capsys,
                                              monkeypatch):
        # every row is checked before the first byte of the table
        spoil_last_residue(monkeypatch)
        code, out = run(capsys, "exponents", "--divisor", "[0,0,0,1,1,1]",
                        write_doc(HYPERELLIPTIC))
        assert code == 2
        error = json.loads(out)
        assert list(error) == ["error"]
        assert error["error"]["kind"] == "ConsistencyError"
        assert "odd or non-integral" in error["error"]["detail"]


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
        "divisors": [{"index": i, "orbit": labels[i], "p": 1,
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
        for (a, b), value in table.entries.items():
            sa, sb = spec.sites[a], spec.sites[b]
            rows.append({
                "sigma_rank": sa.element_rank, "j": sa.occurrence,
                "rho_rank": sb.element_rank, "i": sb.occurrence,
                "lambda_a": str(sa.value), "lambda_b": str(sb.value),
                "exponent": value,
            })
        yield D.beta, json.dumps({
            "theta_exponent": table.theta_exponent,
            "detC_exponent": table.detC_exponent,
            "divisor": {"p": 1, "beta": list(D.beta),
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

# the longest lambda texts BranchPoint accepts: 4299 digits and a
# denominator of 4300; "%s" must print them as json.dumps does
LONG_LAMBDAS = {
    "group": [2],
    "branch_points": [
        {"element": [1], "lambda": "-" + "9" * 4299},
        {"element": [1], "lambda": "1e-4299"},
        {"element": [1], "lambda": "-22/7"},
        {"element": [1], "lambda": "0"}],
}


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

    @pytest.mark.parametrize("document", [SIGNED_LAMBDAS, NO_SITES,
                                          LONG_LAMBDAS],
                             ids=["signed-lambdas", "no-sites",
                                  "long-lambdas"])
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

    @pytest.mark.parametrize("document", [SIGNED_LAMBDAS, NO_SITES,
                                          LONG_LAMBDAS],
                             ids=["signed-lambdas", "no-sites",
                                  "long-lambdas"])
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


# Z6 with elements (1, 1, 2, 3, 4, 1): lambdas in every text form the
# parser reads, signed, decimal, exponent and fraction
Z6_MIXED = {"group": [6], "branch_points": [
    {"element": [e], "lambda": v} for e, v in zip(
        (1, 1, 2, 3, 4, 1), ("-3/4", "0.25", "-7", "1e-3", "22/7", "-0.5"))]}


def csv_text(header, rows) -> str:
    """The bytes csv.writer gives for the header and rows, one line each."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


class TestCsvWriterOracle:
    """The enumerate and exponents CSV writers, format strings with no
    csv module, reproduce csv.writer on the library's rows byte for
    byte: no field of either needs quoting."""

    DOCUMENTS = {"z6-mixed": Z6_MIXED, "signed-lambdas": SIGNED_LAMBDAS,
                 "no-sites": NO_SITES, "long-lambdas": LONG_LAMBDAS,
                 "empty": EMPTY_ENUMERATION}

    @pytest.fixture(params=TestWriterOracle.COVERS + list(DOCUMENTS))
    def document(self, request):
        if request.param in self.DOCUMENTS:
            return self.DOCUMENTS[request.param]
        return cover_document(request.getfixturevalue(request.param).spec)

    def test_listing_and_tables(self, write_doc, capsys, document):
        path = write_doc(document)
        spec = parse_cover_object(document)
        inv = validate(spec)
        divisors, labels = enumerate_orbits(spec, inv)
        code, out = run(capsys, "enumerate", "--csv", path)
        assert code == 0
        assert out == csv_text(
            ["index", "orbit", "p"]
            + [f"beta_{k}" for k in range(len(spec.sites))],
            ([i, label, 1, *D.beta]
             for i, (D, label) in enumerate(zip(divisors, labels))))
        sites = spec.sites
        for index, D in enumerate(divisors[:4]):
            code, out = run(capsys, "exponents", "--csv", "--divisor",
                            str(index), path)
            assert code == 0
            assert out == csv_text(
                ["sigma_rank", "j", "rho_rank", "i",
                 "lambda_a", "lambda_b", "exponent"],
                ([sites[a].element_rank, sites[a].occurrence,
                  sites[b].element_rank, sites[b].occurrence,
                  sites[a].value, sites[b].value, value]
                 for (a, b), value in
                 exponent_table(spec, inv, D).entries.items()))

    @pytest.mark.parametrize("argv, lines, digest", [
        (["enumerate", "--csv"], 37,
         "0f33a111a7ee3dbcdb09e1282a03749f57ed0619ea34d21803b3c21a488d6578"),
        (["exponents", "--csv", "--divisor", "3"], 16,
         "8dad08c8cb52e93ce25111a33d0bf1d3678df452b2533862d1be3df19ec64ebd"),
    ], ids=["enumerate", "exponents"])
    def test_recorded_digest(self, write_doc, capsys, argv, lines, digest):
        # recorded when both writers still went through csv.writer
        code, out = run(capsys, *argv, write_doc(Z6_MIXED))
        assert (code, out.count("\n")) == (0, lines)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    # the selftest's stdout, 22 lines, pinned byte for byte
    OUTPUT_SHA256 = ("854e0f3e1d231f2d421f9be72e44465e"
                     "5cee3382fe5ebca2eb81cb44cd44b746")

    def test_selftest_passes(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        assert out.rstrip().endswith("selftest ok")

    def test_output_digest(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.OUTPUT_SHA256

    def test_listing_missing_a_divisor_fails_closure(self, capsys,
                                                     monkeypatch):
        # the first code string is replaced by a copy of the second, so
        # the count still holds and the closure check, on the decoded
        # weights, must find the gap
        listing = cli_module._orbit_listing

        def short(spec, inv, cap):
            codes, labels = listing(spec, inv, cap)
            assert all(type(b) is str for b in codes)
            return codes[1:2] + codes[1:], labels

        monkeypatch.setattr(cli_module, "_orbit_listing", short)
        with pytest.raises(ConsistencyError,
                           match="hyperelliptic-g2: closure check failed"):
            cli_module.cmd_selftest(None)
        assert capsys.readouterr().out == \
            "ok hyperelliptic-g2: genus\nok hyperelliptic-g2: count\n"

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
