"""Batch command line front end.

Verbs: validate, enumerate, exponents, dedekind, selftest.  Cover data
comes in as a single JSON document:

    {"group": [2], "branch_points": [{"element": [1], "lambda": "0"}, ...]}

lambda accepts fraction strings ("3/4"), decimal strings ("0.25", read
exactly), or JSON integers.  JSON floats are rejected to keep the
pipeline exact end to end.

Exit codes: 0 success, 1 parse error (also a malformed command line),
2 invalid input (bad cover, bad key, selector not non-special), 3 a
resource limit (the search node cap, validate's bounds on the group
order and the packed table bits, or exponent_table's MAX_TABLE_PAIRS
bound on the site pairs).  Results go to stdout; errors are reported as
a JSON object on stdout as well, so both outcomes are machine readable.
The console script exits 141 (128 + SIGPIPE, what a shell reports for a
process that signal ends) with nothing on stderr when its reader closes
stdout early, as `abelcover enumerate ... | head` does.

JSON output has a fixed layout: the bytes of json.dumps(obj, indent=2)
plus a newline, keys in the order documented per verb, one array item
per line.  The enumerate listing and the exponents table (they can be
large) are written with format strings in that layout, smaller payloads
by json.dumps itself.  The listing is written record by record from the
code strings of divisors._orbit_listing, each rendered by one
str.translate, once every check has passed, so an error still prints as
one JSON object and no record is held.  The table is written pair by
pair the same way, once exponent_table has checked every row; each
lambda is rendered once, as "%s": str(Fraction) is an optional -, ASCII
digits and at most one /, none of which JSON escapes.  CSV is written
the same way, with no csv module: a listing record "%d,%d,1%s" ends in
its code string translated through ",%d" per code, a table row is
"%d,%d,%d,%d,%s,%s,%d", and no int or str(Fraction) field needs quotes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import product
from math import prod

from .cover import CoverInvariants, CoverSpec, BranchPoint, validate
from .dedekind import PhiKey, phi_exact
from .divisors import (DEFAULT_NODE_CAP, InvariantDivisor, make_divisor,
                       _act, _decode, _orbit_listing, _weights)
from .errors import (AbelcoverError, ConsistencyError, DomainError,
                     MalformedDataError, ParseError, ResourceCapError)
from .exponents import exponent_table
from .group_core import AbelianGroup

__all__ = ["main", "console_main", "load_cover_document"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_CLOSED_PIPE = 141
# most mantissa digits plus |exponent| in a lambda string, a work bound so
# that Fraction never builds a power of ten past 10**8600; BranchPoint's
# 4300-digit bound then decides which values are accepted
LAMBDA_DIGITS = 8600
DETAIL_CHARS = 200  # a longer error detail is cut, its length given


def load_cover_document(path: str) -> CoverSpec:
    """Read and structurally check a cover document, returning a CoverSpec.

    Syntax problems carry line/column; schema problems carry the JSON
    path of the offending field.  Bytes that are not UTF-8, too many
    digits and too deep nesting are parse errors without a position.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno)
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text")
    except (ValueError, RecursionError):  # too many digits, deep nesting
        raise ParseError("invalid JSON: integer too long or nesting too deep")
    return parse_cover_object(raw)


def parse_cover_object(raw) -> CoverSpec:
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object", path="$")
    if "group" not in raw:
        raise ParseError("missing field", path="group")
    if "branch_points" not in raw:
        raise ParseError("missing field", path="branch_points")
    factors = raw["group"]
    if not _is_int_list(factors):
        raise ParseError("group must be a list of integers", path="group")
    group = AbelianGroup(tuple(factors))
    points = raw["branch_points"]
    if not isinstance(points, list):
        raise ParseError("branch_points must be a list", path="branch_points")
    branch_points, elements = [], {}  # one GroupElement per residue list
    for idx, entry in enumerate(points):
        where = f"branch_points[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError("branch point must be an object", path=where)
        if "element" not in entry:
            raise ParseError("missing field", path=f"{where}.element")
        if "lambda" not in entry:
            raise ParseError("missing field", path=f"{where}.lambda")
        res = entry["element"]
        if not _is_int_list(res):
            raise ParseError("element must be a list of integers",
                             path=f"{where}.element")
        if (key := tuple(res)) not in elements:
            elements[key] = group.element(key)
        element = elements[key]
        value = _parse_value(entry["lambda"], f"{where}.lambda")
        try:
            branch_points.append(BranchPoint(element=element, value=value))
        except MalformedDataError as exc:  # the value is too large
            raise ParseError(str(exc), path=f"{where}.lambda")
    return CoverSpec(group=group, branch_points=tuple(branch_points))


def _is_int_list(raw) -> bool:
    return isinstance(raw, list) and all(type(x) is int for x in raw)


def _parse_value(raw, where: str) -> Fraction:
    if type(raw) is int:
        return Fraction(raw)
    if isinstance(raw, float):
        raise ParseError(
            "lambda must be given as a string to stay exact", path=where)
    if isinstance(raw, str):
        # Fraction builds 10**|exponent| before any check: bound the size
        mantissa, _, exponent = raw.lower().partition("e")
        try:
            # Fraction reads "1_000" only from CPython 3.11, and any
            # Unicode digit ("١/٣", "１") on every version
            if "_" in raw or not raw.isascii():
                raise ValueError(raw)
            digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0))
            if digits <= LAMBDA_DIGITS:
                # -?digits or -?digits/digits without Fraction's regex;
                # an ASCII isdigit() is 0-9 only, and int() keeps the
                # 4300-digit limit that Fraction(raw) would apply
                num, slash, den = raw.partition("/")
                if (num.removeprefix("-").isdigit()
                        and (den.isdigit() or not slash)):
                    return Fraction(int(num), int(den or 1))
                return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"cannot parse {raw[:40]!r} ({len(raw)} "
                             f"characters) as a rational", path=where)
        raise ParseError(
            f"lambda has {digits} mantissa digits plus |exponent|, over "
            f"the limit of {LAMBDA_DIGITS}", path=where)
    raise ParseError("lambda must be a string or integer", path=where)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _array(items: list[str], indent: int) -> str:
    """json.dumps(indent=2) of a list whose items are already rendered
    one per line at indent + 2 spaces; the closing bracket is at indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def cmd_validate(args) -> int:
    spec = load_cover_document(args.path)
    inv = validate(spec)
    _emit({"n": inv.n, "m": inv.m, "g": inv.g,
           "t": [{"character": list(residues), "t": t} for residues, t in
                 zip(product(*map(range, spec.group.factor_orders)), inv.t)]})
    return EXIT_OK


def cmd_enumerate(args) -> int:
    spec = load_cover_document(args.path)
    inv = validate(spec)
    # every check has passed once the listing is back: no error can
    # follow the first byte written
    codes, labels = _orbit_listing(spec, inv, args.cap)
    weights, out = _weights(spec), sys.stdout
    if args.csv:  # the code string renders as ",w" per site
        render = [",%d" % w for w in weights]
        out.write(",".join(["index", "orbit", "p"] + [
            f"beta_{k}" for k in range(len(spec.sites))]) + "\n")
        out.writelines("%d,%d,1%s\n" % (i, k, b.translate(render))
                       for i, (k, b) in enumerate(zip(labels, codes)))
        return EXIT_OK
    # each record starts with its separator from the one before; a code
    # string renders as its weights, each after ",\n" and the indent, and
    # the first "," is cut; with no sites the beta array is []
    render = [",\n        %d" % w for w in weights]
    beta = "[%s\n      ]" if spec.sites else "[]%s"
    record = ('%s    {\n      "index": %d,\n      "orbit": %d,\n'
              '      "p": 1,\n      "beta": ' + beta + '\n    }')
    out.write(f'{{\n  "count": {len(codes)},\n'
              f'  "orbit_count": {len(codes) // inv.n},\n'
              f'  "empty": {"false" if codes else "true"},\n  "divisors": [')
    out.writelines(record % (",\n" if i else "\n", i, k,
                             b.translate(render)[1:])
                   for i, (k, b) in enumerate(zip(labels, codes)))
    out.write("\n  ]\n}\n" if codes else "]\n}\n")
    return EXIT_OK


def _select_divisor(spec: CoverSpec, inv: CoverInvariants,
                    selector: str, cap: int) -> InvariantDivisor:
    text = selector.strip()
    try:  # the comma form b,b,b is read as the JSON list [b,b,b]
        parsed = json.loads(f"[{text}]" if "," in text
                            and not text.startswith("[") else text)
    except (ValueError, RecursionError):  # also too many digits, deep nesting
        parsed = None
    if isinstance(parsed, list):
        if not _is_int_list(parsed):
            raise ParseError("divisor weights must be a list of integers",
                             path="--divisor")
        return make_divisor(spec, parsed)
    if type(parsed) is int:
        # an index past the prod o_k weight vectors is refused before any
        # search; as o_k >= 2, the first bit_length + 1 orders decide it
        if not 0 <= parsed < prod(spec.site_orders[:parsed.bit_length() + 1]):
            raise ParseError(f"divisor index {parsed} out of range [0, "
                             f"prod of the site orders)", path="--divisor")
        codes, _ = _orbit_listing(spec, inv, cap)
        if parsed >= len(codes):
            raise ParseError(
                f"divisor index {parsed} out of range; enumeration has "
                f"{len(codes)} entries", path="--divisor")
        [beta] = _decode(spec, [codes[parsed]])
        return InvariantDivisor(beta, spec.fingerprint)
    raise ParseError(f"cannot parse divisor selector {text!r}",
                     path="--divisor")


def cmd_exponents(args) -> int:
    spec = load_cover_document(args.path)
    inv = validate(spec)
    D = _select_divisor(spec, inv, args.divisor, args.cap)
    try:
        table = exponent_table(spec, inv, D)
    except DomainError:  # D fails the counting condition
        _emit({"error": {"kind": "not-nonspecial",
                         "detail": "selected divisor fails the counting "
                                   "condition"}})
        return EXIT_INVALID
    ranks = [(s.element_rank, s.occurrence) for s in spec.sites]
    lambdas = [str(s.value) for s in spec.sites]
    rows = ((*ranks[a], *ranks[b], lambdas[a], lambdas[b], value)
            for (a, b), value in table.entries.items())
    out = sys.stdout
    if args.csv:  # no field needs quoting (module docstring)
        out.write("sigma_rank,j,rho_rank,i,lambda_a,lambda_b,exponent\n")
        out.writelines("%d,%d,%d,%d,%s,%s,%d\n" % row for row in rows)
        return EXIT_OK
    # each pair starts with its separator from the one before; "%s" is
    # json.dumps here: JSON escapes no character of str(Fraction)
    pair = ('%s    {\n      "sigma_rank": %d,\n      "j": %d,\n'
            '      "rho_rank": %d,\n      "i": %d,\n'
            '      "lambda_a": "%s",\n      "lambda_b": "%s",\n'
            '      "exponent": %d\n    }')
    out.write(f'{{\n  "theta_exponent": {table.theta_exponent},\n'
              f'  "detC_exponent": {table.detC_exponent},\n'
              '  "divisor": {\n    "p": 1,\n    "beta": '
              + _array([f"      {b}" for b in D.beta], 4)
              + ',\n    "orbit_fingerprint": '
              + json.dumps(table.divisor_fingerprint) + '\n  },\n  "pairs": [')
    out.writelines(pair % (",\n" if k else "\n", *row)
                   for k, row in enumerate(rows))
    out.write("\n  ]\n}\n" if table.entries else "]\n}\n")
    return EXIT_OK


def cmd_dedekind(args) -> int:
    value = phi_exact(PhiKey.of(args.d, args.h, args.s))
    # phi has up to twice the digits of d, past the 4300 that str(int)
    # allows; Decimal prints an int of any size
    num, den = (str(Decimal(x)) for x in value.as_integer_ratio())
    sys.stdout.write(num + ("" if den == "1" else "/" + den) + "\n")
    return EXIT_OK


# name: (group, branch elements, (g, divisors, orbits)); the k-th branch
# point lies at lambda str(k)
_SELFTEST = {
    "hyperelliptic-g2": ([2], [[1]] * 6, (2, 20, 10)),
    "cyclic3-g1": ([3], [[1]] * 3, (1, 6, 2)),
    "klein-g3": ([2, 2], [[1, 0], [1, 0], [0, 1], [0, 1], [1, 1], [1, 1]],
                 (3, 8, 2)),
}


def cmd_selftest(args) -> int:
    for name, (group, elements, (g, count, orbits)) in _SELFTEST.items():
        spec = parse_cover_object({"group": group, "branch_points": [
            {"element": e, "lambda": str(k)} for k, e in enumerate(elements)]})
        inv = validate(spec)
        _check(name, "genus", inv.g == g)
        codes, labels = _orbit_listing(spec, inv, DEFAULT_NODE_CAP)
        betas = list(_decode(spec, codes))
        _check(name, "count", len(betas) == count)
        seen, orders = set(betas), spec.site_orders
        _check(name, "closure", all(_act(spec, inv, beta, row) in seen
                                    for beta in betas for row in inv.u))
        _check(name, "negation", all(
            tuple(o - 1 - b for o, b in zip(orders, beta)) in seen
            for beta in betas))
        _check(name, "orbit count", len(set(labels)) == orbits)
        tables = [exponent_table(spec, inv, InvariantDivisor(
            beta, spec.fingerprint)).entries.values() for beta in betas[:2]]
        _check(name, "evenness", all(v % 2 == 0 for e in tables for v in e))
        homogeneity = 2 * inv.m * sum(t * (t - 1) for t in inv.t)
        _check(name, "degree identity",
               all(sum(e) == homogeneity for e in tables))
    sys.stdout.write("selftest ok\n")
    return EXIT_OK


def _check(name: str, what: str, ok: bool) -> None:
    if not ok:
        raise ConsistencyError(f"selftest {name}: {what} check failed")
    sys.stdout.write(f"ok {name}: {what}\n")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error (an unknown option, a malformed value, a
    missing argument) as a ParseError, so that main reports it like any
    other parse error instead of exiting.  --help still prints and exits."""

    def error(self, message: str):
        raise ParseError(message)


def _node_cap(text: str) -> int:
    """The --cap value, a positive integer.  argparse turns only
    ValueError, TypeError and ArgumentTypeError from a type function into
    a usage error, so this ParseError keeps its path."""
    try:
        cap = int(text)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ParseError(f"cap must be a positive integer, got {text!r}",
                         path="--cap")
    return cap


@cache  # one parser per process, built by the first main(), not at import
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="abelcover",
        description="Exact non-special divisor enumeration, generalized "
                    "Dedekind sums, and Thomae exponent tables for abelian "
                    "covers of the sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format_flags(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", default=False,
                         help="JSON output (the default)")
        fmt.add_argument("--csv", action="store_true", default=False,
                         help="CSV output")

    def add_search_flags(p):
        p.add_argument("--cap", type=_node_cap, default=DEFAULT_NODE_CAP,
                       help="node cap for the divisor search, a positive "
                            "integer")

    p = sub.add_parser("validate", help="check a cover document")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("enumerate", help="list all non-special divisors")
    p.add_argument("path")
    add_format_flags(p)
    add_search_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("exponents", help="print the exponent table of "
                                         "one divisor")
    p.add_argument("path")
    p.add_argument("--divisor", required=True,
                   help="enumeration index, or an explicit weight vector "
                        "like '[2,1,0]' or '2,1,0'")
    add_format_flags(p)
    add_search_flags(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("dedekind", help="print one generalized Dedekind sum")
    p.add_argument("d", type=int)
    p.add_argument("h", type=int)
    p.add_argument("s", type=int)
    p.set_defaults(func=cmd_dedekind)

    p = sub.add_parser("selftest", help="run the bundled worked examples")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # argparse stores [] for "--opt=--"; no option here takes a list
        if any(isinstance(v, list) for v in vars(args).values()):
            raise ParseError("an option is missing its value")
        return args.func(args)
    except ParseError as exc:
        code, payload = EXIT_PARSE, {"kind": "parse", "detail": str(exc)}
        if exc.line is not None:
            payload["line"] = exc.line
            payload["column"] = exc.column
        if exc.path is not None:
            payload["path"] = exc.path
    except ResourceCapError as exc:
        code, payload = EXIT_RESOURCE, {"kind": "resource-cap",
                                        "detail": str(exc), "cap": exc.cap}
    except AbelcoverError as exc:
        kind = getattr(exc, "reason", exc.__class__.__name__)
        code, payload = EXIT_INVALID, {"kind": kind, "detail": str(exc)}
    detail = payload["detail"]
    if len(detail) > DETAIL_CHARS:
        payload["detail"] = (f"{detail[:DETAIL_CHARS]}... "
                             f"({len(detail)} characters)")
    _emit({"error": payload})
    return code


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull, so
        # that the flush at exit does not raise the same error again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
