"""The package surface: every exported name resolves, the README's
library tour runs and gives the values its comments state, its Public
API list is abelcover.__all__, its cover document is a valid cover,
the import stays light, and the value types keep the equality,
hashing, immutability and reprs they had as dataclasses, now from one
base class."""

from __future__ import annotations

import copy
import enum
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import abelcover
from abelcover import (AbelianGroup, BranchPoint, CoverInvariants, CoverSpec,
                       ExponentTable, KernelSolution, PhiKey, UniPoly,
                       make_divisor, validate)
from abelcover.cli import main
from abelcover.errors import _Value
from conftest import build_cover

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["abelcover", *(f"abelcover.{info.name}" for info in
                          pkgutil.iter_modules(abelcover.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    # a stale __all__ entry leaves a plain import working and breaks only
    # the star import, which raises AttributeError on it
    exec(f"from {name} import *", {})


def readme_block(heading: str, language: str) -> str:
    """The first fenced block in language after the README's heading."""
    text = README.read_text()
    section = text[text.index(heading):]
    fence = f"```{language}\n"
    start = section.index(fence) + len(fence)
    return section[start:section.index("```", start)]


def test_readme_library_tour():
    block = readme_block("## Library tour", "python")
    namespace: dict = {}
    exec(block, namespace)
    # a bare expression line states its value as a Python literal in its
    # comment; the assignments' comments are prose, checked below
    checked = 0
    for line in block.splitlines():
        expr, sep, comment = line.partition("#")
        if sep and expr.strip() and "=" not in expr:
            assert eval(expr, namespace) == eval(comment, namespace), line
            checked += 1
    assert checked == 4
    inv, labels = namespace["inv"], namespace["labels"]
    assert (inv.n, inv.m, inv.g) == (2, 2, 2)
    assert len(namespace["divisors"]) == 20 and len(set(labels)) == 10


def test_readme_cover_document_is_a_valid_cover(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(readme_block("### Cover document", "json"))
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["g"] == 3
    assert main(["enumerate", str(path)]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert (listing["count"], listing["orbit_count"]) == (8, 1)


def test_import_loads_no_dataclasses_inspect_or_csv():
    # every CLI call pays the import: dataclasses and the inspect it pulls
    # in took about half of it.  Only modules the import adds count, so a
    # site hook that loads these first cannot fail the test
    code = ("import sys; before = set(sys.modules); "
            "import abelcover, abelcover.cli; "
            "print(sorted({'dataclasses', 'inspect', 'csv'} "
            "& (set(sys.modules) - before)))")
    src = str(Path(abelcover.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out == "[]\n"


def _cover4() -> CoverSpec:
    return build_cover([2], [([1], v) for v in range(4)])


def _cover4_divisor():
    """spec, inv and a non-special divisor of _cover4()."""
    spec = _cover4()
    return spec, validate(spec), make_divisor(spec, [0, 0, 1, 1])


# each builder gives a new, equal instance on every call, then one field
# and the repr the type printed when it was a dataclass
VALUE_TYPES = [
    (lambda: AbelianGroup((2, 4)), "factor_orders", "AbelianGroup(Z2 x Z4)"),
    (lambda: AbelianGroup((2, 4)).element([1, 3]), "residues",
     "GroupElement(group=AbelianGroup(Z2 x Z4), residues=(1, 3))"),
    (lambda: AbelianGroup((2, 4)).character([1, 3]), "residues",
     "Character(group=AbelianGroup(Z2 x Z4), residues=(1, 3))"),
    (lambda: BranchPoint(AbelianGroup((2,)).element([1]), Fraction(1, 3)),
     "value",
     "BranchPoint(element=GroupElement(group=AbelianGroup(Z2), "
     "residues=(1,)), value=Fraction(1, 3))"),
    (lambda: _cover4().sites[2], "occurrence",
     "BranchSite(element=GroupElement(group=AbelianGroup(Z2), "
     "residues=(1,)), element_rank=0, occurrence=2, value=Fraction(2, 1))"),
    (lambda: build_cover([2], [([1], 0), ([1], Fraction(1, 2))]), "group",
     "CoverSpec(group=AbelianGroup(Z2), branch_points=(BranchPoint("
     "element=GroupElement(group=AbelianGroup(Z2), residues=(1,)), "
     "value=Fraction(0, 1)), BranchPoint(element=GroupElement("
     "group=AbelianGroup(Z2), residues=(1,)), value=Fraction(1, 2))))"),
    (lambda: validate(_cover4()), "t", "CoverInvariants(n=2, m=2, g=1)"),
    (lambda: PhiKey(5, 2, 3), "s", "PhiKey(d=5, h=2, s=3)"),
    (lambda: make_divisor(_cover4(), [0, 0, 1, 1]), "beta",
     "InvariantDivisor(beta=(0, 0, 1, 1), "
     "cover_fingerprint='c35538e37d47b0ca')"),
    (lambda: ExponentTable({(0, 1): 4}, 8, 16, "f:orbit[0, 1]"), "entries",
     "ExponentTable(entries={(0, 1): 4}, detC_exponent=8, "
     "theta_exponent=16, divisor_fingerprint='f:orbit[0, 1]')"),
    (lambda: UniPoly((1, Fraction(1, 2), 0)), "coeffs",
     "UniPoly(coeffs=(Fraction(1, 1), Fraction(1, 2)))"),
    (lambda: KernelSolution((UniPoly((1,)),), 1, 2), "d",
     "KernelSolution(polys=(UniPoly(coeffs=(Fraction(1, 1),)),), d=1, e=2)"),
]
MUTABLE = (CoverInvariants, ExponentTable)


def _name(case) -> str:
    return type(case[0]()).__name__


@pytest.mark.parametrize("make, field, text", VALUE_TYPES,
                         ids=map(_name, VALUE_TYPES))
def test_value_type_semantics(make, field, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    if isinstance(a, MUTABLE):
        with pytest.raises(TypeError):
            hash(a)
        setattr(b, field, None)
        assert a != b
    else:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b  # unchanged by the refused set and delete


def test_every_value_type_is_pinned_above():
    # a new value type cannot skip test_value_type_semantics
    assert set(_Value.__subclasses__()) == {
        type(make()) for make, _, _ in VALUE_TYPES}


@pytest.mark.parametrize("cls", _Value.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_init_takes_the_fields_in_order(cls):
    # __reduce__ calls cls(*fields) and the repr names them in this order
    code = cls.__init__.__code__
    assert code.co_varnames[1:code.co_argcount] == tuple(
        name for name in cls.__slots__ if name != "__dict__")


def test_equality_is_class_exact():
    group = AbelianGroup((2, 4))
    element, character = group.element([1, 3]), group.character([1, 3])
    assert element != character and character != element
    assert element != (group, (1, 3))
    other = build_cover([2], [([1], v) for v in range(1, 5)])
    assert make_divisor(_cover4(), [0, 0, 1, 1]) != \
        make_divisor(other, [0, 0, 1, 1])


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda spec, inv, D: abelcover.validate("x"), "CoverSpec",
                 id="validate spec"),
    pytest.param(lambda spec, inv, D: abelcover.is_nonspecial(
        spec, inv, (0,) * 6), "InvariantDivisor", id="is_nonspecial D"),
    pytest.param(lambda spec, inv, D: abelcover.exponent_table(
        spec, inv, D.beta), "InvariantDivisor", id="exponent_table D"),
    pytest.param(lambda spec, inv, D: abelcover.phi_exact((3, 2, 0)),
                 "PhiKey", id="phi_exact key"),
    pytest.param(lambda spec, inv, D: abelcover.thomae_exponent(
        spec, inv, D.beta, 0, 1), "InvariantDivisor", id="thomae_exponent D"),
    pytest.param(lambda spec, inv, D: abelcover.orbit(spec, inv, D.beta),
                 "InvariantDivisor", id="orbit D"),
    pytest.param(lambda spec, inv, D: abelcover.chi_action(
        spec, inv, D.beta, spec.group.character([1])), "InvariantDivisor",
        id="chi_action D"),
    pytest.param(lambda spec, inv, D: abelcover.dual_group([4]),
                 "AbelianGroup", id="dual_group group"),
    pytest.param(lambda spec, inv, D: abelcover.solve_polexist(
        [1, 0, 1], UniPoly([1]), 1, 1), "UniPoly", id="solve_polexist f0"),
    pytest.param(lambda spec, inv, D: abelcover.solve_polexist(
        UniPoly([1, 0, 1]), [0, 1], 1, 1), "UniPoly", id="solve_polexist f1"),
    pytest.param(lambda spec, inv, D: AbelianGroup(5), "sequence",
                 id="AbelianGroup orders"),
    pytest.param(lambda spec, inv, D: spec.group.element(1), "sequence",
                 id="element residues"),
    pytest.param(lambda spec, inv, D: abelcover.GroupElement(spec.group, None),
                 "sequence", id="GroupElement residues"),
    pytest.param(lambda spec, inv, D: abelcover.Character(spec.group, None),
                 "sequence", id="Character residues"),
    pytest.param(lambda spec, inv, D: CoverSpec(spec.group, None),
                 "sequence", id="CoverSpec points"),
    pytest.param(lambda spec, inv, D: make_divisor(spec, 5), "sequence",
                 id="make_divisor weights")])
def test_whole_argument_of_the_wrong_type_refused(hyperelliptic, call,
                                                  expected):
    # each of these ended in an AttributeError or a TypeError, and a
    # tuple D given to thomae_exponent, orbit or chi_action was reported
    # as is_nonspecial's argument
    spec, inv = hyperelliptic.spec, hyperelliptic.inv
    D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
    with pytest.raises(abelcover.MalformedDataError,
                       match=f"is not an? {expected}$") as info:
        call(spec, inv, D)
    assert "is_nonspecial" not in str(info.value)


@pytest.mark.parametrize("call", [
    lambda spec, inv, D: abelcover.is_nonspecial(spec, "x", D),
    lambda spec, inv, D: abelcover.is_nonspecial("x", inv, D),
    lambda spec, inv, D: abelcover.exponent_table(None, inv, D),
    lambda spec, inv, D: abelcover.exponent_table(spec, None, D),
    lambda spec, inv, D: abelcover.enumerate_orbits(spec, "x"),
    lambda spec, inv, D: abelcover.build_pchichi(
        spec, "x", spec.group.character([1])),
    lambda spec, inv, D: abelcover.make_divisor("x", [0] * 6),
    lambda spec, inv, D: abelcover.thomae_exponent(spec, inv, D, (0, 1), 2),
    lambda spec, inv, D: abelcover.element_order(spec.group, [1]),
    lambda spec, inv, D: abelcover.element_order(
        spec.group, spec.group.character([1])),
    lambda spec, inv, D: abelcover.intersection_data(
        spec.group, spec.group.character([1]), spec.group.element([1])),
    lambda spec, inv, D: abelcover.pairing_u(
        spec.group, spec.group.element([1]), spec.group.element([1]))],
    ids=["is_nonspecial inv", "is_nonspecial spec", "exponent_table spec",
         "exponent_table inv", "enumerate_orbits inv", "build_pchichi inv",
         "make_divisor spec", "thomae_exponent pair", "element_order list",
         "element_order character", "intersection_data character",
         "pairing_u element"])
def test_wrongly_typed_cover_refused(hyperelliptic, call):
    # the first seven ended in an AttributeError on a field of the
    # argument; the eighth gives a pair (0, 1) where position a belongs;
    # the last four gave a list, a Character or a GroupElement where the
    # other kind belongs, and all but the list were accepted.  A (spec,
    # inv) pair is checked in one place, cover._require_validated, and
    # membership in one, group_core._member
    spec, inv = hyperelliptic.spec, hyperelliptic.inv
    D = make_divisor(spec, [0, 0, 0, 1, 1, 1])
    with pytest.raises(abelcover.MalformedDataError,
                       match=r"is not an? |does not belong to this group$"):
        call(spec, inv, D)


def test_readme_public_api_is_all():
    # every name in the README's Public API section, and only those, is
    # exported
    text = README.read_text()
    section = text[text.index("## Public API"):]
    section = section[:section.index("\n## ")]
    assert set(re.findall(r"`(\w+)`", section)) == set(abelcover.__all__)


class _Two(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("value", [_Two.TWO, True, 2.0],
                         ids=["IntEnum", "bool", "float"])
@pytest.mark.parametrize("make", [
    lambda x: AbelianGroup((x,)),
    lambda x: AbelianGroup((3,)).element([x]),
    lambda x: AbelianGroup((3,)).character([x]),
    lambda x: PhiKey(5, x, 0),
    lambda x: abelcover.thomae_exponent(*_cover4_divisor(), 0, x),
    lambda x: make_divisor(_cover4(), [0, 0, x, 1]),
    lambda x: BranchPoint(AbelianGroup((2,)).element([1]), x),
    lambda x: UniPoly([Fraction(1), x]),
    lambda x: UniPoly([Fraction(1)])(x),
    lambda x: UniPoly.monomial(5, x),
    lambda x: abelcover.solve_polexist(UniPoly([1, 0, 1]), UniPoly([1]),
                                       x, 1),
    lambda x: abelcover.solve_polexist(UniPoly([1, 0, 1]), UniPoly([1]),
                                       1, x),
    lambda x: abelcover.enumerate_orbits(*_cover4_divisor()[:2], cap=x),
    lambda x: abelcover.enumerate_nonspecial(*_cover4_divisor()[:2], cap=x)],
    ids=["factor order", "element residue", "character residue",
         "PhiKey field", "pair position", "divisor weight",
         "branch value", "coefficient", "argument", "monomial degree",
         "kernel d", "kernel e", "enumerate_orbits cap",
         "enumerate_nonspecial cap"])
def test_one_type_rule_at_every_typed_entry(make, value):
    # type(x) is int (or Fraction): an IntEnum member was refused as a
    # residue but kept as a divisor weight and converted as a coefficient
    with pytest.raises(abelcover.MalformedDataError,
                       match=r" is not an int( or a Fraction)?$"):
        make(value)
