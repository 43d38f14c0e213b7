"""The package surface: every exported name resolves, the README's
library tour runs and gives the values its comments state, its cover
document is a valid cover, the import stays light, and the value types
keep the equality, hashing, immutability and reprs they had as
dataclasses."""

from __future__ import annotations

import copy
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import abelcover
from abelcover import (AbelianGroup, BranchPoint, CoverInvariants, CoverSpec,
                       ExponentTable, KernelSolution, PairKey, PhiKey, UniPoly,
                       make_divisor, validate)
from abelcover.cli import main
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
    (lambda: PairKey(1, 4), "first", "PairKey(first=1, second=4)"),
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


def test_equality_is_class_exact():
    group = AbelianGroup((2, 4))
    element, character = group.element([1, 3]), group.character([1, 3])
    assert element != character and character != element
    assert element != (group, (1, 3))
    assert PairKey(0, 1) != (0, 1)
    other = build_cover([2], [([1], v) for v in range(1, 5)])
    assert make_divisor(_cover4(), [0, 0, 1, 1]) != \
        make_divisor(other, [0, 0, 1, 1])


def test_pair_keys_sort_by_first_then_second():
    keys = [PairKey(2, 3), PairKey(0, 5), PairKey(0, 1)]
    assert sorted(keys) == [PairKey(0, 1), PairKey(0, 5), PairKey(2, 3)]
    assert PairKey(0, 1) < PairKey(0, 2) <= PairKey(0, 2) < PairKey(1, 2)
    assert PairKey(1, 2) > PairKey(0, 9) >= PairKey(0, 9)
    with pytest.raises(TypeError):
        PairKey(0, 1) < (0, 2)
