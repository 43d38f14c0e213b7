"""The package surface: every exported name resolves, and the README's
library tour runs and gives the values its comments state."""

from __future__ import annotations

import pkgutil
from pathlib import Path

import pytest

import abelcover

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["abelcover", *(f"abelcover.{info.name}" for info in
                          pkgutil.iter_modules(abelcover.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    # a stale __all__ entry leaves a plain import working and breaks only
    # the star import, which raises AttributeError on it
    exec(f"from {name} import *", {})


def library_tour() -> str:
    """The first Python block after the README's "Library tour" heading."""
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    start = tour.index("```python\n") + len("```python\n")
    return tour[start:tour.index("```", start)]


def test_readme_library_tour():
    block = library_tour()
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
