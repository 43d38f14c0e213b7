"""The package surface: every exported name resolves, the README's
library tour runs and gives the values its comments state, and its
cover document is a valid cover."""

from __future__ import annotations

import json
import pkgutil
from pathlib import Path

import pytest

import abelcover
from abelcover.cli import main

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
