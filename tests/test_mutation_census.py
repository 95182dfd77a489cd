"""A smoke test of ``mutation_census.py``: it mutates every module of
``src/sicbell``, and what it writes compiles.  The census itself runs
the tests once per mutant, so it stays out of tier-1."""

import ast

import pytest

from mutation_census import ALLOWED, MODULES, SRC, mutant_source, mutants, source


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_the_round_trip_compiles(path):
    # a mutant is written through ast.unparse, so the unmutated text must
    # come back as a module that compiles
    text = path.read_text(encoding="utf-8")
    compile(ast.unparse(ast.parse(text)), str(path), "exec")


@pytest.mark.parametrize("module", MODULES)
def test_every_module_has_mutants(module):
    found = mutants(module)
    assert found
    text = mutant_source(module, 0)
    compile(text, module, "exec")
    assert text != ast.unparse(ast.parse(source(module)))


def test_each_allowed_survivor_names_a_mutant():
    for key, reason in ALLOWED.items():
        module, line, mutation = key.split(":", 2)
        assert (int(line), mutation) in mutants(module), key
        assert reason
