"""Each mutant of tools/mutation_check.py still finds its text in its
target: a refactor that rewrites a target shows up here, not only in the
long mutation run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutation_check", ROOT / "tools/mutation_check.py")
mutation_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutation_check)
MUTANTS = mutation_check.MUTANTS


@pytest.mark.parametrize("target, old", [m[1:3] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_text_occurs_once(target, old):
    assert (ROOT / target).read_text().count(old) == 1
