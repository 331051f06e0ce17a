import ast
from pathlib import Path

import pytest

from mutations import MUTATIONS

ROOT = Path(__file__).resolve().parent.parent

IDS = [f"mutation{i}" for i in range(len(MUTATIONS))]


@pytest.mark.parametrize("file, snippet, replacement, tests", MUTATIONS, ids=IDS)
def test_each_mutation_snippet_occurs_once(file, snippet, replacement, tests):
    """Every mutation still applies: its snippet occurs exactly once in its
    source file.  Whether its tests turn red is for tests/mutations.py."""
    assert file.startswith("src/") and (ROOT / file).read_text().count(snippet) == 1


@pytest.mark.parametrize("file, snippet, replacement, tests", MUTATIONS, ids=IDS)
def test_each_mutation_test_is_a_def_in_its_file(file, snippet, replacement, tests):
    """Every test a mutation names is a module-level def of that name in its
    file, parameters aside: tests/mutations.py counts a test it cannot find
    as not red, so a renamed test would let its mutation survive."""
    for test in tests:
        path, name = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        defs = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name.split("[")[0] in defs, test
