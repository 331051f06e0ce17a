from pathlib import Path

import pytest

from mutations import MUTATIONS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("file, snippet, replacement, tests", MUTATIONS, ids=[f"mutation{i}" for i in range(len(MUTATIONS))])
def test_each_mutation_snippet_occurs_once(file, snippet, replacement, tests):
    """Every mutation still applies: its snippet occurs exactly once in its
    source file.  Whether its tests turn red is for tests/mutations.py."""
    assert file.startswith("src/") and (ROOT / file).read_text().count(snippet) == 1
