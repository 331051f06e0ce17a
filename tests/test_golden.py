"""Byte-for-byte pins of the report formats.

The files under tests/golden/ hold the output of these commands as an
earlier release printed it; a change to the code must leave every byte
unchanged (regenerate a file only on a deliberate change of format):

    dlcusp verify --range 7 M --format json --no-timestamp --no-cache   (M = 43, 101)
    dlcusp decompose P --reading both --format json --no-cache   (P = 7, 13, 31)
    dlcusp chartable 13 --format json --no-cache
    dlcusp papertable --range 7 61 --no-cache
"""

from pathlib import Path

import pytest

from dlcusp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    **{
        f"verify_7_{hi}.json": ("verify", "--range", "7", str(hi), "--format", "json", "--no-timestamp", "--no-cache")
        for hi in (43, 101)
    },
    **{
        f"decompose_p{p}.json": ("decompose", str(p), "--reading", "both", "--format", "json", "--no-cache")
        for p in (7, 13, 31)
    },
    "chartable_p13.json": ("chartable", "13", "--format", "json", "--no-cache"),
    "papertable_7_61.md": ("papertable", "--range", "7", "61", "--no-cache"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical_to_the_pinned_file(capsys, name):
    assert main(list(CASES[name])) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
