"""Byte-for-byte pins of the report formats.

The files under tests/golden/ hold the output of these commands as an
earlier release printed it; a change to the code must leave every byte
unchanged (regenerate a file only on a deliberate change of format):

    dlcusp verify --range 7 43 --format json --no-timestamp --no-cache
    dlcusp decompose P --reading both --format json --no-cache   (P = 7, 13, 31)
"""

from pathlib import Path

import pytest

from dlcusp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "verify_7_43.json": ("verify", "--range", "7", "43", "--format", "json", "--no-timestamp", "--no-cache"),
    **{
        f"decompose_p{p}.json": ("decompose", str(p), "--reading", "both", "--format", "json", "--no-cache")
        for p in (7, 13, 31)
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical_to_the_pinned_file(capsys, name):
    assert main(list(CASES[name])) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
