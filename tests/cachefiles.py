"""The cache files of dlcusp.cli, read and written without its code.

A cache file is sl2_p<p>.json.gz in the cache directory: one gzip stream
of one JSON document.  These helpers use the gzip module, with a zero mtime,
and not cli's own zlib code, so a test that plants a document by them
checks the reader against a second writer of the format.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path


def path(directory, p: int) -> Path:
    return Path(directory) / f"sl2_p{p}.json.gz"


def write(directory, p: int, doc) -> Path:
    """Plant doc (a JSON document, or a text as it is) as the cache file at p."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    target = path(directory, p)
    target.write_bytes(gzip.compress(text.encode(), mtime=0))
    return target


def read_text(directory, p: int) -> str:
    return gzip.decompress(path(directory, p).read_bytes()).decode()


def read(directory, p: int) -> dict:
    return json.loads(read_text(directory, p))
