"""Run manifests: one JSON file per CLI invocation.

A manifest pins the command, its parsed options (each input file by its
path and SHA-256 digest, every other option as the ``config``), and the
paths of every output, so a rerun can be checked for reproducibility; the
CLI builds it (``cli._RunDir.finish``), and this module hashes the inputs
and writes it. The wall-time field is informational and is the one field
excluded from byte-identity comparisons.

An input is hashed from a read-only mapping of its file, by
:func:`~latentbias.data.stream_bytes`, the helper the canonical reader maps
its input with, so the hash reads the page cache and copies nothing. An
input that is not a regular file, such as a pipe given as
``--input /dev/stdin``, has been read by the time the manifest is written
and cannot be read again; its digest is recorded as ``null``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .data import stream_bytes


def sha256_file(path: str | Path) -> str | None:
    """The SHA-256 hex digest of the file at ``path``, or ``None`` when
    ``path`` is not a regular file (a pipe, say)."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh, stream_bytes(fh) as data:
        return hashlib.sha256(data).hexdigest()


def write_manifest(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
