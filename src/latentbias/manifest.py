"""Run manifests: one JSON file per CLI invocation.

A manifest pins the command, the configuration snapshot, SHA-256 digests
of every input file, and the paths of every output, so a rerun can be
checked for reproducibility. The wall-time field is informational and is
the one field excluded from byte-identity comparisons.

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


def build_manifest(
    command: str,
    config: dict,
    inputs: dict[str, str | Path],
    outputs: dict[str, str | Path],
    wall_time_s: float,
    extra: dict | None = None,
) -> dict:
    from . import __version__

    doc = {
        "command": command,
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)} for name, p in inputs.items()},
        "outputs": {name: str(p) for name, p in outputs.items()},
        "wall_time_s": round(wall_time_s, 6),
        "library_version": __version__,
    }
    if extra:
        doc.update(extra)
    return doc


def write_manifest(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
