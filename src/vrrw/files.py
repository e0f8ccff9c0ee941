"""How the package opens a path and how it hashes a configuration.

Every file the package reads or writes goes through open_text: UTF-8 text
with no newline translation, and deterministic gzip for a path that ends in
.gz. Every configuration hash is canonical_hash of a JSON-ready dict.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json


class _DeterministicGzipText(io.StringIO):
    """Buffers text and compresses on close with no timestamp or name in
    the header, so equal content always gives equal bytes."""

    def __init__(self, path):
        super().__init__()
        self._path = path

    def close(self):
        try:
            data = self.getvalue().encode("utf-8")
            with open(self._path, "wb") as fh:
                fh.write(gzip.compress(data, mtime=0))
        finally:
            super().close()


def open_text(path, mode: str = "r"):
    """Text file at path for reading ("r") or writing ("w"); a path ending
    in .gz is gzip, written with no timestamp so reruns give equal bytes."""
    path = str(path)
    if not path.endswith(".gz"):
        return open(path, mode, encoding="utf-8", newline="")
    if mode == "r":
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return _DeterministicGzipText(path)


def canonical_hash(payload: dict) -> str:
    """SHA-256 of payload as JSON with sorted keys and no spaces."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
