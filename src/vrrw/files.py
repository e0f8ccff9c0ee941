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
import zlib


class _DeterministicGzipText(io.TextIOBase):
    """Gzips text into a binary file as it arrives, as zlib's gzip stream
    at level 9: no timestamp or name in the header, and the bytes of
    gzip.compress(data, mtime=0). GzipFile writes another header byte."""

    def __init__(self, fh):
        self._fh = fh
        self._zip = zlib.compressobj(9, zlib.DEFLATED, 31)

    def writable(self):
        return True

    def write(self, text):
        self._fh.write(self._zip.compress(text.encode("utf-8")))
        return len(text)

    def close(self):
        if not self.closed:
            try:
                self._fh.write(self._zip.flush())
            finally:
                self._fh.close()
                super().close()


def open_text(path, mode: str = "r"):
    """Text file at path for reading ("r") or writing ("w"); a path ending
    in .gz is gzip, written with no timestamp so reruns give equal bytes."""
    path = str(path)
    if not path.endswith(".gz"):
        return open(path, mode, encoding="utf-8", newline="")
    if mode == "r":
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return _DeterministicGzipText(open(path, "wb"))


def canonical_hash(payload: dict) -> str:
    """SHA-256 of payload as JSON with sorted keys and no spaces."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
