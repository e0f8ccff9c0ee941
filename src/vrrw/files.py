"""How the package opens a path, hashes a configuration and loads its
compiled code.

Every file the package reads or writes goes through open_text: UTF-8 text
with no newline translation, and deterministic gzip for a path that ends in
.gz. Every configuration hash is canonical_hash of a JSON-ready dict. The
walk's steps and the mean-field flow are one C source, _walk.c, which
_library builds at its first use and loads.
"""

from __future__ import annotations

import ctypes
import functools
import gzip
import hashlib
import io
import json
import os
import tempfile
import zlib
from pathlib import Path

from .errors import BuildError

#: The compiled code's source and its build: the compiler, its flags, which
#: keep products and sums rounded one by one (see vrrw.walk's docstring), and
#: libm. The library is cached under the package's __pycache__, named by a
#: hash of the source and the flags.
_SOURCE = Path(__file__).with_name("_walk.c")
_CACHE = _SOURCE.parent / "__pycache__"
_COMPILER = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-lm")

#: The statuses the library's mf_ functions return, in the order of its enum.
(
    MF_OK, MF_NONFINITE, MF_UNSETTLED, MF_CANCELLED, MF_EMPTY, MF_NEGATIVE, MF_CORE_VANISHES,
    MF_ENERGY_VANISHES, MF_ENERGY_OVERFLOWS, MF_BLEW_UP, MF_CAP,
) = range(11)


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


@functools.cache
def _library():
    """_walk.c as a library, loaded from _CACHE and built there first if
    no build of this source and flags is there yet. Importing the package
    does not call it: the first walk or flow does."""
    code = _SOURCE.read_bytes() + " ".join(_FLAGS).encode()
    key = hashlib.sha256(code).hexdigest()[:16]
    path = _CACHE / f"_walk-{key}.so"
    if not path.exists():
        _build(path)
    lib = ctypes.CDLL(str(path))
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    kernel_args = [i64, i64, ptr, i64] + [ptr] * 3 + [i64, f64] + [ptr] * 3 + [i64, ptr, i64, i64] + [ptr] * 3 + [i64]
    lib.walk_block.argtypes = lib.walk_group.argtypes = kernel_args
    lib.seed_pcg64.argtypes = [i64, i64, ptr, ptr]
    lib.power_table.argtypes = [i64, f64, ptr]
    lib.walk_block.restype = lib.walk_group.restype = lib.seed_pcg64.restype = lib.power_table.restype = None
    lib.walk_run.argtypes = [i64, i64, f64, ptr] + [i64] * 7 + [ptr] * 4
    lib.walk_run.restype = i64
    lib.mf_project.argtypes = [i64, ptr]
    lib.mf_field.argtypes = lib.mf_point.argtypes = [i64, ptr, f64, ptr]
    lib.mf_flow.argtypes = [i64, ptr, f64, i64, i64, f64, f64] + [ptr] * 4
    lib.clock_run.argtypes = [i64, ptr] + [i64] * 2 + [ptr, i64] + [ctypes.c_uint64] * 2 + [i64, ptr]
    for fn in (lib.mf_project, lib.mf_field, lib.mf_point, lib.mf_flow, lib.clock_run):
        fn.restype = i64
    return lib


def _build(lib: Path) -> None:
    """Compile _SOURCE into lib. The compiler writes a temporary file that
    then replaces lib whole, so a concurrent process never loads half of it."""
    import subprocess  # only a build needs it, and its import takes milliseconds

    try:
        lib.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
        os.close(fd)
    except OSError as exc:
        raise BuildError(f"cannot write the compiled library into {lib.parent}: {exc}") from exc
    cmd = [_COMPILER, *_FLAGS, "-o", tmp, str(_SOURCE)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode:
            raise BuildError(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, lib)
    except OSError as exc:
        raise BuildError(f"{' '.join(cmd)} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
