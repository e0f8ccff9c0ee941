"""Interaction matrices, simplex points, faces, and the simplex projection.

Sites are labelled 0..n-1 throughout the code; file formats and the command
line use 1-based labels. An interaction matrix is symmetric, nonnegative,
strictly positive off the diagonal, and has a common row sum. The occupation
state of the mean-field dynamics is a probability vector over sites: a point
of the simplex is a plain read-only float array, and simplex_points is the one
check that makes one.
"""

from __future__ import annotations

import json
import logging
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from sys import float_info

import numpy as np

from . import files
from .errors import NumericError, ValidationError

log = logging.getLogger(__name__)

#: Relative tolerance for validation of exact small-integer constructions.
VALIDATION_RTOL = 1e-12

#: Occupation cap on sites without a self-loop. The exact flow never
#: crosses it, but a large RK4 step can; checked, not enforced.
LOOPFREE_CAP = 0.75


def _integer(x, what: str) -> int:
    """x as a Python int; numpy integers pass, bools, floats and strings
    do not."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {x!r}")


def _number(x, what: str) -> float:
    """x as a float; ints, floats and numpy numbers pass, bools, strings
    and integers past the double range do not."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValidationError(f"{what} must be a number in the double range") from None


def _exponent(alpha) -> float:
    """alpha as a float; a reinforcement exponent must be finite and > 1."""
    alpha = _number(alpha, "reinforcement exponent")
    if not 1.0 < alpha <= float_info.max:
        raise ValidationError(f"reinforcement exponent must be finite and > 1, got {alpha}")
    return alpha


def _nonnegative(x, what: str) -> float:
    """x as a float that is finite and >= 0, else ValidationError."""
    x = _number(x, what)
    if not 0.0 <= x <= float_info.max:
        raise ValidationError(f"{what} must be finite and >= 0, got {x}")
    return x


def _as_float_array(x, name: str) -> np.ndarray:
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an array of numbers") from None
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def _square_array(x, name: str) -> np.ndarray:
    """x as a finite square float array (_as_float_array), else ValidationError."""
    arr = _as_float_array(x, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class InteractionMatrix:
    """Symmetric nonnegative site-interaction matrix with constant row sums."""

    size: int
    entries: np.ndarray
    row_sum: float

    def __post_init__(self):  # entries as the compiled calls read them: C-contiguous doubles
        object.__setattr__(self, "entries", np.ascontiguousarray(self.entries, dtype=np.float64))
        self.entries.setflags(write=False)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    @cached_property
    def address(self) -> int:
        """The address of the entries, taken once for every compiled call."""
        return files.address(self.entries)

    def __getstate__(self):  # a copy or a pickle takes the address afresh
        return {k: v for k, v in self.__dict__.items() if k != "address"}

    @property
    def loop_free_sites(self) -> np.ndarray:
        """Boolean mask of sites with no self-loop (zero diagonal entry)."""
        return np.diagonal(self.entries) == 0.0

    @staticmethod
    def from_json(text: str) -> "InteractionMatrix":
        try:
            obj = json.loads(text)
            raw = obj["entries"]
            n = obj["n"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(f"malformed interaction-matrix JSON: {exc}") from exc
        mat = validate(raw)
        if mat.size != n:
            raise ValidationError(f"declared size {n} but entries are {mat.size}x{mat.size}")
        return mat


def validate(entries) -> InteractionMatrix:
    """Check a raw square array and wrap it as an InteractionMatrix.

    Rejects asymmetry, nonpositive off-diagonal entries, negative entries,
    and row sums that disagree beyond 1e-12 relative tolerance; off-diagonal
    entries below the normal double range and row sums that overflow raise
    NumericError.
    """
    arr = _square_array(entries, "matrix")
    n = arr.shape[0]
    if n < 2:
        raise ValidationError(f"matrix size must be >= 2, got {n}")
    if not np.array_equal(arr, arr.T):
        raise ValidationError("matrix is not symmetric")
    if np.any(arr < 0):
        raise ValidationError("matrix has negative entries")
    off = arr[~np.eye(n, dtype=bool)]
    if np.any(off <= 0):
        raise ValidationError("all off-diagonal entries must be positive")
    if off.min() < float_info.min:
        raise NumericError("off-diagonal entries below the normal double range")
    with np.errstate(over="ignore"):
        sums = arr.sum(axis=1)
    if sums.max() > float_info.max:
        raise NumericError("row sums overflow the double range")
    ref = float(sums[0])
    scale = max(abs(ref), 1.0)
    if np.any(np.abs(sums - ref) > VALIDATION_RTOL * scale):
        raise ValidationError(f"row sums are not constant: {sums.tolist()}")
    return InteractionMatrix(size=n, entries=arr.copy(), row_sum=ref)


def complete_graph(n: int) -> InteractionMatrix:
    """All-ones off-diagonal matrix on n sites (zero diagonal, row sum n-1)."""
    n = _integer(n, "site count")
    if n < 2:
        raise ValidationError(f"complete graph needs at least 2 sites, got {n}")
    arr = np.ones((n, n)) - np.eye(n)
    return InteractionMatrix(size=n, entries=arr, row_sum=float(n - 1))


def with_diagonal(matrix: InteractionMatrix, c: float) -> InteractionMatrix:
    """Copy of a matrix with every diagonal entry replaced by c >= 0.

    Used to fold a self-loop weight into the complete graph: the walk's
    self-jump weight c sits on the diagonal while analytic operations use
    the matrix unchanged. Row sums stay constant because the original
    diagonal is constant for the supported (complete-graph) family.
    """
    c = _nonnegative(c, "self-loop weight")
    diag = np.diagonal(matrix.entries)
    if not np.all(diag == diag[0]):
        raise ValidationError("diagonal override requires a constant original diagonal")
    arr = matrix.entries.copy()
    np.fill_diagonal(arr, c)
    return InteractionMatrix(size=matrix.size, entries=arr, row_sum=float(matrix.row_sum - diag[0] + c))


def simplex_points(x) -> np.ndarray:
    """A point of the simplex (a vector) or one point per row (a matrix),
    as a read-only float copy. A non-finite value raises NumericError; a
    bad shape, a negative coordinate, or a sum along the last axis further
    than VALIDATION_RTOL from 1 raises ValidationError."""
    arr = _as_float_array(x, "simplex point")
    if arr.ndim not in (1, 2) or arr.shape[-1] < 1:
        raise ValidationError(f"simplex points must be a vector or matrix rows, got shape {arr.shape}")
    vector = arr.ndim == 1  # checked on Python floats: a numpy reduction takes a microsecond
    if min(arr.tolist()) < 0 if vector else np.any(arr < 0):
        raise ValidationError("negative coordinate in a simplex point")
    sums = arr.sum(axis=-1)
    off = abs(sums - 1.0) > VALIDATION_RTOL  # one bool, or one per row
    if off if vector else off.any():
        raise ValidationError(f"coordinates sum to {float(sums if vector else sums[off][0])!r}, not 1")
    arr = arr.copy()
    arr.setflags(False)  # write=False, as TrajectoryRecord sets it
    return arr


@dataclass(frozen=True)
class FaceIndex:
    """Nonempty set of sites (0-based) spanning a face of the simplex."""

    sites: tuple = field(default=())

    def __post_init__(self):
        try:
            sites = tuple(sorted(_integer(s, "face site") for s in self.sites))
        except TypeError:
            raise ValidationError(f"face sites must be a collection of sites, got {self.sites!r}") from None
        if not sites:
            raise ValidationError("face must contain at least one site")
        if len(set(sites)) != len(sites):
            raise ValidationError(f"face has repeated sites: {sites}")
        if sites[0] < 0:
            raise ValidationError(f"face sites must be nonnegative: {sites}")
        object.__setattr__(self, "sites", sites)

    def __len__(self):
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def labels(self) -> tuple:
        """1-based site labels for external output."""
        return tuple(s + 1 for s in self.sites)


def coords_of(v) -> np.ndarray:
    """Coerce an array-like to a finite float array."""
    return _as_float_array(v, "point")


def _projection_error(status: int, x) -> NumericError:
    """The error for a failed status of the compiled projection of x."""
    if status == files.MF_NONFINITE:
        return NumericError("projection input contains non-finite entries")
    if status == files.MF_UNSETTLED:
        return NumericError(f"simplex projection failed to settle for input {x!r}")
    return NumericError(f"simplex projection cancels to no threshold for input {x!r}")


def project_to_simplex(x) -> np.ndarray:
    """Euclidean projection of any real vector onto the probability simplex,
    as a read-only copy, by mf_project in _walk.c: with x sorted decreasingly,
    find the largest m with x_(m) - (sum of top m - 1)/m > 0 and shift-clip by
    that threshold, in up to 16 passes, as huge inputs may need a second one.
    In exact arithmetic m = 1 always passes; when the shift cancels so far
    that none does, as for [1e300, -1e300, 0], NumericError is raised, as for
    a non-finite input or 16 passes that do not settle."""
    arr = _as_float_array(x, "projection input")
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"projection input must be a vector, got shape {arr.shape}")
    n = arr.size
    io = np.empty(2 * n)
    io[:n] = arr
    status = files._library().mf_project(n, files.address(io))
    if status:
        raise _projection_error(status, arr)
    return simplex_points(io[:n])


def check_loopfree_cap(v, matrix: InteractionMatrix) -> bool:
    """Diagnose whether a loop-free site carries more than 3/4 of the mass.

    For a hollow symmetric matrix pi_i <= 1/2, so the exact flow pulls a
    loop-free site above 1/2 back down and never crosses the cap from
    below; an integrator step that does has overshot. Analytic probe points
    may exceed the cap legitimately, hence the check only logs; the caller
    decides what a crossing means. Returns True when the cap holds.
    """
    arr = coords_of(v)
    bad = matrix.loop_free_sites & (arr > LOOPFREE_CAP)
    if not np.any(bad):
        return True
    sites = np.nonzero(bad)[0].tolist()
    log.warning("loop-free occupation cap exceeded at sites %s: %s", sites, arr.tolist())
    return False
