"""Interaction matrices, simplex points, faces, and the simplex projection.

Sites are labelled 0..n-1 throughout the code; file formats and the command
line use 1-based labels. An interaction matrix is symmetric, nonnegative,
strictly positive off the diagonal, and has a common row sum. The occupation
state of the mean-field dynamics is a probability vector over sites.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError

log = logging.getLogger(__name__)

#: Relative tolerance for validation of exact small-integer constructions.
VALIDATION_RTOL = 1e-12

#: Occupation cap on sites without a self-loop. The exact flow never
#: crosses it, but a large RK4 step can; checked, not enforced.
LOOPFREE_CAP = 0.75


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class InteractionMatrix:
    """Symmetric nonnegative site-interaction matrix with constant row sums."""

    size: int
    entries: np.ndarray
    row_sum: float

    def __post_init__(self):
        self.entries.setflags(write=False)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    @property
    def loop_free_sites(self) -> np.ndarray:
        """Boolean mask of sites with no self-loop (zero diagonal entry)."""
        return np.diagonal(self.entries) == 0.0

    def to_json(self) -> str:
        return json.dumps({"n": self.size, "entries": self.entries.tolist()})

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
    and row sums that disagree beyond 1e-12 relative tolerance.
    """
    arr = _as_float_array(entries, "matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {arr.shape}")
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
    sums = arr.sum(axis=1)
    ref = float(sums[0])
    scale = max(abs(ref), 1.0)
    if np.any(np.abs(sums - ref) > VALIDATION_RTOL * scale):
        raise ValidationError(f"row sums are not constant: {sums.tolist()}")
    return InteractionMatrix(size=n, entries=arr.copy(), row_sum=ref)


def complete_graph(n: int) -> InteractionMatrix:
    """All-ones off-diagonal matrix on n sites (zero diagonal, row sum n-1)."""
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
    if c < 0:
        raise ValidationError(f"self-loop weight must be >= 0, got {c}")
    diag = np.diagonal(matrix.entries)
    if not np.all(diag == diag[0]):
        raise ValidationError("diagonal override requires a constant original diagonal")
    arr = matrix.entries.copy()
    np.fill_diagonal(arr, c)
    return InteractionMatrix(
        size=matrix.size,
        entries=arr,
        row_sum=float(matrix.row_sum - diag[0] + c),
    )


@dataclass(frozen=True)
class SimplexPoint:
    """Probability vector over sites: nonnegative coordinates summing to 1."""

    coords: np.ndarray

    def __post_init__(self):
        self.coords.setflags(write=False)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.coords, dtype=dtype)

    def __len__(self):
        return len(self.coords)

    @staticmethod
    def from_array(x) -> "SimplexPoint":
        arr = _as_float_array(x, "simplex point")
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError(f"simplex point must be a vector, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValidationError(f"negative coordinate in simplex point: {arr.tolist()}")
        if abs(arr.sum() - 1.0) > VALIDATION_RTOL:
            raise ValidationError(f"coordinates sum to {arr.sum()!r}, not 1")
        return SimplexPoint(coords=arr.copy())

    @property
    def support(self) -> "FaceIndex":
        return FaceIndex(sites=tuple(int(i) for i in np.nonzero(self.coords)[0]))


@dataclass(frozen=True)
class FaceIndex:
    """Nonempty set of sites (0-based) spanning a face of the simplex."""

    sites: tuple = field(default=())

    def __post_init__(self):
        if len(self.sites) == 0:
            raise ValidationError("face must contain at least one site")
        try:
            sites = tuple(sorted(int(s) for s in self.sites))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"face sites must be integers: {self.sites}") from exc
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
    """Coerce a SimplexPoint or array-like to a finite float vector."""
    if isinstance(v, SimplexPoint):
        return v.coords
    return _as_float_array(v, "point")


def _project(arr: np.ndarray, stats=None) -> np.ndarray:
    """Euclidean projection of a 1-D float array onto the probability simplex:
    with x sorted decreasingly, find the largest m with x_(m) - (sum of top
    m - 1)/m > 0 and shift-clip by that threshold. A simplex point is returned
    itself (exact idempotence); a clipped input is counted in stats["clips"].
    """
    x = arr
    # huge inputs may need a second clip pass because the shift cancels
    # catastrophically, hence the small loop
    for _ in range(16):
        if arr.min() >= 0.0 and abs(arr.sum() - 1.0) <= VALIDATION_RTOL:
            return arr
        if not np.all(np.isfinite(arr)):
            raise NumericError("projection input contains non-finite entries")
        if stats is not None and arr is x:
            stats["clips"] += 1
        srt = np.sort(arr)[::-1]
        csum = np.cumsum(srt) - 1.0
        ok = srt - csum / np.arange(1, arr.size + 1) > 0
        m = int(np.nonzero(ok)[0][-1]) + 1
        theta = csum[m - 1] / m
        arr = np.maximum(arr - theta, 0.0)
    raise NumericError(f"simplex projection failed to settle for input {x!r}")


def project_to_simplex(x) -> SimplexPoint:
    """Validating wrapper of _project for any real vector."""
    arr = _as_float_array(x, "projection input")
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"projection input must be a vector, got shape {arr.shape}")
    return SimplexPoint(coords=_project(arr).copy())


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
