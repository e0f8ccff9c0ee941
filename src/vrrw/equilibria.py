"""Equilibrium structure of the occupation flow on complete graphs.

Equilibria supported on a face are either the face center or points whose
coordinates take exactly two values: k sites at a value u and the rest at
t*u. The admissible ratios t are the positive roots of a one-variable
polynomial-like function, found here by an exhaustive sign scan plus
bisection. Stability comes from closed-form tangent spectra (centers and
two-level points) or from the numeric Jacobian restricted to the support
face; directions leaving the support always carry eigenvalue -1. The scan
and the spectra take powers only of values at most 1, so they hold for
every alpha > 1 until a pair energy underflows, which raises NumericError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from sys import float_info
from typing import Optional

import numpy as np

from .dynamics import ModelParameters, _jacobian_array, tangent_eigenvalues, vector_field
from .errors import (
    ConvergenceError,
    DegenerateSupportError,
    DomainError,
    NumericError,
    ValidationError,
)
from .graph import FaceIndex, _integer, coords_of, simplex_points

#: Eigenvalue margin separating genuine criticality from float noise.
STABILITY_MARGIN = 1e-8

#: Residual bound every reported equilibrium must satisfy.
RESIDUAL_TOL = 1e-10

_SCAN_POINTS = 100_000
_SCAN_LO, _SCAN_HI = 1e-6, 1e6
_BISECT_CAP = 200
_UNIT_ROOT_TOL = 1e-9

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

FACE_CENTER = "face_center"
TWO_LEVEL = "two_level"


@dataclass(frozen=True)
class TwoLevelData:
    """Shape of a two-valued equilibrium: k sites at first_value, the
    remaining support sites at second_value = t * first_value."""

    k: int
    t: float
    first_value: float
    second_value: float


@dataclass(frozen=True)
class Equilibrium:
    point: np.ndarray
    support: FaceIndex
    kind: str
    tangent_eigenvalues: tuple
    verdict: str
    two_level_data: Optional[TwoLevelData] = None


@dataclass(frozen=True)
class ThresholdRow:
    k: int
    alpha_crit: float
    loop_c: float


@dataclass(frozen=True)
class ThresholdTable:
    """Critical reinforcement exponents per localization-set size."""

    rows: tuple

    def __iter__(self):
        return iter(self.rows)


def _verdict(eigenvalues) -> str:
    top = max(eigenvalues)
    if top < -STABILITY_MARGIN:
        return STABLE
    if top > STABILITY_MARGIN:
        return UNSTABLE
    return MARGINAL


def face_center(face: FaceIndex, n: int) -> np.ndarray:
    """Uniform point on the given face of the size-n simplex; a FaceIndex
    is never empty."""
    sites = face.sites
    if sites[-1] >= n:
        raise ValidationError(f"face {sites} does not fit in a {n}-site model")
    v = np.zeros(n)
    v[list(sites)] = 1.0 / len(sites)
    return simplex_points(v)


def center_eigenvalue(k: int, alpha: float, loop_c: float = 0.0) -> float:
    """Tangent eigenvalue at the center of a size-k face, where every
    within-face direction is an eigendirection with the common value

        -1 + alpha (k - 2 + 2c) / (k - 1 + c).
    """
    k = _integer(k, "face size")
    if k < 2:
        raise DomainError(f"face center spectrum needs size >= 2, got {k}")
    if alpha <= 1:
        raise ValidationError(f"reinforcement exponent must be > 1, got {alpha}")
    return -1.0 + alpha * (k - 2 + 2.0 * loop_c) / (k - 1 + loop_c)


def critical_alpha(k: int) -> float:
    """Exponent above which the center of a size-k face turns unstable:
    (k-1)/(k-2). Finite only for k >= 3."""
    k = _integer(k, "face size")
    if k < 3:
        raise DomainError(f"no finite critical exponent for face size {k}")
    return (k - 1) / (k - 2)


def critical_alpha_loop(k: int, c: float) -> float:
    """Critical exponent for the self-loop model: [k-(1-c)]/[k-2(1-c)].

    Reduces to critical_alpha(k) at c=0; diverges as k approaches 2(1-c).
    """
    k = _integer(k, "face size")
    if k < 2:
        raise DomainError(f"loop-model threshold needs face size >= 2, got {k}")
    if not 0.0 <= c < 1.0:
        raise DomainError(f"self-loop weight must lie in [0, 1), got {c}")
    den = k - 2.0 * (1.0 - c)
    if den <= 0.0:
        raise DomainError(f"threshold pole: face size equals 2(1-c) = {2.0 * (1.0 - c)}")
    return (k - (1.0 - c)) / den


def threshold_table(c: float, kmax: int) -> ThresholdTable:
    """Critical exponents for face sizes 2..kmax at fixed self-loop weight.

    The k=2 row exists only for c > 0; without self-loops 2-site centers
    are stable at every exponent.
    """
    kmax = _integer(kmax, "largest face size")
    if kmax < 2:
        raise DomainError(f"table needs kmax >= 2, got {kmax}")
    first = 3 if c == 0.0 else 2
    rows = [ThresholdRow(k=k, alpha_crit=critical_alpha_loop(k, c), loop_c=c) for k in range(first, kmax + 1)]
    return ThresholdTable(rows=tuple(rows))


def level_ratio_polynomial(t: float, n: int, k: int, alpha: float) -> float:
    """Value whose positive roots t are the admissible second-to-first
    value ratios of two-level equilibria with block sizes (k, n-k):

        -(n-k-1) t^(2a-1) + (n-k) t^a - k t^(a-1) + (k-1).

    Vanishes at t=1 (the face center) for every (n, k, alpha). A power
    past the double range raises NumericError.
    """
    if t <= 0:
        raise DomainError(f"ratio must be positive, got {t}")
    n, k = _integer(n, "site count"), _integer(k, "block size")
    if not 1 <= k <= n - 1:
        raise ValidationError(f"block size k={k} out of range for n={n}")
    t = float(t)
    a = alpha
    try:
        return -(n - k - 1) * t ** (2 * a - 1) + (n - k) * t**a - k * t ** (a - 1) + (k - 1)
    except OverflowError as exc:
        raise NumericError(f"ratio condition overflows at t={t!r}, alpha={alpha}") from exc


@lru_cache(maxsize=None)
def _scan_grid():
    """The scan's exponents y and its points 10^y; a point passed on is 10.0 ** y[i], libm's."""
    y = np.linspace(np.log10(_SCAN_LO), np.log10(_SCAN_HI), _SCAN_POINTS)
    g = 10.0**y  # np.power, whose last bits vary with numpy's SIMD kernels: signs only
    for a in (y, g):
        a.setflags(write=False)
    return y, g


def _bisect_root(n: int, k: int, alpha: float, lo: float, hi: float) -> float:
    flo = level_ratio_polynomial(lo, n, k, alpha)
    for step in range(_BISECT_CAP + 1):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or hi - lo < 1e-14 * max(1.0, hi):
            return mid
        fmid = level_ratio_polynomial(mid, n, k, alpha)
        if fmid == 0.0:
            return mid
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    raise ConvergenceError(
        f"bisection for ratio roots (n={n}, k={k}, alpha={alpha}) "
        f"failed to converge in {_BISECT_CAP} steps"
    )


def _reduced_condition(n: int, k: int, alpha: float, t: np.ndarray) -> np.ndarray:
    """The ratio condition on (0, 1] with t^(a-1) factored out of its
    t-terms, (k-1) + t^(a-1) [(n-k) t - k - (n-k-1) t^a]; for k = 1 the
    bracket alone, which has its sign and cannot underflow."""
    bracket = (n - k) * t - k - (n - k - 1) * t**alpha  # np.power: signs only
    return bracket if k == 1 else (k - 1) + t ** (alpha - 1) * bracket


@lru_cache(maxsize=None)
def _ratio_roots(n: int, k: int, alpha: float) -> tuple:
    """All roots t != 1 of the two-level ratio condition on (0, inf),
    by dense log-grid sign scan plus bisection. The known root t=1 is
    deflated by discarding anything within 1e-9 of it. Above 1 the scan
    reads phi(t) / t^(2a-1) = -phi_(n, n-k)(1/t), so no power exceeds 1."""
    exponents, grid = _scan_grid()
    below = grid <= 1.0
    vals = np.concatenate(
        [_reduced_condition(n, k, alpha, grid[below]),
         -_reduced_condition(n, n - k, alpha, 1.0 / grid[~below])]
    )
    roots = [10.0**y for y in exponents[vals == 0.0].tolist()]
    sign = np.sign(vals)
    flips = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
    for lo, hi in zip(exponents[flips].tolist(), exponents[flips + 1].tolist()):
        roots.append(_bisect_root(n, k, alpha, 10.0**lo, 10.0**hi))
    out = sorted(r for r in roots if abs(r - 1.0) > _UNIT_ROOT_TOL)
    dedup = []
    for r in out:
        if not dedup or abs(r - dedup[-1]) > 1e-12 * max(1.0, r):
            dedup.append(r)
    return tuple(dedup)


def _two_level_tangent_spectrum(n: int, k: int, alpha: float, t: float) -> list:
    """Closed-form tangent spectrum at a two-level point of the hollow
    complete graph. With the block values u1, u2 = t u1 over their maximum
    M as y1, y2, r = y^a, q = y^(a-1), and the pair energy
    e = k(k-1) r1^2 + 2k(n-k) r1 r2 + (n-k)(n-k-1) r2^2 = H / M^(2a), which
    cannot cancel: within-block eigenvalues (a-1) - a r_m q_m / (M e)
    (multiplicities k-1 and n-k-1), and the cross-block -t u1^(2a-1) phi'(t) / H
    = [(2a-1)(n-k-1) r2 q2 - a(n-k) r2 q1 + (a-1) k r1 q2] / (M e)."""
    u1 = 1.0 / (k + (n - k) * t)
    m = max(u1, t * u1)
    y1, y2 = u1 / m, t * u1 / m
    r1, r2, q1, q2 = y1**alpha, y2**alpha, y1 ** (alpha - 1), y2 ** (alpha - 1)
    e = k * (k - 1) * r1 * r1 + 2 * k * (n - k) * r1 * r2 + (n - k) * (n - k - 1) * r2 * r2
    if not e >= float_info.min:
        raise NumericError(f"two-level pair energy underflows: {n} sites, k={k}, alpha={alpha}")
    lam1 = (alpha - 1.0) - alpha * r1 * q1 / (m * e)
    lam2 = (alpha - 1.0) - alpha * r2 * q2 / (m * e)
    mu = (2 * alpha - 1) * (n - k - 1) * r2 * q2 - alpha * (n - k) * r2 * q1
    mu += (alpha - 1) * k * r1 * q2
    return [lam1] * (k - 1) + [lam2] * (n - k - 1) + [mu / (m * e)]


def _equilibrium_fields(kind, face_vals, off_face, data=None) -> dict:
    """Equilibrium fields past point and support: the face spectrum plus a
    -1 for each direction leaving the support, sorted, and its verdict."""
    vals = tuple(sorted(list(face_vals) + [-1.0] * off_face, reverse=True))
    return dict(kind=kind, tangent_eigenvalues=vals, verdict=_verdict(vals), two_level_data=data)


def solve_two_level(n: int, k: int, alpha: float) -> list:
    """All two-level equilibria of the n-site hollow complete graph with
    the first k coordinates at the block value 1/(k+(n-k)t) and the rest
    at t times that, one per root t != 1 of the ratio condition.

    At most two equilibria exist for any (n, k, alpha); the returned
    points are interior and carry their closed-form tangent spectra.
    """
    n, k = _integer(n, "site count"), _integer(k, "block size")
    if n < 2:
        raise ValidationError(f"need at least 2 sites, got {n}")
    if not 1 <= k <= n / 2:
        raise ValidationError(f"block size must satisfy 1 <= k <= n/2, got k={k}, n={n}")
    if alpha <= 1:
        raise ValidationError(f"reinforcement exponent must be > 1, got {alpha}")
    out = []
    for t in _ratio_roots(n, k, float(alpha)):
        u1 = 1.0 / (k + (n - k) * t)
        u2 = t * u1
        coords = np.concatenate([np.full(k, u1), np.full(n - k, u2)])
        coords /= coords.sum()
        point = simplex_points(coords)
        data = TwoLevelData(k=k, t=t, first_value=u1, second_value=u2)
        spectrum = _two_level_tangent_spectrum(n, k, alpha, t)
        fields = _equilibrium_fields(TWO_LEVEL, spectrum, 0, data)
        out.append(Equilibrium(point=point, support=FaceIndex(sites=tuple(range(n))), **fields))
    return out


def enumerate_all(n: int, alpha: float) -> list:
    """Every equilibrium of the n-site hollow complete graph: for each
    face of size >= 2, its center plus all two-level points in the face
    interior, each placement of the value blocks listed separately.

    Single-site faces carry no equilibria here (no self-loops means no
    interaction energy on a single site). Ordering is deterministic:
    faces by (size, sites), center first, then block size, ratio, and
    block placement.
    """
    n = _integer(n, "site count")
    if not 2 <= n <= 12:
        raise DomainError(f"enumeration budget covers 2 <= n <= 12, got {n}")
    if alpha <= 1:
        raise ValidationError(f"reinforcement exponent must be > 1, got {alpha}")
    alpha = float(alpha)
    out = []
    for m in range(2, n + 1):
        faces = np.array(list(itertools.combinations(range(n), m)))
        face_at = np.arange(len(faces))[:, None, None]
        # One group per face size and per (k, t): the points of every face
        # in one array, and the fields they share, since the roots and
        # spectra depend only on the face size.
        centers = np.zeros((len(faces), 1, n))
        centers[face_at, 0, faces[:, None, :]] = 1.0 / m
        center_vals = [center_eigenvalue(m, alpha)] * (m - 1)
        groups = [(centers, _equilibrium_fields(FACE_CENTER, center_vals, n - m))]
        for k in range(1, m // 2 + 1):
            roots = _ratio_roots(m, k, alpha)
            if 2 * k == m:
                # Complementary placements realize the mirrored ratio 1/t;
                # keeping t < 1 lists each point exactly once.
                roots = tuple(t for t in roots if t < 1.0)
            blocks = np.array(list(itertools.combinations(range(m), k)))
            block_at = np.arange(len(blocks))[None, :, None]
            for t in roots:
                u1 = 1.0 / (k + (m - k) * t)
                u2 = t * u1
                coords = np.zeros((len(faces), len(blocks), n))
                coords[face_at, block_at, faces[:, None, :]] = u2
                coords[face_at, block_at, faces[:, blocks]] = u1
                coords /= coords.sum(axis=2, keepdims=True)
                data = TwoLevelData(k=k, t=t, first_value=u1, second_value=u2)
                spectrum = _two_level_tangent_spectrum(m, k, alpha, t)
                groups.append((coords, _equilibrium_fields(TWO_LEVEL, spectrum, n - m, data)))
        groups = [(simplex_points(c.reshape(-1, n)), c.shape[1], fields) for c, fields in groups]
        for i, face in enumerate(faces.tolist()):
            support = FaceIndex(sites=tuple(face))
            for points, per_face, fields in groups:
                out.extend(
                    Equilibrium(point=point, support=support, **fields)
                    for point in points[i * per_face : (i + 1) * per_face]
                )
    return out


def classify(p: ModelParameters, e: Equilibrium) -> Equilibrium:
    """Recompute the tangent spectrum of an equilibrium from the numeric
    Jacobian of the support-face restriction and fill the verdict.

    Directions leaving the support contribute exact -1 eigenvalues; the
    face-restricted point has full support, so the Jacobian is regular
    there for every exponent > 1. It needs only the face's entries of the
    matrix, which may have unequal row sums. A support other than the
    point's raises ValidationError.
    """
    residual = float(np.abs(vector_field(p, e.point)).max())
    if residual >= RESIDUAL_TOL:
        raise ValidationError(f"point is not an equilibrium: field residual {residual:.3e}")
    n = p.size
    sites = e.support.sites
    m = len(sites)
    x = coords_of(e.point)
    if tuple(np.flatnonzero(x)) != sites:
        raise ValidationError(f"support {sites} is not the support of the point")
    if m == 1:
        if p.loop_c == 0.0:
            raise DegenerateSupportError(
                "single-site support carries no interaction energy without self-loops"
            )
        vals = (-1.0,) * (n - 1)
        return replace(e, tangent_eigenvalues=vals, verdict=_verdict(vals))
    sub_v = x[list(sites)]
    a = p.effective_matrix.entries[np.ix_(sites, sites)]
    face_vals = tangent_eigenvalues(_jacobian_array(a, p.alpha, sub_v), weights=sub_v)
    return replace(e, **_equilibrium_fields(e.kind, face_vals, n - m, e.two_level_data))


def summarize(equilibria) -> list:
    """Collapse an equilibria list into permutation classes: one row per
    (support size, kind, block size, rounded ratio) with a count."""
    groups = {}
    for e in equilibria:
        d = e.two_level_data
        key = (len(e.support.sites), e.kind, d.k if d else 0, round(d.t, 9) if d else 1.0, e.verdict)
        groups[key] = groups.get(key, 0) + 1
    names = ("support_size", "kind", "k", "t", "verdict")
    return [dict(zip(names, key), count=count) for key, count in sorted(groups.items())]
