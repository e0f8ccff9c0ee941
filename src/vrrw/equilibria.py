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

from .dynamics import ModelParameters, jacobian, tangent_eigenvalues, vector_field
from .errors import (
    ConvergenceError,
    DegenerateSupportError,
    DomainError,
    NumericError,
    ValidationError,
)
from .graph import FaceIndex, InteractionMatrix, SimplexPoint, coords_of, validate

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
    point: SimplexPoint
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


def face_center(face: FaceIndex, n: int) -> SimplexPoint:
    """Uniform point on the given face of the size-n simplex."""
    sites = face.sites
    if len(sites) == 0:
        raise ValidationError("cannot take the center of an empty face")
    if sites[-1] >= n:
        raise ValidationError(f"face {sites} does not fit in a {n}-site model")
    v = np.zeros(n)
    v[list(sites)] = 1.0 / len(sites)
    return SimplexPoint.from_array(v)


def center_eigenvalue(k: int, alpha: float, loop_c: float = 0.0) -> float:
    """Tangent eigenvalue at the center of a size-k face, where every
    within-face direction is an eigendirection with the common value

        -1 + alpha (k - 2 + 2c) / (k - 1 + c).
    """
    if k < 2:
        raise DomainError(f"face center spectrum needs size >= 2, got {k}")
    if alpha <= 1:
        raise ValidationError(f"reinforcement exponent must be > 1, got {alpha}")
    return -1.0 + alpha * (k - 2 + 2.0 * loop_c) / (k - 1 + loop_c)


def critical_alpha(k: int) -> float:
    """Exponent above which the center of a size-k face turns unstable:
    (k-1)/(k-2). Finite only for k >= 3."""
    if k < 3:
        raise DomainError(f"no finite critical exponent for face size {k}")
    return (k - 1) / (k - 2)


def critical_alpha_loop(k: int, c: float) -> float:
    """Critical exponent for the self-loop model: [k-(1-c)]/[k-2(1-c)].

    Reduces to critical_alpha(k) at c=0; diverges as k approaches 2(1-c).
    """
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
    if kmax < 2:
        raise DomainError(f"table needs kmax >= 2, got {kmax}")
    rows = []
    for k in range(2, kmax + 1):
        if k == 2 and c == 0.0:
            continue
        rows.append(ThresholdRow(k=k, alpha_crit=critical_alpha_loop(k, c), loop_c=c))
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
    if not 1 <= k <= n - 1:
        raise ValidationError(f"block size k={k} out of range for n={n}")
    t = float(t)
    a = alpha
    try:
        return -(n - k - 1) * t ** (2 * a - 1) + (n - k) * t**a - k * t ** (a - 1) + (k - 1)
    except OverflowError as exc:
        raise NumericError(f"ratio condition overflows at t={t!r}, alpha={alpha}") from exc


def level_ratio_derivative(t: float, n: int, k: int, alpha: float) -> float:
    """d/dt of level_ratio_polynomial, phi'; the cross-block eigenvalue of
    a two-level point is -t u1^(2a-1) phi'(t) / H. A power past the double
    range raises NumericError."""
    if t <= 0:
        raise DomainError(f"ratio must be positive, got {t}")
    a = alpha
    t = float(t)
    try:
        return (
            -(2 * a - 1) * (n - k - 1) * t ** (2 * a - 2)
            + a * (n - k) * t ** (a - 1)
            - (a - 1) * k * t ** (a - 2)
        )
    except OverflowError as exc:
        raise NumericError(f"ratio derivative overflows at t={t!r}, alpha={alpha}") from exc


@lru_cache(maxsize=None)
def _scan_grid() -> np.ndarray:
    g = np.logspace(np.log10(_SCAN_LO), np.log10(_SCAN_HI), _SCAN_POINTS)
    g.setflags(write=False)
    return g


def _bisect_root(n: int, k: int, alpha: float, lo: float, hi: float) -> float:
    flo = level_ratio_polynomial(lo, n, k, alpha)
    for step in range(_BISECT_CAP + 1):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if hi - lo < 1e-14 * max(1.0, hi):
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
    bracket = (n - k) * t - k - (n - k - 1) * t**alpha
    return bracket if k == 1 else (k - 1) + t ** (alpha - 1) * bracket


@lru_cache(maxsize=None)
def _ratio_roots(n: int, k: int, alpha: float) -> tuple:
    """All roots t != 1 of the two-level ratio condition on (0, inf),
    by dense log-grid sign scan plus bisection. The known root t=1 is
    deflated by discarding anything within 1e-9 of it. Above 1 the scan
    reads phi(t) / t^(2a-1) = -phi_(n, n-k)(1/t), so no power exceeds 1."""
    grid = _scan_grid()
    below = grid <= 1.0
    vals = np.concatenate(
        [_reduced_condition(n, k, alpha, grid[below]),
         -_reduced_condition(n, n - k, alpha, 1.0 / grid[~below])]
    )
    roots = [float(t) for t in grid[vals == 0.0]]
    sign = np.sign(vals)
    flips = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
    roots += [_bisect_root(n, k, alpha, float(grid[i]), float(grid[i + 1])) for i in flips]
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


def _build_equilibrium(point, support, kind, face_vals, off_face, data=None) -> Equilibrium:
    vals = tuple(sorted(list(face_vals) + [-1.0] * off_face, reverse=True))
    return Equilibrium(
        point=point,
        support=support,
        kind=kind,
        tangent_eigenvalues=vals,
        verdict=_verdict(vals),
        two_level_data=data,
    )


def solve_two_level(n: int, k: int, alpha: float) -> list:
    """All two-level equilibria of the n-site hollow complete graph with
    the first k coordinates at the block value 1/(k+(n-k)t) and the rest
    at t times that, one per root t != 1 of the ratio condition.

    At most two equilibria exist for any (n, k, alpha); the returned
    points are interior and carry their closed-form tangent spectra.
    """
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
        point = SimplexPoint.from_array(coords)
        data = TwoLevelData(k=k, t=t, first_value=u1, second_value=u2)
        out.append(
            _build_equilibrium(
                point,
                FaceIndex(sites=tuple(range(n))),
                TWO_LEVEL,
                _two_level_tangent_spectrum(n, k, alpha, t),
                off_face=0,
                data=data,
            )
        )
    return out


def _center_equilibrium(face_sites: tuple, n: int, alpha: float) -> Equilibrium:
    m = len(face_sites)
    point = face_center(FaceIndex(sites=face_sites), n)
    vals = [center_eigenvalue(m, alpha)] * (m - 1)
    return _build_equilibrium(point, FaceIndex(sites=face_sites), FACE_CENTER, vals, n - m)


def enumerate_all(n: int, alpha: float) -> list:
    """Every equilibrium of the n-site hollow complete graph: for each
    face of size >= 2, its center plus all two-level points in the face
    interior, each placement of the value blocks listed separately.

    Single-site faces carry no equilibria here (no self-loops means no
    interaction energy on a single site). Ordering is deterministic:
    faces by (size, sites), center first, then block size, ratio, and
    block placement.
    """
    if not 2 <= n <= 12:
        raise DomainError(f"enumeration budget covers 2 <= n <= 12, got {n}")
    if alpha <= 1:
        raise ValidationError(f"reinforcement exponent must be > 1, got {alpha}")
    alpha = float(alpha)
    out = []
    sites = range(n)
    for m in range(2, n + 1):
        # Root structure depends only on the face size, so solve once per
        # (m, k) and embed into every face and block placement.
        per_k = {}
        for k in range(1, m // 2 + 1):
            roots = _ratio_roots(m, k, alpha)
            if 2 * k == m:
                # Complementary placements realize the mirrored ratio 1/t;
                # keeping t < 1 lists each point exactly once.
                roots = tuple(t for t in roots if t < 1.0)
            per_k[k] = [
                (t, 1.0 / (k + (m - k) * t), _two_level_tangent_spectrum(m, k, alpha, t))
                for t in roots
            ]
        for face in itertools.combinations(sites, m):
            out.append(_center_equilibrium(face, n, alpha))
            for k in range(1, m // 2 + 1):
                for t, u1, spectrum in per_k[k]:
                    u2 = t * u1
                    for block in itertools.combinations(face, k):
                        coords = np.zeros(n)
                        coords[list(face)] = u2
                        coords[list(block)] = u1
                        coords /= coords.sum()
                        point = SimplexPoint.from_array(coords)
                        data = TwoLevelData(k=k, t=t, first_value=u1, second_value=u2)
                        out.append(_build_equilibrium(
                            point, FaceIndex(sites=face), TWO_LEVEL, spectrum, n - m, data
                        ))
    return out


def _restricted_model(p: ModelParameters, sites: tuple) -> ModelParameters:
    idx = np.asarray(sites)
    sub = p.effective_matrix.entries[np.ix_(idx, idx)]
    try:
        matrix = validate(sub)
    except ValidationError as exc:
        raise ValidationError(
            f"support face {sites} does not restrict to a valid interaction matrix"
        ) from exc
    return ModelParameters(matrix=matrix, alpha=p.alpha, loop_c=0.0)


def classify(p: ModelParameters, e: Equilibrium) -> Equilibrium:
    """Recompute the tangent spectrum of an equilibrium from the numeric
    Jacobian of the support-face restriction and fill the verdict.

    Directions leaving the support contribute exact -1 eigenvalues; the
    face-restricted point has full support, so the Jacobian is regular
    there for every exponent > 1.
    """
    residual = vector_field(p, e.point).max_abs()
    if residual >= RESIDUAL_TOL:
        raise ValidationError(
            f"point is not an equilibrium: field residual {residual:.3e}"
        )
    n = p.size
    sites = e.support.sites
    m = len(sites)
    if m == 1:
        if p.loop_c == 0.0:
            raise DegenerateSupportError(
                "single-site support carries no interaction energy without self-loops"
            )
        vals = (-1.0,) * (n - 1)
        return replace(e, tangent_eigenvalues=vals, verdict=_verdict(vals))
    sub_v = coords_of(e.point)[list(sites)]
    if m == n:
        sub_p = p
    else:
        sub_p = _restricted_model(p, sites)
    j = jacobian(sub_p, SimplexPoint.from_array(sub_v))
    face_vals = tangent_eigenvalues(j, weights=sub_v)
    vals = tuple(sorted(list(face_vals) + [-1.0] * (n - m), reverse=True))
    return replace(e, tangent_eigenvalues=vals, verdict=_verdict(vals))


def summarize(equilibria) -> list:
    """Collapse an equilibria list into permutation classes: one row per
    (support size, kind, block size, rounded ratio) with a count."""
    groups = {}
    for e in equilibria:
        d = e.two_level_data
        key = (
            len(e.support.sites),
            e.kind,
            d.k if d else 0,
            round(d.t, 9) if d else 1.0,
            e.verdict,
        )
        groups[key] = groups.get(key, 0) + 1
    return [
        {
            "support_size": key[0],
            "kind": key[1],
            "k": key[2],
            "t": key[3],
            "verdict": key[4],
            "count": count,
        }
        for key, count in sorted(groups.items())
    ]
