"""Equilibrium structure of the occupation flow on complete graphs.

Equilibria supported on a face are either the face center or points whose
coordinates take exactly two values: k sites at a value u and the rest at
t*u. The admissible ratios t are the positive roots of a generalized
polynomial, isolated between its critical points and bisected. Stability
comes from closed-form tangent spectra (centers and two-level points) or
from the numeric Jacobian restricted to the support face; directions
leaving the support always carry eigenvalue -1. Both take powers only of
values at most 1, so they hold for every alpha > 1 until a ratio leaves the
double range or a pair energy underflows, which raises NumericError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from sys import float_info
from typing import Optional

import numpy as np

from .dynamics import ModelParameters, _jacobian_array, tangent_eigenvalues, vector_field
from .errors import DegenerateSupportError, DomainError, NumericError, ValidationError
from .graph import FaceIndex, _integer, coords_of, simplex_points

#: Eigenvalue margin separating genuine criticality from float noise.
STABILITY_MARGIN = 1e-8

#: Residual bound every reported equilibrium must satisfy.
RESIDUAL_TOL = 1e-10

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


def _ratio_sign(n: int, k: int, alpha: float, t: float) -> float:
    """A value with the ratio condition's sign at t > 0 and no power above 1:
    (k-1) + t^(a-1) [(n-k) t - k - (n-k-1) t^a] on (0, 1], the bracket alone
    for k = 1 (no underflow), and phi(t) / t^(2a-1) = -phi_(n, n-k)(1/t) above."""
    if t > 1.0:
        return -_ratio_sign(n, n - k, alpha, 1.0 / t)
    bracket = (n - k) * t - k - (n - k - 1) * t**alpha
    return bracket if k == 1 else (k - 1) + t ** (alpha - 1) * bracket


def _slope(n: int, k: int, alpha: float, t: float, num=float):
    """g(t) = t^(2-a) phi'(t) = -(n-k-1)(2a-1) t^a + (n-k) a t - k(a-1) on
    (0, 1], g(t) / t^a above; num=Fraction sums all but the power exactly."""
    a, x = num(alpha), num(t)
    if t <= 1.0:
        return -(n - k - 1) * (2 * a - 1) * num(t**alpha) + (n - k) * a * x - k * (a - 1)
    return -(n - k - 1) * (2 * a - 1) + ((n - k) * a - k * (a - 1) / x) * num((1.0 / t) ** (alpha - 1))


def _bisect(f, lo: float, hi: float):
    """Where f changes sign in [lo, hi] (None if it does not), by geometric
    bisection to a relative width of 1e-14: the last bits follow glibc's pow."""
    below = f(lo) < 0
    if (f(hi) < 0) == below:
        return None
    mid = math.sqrt(lo) * math.sqrt(hi)  # sqrt(lo * hi) overflows
    while hi - lo > 1e-14 * hi and lo < mid < hi and (fmid := f(mid)) != 0.0:
        lo, hi = (mid, hi) if (fmid < 0) == below else (lo, mid)
        mid = math.sqrt(lo) * math.sqrt(hi)
    return mid


@lru_cache(maxsize=None)
def _ratio_roots(n: int, k: int, alpha: float) -> tuple:
    """All roots t != 1 of the ratio condition phi on (0, inf), ascending.
    By the rule of signs for generalized polynomials (exponents 0 < a-1 <
    a < 2a-1, signs +, -, +, -) phi has at most three, t = 1 among them.
    g (_slope) is linear for k = n-1, else concave with its peak at
    t* = ((n-k) / ((n-k-1)(2a-1)))^(1/(a-1)); so phi has at most two critical
    points, one on each side of t*, and at alpha = critical_alpha(n) one is
    1, where phi'(1) = (n-1) - (n-2) a. Each piece between them not holding 1
    holds at most one root. One past the double range raises NumericError."""
    at_threshold = n > 2 and alpha == critical_alpha(n)
    slope, sign = partial(_slope, n, k, alpha), partial(_ratio_sign, n, k, alpha)
    if k == n - 1:
        cuts = [1.0 if at_threshold else (n - 1) * (alpha - 1) / alpha]
    else:
        try:
            peak = ((n - k) / ((n - k - 1) * (2 * alpha - 1))) ** (1 / (alpha - 1))
        except OverflowError:
            cuts = [None]
        else:  # at the threshold with 2k = n, g peaks at t* = 1 with g(1) = 0
            cuts = [] if slope(peak) <= 0 or at_threshold and 2 * k == n else [
                1.0 if at_threshold and peak > 1 else _bisect(slope, float_info.min, peak),
                1.0 if at_threshold and peak < 1 else _bisect(slope, peak, float_info.max),
            ]
    # phi tends to k-1 >= 0 at 0 (from below for k = 1), and to -inf at inf (+inf for k = n-1)
    if None in cuts or (sign(float_info.min) < 0) != (k == 1) or (sign(float_info.max) < 0) != (k < n - 1):
        raise NumericError(f"a two-level ratio (n={n}, k={k}, alpha={alpha}) lies past the double range")
    edges = [float_info.min, *cuts, float_info.max]
    roots = [_bisect(sign, lo, hi) for lo, hi in zip(edges, edges[1:]) if not lo <= 1.0 <= hi]
    return tuple(t for t in roots if t is not None)


def _two_level_tangent_spectrum(n: int, k: int, alpha: float, t: float) -> list:
    """Closed-form tangent spectrum at a two-level point of the hollow
    complete graph. With the block values u1, u2 = t u1 over their maximum
    M as y1, y2, r = y^a, q = y^(a-1), and the pair energy
    e = k(k-1) r1^2 + 2k(n-k) r1 r2 + (n-k)(n-k-1) r2^2 = H / M^(2a), which
    cannot cancel: within-block eigenvalues (a-1) - a r_m q_m / (M e)
    (multiplicities k-1 and n-k-1), and the cross-block -t u1^(2a-1) phi'(t) / H
    = -g(t) t^(a-1) / (M e), or -g(t) / (t^a M e) for t > 1, g summed in rationals."""
    from fractions import Fraction  # only these spectra need it, and its import takes milliseconds
    u1 = 1.0 / (k + (n - k) * t)
    m = max(u1, t * u1)
    y1, y2 = u1 / m, t * u1 / m
    r1, r2, q1, q2 = y1**alpha, y2**alpha, y1 ** (alpha - 1), y2 ** (alpha - 1)
    e = k * (k - 1) * r1 * r1 + 2 * k * (n - k) * r1 * r2 + (n - k) * (n - k - 1) * r2 * r2
    if not e >= float_info.min:
        raise NumericError(f"two-level pair energy underflows: {n} sites, k={k}, alpha={alpha}")
    lam1 = (alpha - 1.0) - alpha * r1 * q1 / (m * e)
    lam2 = (alpha - 1.0) - alpha * r2 * q2 / (m * e)
    mu = -float(_slope(n, k, alpha, t, Fraction)) * (q2 if t <= 1.0 else 1.0)
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


def _face_ratios(m: int, alpha: float) -> list:
    """(k, t) for each two-level point of a size-m face up to block placement:
    k <= m/2, and t < 1 when 2k = m, as the complementary placement gives 1/t."""
    return [(k, t) for k in range(1, m // 2 + 1) for t in _ratio_roots(m, k, alpha) if 2 * k < m or t < 1.0]


def _catalog_size(n: int, alpha: float) -> int:
    """len(enumerate_all(n, alpha)), from the ratio roots alone."""
    per_face = {m: 1 + sum(math.comb(m, k) for k, _ in _face_ratios(m, alpha)) for m in range(2, n + 1)}
    return sum(math.comb(n, m) * count for m, count in per_face.items())


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
        for k, t in _face_ratios(m, alpha):
            blocks = np.array(list(itertools.combinations(range(m), k)))
            block_at = np.arange(len(blocks))[None, :, None]
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
