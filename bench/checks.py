"""Correctness checks for the benchmark's outputs.

Every check recomputes what it needs with numpy and the standard library, or
tests a property the method must have; none of them calls back into `vrrw`
for the value it compares against. Each raises `CheckFailed` with the
numbers behind the verdict.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Half-width of the per-site band around 1/N for mean final occupations,
#: in standard errors; sites are exchangeable under uniform-random starts.
OCCUPATION_Z = 5.0

#: Half-width of the per-cell band around the exact one-step site law, in
#: binomial standard deviations of the sample frequency.
SITE_LAW_Z = 5.0

#: Residual bound for an equilibrium under the benchmark's own field.
RESIDUAL_TOL = 1e-10

#: A step of H may fall by at most this share of H (float rounding only).
ENERGY_RTOL = 1e-12

#: Tolerance on sums that are exactly 1 in real arithmetic.
SUM_TOL = 1e-12


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def energy(states, alpha):
    """H(v) = <A v^a, v^a> on the hollow complete graph, for each row of
    states: (sum v^a)^2 - sum v^(2a)."""
    s = np.power(np.asarray(states, dtype=float), alpha)
    return s.sum(axis=-1) ** 2 - (s * s).sum(axis=-1)


def field(points, alpha):
    """F(v) = -v + v^a (A v^a) / <A v^a, v^a> on the hollow complete graph,
    for each row of points (points already on the simplex)."""
    v = np.asarray(points, dtype=float)
    s = np.power(v, alpha)
    a_s = s.sum(axis=-1, keepdims=True) - s
    h = (s * a_s).sum(axis=-1, keepdims=True)
    return s * a_s / h - v


def check_flow_energy(states, alpha):
    """H never decreases along a flow, up to rounding."""
    h = energy(states, alpha)
    drops = np.diff(h)
    worst = int(np.argmin(drops))
    _require(
        drops[worst] >= -ENERGY_RTOL * h[worst],
        f"H drops by {-drops[worst]:.3e} at step {worst + 1} (H={h[worst]:.6g})",
    )


def check_residuals(points, alpha):
    """Every point is an equilibrium of the benchmark's own field."""
    res = np.abs(field(points, alpha)).max(axis=-1)
    worst = int(np.argmax(res))
    _require(
        res[worst] < RESIDUAL_TOL,
        f"point {worst} has field residual {res[worst]:.3e} >= {RESIDUAL_TOL}",
    )


def check_catalog(n, alpha, kinds, supports, points, verdicts):
    """The catalog of the n-site hollow complete graph: one face centre per
    face of size >= 2, centres of size k unstable exactly when
    alpha > (k-1)/(k-2), and every two-level interior point unstable."""
    check_residuals(points, alpha)
    centres = [i for i, k in enumerate(kinds) if k == "face_center"]
    expected = sum(math.comb(n, m) for m in range(2, n + 1))
    _require(len(centres) == expected, f"{len(centres)} face centres, expected {expected}")
    faces = {tuple(supports[i]) for i in centres}
    _require(len(faces) == expected, "a face has more than one centre")
    for i in centres:
        k = len(supports[i])
        centre = np.zeros(n)
        centre[list(supports[i])] = 1.0 / k
        _require(
            np.abs(np.asarray(points[i]) - centre).max() <= SUM_TOL,
            f"centre of face {supports[i]} is not uniform on it",
        )
        unstable = k >= 3 and alpha > (k - 1) / (k - 2)
        want = "unstable" if unstable else "stable"
        _require(verdicts[i] == want, f"size-{k} centre is {verdicts[i]}, expected {want}")
    for i, kind in enumerate(kinds):
        if kind == "two_level":
            _require(
                verdicts[i] == "unstable",
                f"two-level point {i} on {supports[i]} is {verdicts[i]}, expected unstable",
            )


def exact_site_law(n, alpha, start, steps):
    """Law of the site at steps 1..steps of the walk on the hollow complete
    graph with weight (1 + visits)^alpha, by enumerating every path.
    Returns an array [steps, n]."""
    law = np.zeros((steps, n))

    def walk(site, counts, prob, t):
        if t == steps:
            return
        w = [0.0 if j == site else (1.0 + counts[j]) ** alpha for j in range(n)]
        total = sum(w)
        for j in range(n):
            if w[j] == 0.0:
                continue
            p = prob * w[j] / total
            law[t, j] += p
            counts[j] += 1
            walk(j, counts, p, t + 1)
            counts[j] -= 1

    counts = [0] * n
    counts[start] = 1
    walk(start, counts, 1.0, 0)
    return law


def check_site_law(sites, law, label):
    """Sample site frequencies at steps 1..len(law) lie within SITE_LAW_Z
    binomial standard deviations of the exact law, cell by cell; a cell of
    probability 0 must be empty. sites: int array [M, >= len(law)+1]."""
    m = sites.shape[0]
    n = law.shape[1]
    for t in range(1, law.shape[0] + 1):
        freq = np.bincount(sites[:, t], minlength=n)[:n] / m
        p = law[t - 1]
        band = SITE_LAW_Z * np.sqrt(p * (1.0 - p) / m) + SUM_TOL
        worst = int(np.argmax(np.abs(freq - p) - band))
        _require(
            np.all(np.abs(freq - p) <= band),
            f"{label}: step {t} site {worst} frequency {freq[worst]:.4f} vs exact "
            f"{p[worst]:.4f} (band {band[worst]:.4f}, {m} samples)",
        )


def check_trap(hits, draws, bracket, bound):
    """The trap estimate lies within 3 sigma of the certified bracket and at
    or above the certified lower bound."""
    lo, hi = bracket
    est = hits / draws
    sigma = math.sqrt(est * (1.0 - est) / draws)
    _require(
        lo - 3 * sigma <= est <= hi + 3 * sigma,
        f"trap estimate {est:.5f} outside [{lo:.5f}, {hi:.5f}] +- 3 sigma ({sigma:.5f})",
    )
    _require(est >= bound, f"trap estimate {est:.5f} below certified bound {bound:.5f}")


def _reject_constant(name):
    raise CheckFailed(f"export holds the non-JSON constant {name}")


def parse_strict_json(text):
    """Parse text as JSON that strict parsers accept: no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_campaign(summary, n, replicas):
    """Properties of one campaign result, flattened into plain arrays:
    supports (list of site tuples), profiles (list of tuples),
    occupations [R, N], histogram {size: count}."""
    occ = np.asarray(summary["occupations"])
    _require(occ.shape == (replicas, n), f"occupations have shape {occ.shape}")
    hist = summary["histogram"]
    _require(
        sum(hist.values()) == replicas,
        f"support histogram totals {sum(hist.values())}, not {replicas}",
    )
    sizes = [len(s) for s in summary["supports"]]
    for size, count in hist.items():
        _require(sizes.count(size) == count, f"histogram says {count} of size {size}")
    for r, prof in enumerate(summary["profiles"]):
        _require(
            abs(math.fsum(prof) - 1.0) <= SUM_TOL and min(prof) > 0.0,
            f"replica {r} tail profile {prof} does not sum to 1",
        )
    mean = occ.mean(axis=0)
    se = occ.std(axis=0, ddof=1) / math.sqrt(replicas)
    dev = np.abs(mean - 1.0 / n) / np.maximum(se, 1e-300)
    worst = int(np.argmax(dev))
    _require(
        dev[worst] <= OCCUPATION_Z,
        f"site {worst} mean occupation {mean[worst]:.4f} is {dev[worst]:.1f} standard "
        f"errors from 1/{n}",
    )


def check_pairs(supports, profiles, share=0.99, tol=0.05):
    """At least `share` of replicas keep exactly two sites with tail shares
    within tol of 1/2 (on K3 the centre is unstable for alpha > 2)."""
    good = sum(
        1
        for sites, prof in zip(supports, profiles)
        if len(sites) == 2 and all(abs(x - 0.5) <= tol for x in prof)
    )
    _require(
        good >= share * len(supports),
        f"only {good} of {len(supports)} replicas retain two sites at even shares",
    )


def check_round_trip(a, b):
    """A loaded campaign equals the one exported, field by field."""
    _require(a == b, "load_campaign does not give back the exported result")


def check_replay(occupation, final_counts, horizon):
    """A replica replayed alone reaches the counts the campaign reported."""
    counts = np.asarray(final_counts)
    _require(
        int(counts.sum()) == horizon + 1
        and np.array_equal(np.asarray(occupation), counts / (horizon + 1.0)),
        f"replay counts {counts.tolist()} disagree with occupation {list(occupation)}",
    )


def nearest_anchors(occupations, anchors, chunk=64):
    """Nearest anchor index and distance for each occupation row, computed
    a few rows at a time so the check adds little to peak memory."""
    idx = np.empty(occupations.shape[0], dtype=np.int64)
    dist = np.empty(occupations.shape[0])
    for lo in range(0, occupations.shape[0], chunk):
        diff = occupations[lo : lo + chunk, None, :] - anchors[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        idx[lo : lo + chunk] = np.argmin(d, axis=1)
        dist[lo : lo + chunk] = d[np.arange(d.shape[0]), idx[lo : lo + chunk]]
    return idx, dist


def check_nearest(occupations, anchors, indices, distances):
    """Reported nearest-anchor indices and distances match a recomputation;
    an index may differ only where two anchors tie to 1e-12."""
    ref_idx, ref_dist = nearest_anchors(occupations, anchors)
    indices = np.asarray(indices)
    distances = np.asarray(distances)
    own = np.sqrt(((occupations - anchors[indices]) ** 2).sum(axis=1))
    tol = 1e-12 * np.maximum(1.0, ref_dist)
    ok = (np.abs(own - ref_dist) <= tol) & (np.abs(distances - ref_dist) <= tol)
    bad = np.nonzero(~ok)[0]
    _require(
        bad.size == 0,
        f"{bad.size} replicas disagree on the nearest anchor, first {bad[:1].tolist()}: "
        f"reported {indices[bad[:1]].tolist()} vs {ref_idx[bad[:1]].tolist()}",
    )


def alternation_share(sites):
    """Share of steps t >= 2 with site[t] == site[t-2]."""
    s = np.asarray(sites)
    return float(np.mean(s[2:] == s[:-2]))
