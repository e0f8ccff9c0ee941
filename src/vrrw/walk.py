"""Discrete reinforced-walk sampler.

The walk jumps from its current site to j with probability proportional
to A[site][j] * (1 + Z(j))^alpha, where Z(j) counts visits to j including
time 0. A single vectorized engine advances any number of replicas, each
consuming uniforms from its own seeded stream in fixed order, so a
replica's trajectory is bit-identical whether it runs alone or inside a
batch.

Strong reinforcement makes most walks settle on two sites and alternate
between them. At the start of every block of uniforms, and every
_RESTART_STEPS steps within it, the replicas whose last two sites differ
form a group that advances in windows, each assuming the alternation goes
on. A step of a window leaves x for y, and only x and y gain visits, so
the weights at all other sites stay fixed and every total is at least t,
the total at the window's first step. Let B and E be the weights before
and after y in site order, with x's own (loop) weight taken at the
window's last step, where it is largest. Then a uniform u in
[B / t + d, 1 - E / t - d) picks y at every step of the window, exactly
and not only in real arithmetic: the margin d = _MARGIN = 2^-30 exceeds,
relative to the total, the rounding of the prefix sums, of np.power and
of u times the total, which is a few ulps per site, for any matrix of
fewer than 2^20 sites. So a window compares each uniform with these two
bounds and computes the pick, through _pick_columns at the step's exact
counts, only of the steps whose uniform falls outside. A replica whose
pick disagrees commits its steps up to and including that pick, which is
exact because every earlier assumption held, and takes single lockstep
steps until the next restart point. Both paths pick through
_pick_columns, so the result does not depend on which one a step took.

A lockstep stretch of a single replica on at most _SOLO_SITES sites takes
a third path in plain Python floats. It is exact for three reasons:
Python's float product and sum are the same IEEE operations as numpy's;
itertools.accumulate adds sequentially, as _sums does; and the prefix
sums of nonnegative weights never decrease, so bisect_right counts the
ones at or below u times the last, as _pick_columns does. Its weights
come from np.power, whose elements do not depend on the shape of the
array. Each call logs at DEBUG on "vrrw.walk" how many speculative steps
it checked and committed and how many lockstep steps it took.
"""

from __future__ import annotations

import logging
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .dynamics import ModelParameters
from .errors import NumericError, ValidationError
from .graph import simplex_points

#: Uniforms are drawn from each replica's generator in blocks of this size,
#: and the speculative pass starts over at every block boundary. The value
#: never affects trajectories, only buffering and where the speculative
#: windows and the lockstep stretches begin and end.
BLOCK_STEPS = 4096

#: Full site sequences are kept only up to this horizon; beyond it records
#: carry geometric checkpoints only.
FULL_LOG_LIMIT = 1_000_000

#: exp overflows just past 709: a weight stays below e**690, and a row's
#: weighted total below e**709, so no total is ever infinite.
_WEIGHT_LOG_CAP = 690.0
_TOTAL_LOG_CAP = 709.0

#: Most cells (sites x replicas x steps) of one speculative window. A
#: window checks a uniform per replica-step and computes the weights of a
#: site column only for its doubtful steps, so its arrays take a few
#: times this many doubles at most, whatever the replica count and horizon.
_WINDOW_CELLS = 2**17

#: Windows start at this many weights, or at 2 steps if more. Small
#: groups, such as a single walk, then skip most of the doublings: a
#: 400 000-step walk at N=3, alpha=2.5 takes half the time it takes with
#: 2-step first windows, and a 1000-replica campaign the same time.
_FIRST_WINDOW_CELLS = 2**11

#: Replicas speculate in groups small enough that windows of this many
#: steps fit in _WINDOW_CELLS. Longer windows in smaller groups copy
#: longer runs of uniforms: at N=3, alpha=2.5 and 4000 replicas, 128
#: walks about 15% faster than 32.
_MIN_FULL_WINDOW = 128

#: Within a block, replicas that left the speculative pass try it again
#: at every multiple of this many steps.
_RESTART_STEPS = 1024

#: Margin of the speculative filter, relative to a row's total; it covers
#: the rounding of every pick (see the module docstring).
_MARGIN = 2.0**-30

#: From this many columns on, _sums adds row by row.
_WIDE_COLUMNS = 128

#: A lockstep stretch of one replica on at most this many sites steps in
#: Python floats (_Walks._solo). Per 1000 steps of one replica at alpha=1.5
#: on a 2-CPU x86-64 host, array path against Python path: N=3 8.4 against
#: 0.7 ms, N=50 8.5 against 4.1 ms, N=100 8.7 against 8.2 ms, N=200 9.8
#: against 17.8 ms, N=400 10.2 against 39.4 ms. The Python path grows
#: linearly in N and crosses near N=100; past the cap single walks keep
#: the array path, whose cost barely grows with N.
_SOLO_SITES = 64

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WalkState:
    """Walk position plus visit counts; counts include the time-0 site."""

    site: int
    counts: np.ndarray
    step: int

    def __post_init__(self):
        self.counts.setflags(write=False)
        if int(self.counts.sum()) != self.step + 1:
            raise ValidationError(
                f"visit counts sum to {int(self.counts.sum())}, expected step+1 = {self.step + 1}"
            )
        if self.counts[self.site] < 1:
            raise ValidationError("current site has no recorded visit")

    @property
    def occupation(self) -> np.ndarray:
        return simplex_points(self.counts / (self.step + 1))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Finished run: final counts, geometric-time snapshots, and (for
    short horizons) the full site sequence including time 0."""

    start: int
    params: object
    seed: int
    horizon: int
    final_counts: np.ndarray
    checkpoint_steps: np.ndarray
    checkpoint_counts: np.ndarray
    sites: Optional[np.ndarray] = None

    def __post_init__(self):
        self.final_counts.setflags(write=False)
        self.checkpoint_steps.setflags(write=False)
        self.checkpoint_counts.setflags(write=False)
        if self.sites is not None:
            self.sites.setflags(write=False)
        if int(self.final_counts.sum()) != self.horizon + 1:
            raise ValidationError("final counts inconsistent with horizon")

    @property
    def final_occupation(self) -> np.ndarray:
        return simplex_points(self.final_counts / (self.horizon + 1))

    def checkpoint_occupations(self) -> np.ndarray:
        """Occupation vectors v_n = Z_n/(n+1) at the checkpoint steps."""
        return self.checkpoint_counts / (self.checkpoint_steps[:, None] + 1.0)


def splitmix64(x: int) -> int:
    """64-bit avalanche mix used to derive independent stream keys."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def checkpoint_schedule(horizon: int, extra=()) -> np.ndarray:
    """Geometric snapshot times ceil(1.2^m) capped at and including the
    horizon, merged with any extra requested steps."""
    vals, x = [*extra, horizon], 1.0
    while math.ceil(x) <= horizon:
        vals.append(math.ceil(x))
        x *= 1.2
    out = np.unique(np.asarray(vals, dtype=np.int64))
    if out.size and (out[0] < 1 or out[-1] > horizon):
        raise ValidationError("checkpoint steps must lie in [1, horizon]")
    return out


def _integer(x, what: str) -> int:
    """x as a Python int; numpy integers pass, bools, floats and strings
    do not."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {x!r}")


def _nonnegative_int(x, what: str) -> int:
    """x as a nonnegative Python int."""
    v = _integer(x, what)
    if v < 0:
        raise ValidationError(f"{what} must be nonnegative, got {v}")
    return v


def _check_weight_range(p: ModelParameters, horizon: int) -> None:
    log_weight = p.alpha * math.log(horizon + 2)
    log_total = log_weight + math.log(p.effective_matrix.row_sum)
    if log_weight > _WEIGHT_LOG_CAP or log_total > _TOTAL_LOG_CAP:
        raise NumericError(
            f"visit weights overflow doubles at horizon {horizon} with exponent {p.alpha}"
        )


def init_walk(p: ModelParameters, start: int) -> WalkState:
    """Walk at time 0: sitting on start with that single visit counted."""
    n = p.size
    if not 0 <= start < n:
        raise ValidationError(f"start site {start} out of range for {n} sites")
    counts = np.zeros(n, dtype=np.int64)
    counts[start] = 1
    return WalkState(site=start, counts=counts, step=0)


def _sums(eff: np.ndarray) -> np.ndarray:
    """Prefix sums down the columns of eff, which holds sites on its first
    axis; every index into the other axes names a column.

    They equal, bit for bit, np.cumsum(rows, axis=1) for rows = eff.T:
    both add sequentially. Summing down columns costs about a nanosecond
    per entry, where numpy's reduction over short rows costs tens of
    nanoseconds per row.

    np.add.accumulate down the first axis walks one column at a time, so
    wide arrays are added row by row instead: at 3 sites and 44 000
    columns that takes a tenth of the time, but at one column three
    times as long.
    """
    if eff[0].size < _WIDE_COLUMNS:
        return np.add.accumulate(eff, axis=0)
    csum = np.empty_like(eff)
    csum[0] = eff[0]
    for k in range(1, eff.shape[0]):
        np.add(csum[k - 1], eff[k], out=csum[k])
    return csum


def _pick_columns(eff: np.ndarray, u) -> np.ndarray:
    """Site picked in each column of eff (sites first, nonnegative
    weights, columns as in _sums) by that column's uniform in u: the
    number of prefix sums at or below u times the last prefix sum.

    For a finite total t in the normal double range and 0 <= u < 1 the
    rounded product u * t is strictly below t, so at most n - 1 prefix
    sums are counted, and the picked site i has u * t < csum[i] and, past
    site 0, csum[i-1] <= u * t: its weight is positive. validate keeps
    the off-diagonal entries of a matrix normal, so every total is.
    """
    csum = _sums(eff)
    return (csum <= u * csum[-1]).sum(axis=0)


def step(p: ModelParameters, s: WalkState, rng: np.random.Generator) -> WalkState:
    """Advance one step, drawing a single uniform from rng. With loop_c > 0
    staying put carries weight loop_c * (1 + Z(site))^alpha through the
    effective matrix. This is the sequential reference for simulate."""
    with np.errstate(over="ignore", invalid="ignore"):
        weights = p.effective_matrix.entries[s.site] * np.power(1.0 + s.counts, p.alpha)
        total = _sums(weights[:, None])[-1, 0]
    if not np.isfinite(total):
        raise NumericError("transition weights have no finite total")
    nxt = int(_pick_columns(weights[:, None], rng.random())[0])
    counts = s.counts.copy()
    counts[nxt] += 1
    return WalkState(site=nxt, counts=counts, step=s.step + 1)


class _Walks:
    """Replicas of one _batch_walk call and the arrays they fill.

    Counts and weights are kept sites first, shape (N, R), so that every
    sum over sites is a sum of columns.
    """

    def __init__(self, p, starts, horizon, seeds, record_sites, checkpoint_at):
        n, r = p.size, len(seeds)
        self.n, self.horizon, self.alpha = n, horizon, p.alpha
        self.a_t = np.ascontiguousarray(np.asarray(p.effective_matrix.entries).T)
        self.counts = np.zeros((n, r), dtype=np.int64)
        self.counts[starts, np.arange(r)] = 1
        self.w = np.power(1.0 + self.counts, p.alpha)
        self.site = starts.copy()
        self.prev = starts.copy()  # equal to site: no alternation to continue yet
        self.gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        # one spare column, read by the spare step of an odd window. A full
        # block even for short walks: freeing a buffer this large raises
        # glibc's mmap threshold, and with it how fast later multi-megabyte
        # temporaries in the process (such as the trap sampler's) allocate.
        self.ublock = np.zeros((r, BLOCK_STEPS + 1))
        self.chk_pos = {int(x): i for i, x in enumerate(checkpoint_at)}
        self.chk_steps = checkpoint_at
        self.chk = np.empty((r, checkpoint_at.size, n), dtype=np.int64)
        self.sites_log = None
        if record_sites:
            dtype = np.int16 if n < 2**15 else np.int64
            self.sites_log = np.empty((r, horizon + 1), dtype=dtype)
            self.sites_log[:, 0] = starts
        self.stats = dict.fromkeys(
            ("speculative_cells", "committed_cells", "lockstep_steps"), 0
        )

    def run(self):
        size = max(1, _WINDOW_CELLS // (self.n * _MIN_FULL_WINDOW))
        done = 0
        while done < self.horizon:
            nblk = min(self.ublock.shape[1] - 1, self.horizon - done)
            for row, g in zip(self.ublock, self.gens):
                g.random(out=row[:nblk])
            # pos[r]: steps of this block that replica r has taken
            pos = np.zeros(self.site.size, dtype=np.int64)
            b = 0
            while b < nblk:
                if b % _RESTART_STEPS == 0:
                    at = np.flatnonzero(pos == b)
                    group = at[self.prev[at] != self.site[at]]
                    for lo in range(0, group.size, size):
                        self._speculate(group[lo : lo + size], done, b, nblk, pos)
                self._lockstep(done, min(nblk, b - b % _RESTART_STEPS + _RESTART_STEPS), pos)
                behind = pos[pos < nblk]
                b = int(behind.min()) if behind.size else nblk
            done += nblk

    def _window_stop(self, done, p, nblk):
        """Block offset a window starting at offset p may not pass: the
        block end or the next checkpoint, whichever comes first."""
        i = np.searchsorted(self.chk_steps, done + p + 1)
        if i < self.chk_steps.size:
            return min(nblk, int(self.chk_steps[i]) - done)
        return nblk

    def _record(self, rows, step, counts):
        """Store site-first counts of rows at a step if it is checkpointed."""
        i = self.chk_pos.get(step)
        if i is not None:
            self.chk[rows, i] = counts.T

    def _speculate(self, grp, done, p, nblk, pos):
        """Advance replicas that sit at block offset p and whose last two
        sites differ, in windows that assume the two-site alternation goes
        on. A window bounds, for each replica, the uniforms that pick the
        assumed site at every one of its steps (see the module docstring)
        and computes the pick only of the steps whose uniform falls
        outside. A replica's picks are exact up to and including its first
        disagreeing one, so it commits those and leaves for the lockstep
        loop at the next offset, recorded in pos."""
        n, alpha, a_t = self.n, self.alpha, self.a_t
        # a step of parity b leaves pair[j, b] for pair[j, 1 - b], and c
        # holds the counts of both sites. In that step's row, own and cross
        # are the entries of its own site and of its target, and below and
        # above sum the weights, which stay fixed, at the other sites before
        # and after the target; own_below and own_above are own where the
        # own site lies before or after the target, else 0.
        pair = np.stack((self.site[grp], self.prev[grp]), axis=1)
        c = self.counts[pair, grp[:, None]]
        own, cross = a_t[pair, pair], a_t[pair[:, ::-1], pair]
        rows = a_t[:, pair] * self.w[:, grp, None]
        rows[pair, np.arange(grp.size)[:, None]] = 0.0
        ahead = np.arange(n)[:, None, None] < pair[:, ::-1]
        below, above = np.where(ahead, rows, 0.0).sum(axis=0), np.where(ahead, 0.0, rows).sum(axis=0)
        own_below = np.where(pair < pair[:, ::-1], own, 0.0)
        own_above = own - own_below
        win = max(2, _FIRST_WINDOW_CELLS // (n * grp.size))
        while grp.size and p < nblk:
            g = grp.size
            wlen = min(win, self._window_stop(done, p, nblk) - p, max(1, _WINDOW_CELLS // (n * g)))
            # u[j, k] is the uniform of step k, of parity k % 2; an odd
            # window adds a spare step. Every total of the window is at
            # least its first, and a row's own weight at most the one after
            # m more visits; both parities share the tighter bounds.
            m = (wlen + 1) // 2
            w = np.power(1.0 + c, alpha)
            total = below + above + own * w + cross * w[:, ::-1]
            w = np.power(1.0 + (c + m), alpha)
            lo = (below + own_below * w) / total
            hi = (above + own_above * w) / total
            lo = np.maximum(lo[:, 0], lo[:, 1]) + _MARGIN
            hi = 1.0 - np.maximum(hi[:, 0], hi[:, 1]) - _MARGIN
            u = self.ublock[grp, p : p + 2 * m]
            doubt = u < lo[:, None]
            doubt |= u >= hi[:, None]
            j, k = np.divmod(np.flatnonzero(doubt), 2 * m)
            i, b = np.divmod(k, 2)
            # exact picks of the doubtful steps, at their counts
            eff = a_t[:, pair[j, b]] * self.w[:, grp[j]]
            at = np.arange(j.size)
            eff[pair[j, b], at] = own[j, b] * np.power(1.0 + (c[j, b] + i + b), alpha)
            eff[pair[j, 1 - b], at] = cross[j, b] * np.power(1.0 + (c[j, 1 - b] + i), alpha)
            nxt = _pick_columns(eff, u[j, k])
            miss = (nxt != pair[j, 1 - b]) & (k < wlen)
            f = np.full(g, wlen)  # steps each replica commits
            np.minimum.at(f, j[miss], k[miss])
            if self.sites_log is not None:
                steps = np.where(np.arange(wlen) % 2, pair[:, :1], pair[:, 1:])
                self.sites_log[grp, done + p + 1 : done + p + 1 + wlen] = steps
            self.stats["speculative_cells"] += g * wlen
            c[:, 0] += f // 2
            c[:, 1] += (f + 1) // 2
            end = done + p + wlen
            if miss.any():
                broke = miss & (k == f[j])
                out, pick, fo = j[broke], nxt[broke], k[broke]
                counts = self._pair_counts(grp[out], pair[out], c[out])
                counts[pick, np.arange(out.size)] += 1
                self._leave(grp[out], counts, pick, pair[out, fo % 2])
                if self.sites_log is not None:
                    self.sites_log[grp[out], done + p + 1 + fo] = pick
                pos[grp[out]] = p + fo + 1
                last = fo == wlen - 1
                self._record(grp[out[last]], end, counts[:, last])
                keep = f == wlen
                grp, pair, c, own, cross, below, above, own_below, own_above = (
                    x[keep] for x in (grp, pair, c, own, cross, below, above, own_below, own_above)
                )
                self.stats["committed_cells"] += int(f.sum()) + out.size
            else:
                win *= 2
                self.stats["committed_cells"] += g * wlen
            if wlen % 2:
                pair, c, own, cross, below, above, own_below, own_above = (
                    x[:, ::-1] for x in (pair, c, own, cross, below, above, own_below, own_above)
                )
            p += wlen
            if end in self.chk_pos:
                self._record(grp, end, self._pair_counts(grp, pair, c))
        self._leave(grp, self._pair_counts(grp, pair, c), pair[:, 0], pair[:, 1])
        pos[grp] = nblk

    def _pair_counts(self, rows, pair, c):
        """Site-first counts of replicas rows, with those at their pair
        sites set to c."""
        counts = self.counts[:, rows]
        counts[pair, np.arange(rows.size)[:, None]] = c
        return counts

    def _leave(self, rows, counts, site, prev):
        """Write back replicas leaving the speculative pass."""
        self.counts[:, rows] = counts
        self.w[:, rows] = np.power(1.0 + counts, self.alpha)
        self.site[rows] = site
        self.prev[rows] = prev

    def _lockstep(self, done, end, pos):
        """Advance every replica whose offset in pos lies before end to
        end, one step at a time; a replica joins when the loop reaches its
        offset."""
        todo = np.flatnonzero(pos < end)
        if not todo.size:
            return
        todo = todo[np.argsort(pos[todo], kind="stable")]
        offsets = pos[todo]
        pos[todo] = end
        self.stats["lockstep_steps"] += int(end * todo.size - offsets.sum())
        if todo.size == 1 and self.n <= _SOLO_SITES:
            self._solo(int(todo[0]), done, int(offsets[0]), end)
            return
        a_t, alpha, sites_log = self.a_t, self.alpha, self.sites_log
        b = int(offsets[0])
        while b < end:
            joined = int(np.searchsorted(offsets, b, side="right"))
            act = todo[:joined]
            stop = int(offsets[joined]) if joined < todo.size else end
            # take returns C-ordered copies, so these flat views write through
            site, cnt, wts = self.site[act], self.counts.take(act, axis=1), self.w.take(act, axis=1)
            flat_cnt, flat_wts = cnt.reshape(-1), wts.reshape(-1)
            cols = np.arange(act.size)
            # uniforms in step-major chunks of at most _WINDOW_CELLS
            chunk = max(1, _WINDOW_CELLS // act.size)
            for k in range(b, stop):
                if (k - b) % chunk == 0:
                    us = self.ublock[act, k : min(stop, k + chunk)].T.copy()
                eff = a_t.take(site, axis=1) * wts
                nxt = _pick_columns(eff, us[(k - b) % chunk])
                at = nxt * act.size
                at += cols
                visits = flat_cnt[at] + 1
                flat_cnt[at] = visits
                flat_wts[at] = np.power(1.0 + visits, alpha)
                prev, site = site, nxt
                if sites_log is not None:
                    sites_log[act, done + k + 1] = site
                self._record(act, done + k + 1, cnt)
            self.counts[:, act] = cnt
            self.w[:, act] = wts
            self.site[act] = site
            self.prev[act] = prev
            b = stop

    def _solo(self, r, done, b, end):
        """Advance replica r alone from block offset b to end in Python
        floats, with the arithmetic of _pick_columns (see the module
        docstring). table[j][k] is site j's weight after k + 1 more visits."""
        rows = self.a_t.T.tolist()
        c0 = self.counts[:, r]
        table = np.power(1.0 + (c0[:, None] + np.arange(1, end - b + 1)), self.alpha).tolist()
        cnt, w, more = c0.tolist(), self.w[:, r].tolist(), [0] * self.n
        site, path = int(self.site[r]), []
        for step_at, u in enumerate(self.ublock[r, b:end].tolist(), done + b + 1):
            sums = list(accumulate(map(operator.mul, rows[site], w)))
            prev, site = site, bisect_right(sums, u * sums[-1])
            w[site] = table[site][more[site]]
            more[site] += 1
            cnt[site] += 1
            path.append(site)
            i = self.chk_pos.get(step_at)
            if i is not None:
                self.chk[r, i] = cnt
        self.counts[:, r] = cnt
        self.w[:, r] = w
        self.site[r] = site
        self.prev[r] = prev
        if self.sites_log is not None:
            self.sites_log[r, done + b + 1 : done + end + 1] = path


def _batch_walk(p, starts, horizon, seeds, record_sites, checkpoint_at):
    """Advance len(seeds) replicas for `horizon` steps.

    Returns (final_counts [R,N], checkpoint_counts [R,C,N], sites [R,horizon+1]
    or None). Replica r consumes uniforms from PCG64(seeds[r]) one per step
    in step order. checkpoint_at must be sorted and free of repeats, as
    checkpoint_schedule returns it.
    """
    n = p.size
    horizon = _nonnegative_int(horizon, "horizon")
    starts = np.array([_nonnegative_int(s, "start site") for s in starts], dtype=np.int64)
    seeds = [_nonnegative_int(s, "seed") for s in seeds]
    if starts.shape != (len(seeds),):
        raise ValidationError("starts and seeds must have matching length")
    if np.any(starts >= n):
        raise ValidationError("start site out of range")
    _check_weight_range(p, horizon)
    checkpoint_at = np.asarray(checkpoint_at, dtype=np.int64)
    walks = _Walks(p, starts, horizon, seeds, record_sites, checkpoint_at)
    walks.run()
    s = walks.stats
    log.debug(
        "%d replicas x %d steps: %d speculative cells checked, %d committed; "
        "%d lockstep replica-steps",
        len(seeds), horizon, s["speculative_cells"], s["committed_cells"], s["lockstep_steps"],
    )
    return np.ascontiguousarray(walks.counts.T), walks.chk, walks.sites_log


def simulate(
    p: ModelParameters,
    start: int,
    horizon: int,
    seed: int,
    record_sites: Optional[bool] = None,
    checkpoints=None,
) -> TrajectoryRecord:
    """Run one walk for `horizon` steps, deterministically in the seed.
    The start is a site, the seed a nonnegative integer and the horizon a
    positive one; anything else raises ValidationError.

    The full site sequence is kept for horizons up to 10^6 (override with
    record_sites); geometric occupation snapshots are always kept.
    """
    horizon, seed = _nonnegative_int(horizon, "horizon"), _nonnegative_int(seed, "seed")
    start = _nonnegative_int(start, "start site")
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if start >= p.size:
        raise ValidationError(f"start site {start} out of range for {p.size} sites")
    if record_sites is None:
        record_sites = horizon <= FULL_LOG_LIMIT
    if checkpoints is None:
        checkpoints = checkpoint_schedule(horizon)
    else:
        checkpoints = checkpoint_schedule(horizon, extra=checkpoints)
    final, chk, sites = _batch_walk(
        p, [start], horizon, [seed], record_sites, checkpoints
    )
    return TrajectoryRecord(
        start=start,
        params=p,
        seed=seed,
        horizon=horizon,
        final_counts=final[0],
        checkpoint_steps=checkpoints,
        checkpoint_counts=chk[0],
        sites=None if sites is None else sites[0],
    )
