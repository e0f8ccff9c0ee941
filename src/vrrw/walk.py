"""Discrete reinforced-walk sampler.

The walk jumps from its current site to j with probability proportional
to A[site][j] * (1 + Z(j))^alpha, where Z(j) counts visits to j including
time 0. One compiled loop (in _walk.c, which vrrw.files builds at its
first use) advances any number of replicas, each drawing one uniform per
step from its own seeded PCG64, so a replica's trajectory is bit-identical
whether it runs alone or inside a batch. _walk.c seeds and steps that
PCG64 itself, reproducing numpy's PCG64(seed) stream and its next_double
exactly.

The loop picks what step, the reference, picks, bit for bit, because it
does the same IEEE double operations in the same order: each weight is a
matrix entry times (1 + Z(j))^alpha, the prefix sums are added
sequentially in site order, and the pick counts the prefix sums at or
below u times the last, as _pick does. It is compiled with
-ffp-contract=off, so no product and sum fuse into one rounding, and
without -ffast-math, so no sum is reordered and pow is libm's. Its powers
come from libm's pow, as step's do through math.pow (a table filled once per
chunk, or pow itself past it), so the identity rests on one libm function,
whatever SIMD kernels numpy dispatches.

The loop has two kernels, which form the weights, sums and u * total alike.
walk_block steps one replica at a time and scans the prefix sums up to the
first one above u * total; walk_group steps up to eight replicas in lockstep
and picks the count of the first n - 1 sums at or below it, _pick's own
definition. Both give the same site: the weights are nonnegative, so the
prefix sums never decrease, and the sums at or below u * total are exactly
those before the first one above it. The scan's exit is a branch on the
uniform. While a replica alternates on two sites the branch predictor
guesses it; while a replica wanders among more sites it misses about once
a step, and the steps do not overlap. walk_group's count takes no branch on
the uniform, so its lanes' steps overlap.

One compiled driver, walk_run, runs a walk's blocks and chooses each
replica's kernel per block: a replica that put at least 7/8 of its previous
block's steps on two sites goes through walk_block, and every other replica
through walk_group. A walk's first block of FIRST_BLOCK steps has no
previous block and takes every replica through walk_block. walk_run also
seeds the generators, counts the starts and fills the power table, and it
returns after at most SLICE_STEPS replica-steps of whole blocks: _walk calls
it again until the walk is done, so a signal is seen between calls, and a
short walk is one call.

ctypes releases the GIL during walk_run, so _walk splits the replicas into
contiguous chunks, one per CPU but of at least THREAD_STEPS replica-steps,
each with its own workspace and power table. The calling thread does the
Python work and walks chunk 0, one thread each the others; on any exception,
Ctrl-C too, it stops every chunk after its current call, then joins them.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import files
from .dynamics import ModelParameters
from .errors import NumericError, ValidationError
from .graph import _integer, simplex_points

#: Steps of a block, after which walk_run chooses each replica's kernel;
#: entries of a chunk's power table (8 MiB), past which counts take libm's
#: pow one by one; the replica-steps of whole blocks that one walk_run call,
#: which a signal cannot interrupt, may take (at least one block); and the
#: fewest replica-steps of a chunk of a split walk. None affects trajectories.
BLOCK_STEPS = 4096
TABLE_SIZE = 2**20
SLICE_STEPS = 2**24
THREAD_STEPS = 2**20

#: Steps of a walk's first block, which walk_run takes every replica through
#: walk_block: no block before it tells which kernel suits the replica.
FIRST_BLOCK = 512

#: The version of the contract that fixes every random draw (2: exact clock stream keys).
RNG_CONTRACT_VERSION = 2

#: Full site sequences are kept only up to this horizon; beyond it records
#: carry geometric checkpoints only.
FULL_LOG_LIMIT = 1_000_000

#: exp overflows just past 709: a weight stays below e**690, and a row's
#: weighted total below e**709, so no total is ever infinite.
_WEIGHT_LOG_CAP = 690.0
_TOTAL_LOG_CAP = 709.0

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
        self.final_counts.setflags(False)  # write=False, without numpy's dearer keyword parsing
        self.checkpoint_steps.setflags(False)
        self.checkpoint_counts.setflags(False)
        if self.sites is not None:
            self.sites.setflags(False)
        if sum(self.final_counts.tolist()) != self.horizon + 1:
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


@functools.lru_cache(maxsize=256)
def _geometric_steps(horizon: int) -> np.ndarray:
    """The distinct ceil(1.2^m) up to horizon >= 1 and horizon itself, sorted,
    as a read-only int64 array, cached so that no walk checks it again."""
    vals, x = {horizon}, 1.0
    while math.ceil(x) <= horizon:
        vals.add(math.ceil(x))
        x *= 1.2
    steps = np.array(sorted(vals), dtype=np.int64)
    steps.setflags(write=False)
    return steps


def checkpoint_schedule(horizon: int, extra=()) -> np.ndarray:
    """Geometric snapshot times ceil(1.2^m) capped at and including the
    horizon, merged with any extra requested steps, all integers. Without
    extra steps the schedule is cached per horizon, and read-only."""
    extra = [_integer(k, "checkpoint step") for k in extra]
    horizon = _integer(horizon, "horizon")
    steps = sorted({*extra, *_geometric_steps(horizon).tolist()}) if extra else _geometric_steps(horizon)
    if steps[0] < 1 or steps[-1] > horizon:
        raise ValidationError("checkpoint steps must lie in [1, horizon]")
    return np.array(steps, dtype=np.int64) if extra else steps


def _nonnegative_int(x, what: str) -> int:
    """x as a nonnegative Python int."""
    v = _integer(x, what)
    if v < 0:
        raise ValidationError(f"{what} must be nonnegative, got {v}")
    return v


def _replica_ints(values, what: str, stop=None):
    """values, one per replica, as integers in [0, stop): an integer array is
    checked at once and kept, any other sequence becomes a list of Python ints."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
        if low < 0:
            raise ValidationError(f"{what} must be nonnegative, got {low}")
    else:  # a plain nonnegative int needs no call
        values = [v if type(v) is int and v >= 0 else _nonnegative_int(v, what) for v in values]
        high = max(values) if values else 0
    if stop is not None and high >= stop:
        raise ValidationError(f"{what} out of range")
    return values


def _check_weight_range(p: ModelParameters, horizon: int) -> None:
    log_weight = p.alpha * math.log(horizon + 2)
    log_total = log_weight + math.log(p.effective_matrix.row_sum)
    if log_weight > _WEIGHT_LOG_CAP or log_total > _TOTAL_LOG_CAP:
        raise NumericError(f"visit weights overflow doubles at horizon {horizon} with exponent {p.alpha}")


def init_walk(p: ModelParameters, start: int) -> WalkState:
    """Walk at time 0: sitting on start with that single visit counted."""
    n, start = p.size, _integer(start, "start site")
    if not 0 <= start < n:
        raise ValidationError(f"start site {start} out of range for {n} sites")
    counts = np.zeros(n, dtype=np.int64)
    counts[start] = 1
    return WalkState(site=start, counts=counts, step=0)


def _pick(weights: np.ndarray, rng) -> int:
    """Site that one uniform u of rng picks by the nonnegative weights: the number of their
    prefix sums, added sequentially in site order, at or below u times the last. A total
    that is not finite raises NumericError before u is drawn.

    For a finite total t in the normal double range and 0 <= u < 1 the
    rounded product u * t is strictly below t, so at most n - 1 prefix
    sums are counted, and the picked site i has u * t < csum[i] and, past
    site 0, csum[i-1] <= u * t: its weight is positive. validate keeps
    the off-diagonal entries of a matrix normal, so every total is.
    """
    csum = np.cumsum(weights)
    if not np.isfinite(csum[-1]):
        raise NumericError("transition weights have no finite total")
    return int(np.count_nonzero(csum <= rng.random() * csum[-1]))


def _power(values, exponent: float) -> np.ndarray:
    """v^exponent for the floats v >= 0 of values by libm's pow (math.pow), as np.power's last
    bits vary with numpy's SIMD kernels; a power past the double range raises OverflowError."""
    return np.array([math.pow(v, exponent) for v in values])


def step(p: ModelParameters, s: WalkState, rng: np.random.Generator) -> WalkState:
    """Advance one step, drawing a single uniform from rng. With loop_c > 0
    staying put carries weight loop_c * (1 + Z(site))^alpha through the
    effective matrix. This is the sequential reference for simulate."""
    try:
        powers = _power((1.0 + s.counts).tolist(), p.alpha)
    except OverflowError as exc:
        raise NumericError("a transition weight overflows the double range") from exc
    with np.errstate(over="ignore"):
        nxt = _pick(p.effective_matrix.entries[s.site] * powers, rng)
    counts = s.counts.copy()
    counts[nxt] += 1
    return WalkState(site=nxt, counts=counts, step=s.step + 1)


def _seed_words(seeds):
    """The seeds, nonnegative ints or a uint64 array, as seed_pcg64 reads
    them: the words per seed, at least 4, and each seed's 32-bit words, low
    first."""
    if isinstance(seeds, np.ndarray):
        words = np.zeros((len(seeds), 2), dtype="<u8")
        words[:, 0] = seeds
        return 4, words.tobytes()
    width = max(4, (max(seeds).bit_length() + 31) // 32 if seeds else 0)
    return width, b"".join([s.to_bytes(4 * width, "little") for s in seeds])


def _walk(p, starts, horizon, seeds, record_sites, checkpoint_at):
    """Advance one replica per seed from starts for `horizon` steps, each
    drawing one double per step from its own PCG64, in calls of walk_run of
    at most SLICE_STEPS replica-steps each, a chunk of replicas per CPU.
    Returns what _batch_walk returns, then each replica's PCG64 state (uint64
    [R, 4]: state and inc, low words first) and the number of blocks it took
    through walk_group. checkpoint_at is sorted int64, free of repeats."""
    n, r, c = p.size, len(seeds), checkpoint_at.size
    sites = np.empty((r, horizon + 1), dtype=np.int16 if n < 2**15 else np.int64) if record_sites else None
    k = max(1, min(r, r * horizon // THREAD_STEPS))
    if k > 1:
        k = min(k, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    size = min(horizon + 2, TABLE_SIZE)
    chunks = []
    for i in range(k):
        # walk_run's workspace, as _walk.c lays it out: done and paired, then per
        # replica its site, counts, checkpoint counts, state and walk_group blocks,
        # the checkpoint steps, and walk_run's own words (3n for each of 8 lanes)
        lo, hi = r * i // k, r * (i + 1) // k
        m = hi - lo
        counts_at, chk_at = 2 + m, 2 + m + m * n
        state_at = chk_at + m * c * n
        steps_at = state_at + 5 * m
        iw = np.zeros(steps_at + c + m * (1 + n) + size + 24 * n, dtype=np.int64)
        iw[2:counts_at] = starts[lo:hi]
        iw[steps_at : steps_at + c] = checkpoint_at
        log = None if sites is None else files.address(sites) + lo * sites.strides[0]
        width, words = _seed_words(seeds[lo:hi])
        args = (
            n, m, p.alpha, p.effective_matrix.address, horizon, FIRST_BLOCK, BLOCK_STEPS, SLICE_STEPS, size, c,
            width, words, log if n < 2**15 else None, None if n < 2**15 else log, files.address(iw),
        )
        fields = (
            iw[counts_at:chk_at].reshape(m, n), iw[chk_at:state_at].reshape(m, c, n),
            iw[state_at : state_at + 4 * m].view(np.uint64).reshape(m, 4), iw[state_at + 4 * m : steps_at],
        )
        chunks.append((lo, hi, args, fields))
    lib, stop = files._library(), []
    if k == 1:  # copies, so that a record does not keep the power table alive
        while lib.walk_run(*args) < horizon:
            pass
        counts, chk, state, grouped = fields
        return counts.copy(), chk.copy(), sites, state, grouped

    def run(args):
        while lib.walk_run(*args) < horizon and not stop:
            pass

    threads = [threading.Thread(target=run, args=(args,)) for _, _, args, _ in chunks[1:]]
    try:
        for t in threads:
            t.start()
        run(chunks[0][2])
        for t in threads:
            t.join()
    finally:
        stop.append(True)
        for t in filter(threading.Thread.is_alive, threads):
            t.join()
    out = [np.empty((r, *f.shape[1:]), f.dtype) for f in chunks[0][3]]
    for lo, hi, _, fields in chunks:
        for whole, part in zip(out, fields):
            whole[lo:hi] = part
    return out[0], out[1], sites, out[2], out[3]


def _batch_walk(p, starts, horizon, seeds, record_sites, checkpoint_at):
    """Advance len(seeds) replicas for `horizon` steps.

    Returns (final_counts [R,N], checkpoint_counts [R,C,N], sites [R,horizon+1]
    or None). Replica r consumes uniforms from PCG64(seeds[r]) one per step
    in step order. checkpoint_at must be sorted and free of repeats, as
    checkpoint_schedule returns it.
    """
    horizon = _nonnegative_int(horizon, "horizon")
    starts, seeds = _replica_ints(starts, "start site", p.size), _replica_ints(seeds, "seed")
    if len(starts) != len(seeds):
        raise ValidationError("starts and seeds must have matching length")
    _check_weight_range(p, horizon)
    if checkpoint_at is not _geometric_steps(horizon):
        checkpoint_at = np.ascontiguousarray(checkpoint_at, dtype=np.int64)
        if np.count_nonzero(checkpoint_at[1:] <= checkpoint_at[:-1]):
            raise ValidationError("checkpoint steps must increase")
    return _walk(p, starts, horizon, seeds, record_sites, checkpoint_at)[:3]


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
    horizon = _integer(horizon, "horizon")
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if record_sites is None:
        record_sites = horizon <= FULL_LOG_LIMIT
    checkpoints = _geometric_steps(horizon) if checkpoints is None else checkpoint_schedule(horizon, checkpoints)
    final, chk, sites = _batch_walk(p, [start], horizon, [seed], record_sites, checkpoints)
    return TrajectoryRecord(
        int(start), p, int(seed), horizon, final[0], checkpoints, chk[0], None if sites is None else sites[0]
    )
