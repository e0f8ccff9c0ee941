"""Continuous-time clock construction of the reinforced walk.

Every directed edge (x, y) owns a sequence of independent exponential
durations, the l-th with mean 1/w(l). Sitting at x, one clock per
neighbor runs; the first to ring decides the jump. Clocks of the losing
edges freeze and later resume only if the neighbor's visit count is
unchanged, otherwise they restart at the current count. The jump chain
of this race has the law of the discrete walk with weight w.

Duration l of edge e = x*n + y is -log1p(-u) / w(l), a fixed function of
(seed, e, l): u is draw l of `Generator(Philox(key=[splitmix64(seed), e]))`,
read in blocks of raw Philox output. Known fault, kept because a fix changes
every stream: numpy casts that key list to float64 when splitmix64(seed) >=
2**63, which rounds the key to a multiple of 2**11 for about half of all seeds.

Also computes the closed-form lower bound for the probability of the
trap event (the clock configuration that confines the walk to one edge
from a given visit index on), and samples that event directly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, SummabilityError, ValidationError
from .graph import InteractionMatrix, _exponent, _integer
from .walk import TrajectoryRecord, _nonnegative_int, checkpoint_schedule, splitmix64

#: Dyadic probe depth for certifying weight-sequence tails.
_TAIL_PROBES = 64

#: Chunk-sum contraction threshold; slower decay is treated as non-summable.
_TAIL_CONTRACTION = 0.9

#: Draws read from an edge stream at a time; a multiple of 4, the number of
#: Philox outputs per counter value.
_STREAM_BLOCK = 32

#: Each thread's Philox, re-keyed for every stream read: building one per
#: race would cost about an eighth of a 50-jump race.
_THREAD = threading.local()


def power_weight(alpha: float) -> Callable[[int], float]:
    """The strongly reinforcing weight family w(l) = (l+1)^alpha."""
    alpha = _exponent(alpha)

    def w(level):
        if isinstance(level, (int, float)):
            return (level + 1.0) ** alpha
        # np.power: level arrays feed only the trap sampler's hit count and its bound
        return (np.asarray(level, dtype=float) + 1.0) ** alpha

    return w


@dataclass(frozen=True)
class ClockConfig:
    """Graph adjacency plus the per-visit clock rate map w(l)."""

    matrix: InteractionMatrix
    weight: Callable[[int], float]

    def __post_init__(self):
        _clock_weights(self.weight, 0)

    @property
    def size(self) -> int:
        return self.matrix.size


@dataclass(frozen=True)
class RubinRecord:
    """Embedded jump chain with its continuous ring times."""

    walk: TrajectoryRecord
    jump_times: np.ndarray
    tie_count: int

    def __post_init__(self):
        self.jump_times.setflags(write=False)


def _read_stream(bits, key: int, edge: int, level: int):
    """(first, draws): _STREAM_BLOCK `Generator.random()` draws of a stream from index first."""
    first = level - level % 4
    bits.state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
                  "uinteger": 0, "state": {"counter": [first // 4, 0, 0, 0], "key": [key, edge]}}
    return first, ((bits.random_raw(_STREAM_BLOCK) >> 11) * 2.0**-53).tolist()


def _clock_weights(weight, levels):
    """w at one int level, as a float, or at an array of levels, as an array
    (one call of weight when it takes arrays, else level by level). The first
    w(l) that overflows or is not finite raises NumericError; the first that
    is not positive raises ValidationError."""
    if isinstance(levels, int):
        try:
            value = float(weight(levels))
        except OverflowError:
            value = math.inf
        if 0.0 < value < math.inf:
            return value
        level = levels
    else:
        try:
            with np.errstate(over="ignore"):
                values = np.asarray(weight(levels), dtype=float)
        except (TypeError, ValueError, OverflowError):
            values = None
        if values is None or values.shape != levels.shape:
            values = np.array([_clock_weights(weight, int(l)) for l in levels])
        ok = (values > 0.0) & (values < np.inf)
        if ok.all():
            return values
        i = int(np.argmin(ok))
        level, value = int(levels[i]), float(values[i])
    if not math.isfinite(value):
        raise NumericError(f"clock weight w({level}) is not a finite double: {value}")
    raise ValidationError(f"clock weight w({level}) must be positive, got {value}")


def rubin_simulate(config: ClockConfig, start: int, jump_budget: int, seed: int) -> RubinRecord:
    """Run the clock race for jump_budget jumps and return the embedded
    chain, its jump times, and the count of resampled exact ties.

    Frozen clocks keep their remaining duration together with the
    neighbor's visit count at freeze time; on return to the source the
    clock resumes only when that count still matches, otherwise a fresh
    duration at the current count replaces it. A neighbor's count only
    grows, so each duration is read at most once. The start, the budget and
    the seed are integers; a negative seed keys the streams of the seed
    modulo 2**64.
    """
    n = config.size
    start, jump_budget = _integer(start, "start site"), _integer(jump_budget, "jump budget")
    seed = _integer(seed, "seed")
    if not 0 <= start < n:
        raise ValidationError(f"start site {start} out of range for {n} sites")
    if jump_budget < 1:
        raise ValidationError(f"jump budget must be >= 1, got {jump_budget}")

    nbrs = [[y for y, on in enumerate(row) if on] for row in (config.matrix.entries > 0).tolist()]
    key = splitmix64(seed)
    if key >= 2**63:
        key = int(float(key)) % 2**64  # numpy's float64 key, see the module docstring
    if not hasattr(_THREAD, "philox"):
        _THREAD.philox = np.random.Philox(key=[0, 0])
    bits = _THREAD.philox
    streams, frozen, rates, tie_gen = {}, {}, [], None
    counts = [0] * n
    counts[start] = 1
    site, now, tie_count = start, 0.0, 0
    sites, times, chk_rows = [start], [0.0], []
    chk = checkpoint_schedule(jump_budget)
    chk_steps = set(chk.tolist())

    for k in range(1, jump_budget + 1):
        nb = nbrs[site]
        if not nb:
            raise ValidationError(f"site {site} has no neighbors")
        edge0 = site * n
        durs = []
        for y in nb:
            level, edge = counts[y], edge0 + y
            held = frozen.pop(edge, None)
            if held is not None and held[1] == level:
                durs.append(held[0])
                continue
            while level >= len(rates):
                rates.append(_clock_weights(config.weight, len(rates)))
            stream = streams.get(edge)
            if stream is None or level - stream[0] >= _STREAM_BLOCK:
                stream = streams[edge] = _read_stream(bits, key, edge, level)
            durs.append(-math.log1p(-stream[1][level - stream[0]]) / rates[level])
        best = min(durs)
        while durs.count(best) > 1:
            # Exact clock tie: measure-zero, broken by fresh durations.
            tie_count += 1
            if tie_gen is None:
                tie_gen = np.random.Generator(np.random.Philox(key=[splitmix64(seed ^ 0x7E57), 0xFFFFFFFF]))
            for i, t in enumerate(durs):
                if t == best:
                    durs[i] = -math.log1p(-tie_gen.random()) / rates[counts[nb[i]]]
            best = min(durs)
        winner = nb[durs.index(best)]
        now += best
        for y, t in zip(nb, durs):
            if y != winner:
                frozen[edge0 + y] = (t - best, counts[y])
        site = winner
        counts[site] += 1
        sites.append(site)
        times.append(now)
        if k in chk_steps:
            chk_rows.append(counts.copy())

    walk = TrajectoryRecord(
        start=start,
        params=config,
        seed=seed,
        horizon=jump_budget,
        final_counts=np.array(counts, dtype=np.int64),
        checkpoint_steps=chk,
        checkpoint_counts=np.array(chk_rows, dtype=np.int64),
        sites=np.array(sites, dtype=np.int16 if n < 2**15 else np.int64),
    )
    return RubinRecord(walk=walk, jump_times=np.array(times), tie_count=tie_count)


def _tail_inverse_sum(weight, truncation: int) -> float:
    """Upper bound on sum_{l > truncation} 1/w(l) from dyadic chunks and
    probe monotonicity; raises when the chunks do not contract."""
    total, lo, prev, prev_w = 0.0, truncation, None, None
    for _ in range(_TAIL_PROBES):
        hi = lo * 2
        w_lo = _clock_weights(weight, int(lo + 1))
        if prev_w is not None and w_lo < prev_w:
            raise SummabilityError(f"weight decreases beyond {truncation}; tail cannot be certified")
        prev_w = w_lo
        chunk = (hi - lo) / w_lo
        if prev is not None and chunk >= _TAIL_CONTRACTION * prev:
            raise SummabilityError(
                f"weight tail beyond {truncation} decays too slowly to certify "
                f"(chunk ratio {chunk / prev:.3f})"
            )
        total += chunk
        if chunk < 1e-300 or chunk < 1e-18 * total:
            return total
        prev = chunk
        lo = hi
    raise SummabilityError(
        f"weight tail beyond {truncation} did not converge within {_TAIL_PROBES} dyadic probes"
    )


def trap_probability_bound(
    degree: int, weight: Callable[[int], float], start_index: int, truncation: int = 10**6
) -> float:
    """Certified lower bound for the trap-event probability: the product

        prod_{l >= start_index} (1 - degree * w(0) / w(l))^degree

    evaluated in log space to `truncation`, minus a tail allowance of
    degree^2 * w(0) * sum_{l > truncation} 1/w(l) / (1 - x_trunc) in the
    log, so the returned value never exceeds the infinite product.

    Returns 0 when some factor is nonpositive (the bound is vacuous then).
    The degree and the levels are integers.
    """
    degree, start_index = _integer(degree, "degree"), _integer(start_index, "start index")
    truncation = _integer(truncation, "truncation")
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    if start_index < 0 or truncation <= start_index:
        raise ValidationError(f"need 0 <= start_index < truncation, got {start_index}, {truncation}")
    levels = np.arange(start_index, truncation + 1, dtype=np.int64)
    w = _clock_weights(weight, levels)
    w0 = _clock_weights(weight, 0)
    x = degree * w0 / w
    if np.any(x >= 1.0):
        return 0.0
    log_main = degree * float(np.sum(np.log1p(-x)))
    x_trunc = degree * w0 / float(w[-1])
    tail = _tail_inverse_sum(weight, truncation)
    log_tail_allowance = degree * degree * w0 * tail / (1.0 - x_trunc)
    value = math.exp(log_main - log_tail_allowance)
    if not math.isfinite(value):
        raise NumericError("trap bound evaluation lost finiteness")
    return value


@dataclass(frozen=True)
class TrapSample:
    """Monte Carlo estimate of the trap-event probability."""

    draws: int
    hits: int

    @property
    def estimate(self) -> float:
        return self.hits / self.draws


def sample_trap_event(
    degree: int,
    weight: Callable[[int], float],
    start_index: int,
    draws: int,
    seed: int,
    truncation: int = 2000,
) -> TrapSample:
    """Sample the trap event on a star with `degree` leaves: every leaf
    edge's total remaining duration from start_index on must undercut the
    smallest fresh level-0 duration among the leaf edges.

    Durations beyond `truncation` are dropped; their total mean must be
    negligible against the binomial noise at the configured draw count.
    The counts and levels are integers, and the seed a nonnegative one.
    """
    degree, draws = _integer(degree, "degree"), _integer(draws, "draws")
    start_index, truncation = _integer(start_index, "start index"), _integer(truncation, "truncation")
    seed = _nonnegative_int(seed, "seed")
    if degree < 1 or draws < 1:
        raise ValidationError("need degree >= 1 and draws >= 1")
    if start_index < 0 or truncation <= start_index:
        raise ValidationError(f"need 0 <= start_index < truncation, got {start_index}, {truncation}")
    levels = np.arange(start_index, truncation + 1, dtype=np.int64)
    rates = _clock_weights(weight, levels)
    w0 = _clock_weights(weight, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    hits, remaining = 0, draws
    chunk_cap = max(1, int(4e6 // (degree * levels.size)))
    # one buffer for all chunks, so no chunk allocates multi-MB temporaries
    buf = np.empty((min(chunk_cap, draws), degree, levels.size))
    while remaining > 0:
        m = min(chunk_cap, remaining)
        durations = rng.standard_exponential(out=buf[:m])
        sums = np.divide(durations, rates, out=durations).sum(axis=2)
        fresh = rng.standard_exponential((m, degree)) / w0
        hits += int(np.count_nonzero(sums.max(axis=1) < fresh.min(axis=1)))
        remaining -= m
    return TrapSample(draws=draws, hits=hits)
