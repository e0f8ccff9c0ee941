"""Continuous-time clock construction of the reinforced walk.

Every directed edge (x, y) owns a sequence of independent exponential
durations, the l-th with mean 1/w(l). Sitting at x, one clock per
neighbor runs; the first to ring decides the jump. Clocks of the losing
edges freeze and later resume only if the neighbor's visit count is
unchanged, otherwise they restart at the current count. The jump chain
of this race has the law of the discrete walk with weight w.

Duration l of edge e = x*n + y is -log1p(-u) / w(l), u being draw l of
`Generator(Philox(key=[splitmix64(seed), e]))`, keyed exactly. clock_run in
_walk.c runs the race with its own Philox and libm's log1p (math.log1p's);
Python keeps the validation, the rates w(l) and the records.

Also computes the closed-form lower bound for the probability of the
trap event (the clock configuration that confines the walk to one edge
from a given visit index on), and samples that event directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import files
from .errors import NumericError, SummabilityError, ValidationError
from .graph import InteractionMatrix, _exponent, _integer
from .walk import TrajectoryRecord, _geometric_steps, _nonnegative_int, splitmix64

#: Dyadic probe depth for certifying weight-sequence tails.
_TAIL_PROBES = 64

#: Chunk-sum contraction threshold; slower decay is treated as non-summable.
_TAIL_CONTRACTION = 0.9

#: Jumps times sites that one clock_run call, which a signal cannot interrupt,
#: may take: rubin_simulate takes max(1, CLOCK_SLICE // n) jumps a call.
CLOCK_SLICE = 2**22


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
    """Graph adjacency plus the clock rate map w(l); _rates keeps the w(l) races reached."""

    matrix: InteractionMatrix
    weight: Callable[[int], float]

    def __post_init__(self):
        if not (self.matrix.entries > 0).any(axis=1).all():
            raise ValidationError("every site needs a neighbor")
        object.__setattr__(self, "_rates", np.array([_clock_weights(self.weight, 0)]))

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
        self.jump_times.setflags(False)  # write=False, as TrajectoryRecord sets it


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


def _more_rates(config: ClockConfig, level: int) -> np.ndarray:
    """config's rates w(0), w(1), ... extended to w(level) and on to twice
    their length. A w(l) that fails at l <= level raises; past level it ends
    the table before l, so that only a race that reaches l raises."""
    rates, more = config._rates, []
    for l in range(rates.size, max(level + 1, 2 * rates.size)):
        try:
            more.append(_clock_weights(config.weight, l))
        except Exception:
            if l <= level:
                raise
            break
    object.__setattr__(config, "_rates", np.concatenate((rates, more)))
    return config._rates


def rubin_simulate(config: ClockConfig, start: int, jump_budget: int, seed: int) -> RubinRecord:
    """Run the clock race for jump_budget jumps and return the embedded
    chain, its jump times, and the count of resampled exact ties.

    Frozen clocks keep their remaining duration together with the
    neighbor's visit count at freeze time; on return to the source the
    clock resumes only when that count still matches, otherwise a fresh
    duration at the current count replaces it. A neighbor's count only
    grows, so each duration is read at most once. An exact tie redraws the
    tied durations from the stream keyed [splitmix64(seed ^ 0x7E57),
    0xFFFFFFFF]. The start, the budget and the seed are integers; a negative
    seed keys the streams of the seed modulo 2**64.
    """
    n = config.size
    start, jump_budget = _integer(start, "start site"), _integer(jump_budget, "jump budget")
    seed = _integer(seed, "seed")
    if not 0 <= start < n:
        raise ValidationError(f"start site {start} out of range for {n} sites")
    if jump_budget < 1:
        raise ValidationError(f"jump budget must be >= 1, got {jump_budget}")
    chk = _geometric_steps(jump_budget)
    c = chk.size
    # clock_run's workspace, laid out as _walk.c describes it
    chk_at = 4 + n + n * n + c
    sites_at, times_at = chk_at + c * n, chk_at + c * n + jump_budget + 1 + n * n
    iw = np.zeros(times_at + jump_budget + 1 + n, dtype=np.int64)
    iw[4 + start], iw[chk_at - c : chk_at], iw[sites_at] = 1, chk, start
    key, tie_key, rates = splitmix64(seed), splitmix64(seed ^ 0x7E57), config._rates
    lib, args = files._library(), (n, config.matrix.address, jump_budget, max(1, CLOCK_SLICE // n))
    while lib.clock_run(*args, files.address(rates), rates.size, key, tie_key, c, files.address(iw)) < jump_budget:
        if iw[3] >= rates.size:
            rates = _more_rates(config, int(iw[3]))
    # copies, so that a record does not keep the workspace alive
    sites = iw[sites_at : sites_at + jump_budget + 1].astype(np.int16 if n < 2**15 else np.int64)
    chk_counts = iw[chk_at:sites_at].reshape(c, n).copy()
    walk = TrajectoryRecord(start, config, seed, jump_budget, iw[4 : 4 + n].copy(), chk, chk_counts, sites)
    times = iw[times_at : times_at + jump_budget + 1].view(np.float64).copy()
    return RubinRecord(walk, times, int(iw[1]))


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
    # durations are drawn, divided and summed in blocks of 2^16 doubles or one leaf's
    rows = max(1, 2**16 // levels.size)
    sums = np.empty(min(chunk_cap, draws) * degree)
    buf = np.empty((min(rows, sums.size), levels.size))
    while remaining > 0:
        m = min(chunk_cap, remaining)
        for i in range(0, m * degree, rows):
            durations = rng.standard_exponential(out=buf[: min(rows, m * degree - i)])
            np.divide(durations, rates, out=durations).sum(axis=1, out=sums[i : i + len(durations)])
        fresh = rng.standard_exponential((m, degree)) / w0
        hits += int(np.count_nonzero(sums[: m * degree].reshape(m, degree).max(axis=1) < fresh.min(axis=1)))
        remaining -= m
    return TrapSample(draws=draws, hits=hits)
