"""A Python reference for the compiled clock race, clock_run in
src/vrrw/_walk.c: rubin_simulate's race as a loop over jumps, with numpy's
Philox for the streams and math.log1p for the durations. The tests compare
rubin_simulate with it race by race.

Duration l of edge e = x*n + y is -log1p(-u) / w(l), u being draw l of
Generator(Philox(key=[splitmix64(seed), e])), keyed exactly as two uint64
words. An exact tie redraws the tied durations, in site order, from the tie
stream, keyed [splitmix64(seed ^ 0x7E57), 0xFFFFFFFF].
"""

import math

import numpy as np

from vrrw.rubin import _clock_weights
from vrrw.walk import checkpoint_schedule, splitmix64


def _stream(key, edge):
    """The draws of Generator(Philox(key=[key, edge])), one per call."""
    return np.random.Generator(np.random.Philox(key=np.array([key, edge], dtype=np.uint64))).random


def race(config, start, jump_budget, seed):
    """(sites, jump times, checkpoint counts, final counts, tie count) of the
    race rubin_simulate(config, start, jump_budget, seed) runs, for valid
    int arguments: the sites and counts as int64 arrays, the times as
    float64.

    Frozen clocks keep their remaining duration together with the neighbor's
    visit count at freeze time; on return to the source the clock resumes
    only when that count still matches, otherwise a fresh duration at the
    current count replaces it."""
    n = config.size
    nbrs = [[y for y, on in enumerate(row) if on] for row in (config.matrix.entries > 0).tolist()]
    key = splitmix64(seed)
    streams, draws, frozen, rates, tie_draw = {}, {}, {}, [], None
    counts = [0] * n
    counts[start] = 1
    site, now, tie_count = start, 0.0, 0
    sites, times, chk_rows = [start], [0.0], []
    chk_steps = set(checkpoint_schedule(jump_budget).tolist())

    for k in range(1, jump_budget + 1):
        nb = nbrs[site]
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
            if edge not in streams:
                streams[edge], draws[edge] = _stream(key, edge), []
            while len(draws[edge]) <= level:
                draws[edge].append(streams[edge]())
            durs.append(-math.log1p(-draws[edge][level]) / rates[level])
        best = min(durs)
        while durs.count(best) > 1:
            # Exact clock tie: measure-zero, broken by fresh durations.
            tie_count += 1
            if tie_draw is None:
                tie_draw = _stream(splitmix64(seed ^ 0x7E57), 0xFFFFFFFF)
            for i, t in enumerate(durs):
                if t == best:
                    durs[i] = -math.log1p(-tie_draw()) / rates[counts[nb[i]]]
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

    return (
        np.array(sites, dtype=np.int64),
        np.array(times),
        np.array(chk_rows, dtype=np.int64),
        np.array(counts, dtype=np.int64),
        tie_count,
    )
