"""A Python reference for the compiled walk's driver, walk_run in
src/vrrw/_walk.c: its block loop and its choice of kernel, written with
numpy around the two kernels, walk_block and walk_group, that the driver
steps through. The tests compare the driver with it, and drive the kernels
through it one call at a time to log, force or craft what each call does.

It reads BLOCK_STEPS, FIRST_BLOCK and TABLE_SIZE from vrrw.walk and the
library from vrrw.files._library when it runs, so a test that patches them
patches the reference too.
"""

import numpy as np

import vrrw.files as files
import vrrw.walk as walk


def seed_states(seeds):
    """The PCG64 states, uint64 [R, 4], of the nonnegative int seeds, as
    the driver seeds them: row r holds state and inc of numpy's
    PCG64(seeds[r]), each low word first."""
    width, words = walk._seed_words(seeds)
    state = np.empty((len(seeds), 4), dtype=np.uint64)
    files._library().seed_pcg64(len(seeds), width, words, state.ctypes.data)
    return state


def run(p, starts, horizon, state, record_sites, checkpoint_at):
    """Advance one replica per row of state (uint64 [R, 4], as seed_states
    makes it) from starts (int64) for `horizon` steps, one kernel call per
    kernel and block, and return the final counts [R, N], the checkpoint
    counts [R, C, N], the site log [R, horizon + 1] or None, and the number
    of blocks each replica took through walk_group. Each row of state is
    left at its generator's state after the walk. checkpoint_at is sorted
    int64, free of repeats.

    A walk's first block, of FIRST_BLOCK steps, takes every replica through
    walk_block. After each block that a next block follows, a replica that
    put at least 7/8 of the block's steps on two sites goes through
    walk_block, and every other replica through walk_group."""
    lib = files._library()
    n, r = p.size, len(state)
    a = np.ascontiguousarray(p.effective_matrix.entries, dtype=np.float64)
    site = starts.copy()
    counts = np.zeros((r, n), dtype=np.int64)
    counts[np.arange(r), starts] = 1
    chk = np.empty((r, checkpoint_at.size, n), dtype=np.int64)
    grouped = np.zeros(r, dtype=np.int64)
    sites, log16, log64 = None, None, None
    if record_sites:
        sites = np.empty((r, horizon + 1), dtype=np.int16 if n < 2**15 else np.int64)
        sites[:, 0] = starts
        log16, log64 = (sites.ctypes.data, None) if sites.dtype == np.int16 else (None, sites.ctypes.data)
    table = np.empty(min(horizon + 2, walk.TABLE_SIZE))
    scratch, done = np.empty(3 * n * 8), 0  # 3n words for each of walk_group's 8 lanes
    lib.power_table(table.size, p.alpha, table.ctypes.data)
    # per kernel, the replicas it steps and the address of their rows (None: every row)
    calls = [(lib.walk_block, r, None)]
    while done < horizon:
        nblk = min(walk.BLOCK_STEPS, walk.FIRST_BLOCK if done == 0 else walk.BLOCK_STEPS, horizon - done)
        before = counts.copy() if done + nblk < horizon else None  # for the next block's choice
        for kernel, reps, rows in calls:
            kernel(
                n, reps, rows, nblk, state.ctypes.data, a.ctypes.data, table.ctypes.data, table.size, p.alpha,
                site.ctypes.data, counts.ctypes.data, scratch.ctypes.data, done, checkpoint_at.ctypes.data,
                checkpoint_at.size, int(np.searchsorted(checkpoint_at, done + 1)), chk.ctypes.data, log16, log64,
                horizon + 1,
            )
        done += nblk
        if before is not None:
            # a replica that put 7/8 of the block's steps on two sites is taken to alternate on them
            top_two = np.partition(counts - before, n - 2, axis=1)[:, n - 2 :].sum(axis=1)
            paired = 8 * top_two >= 7 * nblk
            grouped += ~paired  # the next block's kernel
            kept = np.flatnonzero(paired), np.flatnonzero(~paired)  # the arrays behind the addresses
            calls = [
                (kernel, rows.size, rows.ctypes.data)
                for kernel, rows in zip((lib.walk_block, lib.walk_group), kept) if rows.size
            ]
    return counts, chk, sites, grouped
