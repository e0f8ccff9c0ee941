import ctypes
import hashlib
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrrw
from vrrw import (
    BuildError,
    ModelParameters,
    NumericError,
    ValidationError,
    WalkState,
    checkpoint_schedule,
    init_walk,
    simulate,
    step,
    transition_kernel,
)
import vrrw.files as files_module
import vrrw.walk as walk_module
from vrrw.graph import validate
from vrrw.walk import FULL_LOG_LIMIT, _batch_walk, _pick, _power

import walk_reference as ref

P25 = ModelParameters.for_complete_graph(3, 2.5)


def _kernel_row(p, s):
    """Law of the next site: the frozen kernel row at eps = 1/(n+1), v = v_n."""
    return transition_kernel(p, 1.0 / (s.step + 1), s.counts / (s.step + 1))[s.site]


def test_init_walk_counts_the_starting_visit():
    s = init_walk(P25, 1)
    assert s.site == 1 and s.step == 0
    np.testing.assert_array_equal(s.counts, [0, 1, 0])
    with pytest.raises(ValidationError):
        init_walk(P25, 3)


def test_walk_state_checks_mass_balance():
    with pytest.raises(ValidationError):
        WalkState(site=0, counts=np.array([1, 1, 0]), step=3)
    with pytest.raises(ValidationError):
        WalkState(site=2, counts=np.array([2, 2, 0]), step=3)  # unvisited current site


def test_step_law_oracle():
    s = WalkState(site=0, counts=np.array([1, 1, 0]), step=1)
    law = _kernel_row(ModelParameters.for_complete_graph(3, 2.0), s)
    np.testing.assert_allclose(law, [0.0, 0.8, 0.2], rtol=0, atol=1e-16)


def test_loop_law_oracle():
    p = ModelParameters.for_complete_graph(3, 2.0, loop_c=0.5)
    s = WalkState(site=0, counts=np.array([2, 1, 1]), step=3)
    law = _kernel_row(p, s)
    np.testing.assert_allclose(law, [0.36, 0.32, 0.32], rtol=0, atol=1e-16)


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=1.05, max_value=3.5),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=40),
)
def test_step_law_equals_frozen_kernel_row(n, alpha, seed, nsteps):
    p = ModelParameters.for_complete_graph(n, alpha)
    g = np.random.default_rng(seed)
    s = init_walk(p, int(seed) % n)
    for _ in range(nsteps):
        s = step(p, s, g)
    # the weights step draws from, as the walk module defines them
    weights = p.effective_matrix.entries[s.site] * _power(1.0 + s.counts, p.alpha)
    law = weights / weights.sum()
    assert np.max(np.abs(law - _kernel_row(p, s))) <= 1e-15


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_counts_are_conserved_and_positive(n, seed):
    p = ModelParameters.for_complete_graph(n, 1.8)
    g = np.random.default_rng(seed)
    s = init_walk(p, 0)
    for _ in range(25):
        s = step(p, s, g)
        assert s.counts.sum() == s.step + 1
        assert s.counts[s.site] >= 1
        assert np.all(s.counts >= 0)


def test_two_sites_force_alternation():
    r = simulate(ModelParameters.for_complete_graph(2, 1.5), 0, 11, 3)
    np.testing.assert_array_equal(r.sites, [0, 1] * 6)
    np.testing.assert_array_equal(r.final_counts, [6, 6])


def test_no_self_transitions_without_loops():
    r = simulate(P25, 0, 2000, 17)
    assert np.all(np.diff(r.sites) != 0)


def test_simulate_is_deterministic_and_matches_stepping():
    r1 = simulate(P25, 0, 500, 99)
    r2 = simulate(P25, 0, 500, 99)
    np.testing.assert_array_equal(r1.sites, r2.sites)
    np.testing.assert_array_equal(r1.final_counts, r2.final_counts)
    # past a block boundary, at five sizes and two exponents
    horizon = walk_module.BLOCK_STEPS + 100
    for n in (3, 8, 10, 64, 65):
        for alpha in (1.5, 2.5):
            p = ModelParameters.for_complete_graph(n, alpha)
            rec = simulate(p, 1, horizon, 31 + n)
            g = np.random.default_rng(31 + n)
            s = init_walk(p, 1)
            for k in range(1, horizon + 1):
                s = step(p, s, g)
                assert s.site == rec.sites[k]
            np.testing.assert_array_equal(s.counts, rec.final_counts)


@pytest.mark.parametrize("n", list(range(2, 11)) + [16, 50, 200])
def test_picks_land_on_positive_weight_sites(n):
    # zero weight on the first site and, past two sites, on the last, and
    # the extreme uniforms: with the last prefix sum as the total, no pick
    # reaches past the last positive weight
    rng = np.random.default_rng(100 + n)
    for m in (3, 133):
        eff = rng.random((n, m)) * 10.0 ** rng.integers(-4, 5, size=(n, m))
        eff[rng.random((n, m)) < 0.3] = 0.0
        eff[0] = eff[-1] = 0.0
        eff[rng.integers(1, max(2, n - 1), size=m), np.arange(m)] = 1.0
        for u in (np.zeros(m), np.full(m, np.nextafter(1.0, 0.0)), rng.random(m)):
            for j in range(m):
                pick = _pick(eff[:, j], _Uniforms([u[j]]))
                assert 0 <= pick < n and eff[pick, j] > 0


@settings(max_examples=25)
@given(
    st.integers(min_value=2, max_value=9),
    st.sampled_from([0.0, 0.5]),
    st.floats(min_value=1.1, max_value=5.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=40, max_value=300),
    st.integers(min_value=1, max_value=800),
)
def test_engine_matches_stepping_across_block_edges(n, c, alpha, seed, block, table):
    # short blocks put many block edges and checkpoints into one walk; with
    # a table shorter than the horizon, a block whose counts may pass it
    # takes its weights from pow
    p = ModelParameters.for_complete_graph(n, alpha, loop_c=c)
    horizon = 700
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk_module, "BLOCK_STEPS", block)
        mp.setattr(walk_module, "TABLE_SIZE", table)
        rec = simulate(p, seed % n, horizon, seed)
    g = np.random.default_rng(seed)
    s = init_walk(p, seed % n)
    for k in range(1, horizon + 1):
        s = step(p, s, g)
        assert s.site == rec.sites[k]
    np.testing.assert_array_equal(s.counts, rec.final_counts)
    for k, counts in zip(rec.checkpoint_steps, rec.checkpoint_counts):
        np.testing.assert_array_equal(counts, np.bincount(rec.sites[: k + 1], minlength=n))


def test_batch_engine_matches_single_runs(monkeypatch):
    # three blocks at alpha 2.5, so the batch, its two halves and each
    # replica alone all cross block boundaries
    horizon = 9000
    seeds = [5, 6, 7, 8, 9]
    starts = [0, 1, 2, 0, 1]
    sched = checkpoint_schedule(horizon)
    finals, checks, sites = _batch_walk(P25, starts, horizon, seeds, True, sched)
    halves = [
        _batch_walk(P25, starts[part], horizon, seeds[part], True, sched)
        for part in (slice(0, 2), slice(2, 5))
    ]
    for k, part in enumerate((slice(0, 2), slice(2, 5))):
        for got, want in zip(halves[k], (finals, checks, sites)):
            np.testing.assert_array_equal(got, want[part])
    for i, seed in enumerate(seeds):
        solo = simulate(P25, starts[i], horizon, seed)
        np.testing.assert_array_equal(sites[i], solo.sites)
        np.testing.assert_array_equal(finals[i], solo.final_counts)
        np.testing.assert_array_equal(checks[i], solo.checkpoint_counts)
    # batches of 1, 7, 8, 9 and 17 replicas at alpha 2, a short last group
    # of walk_group among them, with blocks of 1000 steps, through the
    # reference's block loop: in the largest, a block steps some replicas
    # through each kernel, and a replica that alternates on two sites in one
    # block after the first wanders in another
    p = ModelParameters.for_complete_graph(3, 2.0)
    monkeypatch.setattr(walk_module, "BLOCK_STEPS", 1000)
    log = _KernelLog()
    monkeypatch.setattr(files_module, "_library", lambda: log)
    for size in (1, 7, 8, 9, 17):
        seeds, starts = [40 + k for k in range(size)], [k % 3 for k in range(size)]
        log.calls.clear()
        state = ref.seed_states(seeds)
        finals, checks, sites, _ = ref.run(p, np.array(starts), horizon, state, True, sched)
        calls = list(log.calls)
        for i, seed in enumerate(seeds):
            solo = simulate(p, starts[i], horizon, seed)
            np.testing.assert_array_equal(sites[i], solo.sites)
            np.testing.assert_array_equal(finals[i], solo.final_counts)
            np.testing.assert_array_equal(checks[i], solo.checkpoint_counts)
    steps = {"walk_block": {}, "walk_group": {}}
    for name, step0, rows in calls:
        steps[name][step0] = set(rows)
    assert steps["walk_block"].keys() & steps["walk_group"].keys()
    later_pairs = set().union(*(rows for step0, rows in steps["walk_block"].items() if step0 > 0))
    assert later_pairs & set().union(*steps["walk_group"].values())


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("c", [0.0, 0.5])
def test_group_kernel_matches_block_kernel(n, c, monkeypatch):
    # the same replicas through walk_block alone and through walk_group
    # alone: groups of 1 to 8 lanes and one of 8, 8 and 1 (17 replicas),
    # blocks of 97 steps, and a table of the default size, of one entry
    # (every lane takes pow), and of 200 or 300 entries, where a lane takes
    # pow in a block in which one of its counts may pass the table while
    # other lanes of its group read the table (past two sites or with loops)
    p = ModelParameters.for_complete_graph(n, 1.15 + 0.35 * (n % 4), loop_c=c)
    horizon, sched = 600, checkpoint_schedule(600, extra=(97, 98, 194))
    lib = files_module._library()
    monkeypatch.setattr(walk_module, "BLOCK_STEPS", 97)
    for table in (walk_module.TABLE_SIZE, 1, 200, 300):
        monkeypatch.setattr(walk_module, "TABLE_SIZE", table)
        for size in (*range(1, 9), 17):
            seeds = [1000 * n + 10 * size + k for k in range(size)]
            starts = np.array([k % n for k in range(size)], dtype=np.int64)
            got = {}
            for kernel in ("walk_block", "walk_group"):
                state = ref.seed_states(seeds)
                loop = _OneKernel(lib, kernel)
                monkeypatch.setattr(files_module, "_library", lambda: loop)
                got[kernel] = (*ref.run(p, starts, horizon, state, True, sched)[:3], state)
            for want, have in zip(got["walk_block"], got["walk_group"]):
                np.testing.assert_array_equal(have, want)
            counts, _, sites, _ = got["walk_block"]
            np.testing.assert_array_equal(counts, [np.bincount(row, minlength=n) for row in sites])


class _CallCount:
    """The library, counting the calls of walk_run."""

    def __init__(self):
        self.lib, self.calls = files_module._library(), 0

    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        if name != "walk_run":
            return fn

        def counted(*args):
            self.calls += 1
            assert self.calls <= 1000, "walk_run makes no progress"
            return fn(*args)

        return counted


def _blocks(horizon):
    """The block lengths of a walk of `horizon` steps."""
    out, done = [], 0
    while done < horizon:
        first = walk_module.FIRST_BLOCK if done == 0 else walk_module.BLOCK_STEPS
        out.append(min(walk_module.BLOCK_STEPS, first, horizon - done))
        done += out[-1]
    return out


def _slices(blocks, reps, budget):
    """The calls a walk of these blocks for reps replicas takes: each runs
    whole blocks while their replica-steps fit the budget, and at least one."""
    calls, taken = 0, budget
    for nblk in blocks:
        if taken + reps * nblk > budget:
            calls, taken = calls + 1, 0
        taken += reps * nblk
    return calls


@pytest.mark.parametrize(
    "n, c, alpha", [(3, 0.0, 2.0), (3, 0.0, 2.5), (4, 0.5, 1.5), (8, 0.0, 1.15)], ids=["K3-2", "K3-2.5", "K4-loops", "K8"]
)
@pytest.mark.parametrize("slice_steps", [None, 1, 700, 1212, 2100])
def test_driver_matches_the_reference_block_loop(n, c, alpha, slice_steps, monkeypatch):
    # the driver against the reference's block loop: sites, counts,
    # checkpoints, final PCG64 states and each replica's walk_group blocks,
    # at uneven replica counts and at horizons on and off FIRST_BLOCK and
    # the block size, in calls of the default budget or of slice_steps per
    # replica: less than a block, which still runs one, one block of 700
    # steps, the first two blocks (512 and 700) exactly, or three blocks;
    # the driver makes one call per slice
    p = ModelParameters.for_complete_graph(n, alpha, loop_c=c)
    monkeypatch.setattr(walk_module, "BLOCK_STEPS", 700)
    counter = _CallCount()
    monkeypatch.setattr(files_module, "_library", lambda: counter)
    mixed = changed = False
    wander = True
    for size in (1, 5, 9, 17):
        if slice_steps is not None:
            monkeypatch.setattr(walk_module, "SLICE_STEPS", slice_steps * size)
        for horizon in (1, 511, 512, 513, 1211, 1212, 1213, 3001):
            seeds = [7 * horizon + 100 * size + k for k in range(size)]
            starts = np.array([(k * 5) % n for k in range(size)], dtype=np.int64)
            sched = checkpoint_schedule(horizon, extra=(horizon // 2 + 1,))
            counter.calls = 0
            got = walk_module._walk(p, starts, horizon, seeds, True, sched)
            state = ref.seed_states(seeds)
            counts, chk, sites, grouped = ref.run(p, starts, horizon, state, True, sched)
            for have, want in zip(got, (counts, chk, sites, state, grouped)):
                np.testing.assert_array_equal(have, want)
            blocks = _blocks(horizon)
            assert counter.calls == _slices(blocks, size, walk_module.SLICE_STEPS)
            grouped = got[4]
            mixed |= grouped.min() == 0 < grouped.max()
            changed |= bool(np.any((0 < grouped) & (grouped < len(blocks) - 1)))
            wander &= bool(np.all(grouped == len(blocks) - 1))
    # on K3 and K4 a block steps replicas through both kernels (so it does
    # when one replica never takes walk_group and another does), and some
    # replica takes walk_block in a block after one it took through
    # walk_group; on K8 at alpha 1.15 every replica wanders, and takes
    # walk_group in every block after the first
    assert (mixed, changed, wander) == ((False, False, True) if n == 8 else (True, True, False))


def test_a_walk_of_50_steps_is_one_call(monkeypatch):
    counter = _CallCount()
    monkeypatch.setattr(files_module, "_library", lambda: counter)
    rec = simulate(P25, 0, 50, 9)
    assert counter.calls == 1 and rec.final_counts.sum() == 51


def _force_split(monkeypatch, cpus):
    """Walks split into one chunk per CPU, with `cpus` CPUs, whatever their size."""
    monkeypatch.setattr(walk_module, "THREAD_STEPS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class _Threads:
    """The library, noting the threads that call walk_run (as objects: a
    thread's ident may be reused once it ends)."""

    def __init__(self):
        self.lib, self.threads = files_module._library(), set()

    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        if name != "walk_run":
            return fn

        def noted(*args):
            self.threads.add(threading.current_thread())
            return fn(*args)

        return noted


@pytest.mark.parametrize(
    "n, c, alpha", [(3, 0.0, 2.5), (3, 0.5, 2.0), (8, 0.0, 1.15)], ids=["K3", "K3-loops", "K8"]
)
@pytest.mark.parametrize("slice_steps", [None, 1])
def test_split_walk_matches_one_chunk(n, c, alpha, slice_steps, monkeypatch):
    # 7, 9 and 17 replicas in 1, 2 and 3 chunks, one thread each: uneven
    # chunks give the sites, counts, checkpoints, final PCG64 states and
    # walk_group blocks of one chunk, in calls of the default budget or of
    # one block each, so that every chunk takes several calls
    p = ModelParameters.for_complete_graph(n, alpha, loop_c=c)
    horizon, sched = 3001, checkpoint_schedule(3001, extra=(1500,))
    monkeypatch.setattr(walk_module, "BLOCK_STEPS", 700)
    if slice_steps is not None:
        monkeypatch.setattr(walk_module, "SLICE_STEPS", slice_steps)
    lib = _Threads()
    monkeypatch.setattr(files_module, "_library", lambda: lib)
    for size in (7, 9, 17):
        seeds = [31 * size + k for k in range(size)]
        starts = [(k * 5) % n for k in range(size)]
        got = {}
        for cpus in (1, 2, 3):
            _force_split(monkeypatch, cpus)
            lib.threads.clear()
            got[cpus] = walk_module._walk(p, starts, horizon, seeds, True, sched)
            assert len(lib.threads) == cpus
        for cpus in (2, 3):
            for have, want in zip(got[cpus], got[1]):
                np.testing.assert_array_equal(have, want)


def test_small_walks_take_one_thread(monkeypatch):
    # below THREAD_STEPS replica-steps a chunk, and for a lone walk, the
    # calling thread walks alone
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    lib = _Threads()
    monkeypatch.setattr(files_module, "_library", lambda: lib)
    sched = checkpoint_schedule(200)
    _batch_walk(P25, [0] * 200, 200, range(200), False, sched)
    simulate(P25, 0, 3 * walk_module.THREAD_STEPS, 1, record_sites=False)
    assert lib.threads == {threading.current_thread()}


class _Interrupted:
    """A library whose walk_run raises KeyboardInterrupt at the calling
    thread's second call, and whose calls in any other thread do not end a
    walk (until the test has failed: after 2000 calls, about 2 s)."""

    def __init__(self):
        self.caller, self.calls, self.worker_calls = threading.get_ident(), 0, 0

    def walk_run(self, *args):
        if threading.get_ident() != self.caller:
            self.worker_calls += 1
            time.sleep(0.001)
            return 0 if self.worker_calls < 2000 else 2**62
        self.calls += 1
        if self.calls == 2:
            raise KeyboardInterrupt
        return 0


def test_an_interrupt_stops_every_chunk(monkeypatch):
    _force_split(monkeypatch, 3)
    lib = _Interrupted()
    monkeypatch.setattr(files_module, "_library", lambda: lib)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        walk_module._walk(P25, [0, 1, 2], 100, [1, 2, 3], False, checkpoint_schedule(100))
    assert threading.active_count() == before
    assert lib.calls == 2 and 0 < lib.worker_calls < 2000


def _schedule_loop(horizon, extra=()):
    """checkpoint_schedule's steps, as its loop made them before it kept
    the geometric part per horizon."""
    vals, x = [*extra, horizon], 1.0
    while math.ceil(x) <= horizon:
        vals.append(math.ceil(x))
        x *= 1.2
    return sorted(set(vals))


def test_checkpoint_schedule_cache_gives_the_loops_steps():
    for horizon in [*range(1, 5001), 10**8]:
        extra = (horizon // 3 + 1, horizon) if horizon % 7 else ()
        for ex in ((), extra):
            got = checkpoint_schedule(horizon, extra=ex)
            assert got.dtype == np.int64 and got.tolist() == _schedule_loop(horizon, ex)
    # the cached schedule is read-only, so no caller can change the next
    # one; a schedule with extra steps is the caller's own
    first = checkpoint_schedule(1000)
    with pytest.raises(ValueError):
        first[:] = -1
    assert checkpoint_schedule(1000) is first and first.tolist() == _schedule_loop(1000)
    with_extra = checkpoint_schedule(1000, extra=(500,))
    with_extra[0] = 0
    assert checkpoint_schedule(1000, extra=(500,)).tolist() == _schedule_loop(1000, (500,))


# SHA-256 of the final counts, checkpoint counts and site log (each as
# int64) of three replicas run together, keyed by (n, loop_c, alpha).
# They pin the engine's trajectories: any change to the order of the
# uniforms or to the arithmetic of a pick changes them. They were made with
# glibc's pow on x86-64, whose last bit can differ on other platforms.
GOLDEN_WALKS = {
    (2, 0.0, 1.15): "a4f380f811b756897eb05b4dce4105ba27dd6d4bb670092069001edf49ed54d2",
    (2, 0.0, 1.5): "a4f380f811b756897eb05b4dce4105ba27dd6d4bb670092069001edf49ed54d2",
    (2, 0.0, 2.5): "2b02b0839777e9050fff201f32de7fce62fda6564e427c02d97a1706455fcb12",
    (2, 0.0, 4.0): "2b02b0839777e9050fff201f32de7fce62fda6564e427c02d97a1706455fcb12",
    (2, 0.5, 1.15): "7d4319043862f993b39c3b38511b96689edae225e0d60320c156118d23af21b3",
    (2, 0.5, 1.5): "707d40d46aea65067e94a9552d4f23dcb3dfa63650ced2be4da3e8591b6631b0",
    (2, 0.5, 2.5): "186f4e2246a6177bec7678bde6a138b1f1224e7918c3fd35c1c1a24c78c55e95",
    (2, 0.5, 4.0): "c6f9f9db21b5ac561ae6e730df0afe68cdae65a274e4c410083dff87c2f84382",
    (3, 0.0, 1.15): "56dfe674aa416147d344427963854c2f9b15bc3e97036b481151a6c756bdcf35",
    (3, 0.0, 1.5): "186d8fc3cdcca908501e6eb70ccf3bf803c85b5837a5406a808bbaf3874f8724",
    (3, 0.0, 2.5): "6577beca7908a26abc8f653ba7d04289b4615c242ed3f48d787c1e5bb52bc8e7",
    (3, 0.0, 4.0): "c72b0f5a9e21c30a055a6fefda0dbdf9ed9af5673242f390718c15776efbecb1",
    (3, 0.5, 1.15): "6cc7aa725ce4423fb5627b32019cf4e9f27b570c9eec8d3062d443e6722e6764",
    (3, 0.5, 1.5): "3ef913e1bb7fb3b6fe2595d4ba5e3a38ecf054c2d56a24486688e1aebb6ae22c",
    (3, 0.5, 2.5): "eaa41565fee5d232101daa4aabb2c8d3f94c1ced500b3c7f157312bcbc2d34b0",
    (3, 0.5, 4.0): "acb43f1b418cced7b0d5537d4f555001d52b9bccfb7438982af5f6bed18a535e",
    (5, 0.0, 1.15): "2d435b9c0b27ed33eedde2919ad79e530ee52a16448b59b22ede655f2308891e",
    (5, 0.0, 1.5): "0c099112c79048d65672e1c99e372f6c19e332d785a71f8c08803ab8438bc669",
    (5, 0.0, 2.5): "55c3a920d8e0ae50c0d4c6574415b54ed04cb22905950d28599d91b0468ebf25",
    (5, 0.0, 4.0): "9d29d5c69644c1e954f63d6af583189429b2cf26cb25a5c7d9a6d39939aaca22",
    (5, 0.5, 1.15): "9bda4e4f209e0073c6197986d6e147441bcd4abd7a31f5191c155708ff0c71aa",
    (5, 0.5, 1.5): "165942d46b3104b7d8b99b31ab05ba530705d2ee32e9845f71c00796db52fea7",
    (5, 0.5, 2.5): "18c101d97c606b4187a6557efb082ee9a1163dc5ecb6f61a999e6ba0dfd22432",
    (5, 0.5, 4.0): "9a143c52be9ed780e5fbf88d06992903fd0cf98f474d1acb11b4bb7dda14de10",
    (10, 0.0, 1.15): "2a5fa039d2d38559cd18f26b70205b4796548418047bc3ce50555acada1ad3a9",
    (10, 0.0, 1.5): "d93bff76ff94bbf1382affa451da2b06dc7ba435c628b4a06ae02574970bc99f",
    (10, 0.0, 2.5): "7006460207eb1e8c56d23f511f115215391c41c96c6a4ccb2f951cd5540d2a1a",
    (10, 0.0, 4.0): "16bd8535317528ddf06c1c12005034389ba7ac36018d70fcad67e77322941522",
    (10, 0.5, 1.15): "9e62c578ab5e601fc3b6357aaafcdc0cf320f7e76b04aaf09802ea6ef3e945ae",
    (10, 0.5, 1.5): "15350408b4ecc58ed9ccc5efe8f806bf617788c4e7b72a10bf862f42c2a8bc51",
    (10, 0.5, 2.5): "1338abfc4409483db9b313f9fae76ad7471075461794ac394fe9a9e58fa4a56c",
    (10, 0.5, 4.0): "bfa78de8a2ff2bcd8442b92f2059db93348ea160b03284b39ad15a7d4861e7b0",
}


def _golden_walks(n, c, alpha):
    """Arguments of _batch_walk for the golden walks of key (n, c, alpha)."""
    p = ModelParameters.for_complete_graph(n, alpha, loop_c=c)
    horizon = 9000 if alpha < 2 else 13000
    seeds = [11 + 7 * k + 1000 * n for k in range(3)]
    starts = [k % n for k in range(3)]
    return p, starts, horizon, seeds, checkpoint_schedule(horizon, extra=(4096, 4097, 8191))


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def _walk_digest(n, c, alpha):
    p, starts, horizon, seeds, sched = _golden_walks(n, c, alpha)
    return _digest(_batch_walk(p, starts, horizon, seeds, True, sched))


_BLOCK_TABLE = [(block, table) for table in (None, 1, 64) for block in (None, 64, 1000)]


@pytest.mark.parametrize(
    "block, table, split",
    [(b, t, False) for b, t in _BLOCK_TABLE] + [(None, None, True)],
    ids=[*(f"{b}" if t is None else f"{b}-table{t}" for b, t in _BLOCK_TABLE), "split"],
)
def test_engine_trajectories_match_golden_hashes(block, table, split, monkeypatch):
    # with a table of 1 or 64 entries, a block whose counts may pass it
    # takes its weights from pow, the same doubles as the table's; split,
    # each of the three replicas walks in a thread of its own
    if split:
        _force_split(monkeypatch, 3)
    if block is not None:
        monkeypatch.setattr(walk_module, "BLOCK_STEPS", block)
    if table is not None:
        monkeypatch.setattr(walk_module, "TABLE_SIZE", table)
    got = {key: _walk_digest(*key) for key in GOLDEN_WALKS}
    assert got == GOLDEN_WALKS


def test_lone_replicas_match_golden_hashes():
    """Each golden replica run alone; stacked, the lone runs give the
    batch's hashes."""
    got = {}
    for key in GOLDEN_WALKS:
        p, starts, horizon, seeds, sched = _golden_walks(*key)
        runs = [
            _batch_walk(p, starts[k : k + 1], horizon, seeds[k : k + 1], True, sched)
            for k in range(3)
        ]
        got[key] = _digest(np.concatenate(parts) for parts in zip(*runs))
    assert got == GOLDEN_WALKS


def test_step_loop_builds_from_an_empty_cache(tmp_path, monkeypatch):
    # a cold build gives the golden trajectories; a compile command that
    # fails raises BuildError naming the command and its error output
    monkeypatch.setattr(files_module, "_CACHE", tmp_path)
    files_module._library.cache_clear()
    try:
        keys = [(3, 0.0, 2.5), (5, 0.5, 1.15), (10, 0.0, 1.5)]
        assert {key: _walk_digest(*key) for key in keys} == {key: GOLDEN_WALKS[key] for key in keys}
        assert [f.suffix for f in tmp_path.iterdir()] == [".so"]
        monkeypatch.setattr(files_module, "_CACHE", tmp_path / "failing")
        monkeypatch.setattr(files_module, "_FLAGS", (*files_module._FLAGS, "-fno-such-option"))
        files_module._library.cache_clear()
        with pytest.raises(BuildError, match="-fno-such-option.*exited with 1: .*no-such-option"):
            simulate(P25, 0, 10, 1)
        assert list((tmp_path / "failing").iterdir()) == []
    finally:
        files_module._library.cache_clear()


class _Uniforms:
    """Stand-in for a numpy Generator that hands out given uniforms in
    order."""

    def __init__(self, values):
        self.values, self.at = list(values), 0

    def random(self):
        self.at += 1
        return self.values[self.at - 1]


#: PCG64's multiplier and its inverse modulo 2^128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 2**128)


def _pcg_state(row):
    """(state, inc) of a state row of the step loop, as numpy's
    PCG64.state["state"] gives them."""
    w = [int(x) for x in row]
    return w[0] | w[1] << 64, w[2] | w[3] << 64


def _state_before(m, inc):
    """A state row whose next double is m * 2^-53: one step leads to
    m << 11, whose high word is 0, so XSL-RR outputs it unrotated."""
    x = ((m << 11) - inc) * _PCG_MULT_INV % 2**128
    return [x & (2**64 - 1), x >> 64, inc & (2**64 - 1), inc >> 64]


def _boundary_walk(p, start, horizon, seed):
    """Grid numerators m of the uniforms m * 2^-53 of a step() walk, and
    the walk's sites. A PCG64 double lies on that grid, so each uniform is
    the grid point on a pick boundary u = csum[k] / total of its step,
    where there is one, or the nearest grid point on either side of it.
    Most sit at an edge of the interval of the site the walk came from, so
    the walk keeps alternating between two sites for a while."""
    rng = np.random.default_rng(seed)
    s, prev, grid, sites = init_walk(p, start), start, [], [start]
    for _ in range(horizon):
        weights = p.effective_matrix.entries[s.site] * _power(1.0 + s.counts, p.alpha)
        csum = np.cumsum(weights)
        # the edges of the interval of the site the walk came from, each
        # with the direction into it
        edges = [(k, toward) for k, toward in ((prev - 1, 1.0), (prev, 0.0)) if 0 <= k < p.size - 1]
        if edges and rng.random() < 0.97:
            k, toward = edges[rng.integers(len(edges))]
        else:
            k, toward = rng.integers(p.size - 1), rng.choice([0.0, 1.0])
        g = csum[k] / csum[-1] * 2.0**53
        inside, outside = (math.floor(g) + 1, math.ceil(g) - 1)[:: 1 if toward else -1]
        on = [int(g)] if g == math.floor(g) else []
        m = inside if rng.random() < 0.9 else int(rng.choice([*on, outside]))
        m = min(max(m, 0), 2**53 - 1)
        prev, s = s.site, step(p, s, _Uniforms([m * 2.0**-53]))
        grid.append(m)
        sites.append(s.site)
    return grid, sites


def _rows(reps, rows):
    """The replica rows a kernel call steps: every row
    when the address of the rows is None."""
    return list(range(reps)) if rows is None else list((ctypes.c_int64 * reps).from_address(rows))


class _OneKernel:
    """The step loop with both kernels, walk_block and walk_group, taken by
    the one named; the reference's block loop then steps every replica and
    block through it."""

    def __init__(self, lib, kernel):
        self.lib, self.kernel = lib, getattr(lib, kernel)

    def __getattr__(self, name):
        return self.kernel if name in ("walk_block", "walk_group") else getattr(self.lib, name)


class _KernelLog:
    """The step loop, logging the kernel, first step and rows of each call."""

    def __init__(self):
        self.lib, self.calls = files_module._library(), []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        if name not in ("walk_block", "walk_group"):
            return fn

        def logged(n, reps, rows, nblk, state, *rest):
            self.calls.append((name, rest[7], _rows(reps, rows)))
            fn(n, reps, rows, nblk, state, *rest)

        return logged


class _CraftedLoop:
    """The step loop, driven one step per call, through the kernel each
    call names or, if given, through `kernel` alone: before each step it
    gives every stepped replica the state whose next double is that
    replica's next wanted uniform, and after it checks that the replica
    drew it."""

    def __init__(self, state, streams, kernel=None):
        self.lib, self.state, self.streams = files_module._library(), state, [iter(s) for s in streams]
        self.power_table, self.kernel = self.lib.power_table, kernel

    def _step(self, name, n, reps, rows, nblk, state, *rest):
        assert nblk == 1 and state == self.state.ctypes.data
        wanted = {r: next(self.streams[r]) for r in _rows(reps, rows)}
        for r, m in wanted.items():
            self.state[r] = _state_before(m, _pcg_state(self.state[r])[1])
        getattr(self.lib, self.kernel or name)(n, reps, rows, nblk, state, *rest)
        assert {r: _pcg_state(self.state[r])[0] for r in wanted} == {r: m << 11 for r, m in wanted.items()}

    def walk_block(self, *args):
        self._step("walk_block", *args)

    def walk_group(self, *args):
        self._step("walk_group", *args)


CIRCULANT = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]


@pytest.mark.parametrize(
    "p",
    [
        ModelParameters.for_complete_graph(3, 2.5),
        ModelParameters.for_complete_graph(5, 2.5, loop_c=0.5),
        ModelParameters(matrix=validate(np.array(CIRCULANT, dtype=float)), alpha=2.5),
    ],
    ids=["hollow-K3", "K5-loops", "circulant"],
)
def test_step_loop_is_exact_on_pick_boundaries(p, monkeypatch):
    # every uniform is the grid point on a pick boundary or the nearest one
    # on either side of it, where a product or sum rounded otherwise than
    # in step(), or a strict comparison, would pick another site; with a
    # table of one entry every weight comes from pow. Each walk runs through
    # the reference's block loop, with the kernels as it chooses them, and
    # through each kernel alone.
    horizon, seeds = 1500, [3, 4, 5]
    walks = {seed: _boundary_walk(p, seed % p.size, horizon, seed) for seed in seeds}
    sched = checkpoint_schedule(horizon)
    starts = np.array([seed % p.size for seed in seeds], dtype=np.int64)
    runs = [(table, kernel) for table in (walk_module.TABLE_SIZE, 1) for kernel in (None, "walk_block", "walk_group")]
    states = [ref.seed_states(seeds) for _ in runs]
    streams = [walks[seed][0] for seed in seeds]
    loops = [_CraftedLoop(state, streams, kernel) for state, (_, kernel) in zip(states, runs)]
    monkeypatch.setattr(walk_module, "BLOCK_STEPS", 1)
    for (table, _), state, loop in zip(runs, states, loops):
        monkeypatch.setattr(walk_module, "TABLE_SIZE", table)
        monkeypatch.setattr(files_module, "_library", lambda: loop)
        final, chk, sites, _ = ref.run(p, starts, horizon, state, True, sched)
        for r, seed in enumerate(seeds):
            np.testing.assert_array_equal(sites[r], walks[seed][1])
            np.testing.assert_array_equal(final[r], np.bincount(sites[r], minlength=p.size))
            for k, counts in zip(sched, chk[r]):
                np.testing.assert_array_equal(counts, np.bincount(sites[r][: k + 1], minlength=p.size))


def test_each_step_draws_one_double():
    # the RNG contract: a replica reads one double of its PCG64 per step, so
    # a walk leaves each state row where advance(horizon) leaves numpy's
    # PCG64; a horizon off the block size covers a partial block
    horizon, seeds = 5000, [3, 17, 2**40]
    state = walk_module._walk(P25, [0, 1, 2], horizon, seeds, False, np.array([], dtype=np.int64))[3]
    for seed, row in zip(seeds, state):
        want = np.random.PCG64(seed).advance(horizon).state["state"]
        assert _pcg_state(row) == (want["state"], want["inc"])


SEEDS = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200, 2**1000 + 7]


def test_seeder_equals_numpy_pcg64():
    # seeds of 1 to 300 bits besides the edges of SeedSequence's word
    # handling: its pool of four words and the words mixed in past it; in
    # one batch every seed's words are padded to those of the widest. The
    # driver seeds its states in its first call, which a walk of 0 steps
    # ends at once
    rng = np.random.default_rng(8)
    lengths = map(int, rng.integers(1, 301, size=250))
    seeds = SEEDS + [1 << (b - 1) | int.from_bytes(rng.bytes(38), "little") >> (305 - b) for b in lengths]
    for batch in (seeds, SEEDS[:6], [2**1000 + 7]):
        state = walk_module._walk(P25, [0] * len(batch), 0, batch, False, np.array([], dtype=np.int64))[3]
        got = [_pcg_state(row) for row in state]
        want = [np.random.PCG64(s).state["state"] for s in batch]
        assert got == [(w["state"], w["inc"]) for w in want]


def test_simulate_with_a_wide_seed_matches_stepping():
    p = ModelParameters.for_complete_graph(5, 1.5, loop_c=0.5)
    rec = simulate(p, 2, 3000, 2**200)
    s, g = init_walk(p, 2), np.random.Generator(np.random.PCG64(2**200))
    for k in range(1, 3001):
        s = step(p, s, g)
        assert s.site == rec.sites[k]
    np.testing.assert_array_equal(s.counts, rec.final_counts)


def test_loop_model_reduces_to_plain_step():
    # the loop model at c = 0 through the batch engine against the step
    # reference on the hollow plain model
    loop = ModelParameters.for_complete_graph(3, 2.0, loop_c=0.0)
    plain = ModelParameters.for_complete_graph(3, 2.0)
    rec = simulate(loop, 0, 60, 5)
    g, s = np.random.default_rng(5), init_walk(plain, 0)
    for k in range(1, 61):
        s = step(plain, s, g)
        assert s.site == rec.sites[k]


def test_loop_model_first_move_weights_count_the_standing_visit():
    # the start is a counted visit, so at c=1 the current site already
    # carries weight (1+1)^alpha against 1 for each fresh neighbor
    p = ModelParameters.for_complete_graph(3, 2.0, loop_c=1.0)
    s = init_walk(p, 0)
    law = _kernel_row(p, s)
    np.testing.assert_allclose(law, [2 / 3, 1 / 6, 1 / 6], rtol=0, atol=1e-15)
    g = np.random.default_rng(0)
    hits = np.zeros(3)
    for _ in range(3000):
        hits[step(p, s, g).site] += 1
    np.testing.assert_allclose(hits / 3000, law, rtol=0, atol=0.03)


def test_checkpoint_schedule_shape():
    sched = checkpoint_schedule(1000, extra=(500,))
    assert sched[0] >= 1 and sched[-1] == 1000
    assert 500 in sched
    assert np.all(np.diff(sched) > 0)
    with pytest.raises(ValidationError):
        checkpoint_schedule(0)
    np.testing.assert_array_equal(
        checkpoint_schedule(np.int64(20), extra=np.array([7])), checkpoint_schedule(20, (7,))
    )
    # a step that is not an integer raises; it is not truncated
    for horizon, extra in [(10.5, ()), (True, ()), ("10", ()), (20, (10.7,)), (20, (True,)), (20, ("5",))]:
        with pytest.raises(ValidationError):
            checkpoint_schedule(horizon, extra=extra)
    for extra in ([10.7], [True], ["5"]):
        with pytest.raises(ValidationError):
            simulate(P25, 0, 20, 1, checkpoints=extra)


_LONG_WALK = """
import resource
from vrrw import ModelParameters, simulate
p = ModelParameters.for_complete_graph(3, 2.5)
simulate(p, 0, 1000, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rec = simulate(p, 0, 10**7, 1, record_sites=False)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, *rec.final_counts)
"""


def test_long_walk_memory_stays_bounded():
    # a walk of 10^7 steps without a site log reads its weights from one
    # table of at most TABLE_SIZE doubles (8 MiB), so after a short walk
    # has loaded the step loop its peak RSS (KiB on Linux) rises by at
    # most 24 MiB; a table over every count reached would take 38 MiB
    env = dict(os.environ)
    src_root = str(Path(vrrw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LONG_WALK], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rise, *counts = map(int, proc.stdout.split())
    assert sum(counts) == 10**7 + 1
    assert rise <= 24 * 1024


def test_trajectory_record_accessors():
    r = simulate(P25, 0, 100, 1, checkpoints=checkpoint_schedule(100))
    occ = r.final_occupation
    assert abs(np.sum(occ) - 1) < 1e-12
    table = r.checkpoint_occupations()
    assert table.shape == (len(r.checkpoint_steps), 3)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    i = len(r.checkpoint_steps) // 2
    np.testing.assert_array_equal(
        r.checkpoint_counts[i], np.bincount(r.sites[: r.checkpoint_steps[i] + 1], minlength=3)
    )


def test_site_log_suppressed_beyond_limit():
    assert FULL_LOG_LIMIT == 10**6  # guards memory for long runs
    r = simulate(P25, 0, 50, 2, record_sites=False)
    assert r.sites is None
    assert r.final_counts.sum() == 51


def test_weight_overflow_is_rejected_up_front():
    p = ModelParameters.for_complete_graph(3, 400.0)
    with pytest.raises(NumericError):
        simulate(p, 0, 10**4, 0)
    # each weight fits a double, but a row's weighted total would not
    huge = ModelParameters(matrix=validate(1e300 * (np.ones((3, 3)) - np.eye(3))), alpha=1.5)
    simulate(huge, 0, 100, 0)
    with pytest.raises(NumericError):
        simulate(huge, 0, 10**6, 0)


@pytest.mark.parametrize(
    "horizon, seed", [(10, -1), (10.5, 3), (10, 1.7), (10, "3"), (10, True), (True, 3)]
)
def test_seed_and_horizon_must_be_nonnegative_integers(horizon, seed):
    with pytest.raises(ValidationError):
        simulate(P25, 0, horizon, seed)
    with pytest.raises(ValidationError):
        _batch_walk(P25, [0], horizon, [seed], False, checkpoint_schedule(10))


@pytest.mark.parametrize("start", [1.5, 1.0, -1, 3, "1", True])
def test_simulate_rejects_a_start_that_is_not_a_site(start):
    # a float start must not run from its integer part
    with pytest.raises(ValidationError):
        simulate(P25, start, 10, 2)


@pytest.mark.parametrize("starts", [[0, 1.5], [0.0, 1.0], [0, -1], [0, 3], [0, True]])
def test_batch_walk_rejects_starts_that_are_not_sites(starts):
    with pytest.raises(ValidationError):
        _batch_walk(P25, starts, 10, [1, 2], False, checkpoint_schedule(10))


@pytest.mark.parametrize("steps", [[50, 10], [10, 10]])
def test_batch_walk_rejects_checkpoints_out_of_order(steps):
    # the step loop fills checkpoint rows in order and would skip these
    with pytest.raises(ValidationError):
        _batch_walk(P25, [0], 100, [1], False, steps)


def test_numpy_integer_seed_and_horizon_are_accepted():
    rec = simulate(P25, np.int64(0), np.int64(40), np.uint64(3))
    assert type(rec.seed) is int and rec.seed == 3 and rec.horizon == 40
    assert type(rec.start) is int and rec.start == 0
    np.testing.assert_array_equal(rec.sites, simulate(P25, 0, 40, 3).sites)


@pytest.mark.parametrize("u", [0.0, 0.3, 0.7])
def test_step_rejects_weights_without_a_finite_total(u):
    # each weight is about 9.78e307, finite, but the two add past the
    # largest double
    p = ModelParameters.for_complete_graph(3, 100.0)
    s = WalkState(site=0, counts=np.array([1, 1201, 1201]), step=2402)
    weights = p.effective_matrix.entries[0] * _power(1.0 + s.counts, p.alpha)
    assert np.all(np.isfinite(weights))
    with pytest.raises(NumericError):
        step(p, s, _Uniforms([u]))
    # a single weight past the largest double: math.pow raises where
    # np.power returned inf
    s = WalkState(site=0, counts=np.array([1, 1, 2001]), step=2002)
    with pytest.raises(OverflowError):
        _power(1.0 + s.counts, p.alpha)
    with pytest.raises(NumericError):
        step(p, s, _Uniforms([u]))
