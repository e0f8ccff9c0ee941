import ctypes
import hashlib
import math
import subprocess
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from vrrw import (
    ClockConfig,
    InteractionMatrix,
    ModelParameters,
    NumericError,
    SummabilityError,
    ValidationError,
    complete_graph,
    power_weight,
    rubin_simulate,
    sample_trap_event,
    simulate,
    trap_probability_bound,
    with_diagonal,
)
from vrrw.rubin import splitmix64
import vrrw.files as files
import vrrw.rubin as rubin_module

import clock_reference
from trap_oracle import trap_event_bracket

HERE = Path(__file__).parent

CFG = ClockConfig(matrix=complete_graph(3), weight=power_weight(1.5))


def test_splitmix_known_values():
    # first generator output for seeds 0 and 1 (published vectors), the
    # rest frozen from this implementation
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(2) == 0x975835DE1C9756CE
    assert splitmix64(2**64 - 1) == splitmix64(-1 & (2**64 - 1))


@pytest.mark.parametrize(
    "start, budget, seed",
    [
        pytest.param(0, 20, 1.5, id="float-seed"),
        pytest.param(0, 20, True, id="bool-seed"),
        pytest.param(0, 20, "5", id="str-seed"),
        pytest.param(1.0, 20, 5, id="float-start"),
        pytest.param(True, 20, 5, id="bool-start"),
        pytest.param(0, 20.0, 5, id="float-budget"),
        pytest.param(0, True, 5, id="bool-budget"),
    ],
)
def test_clock_race_takes_only_integers(start, budget, seed):
    with pytest.raises(ValidationError):
        rubin_simulate(CFG, start, budget, seed)


def test_clock_race_keeps_negative_and_numpy_seeds():
    # a negative seed keys the streams of the seed modulo 2**64, as before
    neg, wrapped = rubin_simulate(CFG, 0, 60, -3), rubin_simulate(CFG, 0, 60, 2**64 - 3)
    np.testing.assert_array_equal(neg.walk.sites, wrapped.walk.sites)
    np.testing.assert_array_equal(neg.jump_times, wrapped.jump_times)
    assert neg.walk.seed == -3
    rec = rubin_simulate(CFG, np.int64(1), np.int32(30), np.uint64(7))
    assert type(rec.walk.start) is int and type(rec.walk.seed) is int
    np.testing.assert_array_equal(rec.walk.sites, rubin_simulate(CFG, 1, 30, 7).walk.sites)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        pytest.param((3, 5, 10, 1.7), {}, id="float-seed"),
        pytest.param((3, 5, 10, True), {}, id="bool-seed"),
        pytest.param((3, 5, 10, "5"), {}, id="str-seed"),
        pytest.param((3, 5, 10, -1), {}, id="negative-seed"),
        pytest.param((3.0, 5, 10, 1), {}, id="float-degree"),
        pytest.param((3, 5, 10.0, 1), {}, id="float-draws"),
        pytest.param((3, 5.0, 10, 1), {}, id="float-start"),
        pytest.param((3, 5, 10, 1), {"truncation": 100.0}, id="float-truncation"),
    ],
)
def test_trap_sampler_takes_only_integers(args, kwargs):
    degree, start, draws, seed = args
    with pytest.raises(ValidationError):
        sample_trap_event(degree, power_weight(3.0), start, draws, seed, **kwargs)


@pytest.mark.parametrize(
    "degree, start, truncation",
    [
        pytest.param(2.5, 5, 1000, id="float-degree"),
        pytest.param(2, 5.5, 1000, id="float-start"),
        pytest.param(2, 5, 1000.5, id="float-truncation"),
    ],
)
def test_trap_bound_takes_only_integers(degree, start, truncation):
    # each gave a bound before, as if the level sums ran over reals
    with pytest.raises(ValidationError, match="must be an integer"):
        trap_probability_bound(degree, power_weight(3.0), start, truncation)


def test_embedded_chain_is_deterministic():
    a = rubin_simulate(CFG, 0, 60, 42)
    b = rubin_simulate(CFG, 0, 60, 42)
    np.testing.assert_array_equal(a.walk.sites, b.walk.sites)
    np.testing.assert_array_equal(a.jump_times, b.jump_times)
    assert a.tie_count == b.tie_count


def test_jump_times_strictly_increase_from_zero():
    r = rubin_simulate(CFG, 1, 80, 9)
    assert r.jump_times[0] == 0.0
    assert np.all(np.diff(r.jump_times) > 0)
    assert r.walk.sites[0] == 1
    assert len(r.walk.sites) == 81


def test_no_self_jumps_on_hollow_graph():
    r = rubin_simulate(CFG, 0, 200, 5)
    assert np.all(np.diff(r.walk.sites) != 0)


def test_first_jump_race_is_symmetric():
    hits = np.zeros(3)
    for seed in range(1500):
        hits[rubin_simulate(CFG, 0, 1, seed).walk.sites[1]] += 1
    assert hits[0] == 0
    # two equal-rate exponentials: each neighbor wins about half the races
    assert abs(hits[1] / 1500 - 0.5) < 0.05


def test_embedded_counts_match_mass_conservation():
    r = rubin_simulate(CFG, 0, 120, 13)
    assert r.walk.final_counts.sum() == 121


def test_embedded_law_close_to_direct_walk():
    # small-sample agreement check; the full-depth comparison runs in the
    # acceptance suite with 10^4 seeds
    nseeds, nsteps = 600, 12
    p = ModelParameters.for_complete_graph(3, 1.5)
    freq_a = np.zeros((nsteps + 1, 3))
    freq_b = np.zeros((nsteps + 1, 3))
    for seed in range(nseeds):
        freq_a[np.arange(nsteps + 1), simulate(p, 0, nsteps, seed).sites] += 1
        freq_b[np.arange(nsteps + 1), rubin_simulate(CFG, 0, nsteps, seed).walk.sites] += 1
    tv = 0.5 * np.abs(freq_a - freq_b).sum(axis=1) / nseeds
    assert tv.max() < 0.08


def test_trap_bound_regression_value():
    got = trap_probability_bound(2, power_weight(3.0), 10, 10**6)
    assert got == pytest.approx(0.9820570540049861, abs=1e-13)


def test_trap_bound_increases_to_one_in_start_index():
    w = power_weight(3.0)
    vals = [trap_probability_bound(2, w, n, 10**6) for n in (5, 10, 100, 1000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1 - 1e-5


def test_trap_bound_zero_when_a_factor_dies():
    # d*w(0)/w(start) >= 1 makes the leading factor nonpositive
    assert trap_probability_bound(2, power_weight(3.0), 0, 10**4) == 0.0


def test_trap_bound_rejects_non_summable_clocks():
    with pytest.raises(SummabilityError):
        trap_probability_bound(2, lambda l: np.asarray(l, dtype=float) + 1.0, 10, 10**4)


@pytest.mark.parametrize(
    "degree, start, truncation",
    [pytest.param(0, 5, 1000, id="degree-0"), pytest.param(2, 10, 10, id="start-at-truncation")],
)
def test_trap_bound_validates_its_setting(degree, start, truncation):
    with pytest.raises(ValidationError):
        trap_probability_bound(degree, power_weight(3.0), start, truncation)


def test_trap_bound_rejects_a_weight_that_falls_past_the_truncation():
    # the tail's first probe reads w(101) = 102**3, its second w(201) = 10
    def falling(levels):
        levels = np.asarray(levels, dtype=float)
        return np.where(levels <= 150, (levels + 1.0) ** 3, 10.0)

    with pytest.raises(SummabilityError, match="decreases"):
        trap_probability_bound(2, falling, 10, 100)


def test_trap_bound_rejects_a_tail_that_settles_too_slowly():
    # the dyadic chunks of sum 1/(l+1)**1.16 shrink by 2**-0.16 = 0.895 a
    # probe: they contract, but 64 probes leave them far from negligible
    with pytest.raises(SummabilityError, match="did not converge"):
        trap_probability_bound(1, power_weight(1.16), 10, 1000)


def test_trap_bound_weighs_a_scalar_weight_level_by_level():
    # math.exp takes no array, so each level is weighed on its own, with
    # the bits of a weight that maps math.exp over the array
    def mapped(levels):
        return math.exp(levels) if isinstance(levels, int) else np.array([math.exp(l) for l in levels.tolist()])

    got = trap_probability_bound(1, math.exp, 5, 50)
    assert got == trap_probability_bound(1, mapped, 5, 50)
    assert got == pytest.approx(math.prod(1.0 - math.exp(-l) for l in range(5, 51)), rel=1e-12)


def test_trap_sampler_validates_arguments():
    w = power_weight(3.0)
    with pytest.raises(ValidationError):
        sample_trap_event(0, w, 5, 10, 1)
    with pytest.raises(ValidationError):
        sample_trap_event(2, w, 50, 10, 1, truncation=40)


@pytest.mark.parametrize("degree", [10**400, 2**63], ids=["past-doubles", "past-int64"])
def test_trap_calls_reject_a_degree_they_cannot_evaluate(degree):
    # both calls raised a bare OverflowError at 10**400, and the sampler a
    # ValueError from its arrays at 2**63; now both give one message
    w = power_weight(2.0)
    with pytest.raises(ValidationError, match="degree") as bound:
        trap_probability_bound(degree, w, 1)
    with pytest.raises(ValidationError, match="degree") as sampler:
        sample_trap_event(degree, w, 1, 10, 1)
    assert str(bound.value) == str(sampler.value)


def test_trap_sampler_needs_a_draw():
    with pytest.raises(ValidationError, match="draws must be >= 1, got 0"):
        sample_trap_event(2, power_weight(3.0), 5, 0, 1)


def test_trap_calls_evaluate_every_degree_up_to_their_limit():
    # at the limit the leading factor is nonpositive, so the bound is 0, and
    # the sampler's one draw holds two 2**20-double arrays
    limit, w = rubin_module._DEGREE_LIMIT, power_weight(2.0)
    assert trap_probability_bound(limit, w, 1) == 0.0
    assert sample_trap_event(limit, w, 1, 1, 1, truncation=2).hits == 0
    with pytest.raises(ValidationError, match=f"got {limit + 1}"):
        sample_trap_event(limit + 1, w, 1, 1, 1, truncation=2)


def test_trap_sampler_estimate_dominates_bound():
    w = power_weight(3.0)
    bound = trap_probability_bound(3, w, 5, 10**6)
    s = sample_trap_event(3, w, 5, 20_000, 123)
    assert s.draws == 20_000
    assert 0 <= s.hits <= s.draws
    sigma = (bound * (1 - bound) / s.draws) ** 0.5
    assert s.estimate >= bound - 3 * sigma


def test_trap_bracket_is_the_closed_form_at_degree_one():
    # one leaf: the event is a single chain beating one Exp(w(0)) clock
    w = power_weight(3.0)
    lo, hi = trap_event_bracket(1, w, 5)
    ell = np.arange(5, 2001, dtype=float)
    closed = float(np.prod(w(ell) / (w(ell) + w(0))))
    assert lo - 1e-12 <= closed <= hi + 1e-12


def test_trap_bracket_is_tight_and_above_the_product_bounds():
    w = power_weight(3.0)
    lo, hi = trap_event_bracket(3, w, 5)
    ell = np.arange(5, 2001, dtype=float)
    harris = float(np.prod(w(ell) / (w(ell) + 3 * w(0)))) ** 3
    bound = trap_probability_bound(3, w, 5, 10**6)
    assert hi - lo <= 2e-4
    assert lo > harris > bound


def test_trap_brackets_from_different_cutoffs_overlap_and_shrink():
    w = power_weight(3.0)
    brackets = [trap_event_bracket(3, w, 5, cutoff) for cutoff in (40, 80, 160)]
    widths = [hi - lo for lo, hi in brackets]
    assert all(a > b for a, b in zip(widths, widths[1:]))
    assert max(lo for lo, _ in brackets) <= min(hi for _, hi in brackets)


def test_clock_weight_overflow_is_a_numeric_error():
    # w(5) = 6**400 overflows doubles; the race reaches level 5 well within 50 jumps
    cfg = ClockConfig(matrix=complete_graph(3), weight=power_weight(400.0))
    with pytest.raises(NumericError, match=r"w\(5\)"):
        rubin_simulate(cfg, 0, 50, 1)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_clock_weight_is_a_numeric_error(bad):
    cfg = ClockConfig(matrix=complete_graph(3), weight=lambda l: bad if l >= 3 else l + 1.0)
    with pytest.raises(NumericError, match=r"w\(3\)"):
        rubin_simulate(cfg, 0, 50, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda w: trap_probability_bound(2, w, 10),
        lambda w: sample_trap_event(2, w, 10, 10, 1),
    ],
    ids=["bound", "sampler"],
)
def test_trap_functions_type_their_weight_errors(call):
    # w(10) = 11**400 overflows doubles: a numeric error, not a bad input
    # and not a silent infinite rate
    with pytest.raises(NumericError, match=r"w\(10\)"):
        call(power_weight(400.0))
    with pytest.raises(ValidationError, match=r"w\(12\)"):
        call(lambda l: np.where(np.asarray(l) == 12, -1.0, np.asarray(l) + 1.0))


def test_trap_bound_tail_overflow_is_a_numeric_error():
    # w(l) = (l+1)**50 is finite to the truncation 10**6 but overflows at
    # the first tail probe past it
    with pytest.raises(NumericError, match=r"w\(2000001\)"):
        trap_probability_bound(1, power_weight(50.0), 1)


def test_clock_config_needs_a_neighbor_at_every_site():
    # validate rejects such a matrix; a hand-made one must not reach the race
    entries = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="neighbor"):
        ClockConfig(matrix=InteractionMatrix(size=3, entries=entries, row_sum=1.0), weight=power_weight(1.5))


def test_clock_config_validates_weight():
    with pytest.raises(ValidationError):
        ClockConfig(matrix=complete_graph(3), weight=lambda l: np.zeros_like(np.asarray(l, dtype=float)))


#: Seeds for the clock goldens: splitmix64 maps 0 and 12 to keys at or above
#: 2**63 and 3 and 7 to keys below it (see the exact-key test further down).
CLOCK_SEEDS = (0, 3, 7, 12)


def _clock_digest(n, c, alpha):
    """SHA-256 of the sites, jump times, checkpoint counts and tie count of
    the clock race at horizons 1, 50 and 500 from every CLOCK_SEEDS seed."""
    matrix = complete_graph(n) if c == 0 else with_diagonal(complete_graph(n), c)
    cfg = ClockConfig(matrix=matrix, weight=power_weight(alpha))
    h = hashlib.sha256()
    for horizon in (1, 50, 500):
        for k, seed in enumerate(CLOCK_SEEDS):
            r = rubin_simulate(cfg, k % n, horizon, seed)
            h.update(np.ascontiguousarray(r.walk.sites, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(r.jump_times, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(r.walk.checkpoint_counts, dtype=np.int64).tobytes())
            h.update(str(r.tie_count).encode())
    return h.hexdigest()


# Per (n, loop_c, alpha): _clock_digest. They pin every jump chain, jump time
# and checkpoint row of the clock race: any change to the edge streams, the
# order of the draws or the arithmetic of a duration changes them. They were
# made with the compiled race, its own Philox and glibc's log1p on x86-64, at
# RNG_CONTRACT_VERSION 2, which keys the streams exactly.
GOLDEN_CLOCKS = {
    (2, 0.0, 1.05): "aeb9d877183a3041fe4933521ed2e8a260eff01750227c749da268720d6c7393",
    (2, 0.0, 1.5): "d14c69bff4c0a8a928c0785d53dcfdc2b0661ecb8763ff84cc5952ba588ba199",
    (2, 0.0, 2.5): "b9f975accdf12c44f03fe4504b18d13afd1a57c0838d67843c4377cd2c8a88a6",
    (2, 0.0, 4.0): "2ba84f4f381ee58fa117a1ae802931d60e3ecf9735055fe1290cef7ad57ad87c",
    (2, 0.5, 1.05): "02f06b79459c2ab5b93614cdd8cff64df5317b6604edab936844fcb1b1a7735b",
    (2, 0.5, 1.5): "6e78cb89f2301f52cfbc62fd642329b7ef8002dd2ce74834c8d416bbc6f06d4e",
    (2, 0.5, 2.5): "352d3d4f9bd0d934e5360438d55fbeae26d20cc7475891019415af6a78a47dcd",
    (2, 0.5, 4.0): "75efbce7d9eeb7297947de4b23140138279217a8c09f94ef0907bafc48061f2b",
    (3, 0.0, 1.05): "f1837a1597493d302cd218fcaac369437a33555530b4a1d9a7cc50814ab444eb",
    (3, 0.0, 1.5): "7a6bc9b28b113dde00757fc4035994c9b7d45591e7b90e8e113c279cfe29cae2",
    (3, 0.0, 2.5): "dded19cc50715d1f8b51f1b294d1b8749490c28d47a1c0927e22389d05a3a367",
    (3, 0.0, 4.0): "22f6e9700ab8ef355ede12aad0dfec555ed30a2c4780e3448d4c38fb809c75cc",
    (3, 0.5, 1.05): "3d5ea1339f512c2cbb5a599ad0d29b4f4bc530de453848d76eb8eb74b18f665e",
    (3, 0.5, 1.5): "2523a8b4d98dd8ff6bbfced14d2e3d2a951fb66644ac438a9a2b886c15f3547c",
    (3, 0.5, 2.5): "2fcf544e094a8d07e57879d89324bfc707b244616ba22cb661057d171cf7ec67",
    (3, 0.5, 4.0): "cd645caec88516d0b4c0573b98a1aa6bd9e0bdfcd9abcd99026b26d58bee1b9a",
    (5, 0.0, 1.05): "0732ad79117fb8e75346cfe6c2a1e63afaaec99c09b4319710546d7395501c26",
    (5, 0.0, 1.5): "b5d4fdfdf22a56614bdf110f799c3e3db7f82615162d20551cd26aa6d2977ade",
    (5, 0.0, 2.5): "849a9b58b9a7813e1d7991ca930ca6c38ba51fdb090d4f5c3bd8c75df3c77798",
    (5, 0.0, 4.0): "fed7fc60f768b84b54bf30d7e8b1f1ca899150c260dd6a6e48351a744db518ba",
    (5, 0.5, 1.05): "ea15882266a5c5542261428f7f07752b25999a7761fd26800179f40ea03d7c77",
    (5, 0.5, 1.5): "87bbf342418fa9a4d1e824dcb8439b35de6bf5404c16e0fb80c4830e8587fcac",
    (5, 0.5, 2.5): "7d86267e16077ce76c490cfd083dce3c3eaf429ace18de848922ca49f92df1e8",
    (5, 0.5, 4.0): "7293a8361e860d24c893933a3e32c4c19f14a186dfb50599e6a33356c8ce2eef",
}


def test_clock_race_matches_golden_hashes():
    got = {key: _clock_digest(*key) for key in GOLDEN_CLOCKS}
    assert got == GOLDEN_CLOCKS


def test_clock_races_in_threads_match_serial_runs():
    # a race keeps all of its state in its own workspace, so interleaved races keep their streams
    seeds = list(range(40))
    serial = [rubin_simulate(CFG, 0, 200, s).jump_times for s in seeds]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda s: rubin_simulate(CFG, 0, 200, s).jump_times, seeds))
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


def _test_library(tmp_path, *flags, source=files._SOURCE):
    """The compiled library built from source with the package's flags and
    these, with clock_run's types as vrrw.files gives them."""
    path = tmp_path / "test_library.so"
    cmd = [files._COMPILER, *files._FLAGS, *flags, "-o", str(path), str(source)]
    subprocess.run(cmd, check=True, capture_output=True)
    lib, own = ctypes.CDLL(str(path)), files._library().clock_run
    lib.clock_run.argtypes, lib.clock_run.restype = own.argtypes, own.restype
    return lib


# SHA-256 of the sites and jump times of the walk in the forced-tie test.
GOLDEN_TIED_WALK = "18dc74c3223b0245fd1e34f48a102463a08259504efe2721d282b296c472f7ca"


def test_forced_tie_is_broken_by_the_tie_stream(monkeypatch, tmp_path):
    # a library whose log1p is pinned for its first two calls: both durations
    # of the first race come out equal, and the tie stream redraws them
    tied = _test_library(tmp_path, "-include", str(HERE / "tied_log1p.h"))
    monkeypatch.setattr(files, "_library", lambda: tied)
    r = rubin_simulate(CFG, 0, 50, 5)
    assert r.tie_count == 1
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(r.walk.sites, dtype=np.int64).tobytes())
    h.update(r.jump_times.tobytes())
    assert h.hexdigest() == GOLDEN_TIED_WALK


@pytest.mark.parametrize("seed", [0, 3])
def test_clock_streams_use_the_exact_key(seed):
    # On K2 every jump is a one-clock race, so the jump times are running
    # sums of the edge streams' durations: edge (0, 1) at levels 0, 1, 2, ...
    # and edge (1, 0) at levels 1, 2, 3, ...  Seed 0's key is at or above
    # 2**63, where a float64 key would lose its low 11 bits.
    key = splitmix64(seed)
    assert (key >= 2**63) == (seed == 0)
    weight = power_weight(1.5)
    jumps = 40
    r = rubin_simulate(ClockConfig(matrix=complete_graph(2), weight=weight), 0, jumps, seed)
    streams = {
        e: np.random.Generator(np.random.Philox(key=np.array([key, e], dtype=np.uint64)))
        for e in (1, 2)
    }
    draws = {e: [g.random() for _ in range(jumps)] for e, g in streams.items()}
    now, want = 0.0, [0.0]
    for k in range(jumps):
        edge, level = (1, k // 2) if k % 2 == 0 else (2, k // 2 + 1)
        now += -math.log1p(-draws[edge][level]) / weight(level)
        want.append(now)
    assert r.jump_times.tolist() == want


_PHILOX_PROBE = """
#include "{source}"
double philox_draw(uint64_t k0, uint64_t k1, uint64_t j) {{ return philox(k0, k1, j); }}
"""


def test_compiled_philox_matches_numpy(tmp_path):
    # the race's Philox4x64-10 against numpy's raw stream, draw by draw
    probe = tmp_path / "philox_probe.c"
    probe.write_text(_PHILOX_PROBE.format(source=files._SOURCE))
    lib = _test_library(tmp_path, source=probe)
    lib.philox_draw.argtypes = [ctypes.c_uint64] * 3
    lib.philox_draw.restype = ctypes.c_double
    keys = [2**63, 2**63 + 1, 2**64 - 1, 2**64 - 2**11 + 7, splitmix64(0), splitmix64(12), 0, 1, 2**63 - 1]
    for key in keys:
        for edge in (0, 1, 2, 7, 0xFFFFFFFF, 2**64 - 1):
            raw = np.random.Philox(key=np.array([key, edge], dtype=np.uint64)).random_raw(70)
            want = ((raw >> np.uint64(11)) * 2.0**-53).tolist()
            assert [lib.philox_draw(key, edge, j) for j in range(70)] == want, (key, edge)


def _reference_case(n, c, alpha):
    matrix = complete_graph(n) if c == 0 else with_diagonal(complete_graph(n), c)
    return ClockConfig(matrix=matrix, weight=power_weight(alpha))


def _assert_matches_reference(cfg, start, budget, seed):
    r = rubin_simulate(cfg, start, budget, seed)
    sites, times, chk, final, ties = clock_reference.race(cfg, start, budget, seed)
    np.testing.assert_array_equal(r.walk.sites, sites)
    assert r.jump_times.tobytes() == times.tobytes()
    np.testing.assert_array_equal(r.walk.checkpoint_counts, chk)
    np.testing.assert_array_equal(r.walk.final_counts, final)
    assert r.tie_count == ties


@pytest.mark.parametrize(
    "n, c, alpha",
    [(2, 0.0, 1.5), (3, 0.0, 2.5), (3, 0.0, 1.5), (3, 0.5, 1.5), (5, 0.0, 1.3), (5, 0.5, 2.5), (8, 0.0, 1.15)],
)
def test_clock_race_matches_the_reference(n, c, alpha):
    cfg = _reference_case(n, c, alpha)
    for seed in list(range(12)) + [2**64 - 1, -5]:
        _assert_matches_reference(cfg, seed % n, 300, seed)


def test_clock_race_with_any_weight_matches_the_reference():
    # a rate map that is no power, takes no arrays and is not monotone
    cfg = ClockConfig(matrix=complete_graph(4), weight=lambda l: 1.0 + (l % 5) * 0.75 + math.sqrt(l))
    for seed in range(8):
        _assert_matches_reference(cfg, seed % 4, 400, seed)


def test_clock_race_across_table_extensions_and_slices(monkeypatch):
    # a fresh config's table holds w(0) alone, and a call on K3 returns
    # after 21 // 3 = 7 jumps: a race of 3000 jumps crosses both many times
    monkeypatch.setattr(rubin_module, "CLOCK_SLICE", 21)
    asked = []

    def weight(level):
        asked.append(level)
        return (level + 1.0) ** 1.3

    extensions = []
    more_rates = rubin_module._more_rates
    monkeypatch.setattr(rubin_module, "_more_rates", lambda *args: extensions.append(args) or more_rates(*args))
    cfg = ClockConfig(matrix=complete_graph(3), weight=weight)
    r = rubin_simulate(cfg, 1, 3000, 11)
    # each level is asked for once, in order, in chunks that double, and no
    # further ahead than twice the levels the race reached
    top = int(r.walk.final_counts.max())
    assert asked == list(range(len(asked))) and len(asked) <= 2 * top
    assert 2 <= len(extensions) <= top.bit_length() + 1
    sites, times, chk, final, ties = clock_reference.race(cfg, 1, 3000, 11)
    np.testing.assert_array_equal(r.walk.sites, sites)
    assert r.jump_times.tobytes() == times.tobytes()
    np.testing.assert_array_equal(r.walk.checkpoint_counts, chk)
    np.testing.assert_array_equal(r.walk.final_counts, final)
    assert r.tie_count == ties


def test_weight_failing_past_the_race_is_raised_only_when_reached():
    # On K2 jump j reads level j // 2, so 16 jumps reach level 8 and 18 reach
    # 9, where w is not finite. The table doubles from 8 entries to 16 at
    # level 8: it stops before 9, and the race runs, until it reaches 9.
    cfg = ClockConfig(matrix=complete_graph(2), weight=lambda l: math.nan if l >= 9 else l + 1.0)
    assert rubin_simulate(cfg, 0, 16, 1).walk.final_counts.tolist() == [9, 8]
    with pytest.raises(NumericError, match=r"w\(9\)"):
        rubin_simulate(cfg, 0, 18, 1)


# Hits of sample_trap_event at criterion_11's setting (degree 3, start 5,
# w(l) = (l+1)^3, truncation 2000) per seed, at 100 draws (one chunk) and
# 1500 draws (two full chunks of 668 and a last one of 164).
GOLDEN_TRAP_HITS = {
    (7, 100): 91, (7, 1500): 1402,
    (8, 100): 93, (8, 1500): 1399,
    (9, 100): 94, (9, 1500): 1409,
}


def test_trap_sampler_hits_match_golden_values():
    w = power_weight(3.0)
    got = {
        (seed, draws): sample_trap_event(3, w, 5, draws, seed, truncation=2000).hits
        for seed in (7, 8, 9)
        for draws in (100, 1500)
    }
    assert got == GOLDEN_TRAP_HITS
