import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vrrw import (
    ClockConfig,
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
import vrrw.rubin as rubin_module

from trap_oracle import trap_event_bracket

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


def test_trap_sampler_validates_arguments():
    w = power_weight(3.0)
    with pytest.raises(ValidationError):
        sample_trap_event(0, w, 5, 10, 1)
    with pytest.raises(ValidationError):
        sample_trap_event(2, w, 50, 10, 1, truncation=40)


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


def test_clock_config_validates_weight():
    with pytest.raises(ValidationError):
        ClockConfig(matrix=complete_graph(3), weight=lambda l: np.zeros_like(np.asarray(l, dtype=float)))


#: Seeds for the clock goldens: splitmix64 maps 0 and 12 to keys at or above
#: 2**63 and 3 and 7 to keys below it (see the rounding test further down).
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
# made with numpy 2.4.6 (its Philox) and glibc's log1p on x86-64.
GOLDEN_CLOCKS = {
    (2, 0.0, 1.05): "d7eac1f71c84260990c069c5ba845e269072f3bd80051dc282cfc96d5cd27bda",
    (2, 0.0, 1.5): "7f272d14f0d0ffbb20e215c19884295384c301681f4ebc2cf8dea68f9db289a0",
    (2, 0.0, 2.5): "2e7a80c789b31709a7df8f79ae69edb5a329777d84eea91410b13cfbc2b255f5",
    (2, 0.0, 4.0): "63d37941e24f7f2b70c1b2c8399d0da75b306eeda29e7aeaa638661f75f6a19a",
    (2, 0.5, 1.05): "8ba2f4d57bb9e8e1a61b6a0a079c7b7001125a236fae021bb19b0a06616dab46",
    (2, 0.5, 1.5): "4952a4cdc7e661e3e09d08a58efd47c38365f6048b7bf1180a8f7012d563bddb",
    (2, 0.5, 2.5): "5b1e811f8ec5f0b4333f90a8380f24117ab179f62998bd635faf721e3be60d1b",
    (2, 0.5, 4.0): "35285042a04d573e14bfa236a7542d634f7c4aa02168ea4e405472cd7cfb4643",
    (3, 0.0, 1.05): "38738629b64643d0b247d1398713f0768287100ba122b6fadb7db2f59c107a33",
    (3, 0.0, 1.5): "0d4ea81889e05991348e9123b40c288ca8b1544365063480cc7fabcb6af96c61",
    (3, 0.0, 2.5): "759c6a38e3ca9fc2c903c507f66c81932bace139d533f060f504380d37b21bed",
    (3, 0.0, 4.0): "181893343c8f9e5c4a54be56aa54378602fb5959794bf80d04e492e4a340e789",
    (3, 0.5, 1.05): "a1e16cf58107609b94656d02b00b7eb4a7b7e2c7c4b33d510478c95c57e78ee1",
    (3, 0.5, 1.5): "edc7947793ffdaa8cc6a304170b1dd09111a0c49ed09894c559ba55f4375cc9b",
    (3, 0.5, 2.5): "458baf9bd38747abf9fdeee0bb5e7e2f277fd4b098eadc5a67fa5fb401e38a3d",
    (3, 0.5, 4.0): "77d38736b3bbe418ad709206e58e153e86e2521b33d85945c6b3b0b3d06a904d",
    (5, 0.0, 1.05): "f1b7af61ef5ff3b49b20c2faee875cea83d68d287df15c8c2f46c03d844deb84",
    (5, 0.0, 1.5): "de9f0e6d0db150bbc33790fb5d99cf9aac33c6074cefe62a540cb8b76f31bb1c",
    (5, 0.0, 2.5): "d0d53f2cb495a7020bf22c6edb18213fd81afa72a365d35fac322efa515fc154",
    (5, 0.0, 4.0): "28970fa6038cf700ec886bcbe82daaa9de35636af34d4464235afd0e406e7b01",
    (5, 0.5, 1.05): "f883fbbf4eac8175754adcf01a6c21e6780f73d44506bea587dcbc290a00c838",
    (5, 0.5, 1.5): "54835b7e45a7f19fdd4e48ee849fa4971b96b43c4b97f9a900e8beb9c834eb3d",
    (5, 0.5, 2.5): "31e47d5a492402ab7e17eb621013dfbf720396e2a63a81dcac94bd78aca92064",
    (5, 0.5, 4.0): "dd554ef623e6bc15c2d087c85eb9568c9587444617335ec8d01fc453aa3e55d3",
}


def test_clock_race_matches_golden_hashes():
    got = {key: _clock_digest(*key) for key in GOLDEN_CLOCKS}
    assert got == GOLDEN_CLOCKS


def test_clock_races_in_threads_match_serial_runs():
    # each thread re-keys its own Philox, so interleaved races keep their streams
    seeds = list(range(40))
    serial = [rubin_simulate(CFG, 0, 200, s).jump_times for s in seeds]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda s: rubin_simulate(CFG, 0, 200, s).jump_times, seeds))
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


class _TiedLog1p:
    """Stands in for `math` with log1p pinned to one value for its first
    `calls` calls, so the first race of a walk ends in an exact tie."""

    def __init__(self, calls):
        self.left = calls

    def __getattr__(self, name):
        return getattr(math, name)

    def log1p(self, x):
        if self.left:
            self.left -= 1
            return -0.5
        return math.log1p(x)


# SHA-256 of the sites and jump times of the walk in the forced-tie test.
GOLDEN_TIED_WALK = "18dc74c3223b0245fd1e34f48a102463a08259504efe2721d282b296c472f7ca"


def test_forced_tie_is_broken_by_the_tie_stream(monkeypatch):
    # both first-race durations come out equal; the tie stream redraws them
    monkeypatch.setattr(rubin_module, "math", _TiedLog1p(2))
    r = rubin_simulate(CFG, 0, 50, 5)
    assert r.tie_count == 1
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(r.walk.sites, dtype=np.int64).tobytes())
    h.update(r.jump_times.tobytes())
    assert h.hexdigest() == GOLDEN_TIED_WALK


@pytest.mark.parametrize("seed", [0, 3])
def test_clock_streams_use_the_float_rounded_key(seed):
    # On K2 every jump is a one-clock race, so the jump times are running
    # sums of the edge streams' durations: edge (0, 1) at levels 0, 1, 2, ...
    # and edge (1, 0) at levels 1, 2, 3, ...  A key at or above 2**63 reaches
    # Philox through a float64 array, rounded to a multiple of 2**11.
    key = splitmix64(seed)
    rounded = int(float(key)) & (2**64 - 1)
    effective = key if key < 2**63 else rounded
    assert (effective != key) == (seed == 0)
    weight = power_weight(1.5)
    jumps = 40
    r = rubin_simulate(ClockConfig(matrix=complete_graph(2), weight=weight), 0, jumps, seed)
    streams = {
        e: np.random.Generator(np.random.Philox(key=np.array([effective, e], dtype=np.uint64)))
        for e in (1, 2)
    }
    draws = {e: [g.random() for _ in range(jumps)] for e, g in streams.items()}
    now, want = 0.0, [0.0]
    for k in range(jumps):
        edge, level = (1, k // 2) if k % 2 == 0 else (2, k // 2 + 1)
        now += -math.log1p(-draws[edge][level]) / weight(level)
        want.append(now)
    assert r.jump_times.tolist() == want


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
