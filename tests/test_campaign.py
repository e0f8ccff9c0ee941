import json

import numpy as np
import pytest

from vrrw import (
    DetectionConfig,
    DomainError,
    ExperimentConfig,
    InsufficientDataError,
    ModelParameters,
    TrajectoryRecord,
    ValidationError,
    checkpoint_schedule,
    convergence_diagnostics,
    detect_localization,
    equilibrium_anchors,
    export,
    load_campaign,
    replica_seed,
    run_campaign,
    simulate,
)
import vrrw.campaign as campaign_module
from vrrw.campaign import _nearest, config_from_json_dict, config_to_json_dict, replica_start
from vrrw.graph import coords_of

P3 = ModelParameters.for_complete_graph(3, 2.5)


def synthetic_record(sites, n=3):
    sites = np.asarray(sites, dtype=np.int16)
    horizon = sites.size - 1
    counts = np.bincount(sites, minlength=n).astype(np.int64)
    sched = checkpoint_schedule(horizon)
    snap = np.stack([np.bincount(sites[: s + 1], minlength=n) for s in sched])
    return TrajectoryRecord(
        start=int(sites[0]),
        params=None,
        seed=0,
        horizon=horizon,
        final_counts=counts,
        checkpoint_steps=sched,
        checkpoint_counts=snap,
        sites=sites,
    )


def test_two_site_walk_detects_both_sites():
    r = simulate(ModelParameters.for_complete_graph(2, 1.5), 0, 1000, 5)
    support, profile = detect_localization(r, 0.5, 0.02)
    assert tuple(support) == (0, 1)
    np.testing.assert_allclose(profile, [0.5, 0.5], rtol=0, atol=2 / 1000)


def test_detection_ignores_early_excursions():
    # visits to site 2 only in the first tenth, alternation on {0,1} after
    head = [0, 2] * 50
    tail = [0, 1] * 450
    r = synthetic_record(head + tail + [0])
    support, profile = detect_localization(r, 0.5, 0.02)
    assert tuple(support) == (0, 1)
    assert profile.sum() == pytest.approx(1.0, abs=1e-12)


def test_detection_monotone_in_share_threshold():
    r = simulate(P3, 0, 20_000, 21)
    keep = {}
    for share in (0.3, 0.1, 0.02, 0.005, 0.0):
        support, _ = detect_localization(r, 0.5, share)
        keep[share] = set(support)
    shares = sorted(keep, reverse=True)
    for a, b in zip(shares, shares[1:]):
        assert keep[a] <= keep[b]


def test_detection_works_from_checkpoint_snapshots():
    sched = checkpoint_schedule(50_000, extra=(25_000,))
    r = simulate(P3, 0, 50_000, 33, record_sites=False, checkpoints=sched)
    assert r.sites is None
    support, profile = detect_localization(r, 0.5, 0.02)
    full = simulate(P3, 0, 50_000, 33)
    support_full, profile_full = detect_localization(full, 0.5, 0.02)
    assert tuple(support) == tuple(support_full)
    np.testing.assert_allclose(profile, profile_full, rtol=0, atol=1e-12)


def test_detection_requires_tail_information():
    r = simulate(P3, 0, 5000, 1, record_sites=False, checkpoints=np.array([5000]))
    with pytest.raises(InsufficientDataError):
        detect_localization(r, 0.5, 0.02)


def test_detection_config_validation():
    with pytest.raises(ValidationError):
        DetectionConfig(tail_fraction=0.0)
    with pytest.raises(ValidationError):
        DetectionConfig(tail_fraction=1.0)
    with pytest.raises(ValidationError):
        DetectionConfig(min_share=-0.1)


def test_diagnostics_recover_alternation_rate():
    p2 = ModelParameters.for_complete_graph(2, 1.5)
    r = simulate(p2, 0, 10_000, 1, checkpoints=checkpoint_schedule(10_000))
    series = convergence_diagnostics(r, equilibrium_anchors(p2))
    d = series.distances[np.arange(series.steps.size), series.nearest]
    # deterministic alternation: distance to the even split decays like 1/n
    assert np.all(d * (series.steps + 1) <= 1 / np.sqrt(2) + 1e-12)
    assert series.decay_exponent == pytest.approx(1.0, abs=0.01)


def test_diagnostics_need_three_checkpoints():
    # simulate always keeps the geometric schedule, so build a bare record
    base = simulate(P3, 0, 100, 1)
    r = TrajectoryRecord(
        start=base.start,
        params=base.params,
        seed=base.seed,
        horizon=base.horizon,
        final_counts=base.final_counts,
        checkpoint_steps=base.checkpoint_steps[-2:],
        checkpoint_counts=base.checkpoint_counts[-2:],
        sites=base.sites,
    )
    with pytest.raises(InsufficientDataError):
        convergence_diagnostics(r, equilibrium_anchors(P3))


def test_anchor_sets():
    assert len(equilibrium_anchors(P3)) == 7
    loops = equilibrium_anchors(ModelParameters.for_complete_graph(3, 2.5, loop_c=0.5))
    sizes = sorted(len(a.support) for a in loops)
    assert sizes == [1, 1, 1, 2, 2, 2, 3]
    big = equilibrium_anchors(ModelParameters.for_complete_graph(13, 2.5))
    assert big == []


@pytest.mark.parametrize("n, alpha", [(8, 22.0), (3, 60.0)])
def test_campaign_runs_at_large_exponents(n, alpha):
    # the anchors are the full catalog, whose two-level spectra must not
    # divide by a pair energy that cancelled to 0
    p = ModelParameters.for_complete_graph(n, alpha)
    result = run_campaign(ExperimentConfig(model=p, replicas=20, horizon=200, base_seed=1))
    anchors = equilibrium_anchors(p)
    assert len(result.replicas) == 20
    assert all(0 <= rep.nearest_equilibrium < len(anchors) for rep in result.replicas)


def test_nearest_anchor_does_not_depend_on_chunking(monkeypatch):
    anchors = equilibrium_anchors(ModelParameters.for_complete_graph(5, 1.6))
    pts = np.array([coords_of(e.point) for e in anchors])
    occ = np.random.default_rng(3).dirichlet(np.ones(5), size=37)
    d = np.linalg.norm(occ[:, None, :] - pts[None, :, :], axis=2)
    want = np.argmin(d, axis=1)
    # chunks of 5 replicas: seven full ones and a last one of 2
    monkeypatch.setattr(campaign_module, "_NEAREST_BYTES", 5 * pts.nbytes)
    idx, dist = _nearest(occ, anchors)
    np.testing.assert_array_equal(idx, want)
    np.testing.assert_array_equal(dist, d[np.arange(37), want])


def test_replica_seeds_are_distinct_and_stable():
    seeds = [replica_seed(1234, r) for r in range(100)]
    assert len(set(seeds)) == 100
    assert seeds[:3] == [replica_seed(1234, r) for r in range(3)]
    starts = [replica_start(s, 3) for s in seeds]
    assert set(starts) <= {0, 1, 2}
    assert len(set(starts)) == 3


def test_single_replica_campaign_reduces_to_simulate_plus_detect():
    cfg = ExperimentConfig(
        model=P3, replicas=1, horizon=2000, base_seed=5, start=0,
        detection=DetectionConfig(),
    )
    res = run_campaign(cfg)
    assert len(res.replicas) == 1
    rep = res.replicas[0]
    seed = replica_seed(5, 0)
    assert rep.seed == seed
    solo = simulate(P3, 0, 2000, seed)
    support, profile = detect_localization(solo, 0.5, 0.02)
    assert tuple(rep.support) == tuple(support)
    np.testing.assert_allclose(rep.tail_profile, profile, rtol=0, atol=0)
    np.testing.assert_allclose(
        rep.final_occupation, solo.final_counts / 2001, rtol=0, atol=0
    )


def test_campaign_prefix_stability():
    # replica results depend only on (base_seed, index), not on the batch
    small = run_campaign(
        ExperimentConfig(
            model=P3, replicas=4, horizon=1500, base_seed=42, detection=DetectionConfig()
        )
    )
    large = run_campaign(
        ExperimentConfig(
            model=P3, replicas=9, horizon=1500, base_seed=42, detection=DetectionConfig()
        )
    )
    for a, b in zip(small.replicas, large.replicas):
        assert a.seed == b.seed
        np.testing.assert_array_equal(a.final_occupation, b.final_occupation)
        assert tuple(a.support) == tuple(b.support)


def test_campaign_aggregates_and_provenance(campaign_alpha_25):
    res = campaign_alpha_25
    assert sum(res.support_histogram.values()) == 1000
    assert all(r.distance >= 0 for r in res.replicas)
    assert res.code_version
    assert len(res.config_hash) == 64
    for size, profile in res.mean_sorted_profile.items():
        assert len(profile) == size
        assert np.all(np.diff(profile) <= 0)
        assert np.sum(profile) == pytest.approx(1.0, abs=1e-9)


def test_conditional_uniformity_on_trapped_pairs(campaign_alpha_25):
    # replicas caught on two sites split their tail mass almost evenly
    pairs = [r for r in campaign_alpha_25.replicas if len(r.support) == 2]
    assert pairs
    mean = np.mean([np.sort(r.tail_profile) for r in pairs], axis=0)
    assert np.max(np.abs(mean - 0.5)) < 0.05


def test_phase_fraction_is_monotone_in_reinforcement(campaign_alpha_25):
    fractions = []
    for alpha in (1.3, 1.6, 1.9, 2.2):
        cfg = ExperimentConfig(
            model=ModelParameters.for_complete_graph(3, alpha),
            replicas=1000,
            horizon=100_000,
            base_seed=20240817,
            detection=DetectionConfig(),
        )
        res = run_campaign(cfg)
        fractions.append(res.support_histogram.get(3, 0) / 1000)
    fractions.append(campaign_alpha_25.support_histogram.get(3, 0) / 1000)
    assert all(a > b for a, b in zip(fractions, fractions[1:]))


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        model=ModelParameters.for_complete_graph(4, 1.7, loop_c=0.25),
        replicas=7,
        horizon=1234,
        base_seed=99,
        start=2,
        detection=DetectionConfig(tail_fraction=0.4, min_share=0.05),
    )
    again = config_from_json_dict(config_to_json_dict(cfg))
    assert again.config_hash() == cfg.config_hash()
    assert again.start == 2
    d = config_to_json_dict(cfg)
    assert d["start"] == 3  # stored 1-based


def test_export_round_trip_and_formats(tmp_path):
    cfg = ExperimentConfig(
        model=P3, replicas=3, horizon=500, base_seed=11, detection=DetectionConfig()
    )
    res = run_campaign(cfg)

    jpath = tmp_path / "out.json"
    export(res, jpath, "json")
    back = load_campaign(jpath)
    assert back.config_hash == res.config_hash
    assert back.support_histogram == res.support_histogram
    for a, b in zip(back.replicas, res.replicas):
        assert a.seed == b.seed and tuple(a.support) == tuple(b.support)
        np.testing.assert_array_equal(a.final_occupation, b.final_occupation)

    gzpath = tmp_path / "out.json.gz"
    export(res, gzpath, "json")
    export(res, tmp_path / "again.json.gz", "json")
    assert (tmp_path / "out.json.gz").read_bytes() == (
        tmp_path / "again.json.gz"
    ).read_bytes()

    cpath = tmp_path / "out.csv"
    export(res, cpath, "csv")
    lines = cpath.read_text().splitlines()
    assert lines[0] == "replica,seed,support_size,support,occ_1,occ_2,occ_3,nearest_eq,dist"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == str(res.replicas[0].seed)

    with pytest.raises(DomainError):
        export(res, tmp_path / "x.bin", "parquet")


def test_single_row_csv(tmp_path):
    cfg = ExperimentConfig(
        model=P3, replicas=1, horizon=500, base_seed=3, detection=DetectionConfig()
    )
    export(run_campaign(cfg), tmp_path / "one.csv", "csv")
    lines = (tmp_path / "one.csv").read_text().splitlines()
    assert len(lines) == 2


def test_campaign_json_files_are_canonical(tmp_path):
    cfg = ExperimentConfig(
        model=P3, replicas=2, horizon=300, base_seed=8, detection=DetectionConfig()
    )
    export(run_campaign(cfg), tmp_path / "a.json", "json")
    export(run_campaign(cfg), tmp_path / "b.json", "json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    payload = json.loads((tmp_path / "a.json").read_text())
    assert set(payload) == {"aggregates", "config", "provenance", "replicas"}
