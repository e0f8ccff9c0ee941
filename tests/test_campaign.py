import gzip
import hashlib
import json
import math
import os
import tracemalloc
import zlib

import numpy as np
import pytest

from vrrw import (
    DetectionConfig,
    DomainError,
    ExperimentConfig,
    ModelParameters,
    NumericError,
    ValidationError,
    checkpoint_schedule,
    enumerate_all,
    equilibrium_anchors,
    export,
    load_campaign,
    replica_seed,
    run_campaign,
    simulate,
    validate,
    vector_field,
)
import vrrw.campaign as campaign_module
from vrrw.campaign import (
    _detect_from_tail_counts,
    _nearest,
    _result,
    _tail_window,
    config_from_json_dict,
    config_to_json_dict,
    model_from_json,
    replica_start,
)
from vrrw.cli import main
from vrrw.graph import coords_of, simplex_points

P3 = ModelParameters.for_complete_graph(3, 2.5)


def detect(sites, min_share=0.02, n=3):
    """Localization set and tail profile of a full site log, detected from
    its tail counts as run_campaign does with tail_fraction 0.5."""
    sites = np.asarray(sites)
    horizon = sites.size - 1
    window = _tail_window(horizon, 0.5)
    tail = np.bincount(sites[horizon - window + 1 :], minlength=n)
    [support], [profile] = _detect_from_tail_counts(tail[None], window, min_share)
    return support, profile


def test_two_site_walk_detects_both_sites():
    r = simulate(ModelParameters.for_complete_graph(2, 1.5), 0, 1000, 5)
    support, profile = detect(r.sites, n=2)
    assert tuple(support) == (0, 1)
    np.testing.assert_allclose(profile, [0.5, 0.5], rtol=0, atol=2 / 1000)


def test_detection_ignores_early_excursions():
    # visits to site 2 only in the first tenth, alternation on {0,1} after
    head = [0, 2] * 50
    tail = [0, 1] * 450
    support, profile = detect(head + tail + [0])
    assert tuple(support) == (0, 1)
    assert sum(profile) == pytest.approx(1.0, abs=1e-12)


def test_detection_monotone_in_share_threshold():
    r = simulate(P3, 0, 20_000, 21)
    keep = {}
    for share in (0.3, 0.1, 0.02, 0.005, 0.0):
        support, _ = detect(r.sites, share)
        keep[share] = set(support)
    shares = sorted(keep, reverse=True)
    for a, b in zip(shares, shares[1:]):
        assert keep[a] <= keep[b]


def test_detection_works_from_checkpoint_snapshots():
    sched = checkpoint_schedule(50_000, extra=(25_000,))
    r = simulate(P3, 0, 50_000, 33, record_sites=False, checkpoints=sched)
    assert r.sites is None
    cut_idx = int(np.nonzero(r.checkpoint_steps == 25_000)[0][0])
    tail = r.final_counts - r.checkpoint_counts[cut_idx]
    [support], [profile] = _detect_from_tail_counts(
        tail[None], _tail_window(50_000, 0.5), 0.02
    )
    full = simulate(P3, 0, 50_000, 33)
    support_full, profile_full = detect(full.sites)
    assert tuple(support) == tuple(support_full)
    np.testing.assert_allclose(profile, profile_full, rtol=0, atol=1e-12)


def _detect_row(tail_counts, window, min_share):
    """Detection of one row of tail counts as run_campaign did it replica
    by replica; the reference for the batch detector."""
    shares = tail_counts / window
    retained = (tail_counts >= 1) & (shares >= min_share)
    if not retained.any():
        retained[int(np.argmax(shares))] = True
    sites = np.nonzero(retained)[0]
    profile = shares[sites] / shares[sites].sum()
    return tuple(int(s) for s in sites), profile


@pytest.mark.parametrize("min_share", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 13, 20])
def test_batch_detection_matches_row_by_row_reference(n, min_share):
    # supports of up to 20 sites cross numpy's 8-element pairwise sum
    rng = np.random.default_rng(100 * n + int(100 * min_share))
    window = 997
    # rows from concentrated on a site or two to nearly flat
    pvals = [rng.dirichlet(np.full(n, c)) for c in rng.choice([0.05, 0.5, 5.0, 500.0], size=300)]
    tail = rng.multinomial(window, pvals)
    tail = np.concatenate([tail, np.full((1, n), window // n), np.eye(n, dtype=np.int64)[-1:] * window])
    faces, profiles = _detect_from_tail_counts(tail, window, min_share)

    want = [_detect_row(row, window, min_share) for row in tail]
    assert [face.sites for face in faces] == [sites for sites, _ in want]
    for got, (_, profile) in zip(profiles, want):
        assert np.array(got).tobytes() == profile.tobytes()
    if min_share == 0.3 and n >= 8:
        shares = tail / window
        assert np.any(~((tail >= 1) & (shares >= min_share)).any(axis=1))

    # the aggregates as _result builds them, against grouping the reference
    # profiles by support size
    r = len(tail)
    cfg = ExperimentConfig(
        model=ModelParameters.for_complete_graph(n, 2.5), replicas=r, horizon=2 * window, base_seed=0
    )
    occupations = simplex_points(tail / tail.sum(axis=1, keepdims=True))
    seeds = [replica_seed(0, i) for i in range(r)]
    res = _result(cfg, seeds, faces, profiles, occupations, [-1] * r, [math.nan] * r, "test")
    histogram, mean_profile = res.support_histogram, res.mean_sorted_profile
    by_size = {}
    for sites, profile in want:
        by_size.setdefault(len(sites), []).append(sorted((float(x) for x in profile), reverse=True))
    assert histogram == {size: len(rows) for size, rows in sorted(by_size.items())}
    assert list(histogram) == sorted(by_size)
    assert mean_profile == {
        size: tuple(float(x) for x in np.mean(rows, axis=0)) for size, rows in sorted(by_size.items())
    }
    assert list(mean_profile) == sorted(by_size)


def test_detection_config_validation():
    with pytest.raises(ValidationError):
        DetectionConfig(tail_fraction=0.0)
    with pytest.raises(ValidationError):
        DetectionConfig(tail_fraction=1.0)
    with pytest.raises(ValidationError):
        DetectionConfig(min_share=-0.1)


def test_anchor_sets():
    assert len(equilibrium_anchors(P3)) == 7
    loops = equilibrium_anchors(ModelParameters.for_complete_graph(3, 2.5, loop_c=0.5))
    sizes = sorted(len(a.support) for a in loops)
    assert sizes == [1, 1, 1, 2, 2, 2, 3]
    big = equilibrium_anchors(ModelParameters.for_complete_graph(13, 2.5))
    assert big == []


@pytest.mark.parametrize("alpha, loop_c", [(1.6, 0.0), (3.0, 0.0), (1.6, 0.5), (1.6, 1.5)])
def test_anchor_count_needs_no_catalog(alpha, loop_c):
    for n in range(2, 13):
        p = ModelParameters.for_complete_graph(n, alpha, loop_c=loop_c)
        assert campaign_module._anchor_count(p) == len(equilibrium_anchors(p)), n


def test_failing_catalog_raises_before_the_walk(monkeypatch):
    # a two-level ratio of K4 at alpha 1.0005 lies past the double range, so
    # its catalog raises: before the walk, which must not run
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(campaign_module, "_batch_walk", walk)
    p = ModelParameters.for_complete_graph(4, 1.0005, loop_c=0.0)
    with pytest.raises(NumericError):
        run_campaign(ExperimentConfig(model=p, replicas=2, horizon=100, base_seed=1))


def test_numpy_scalars_in_a_model_hash_as_python_numbers():
    def config(alpha, loop_c):
        p = ModelParameters.for_complete_graph(3, alpha, loop_c=loop_c)
        return ExperimentConfig(model=p, replicas=2, horizon=100, base_seed=1)

    want = config(2.0, 1).config_hash()
    assert config(2.0, np.int64(1)).config_hash() == want
    assert config(np.float64(2.0), np.int64(1)).config_hash() == want
    p = config(np.float32(2.5), np.float64(0.5)).model
    assert (type(p.alpha), type(p.loop_c)) == (float, float)
    # Python numbers are kept as given
    p = config(3, 1).model
    assert (type(p.alpha), type(p.loop_c)) == (int, int)


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


@pytest.mark.parametrize(
    "n, alpha, c",
    [(3, 2.5, 0.0), (5, 1.3, 0.0), (8, 1.15, 0.0), (12, 1.6, 0.0), (4, 1.3, 0.5)],
    ids=["3-2.5", "5-1.3", "8-1.15", "12-1.6", "4-1.3-loops"],
)
def test_nearest_anchor_matches_brute_force_bit_for_bit(n, alpha, c, monkeypatch):
    anchors = equilibrium_anchors(ModelParameters.for_complete_graph(n, alpha, loop_c=c))
    pts = np.array([coords_of(e.point) for e in anchors])
    rng = np.random.default_rng(n)
    own = rng.permutation(len(pts))[:300]
    i, j = rng.integers(len(pts), size=(2, 200))
    zeros = rng.dirichlet(np.ones(n), size=200)
    zeros[rng.random(zeros.shape) < 0.5] = 0.0
    zeros[:, 0] += zeros.sum(axis=1) == 0
    occ = np.concatenate([
        pts[own],  # each at distance 0 from itself
        (pts[i] + pts[j]) / 2,  # ties between two anchors, up to rounding
        zeros / zeros.sum(axis=1, keepdims=True),
        rng.multinomial(997, np.ones(n) / n, size=200) / 998.0,
    ])
    # a few rows per chunk, so rows meet chunk edges as well
    monkeypatch.setattr(campaign_module, "_NEAREST_BYTES", 7 * len(pts) * 8)
    idx, dist = _nearest(occ, anchors)
    want_idx = np.empty(len(occ), dtype=np.intp)
    want_dist = np.empty(len(occ))
    for r, row in enumerate(occ):
        d = np.linalg.norm(row - pts, axis=1)
        want_idx[r] = np.argmin(d)
        want_dist[r] = d[want_idx[r]]
    np.testing.assert_array_equal(idx, want_idx)
    assert want_dist.tobytes() == dist.tobytes()
    np.testing.assert_array_equal(idx[: own.size], own)
    assert np.all(dist[: own.size] == 0.0)


def test_anchors_only_for_the_complete_graph():
    circulant = validate(np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]))
    assert equilibrium_anchors(ModelParameters(matrix=circulant, alpha=1.5)) == []
    assert equilibrium_anchors(ModelParameters(matrix=circulant, alpha=1.5, loop_c=0.5)) == []
    diagonal = validate(np.ones((4, 4)))
    assert equilibrium_anchors(ModelParameters(matrix=diagonal, alpha=1.5)) == []
    # the complete graph keeps its catalog, and every anchor is a zero of F
    p = ModelParameters.for_complete_graph(4, 1.5)
    anchors = equilibrium_anchors(p)
    assert len(anchors) == len(enumerate_all(4, 1.5))
    assert max(np.abs(vector_field(p, e.point)).max() for e in anchors) < 1e-10
    cfg = ExperimentConfig(
        model=ModelParameters(matrix=circulant, alpha=1.5), replicas=3, horizon=200, base_seed=1
    )
    reps = run_campaign(cfg).replicas
    assert [rep.nearest_equilibrium for rep in reps] == [-1, -1, -1]
    assert all(np.isnan(rep.distance) for rep in reps)


def test_replica_seeds_are_distinct_and_stable():
    seeds = [replica_seed(1234, r) for r in range(100)]
    assert len(set(seeds)) == 100
    assert seeds[:3] == [replica_seed(1234, r) for r in range(3)]
    starts = [replica_start(s, 3) for s in seeds]
    assert set(starts) <= {0, 1, 2}
    assert len(set(starts)) == 3


@pytest.mark.parametrize("base", [0, 1, 2**63, 2**64 - 1, -7], ids=["0", "1", "2^63", "2^64-1", "negative"])
def test_vector_seeds_and_starts_equal_the_scalar_ones(base):
    # run_campaign derives its seeds and starts in one uint64 splitmix64,
    # whose arithmetic wraps mod 2**64 as the scalar form's mask does
    seeds = replica_seed(base, np.arange(10**5, dtype=np.uint64))
    assert seeds.dtype == np.uint64
    want = [replica_seed(base, r) for r in range(10**5)]
    assert seeds.tolist() == want
    for n in (3, 8):
        starts = replica_start(seeds, n)
        assert starts.dtype == np.uint64 and starts.tolist() == [replica_start(s, n) for s in want]
    # a campaign walks from those starts with those seeds
    cfg = ExperimentConfig(model=P3, replicas=40, horizon=50, base_seed=base)
    assert [rep.seed for rep in run_campaign(cfg).replicas] == want[:40]


@pytest.mark.parametrize("starts, seeds", [([0, 3], [1, 2]), ([0, -1], [1, 2]), ([0, 1], [1, -2]), ([0, 1], [1])])
def test_batch_walk_checks_start_and_seed_arrays_at_once(starts, seeds):
    # integer arrays, as run_campaign passes them, raise what lists raise
    for cast in (list, lambda v: np.array(v, dtype=np.int64)):
        with pytest.raises(ValidationError):
            campaign_module._batch_walk(P3, cast(starts), 10, cast(seeds), False, [5])


def test_single_replica_campaign_reduces_to_simulate_plus_detect():
    # the campaign detects from a checkpoint snapshot at the tail cutoff,
    # the reference from the full site log
    for horizon in (2000, 50_000):
        cfg = ExperimentConfig(
            model=P3, replicas=1, horizon=horizon, base_seed=5, start=0,
            detection=DetectionConfig(),
        )
        res = run_campaign(cfg)
        assert len(res.replicas) == 1
        rep = res.replicas[0]
        seed = replica_seed(5, 0)
        assert rep.seed == seed
        solo = simulate(P3, 0, horizon, seed)
        support, profile = detect(solo.sites)
        assert tuple(rep.support) == tuple(support)
        np.testing.assert_allclose(rep.tail_profile, profile, rtol=0, atol=0)
        np.testing.assert_allclose(
            rep.final_occupation, solo.final_counts / (horizon + 1), rtol=0, atol=0
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


@pytest.mark.parametrize("n", [3.7, 3.0, "3"], ids=["float", "whole-float", "str"])
def test_model_json_takes_an_integer_site_count(n):
    # int() would have truncated 3.7 to a K3 model
    with pytest.raises(ValidationError, match="n must be an integer"):
        model_from_json({"n": n, "alpha": 2.5})
    assert model_from_json({"n": np.int64(3), "alpha": 2.5}).size == 3


@pytest.mark.parametrize(
    "name, value",
    [
        pytest.param("start", 1.5, id="float-start"),
        pytest.param("replicas", 2.5, id="float-replicas"),
        pytest.param("base_seed", 1.5, id="float-base-seed"),
        pytest.param("horizon", 100.0, id="float-horizon"),
        pytest.param("replicas", "3", id="str-replicas"),
        pytest.param("start", np.int64(1), id="int64-start"),
        pytest.param("base_seed", np.int64(3), id="int64-base-seed"),
        pytest.param("base_seed", -3, id="negative-base-seed"),
        pytest.param("replicas", True, id="bool-replicas"),
        pytest.param("base_seed", False, id="bool-base-seed"),
        pytest.param("start", True, id="bool-start"),
    ],
)
def test_campaign_config_takes_only_integers(name, value):
    given = dict(model=P3, replicas=3, horizon=100, base_seed=3, start=1)
    given[name] = value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        with pytest.raises(ValidationError):
            ExperimentConfig(**given)
        d = config_to_json_dict(ExperimentConfig(model=P3, replicas=3, horizon=100, base_seed=3))
        d[name] = value
        with pytest.raises(ValidationError):
            config_from_json_dict(d)
        return
    cfg = ExperimentConfig(**given)
    assert type(getattr(cfg, name)) is int
    ref = ExperimentConfig(**{**given, name: int(value)})
    assert cfg.config_hash() == ref.config_hash()
    assert config_from_json_dict(config_to_json_dict(cfg)).config_hash() == cfg.config_hash()
    got, want = run_campaign(cfg).replicas, run_campaign(ref).replicas
    assert [r.seed for r in got] == [r.seed for r in want]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.final_occupation, b.final_occupation)


@pytest.mark.parametrize(
    "section, name, value",
    [
        pytest.param("model", "alpha", "2.5", id="str-alpha"),
        pytest.param("model", "c", False, id="bool-c"),
        pytest.param("detection", "tail_fraction", "0.5", id="str-tail-fraction"),
        pytest.param("detection", "min_share", "0.02", id="str-min-share"),
    ],
)
def test_campaign_config_takes_only_numbers(section, name, value, tmp_path):
    # float() parsed each of these, so a config with the number as a string
    # ran under `vrrw campaign` and its export loaded
    cfg = ExperimentConfig(model=P3, replicas=3, horizon=100, base_seed=3)
    d = config_to_json_dict(cfg)
    d[section][name] = value
    with pytest.raises(ValidationError, match=f"{name} must be a number"):
        config_from_json_dict(d)
    config_file, out = tmp_path / "config.json", tmp_path / "out"
    config_file.write_text(json.dumps(d))
    assert main(["campaign", "--config", str(config_file), "--out", str(out)]) == 3
    assert not out.exists()
    export(run_campaign(cfg), tmp_path / "campaign.json", "json")
    doc = json.loads((tmp_path / "campaign.json").read_text())
    doc["config"][section][name] = value
    (tmp_path / "campaign.json").write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_campaign(tmp_path / "campaign.json")


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


def test_integer_detection_settings_round_trip(tmp_path):
    # the settings are stored as floats, so the exported config hash is the
    # loaded config's: with min_share 0 kept an int, the load failed on it
    cfg = ExperimentConfig(model=P3, replicas=3, horizon=200, base_seed=2, detection=DetectionConfig(min_share=0))
    assert cfg.detection.min_share == 0.0 and isinstance(cfg.detection.min_share, float)
    export(run_campaign(cfg), tmp_path / "c.json", "json")
    assert load_campaign(tmp_path / "c.json").config_hash == cfg.config_hash()


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


@pytest.mark.parametrize(
    "model, name",
    [
        pytest.param(P3, "out.json", id="K3"),
        pytest.param(ModelParameters.for_complete_graph(8, 1.15), "out.json", id="K8"),
        # no anchors above 12 sites: every distance is NaN
        pytest.param(ModelParameters.for_complete_graph(13, 1.3), "out.json", id="K13-anchorless"),
        pytest.param(ModelParameters.for_complete_graph(4, 1.7, loop_c=0.25), "out.json", id="K4-loops"),
        pytest.param(P3, "out.json.gz", id="K3-gz"),
    ],
)
def test_streamed_json_export_equals_json_dumps(model, name, tmp_path):
    res = run_campaign(ExperimentConfig(model=model, replicas=40, horizon=400, base_seed=17))
    cfg = res.config
    start = cfg.start if isinstance(cfg.start, str) else cfg.start + 1
    doc = {
        "config": {
            # every model here is a hollow complete graph, which the export
            # names by its size alone
            "model": {"n": model.size, "alpha": model.alpha, "c": model.loop_c},
            "replicas": cfg.replicas,
            "horizon": cfg.horizon,
            "base_seed": cfg.base_seed,
            "start": start,
            "detection": {"tail_fraction": 0.5, "min_share": 0.02},
        },
        "aggregates": {
            "support_histogram": {str(k): v for k, v in res.support_histogram.items()},
            "mean_sorted_profile": {str(k): list(v) for k, v in res.mean_sorted_profile.items()},
        },
        "provenance": {"config_hash": res.config_hash, "code_version": res.code_version},
        "replicas": [
            {
                "replica": i,
                "seed": rep.seed,
                "support": [s + 1 for s in rep.support.sites],
                "tail_profile": list(rep.tail_profile),
                "final_occupation": list(map(float, rep.final_occupation)),
                "nearest_equilibrium": rep.nearest_equilibrium,
                "distance": rep.distance,
            }
            for i, rep in enumerate(res.replicas)
        ],
    }
    # the indented head, then one line per replica record
    head = json.dumps({**doc, "replicas": []}, sort_keys=True, indent=2)
    before, after = head.rsplit('"replicas": []', 1)
    records = ",\n".join(json.dumps(record, sort_keys=True) for record in doc["replicas"])
    want = (before + '"replicas": [\n' + records + "\n  ]" + after + "\n").encode("utf-8")
    path = tmp_path / name
    export(res, path, "json")
    got = path.read_bytes()
    if name.endswith(".gz"):
        assert got == gzip.compress(want, mtime=0)
        got = gzip.decompress(got)
    assert got == want
    # equal as parsed documents; NaN is compared through its JSON text
    assert json.dumps(json.loads(got), sort_keys=True) == json.dumps(doc, sort_keys=True)
    assert (model.size > 12) == all(np.isnan(rep.distance) for rep in res.replicas)


def test_indented_exports_still_load(tmp_path):
    # the layout of earlier exports: json.dumps(doc, sort_keys=True, indent=2)
    for model in (P3, ModelParameters.for_complete_graph(13, 1.3)):
        res = run_campaign(ExperimentConfig(model=model, replicas=30, horizon=400, base_seed=5))
        export(res, tmp_path / "lines.json", "json")
        doc = json.loads((tmp_path / "lines.json").read_text())
        (tmp_path / "indented.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        for back in (load_campaign(tmp_path / "indented.json"), load_campaign(tmp_path / "lines.json")):
            assert back.config.canonical_dict() == res.config.canonical_dict()
            assert (back.config_hash, back.code_version) == (res.config_hash, res.code_version)
            assert back.support_histogram == res.support_histogram
            assert back.mean_sorted_profile == res.mean_sorted_profile
            for a, b in zip(back.replicas, res.replicas, strict=True):
                assert (a.replica, a.seed, a.support) == (b.replica, b.seed, b.support)
                assert a.tail_profile == b.tail_profile
                assert a.final_occupation.tobytes() == b.final_occupation.tobytes()
                assert a.nearest_equilibrium == b.nearest_equilibrium
                assert np.array([a.distance]).tobytes() == np.array([b.distance]).tobytes()


# SHA-256 of export(run_campaign(cfg), path, "json") on hollow K_N with
# ExperimentConfig defaults: (n, alpha, replicas, horizon, base_seed) -> hash.
# The K8 campaign anchors to all 5281 equilibria of enumerate_all(8, 1.15).
GOLDEN_EXPORTS = {
    (8, 1.15, 800, 5000, 11): "9fcf0d2b701ceb669b3dd356f96c837bf109bd32df0e9b5d50b16d66e0809246",
    (3, 2.5, 500, 20_000, 12): "922b03cbd68e7d6b937e3fc7bb8381ad621286fd518dd694fa336f8037d452e5",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_EXPORTS))
def test_campaign_exports_match_golden_hashes(key, tmp_path, monkeypatch):
    # the walk in one thread, then split into three chunks, each in a thread
    # of its own: both exports have the golden bytes
    n, alpha, replicas, horizon, seed = key
    cfg = ExperimentConfig(
        model=ModelParameters.for_complete_graph(n, alpha),
        replicas=replicas,
        horizon=horizon,
        base_seed=seed,
    )
    path = tmp_path / "campaign.json"
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
        export(run_campaign(cfg), path, "json")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_EXPORTS[key], f"{cpus} CPUs"


def _drop_last_replica(d):
    rep = d["replicas"].pop()
    d["aggregates"]["support_histogram"][str(len(rep["support"]))] -= 1


def _stringify(record, field):
    value = record[field]
    record[field] = list(map(str, value)) if isinstance(value, list) else str(value)


def _nudge_mean_profile(d):
    profile = d["aggregates"]["mean_sorted_profile"]["2"]
    profile[0] = math.nextafter(profile[0], 1.0)


# Malformed exports of a 3-site campaign; each loaded silently before
# load_campaign checked an export against its own config. Number fields
# given as strings keep their values, so only their type is wrong.
MALFORMED_EXPORTS = {
    "short-rows": lambda d: [rep.update(final_occupation=[0.5, 0.5]) for rep in d["replicas"]],
    "ragged-rows": lambda d: d["replicas"][1].update(final_occupation=[0.5, 0.5]),
    "labels-past-n": lambda d: d["replicas"][0].update(support=[7, 9]),
    "label-zero": lambda d: d["replicas"][0].update(support=[0, 1]),
    "float-label": lambda d: d["replicas"][0].update(support=[1.5, 2]),
    "float-replica": lambda d: d["replicas"][0].update(replica=1.5),
    "str-seed": lambda d: d["replicas"][0].update(seed=str(d["replicas"][0]["seed"])),
    "float-nearest": lambda d: d["replicas"][0].update(nearest_equilibrium=2.0),
    "missing-replica": _drop_last_replica,
    "long-profile": lambda d: d["replicas"][0]["tail_profile"].append(0.0),
    "short-profile": lambda d: d["replicas"][0].update(tail_profile=[]),
    "foreign-seed": lambda d: d["replicas"][2].update(seed=d["replicas"][2]["seed"] + 1),
    "repeated-replica": lambda d: d["replicas"][1].update(replica=0),
    "swapped-replicas": lambda d: d["replicas"].insert(0, d["replicas"].pop(1)),
    "foreign-config-hash": lambda d: d["provenance"].update(config_hash="nonsense"),
    "shifted-histogram": lambda d: d["aggregates"].update(support_histogram={"2": 2, "3": 2}),
    "profile-of-size-9": lambda d: d["aggregates"]["mean_sorted_profile"].update({"9": [1.0]}),
    "nudged-profile": _nudge_mean_profile,
    "str-distance": lambda d: _stringify(d["replicas"][0], "distance"),
    "bool-distance": lambda d: d["replicas"][0].update(distance=True),
    "str-tail-share": lambda d: _stringify(d["replicas"][0], "tail_profile"),
    "bool-tail-share": lambda d: d["replicas"][0].update(tail_profile=[True, False]),
    "str-occupation": lambda d: _stringify(d["replicas"][0], "final_occupation"),
    "bool-occupation": lambda d: d["replicas"][0].update(final_occupation=[True, False, False]),
}


@pytest.fixture(scope="module")
def small_export(tmp_path_factory):
    path = tmp_path_factory.mktemp("export") / "small.json"
    export(run_campaign(ExperimentConfig(model=P3, replicas=4, horizon=200, base_seed=5)), path, "json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("case", sorted(MALFORMED_EXPORTS))
def test_load_checks_an_export_against_its_config(case, small_export, tmp_path):
    d = json.loads(json.dumps(small_export))
    MALFORMED_EXPORTS[case](d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValidationError):
        load_campaign(path)


# Nearest-anchor fields that contradict the model, each in replica 0 of a
# K3 export, whose model gets anchors, or of a K13 export, whose model (past
# the catalog's 12 sites) gets none. Each loaded before load_campaign
# checked them.
MISANCHORED_EXPORTS = {
    "anchored-minus-one": (3, {"nearest_equilibrium": -1, "distance": float("nan")}),
    "anchored-nan-distance": (3, {"distance": float("nan")}),
    "anchored-negative-distance": (3, {"distance": -0.5}),
    "anchored-index-past-count": (3, {"nearest_equilibrium": 7}),
    "unanchored-below-minus-one": (13, {"nearest_equilibrium": -5}),
    "unanchored-index": (13, {"nearest_equilibrium": 0}),
    "unanchored-distance": (13, {"distance": 0.1}),
}


@pytest.fixture(scope="module")
def unanchored_export(tmp_path_factory):
    path = tmp_path_factory.mktemp("export") / "unanchored.json"
    p13 = ModelParameters.for_complete_graph(13, 1.3)
    export(run_campaign(ExperimentConfig(model=p13, replicas=3, horizon=50, base_seed=5)), path, "json")
    load_campaign(path)  # as written, its -1 indices and NaN distances load
    return json.loads(path.read_text())


@pytest.mark.parametrize("case", sorted(MISANCHORED_EXPORTS))
def test_load_checks_nearest_anchors_against_the_model(case, small_export, unanchored_export, tmp_path):
    n, fields = MISANCHORED_EXPORTS[case]
    d = json.loads(json.dumps(small_export if n == 3 else unanchored_export))
    d["replicas"][0].update(fields)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValidationError, match="nearest equilibrium"):
        load_campaign(path)


def test_load_takes_the_last_anchor_index(small_export, tmp_path):
    # the K3 catalog has 7 anchors, so 6 is the last index
    d = json.loads(json.dumps(small_export))
    d["replicas"][0]["nearest_equilibrium"] = 6
    path = tmp_path / "last.json"
    path.write_text(json.dumps(d))
    assert load_campaign(path).replicas[0].nearest_equilibrium == 6


def test_loaded_replicas_share_faces_and_one_occupation_array(small_export, tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(small_export))
    reps = load_campaign(path).replicas
    by_support = {}
    for rep in reps:
        assert by_support.setdefault(rep.support.sites, rep.support) is rep.support
        assert not rep.final_occupation.flags.writeable
        assert rep.final_occupation.base is reps[0].final_occupation.base
    assert [rep.final_occupation.tolist() for rep in reps] == [
        rep["final_occupation"] for rep in small_export["replicas"]
    ]


def test_walk_memory_does_not_scale_with_the_block():
    # each replica draws its uniforms from its own generator as it steps; a
    # [R, BLOCK_STEPS + 1] block of them would take 64 MiB here
    cfg = ExperimentConfig(model=P3, replicas=2000, horizon=200, base_seed=1)
    tracemalloc.start()
    try:
        run_campaign(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_gz_export_streams_zlib_gzip_bytes(tmp_path):
    # 1500 replicas on 13 sites (no anchors): a 1.3 MB document. The .gz
    # export is zlib's level-9 gzip stream of the plain bytes, and is
    # written as it is made, so it never holds the document in memory.
    res = run_campaign(ExperimentConfig(
        model=ModelParameters.for_complete_graph(13, 1.3), replicas=1500, horizon=60, base_seed=3
    ))
    export(res, tmp_path / "out.json", "json")
    plain = (tmp_path / "out.json").read_bytes()
    tracemalloc.start()
    try:
        export(res, tmp_path / "out.json.gz", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out.json.gz").read_bytes() == zlib.compress(plain, 9, wbits=31)
    assert peak < len(plain) / 2, (peak, len(plain))
