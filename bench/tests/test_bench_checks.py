"""Each correctness check of the benchmark accepts a right output and
rejects a deliberately wrong one."""

import json

import numpy as np
import pytest

import checks
import vrrw
from checks import CheckFailed


def _sites_with_law(law, m):
    """Sample paths [m, steps+1] whose site frequencies at each step are the
    given law rounded to m draws (the first column is the start, site 0)."""
    steps, n = law.shape
    sites = np.zeros((m, steps + 1), dtype=np.int64)
    for t in range(steps):
        counts = np.floor(law[t] * m).astype(int)
        counts[np.argmax(law[t] * m - counts)] += m - counts.sum()
        sites[:, t + 1] = np.repeat(np.arange(n), counts)
    return sites


def test_exact_site_law_matches_hand_computation():
    law = checks.exact_site_law(3, 2.5, 0, 2)
    assert law[0].tolist() == [0.0, 0.5, 0.5]
    back = 2**2.5 / (2**2.5 + 1)
    assert law[1] == pytest.approx([back, (1 - back) / 2, (1 - back) / 2])
    assert law.sum(axis=1) == pytest.approx(np.ones(2))


def test_site_law_rejects_samples_drawn_at_another_alpha():
    m = 600  # the mean-field workload's walks per exponent
    law = checks.exact_site_law(3, 1.5, 0, 8)
    checks.check_site_law(_sites_with_law(law, m), law, "alpha=1.5")
    wrong = _sites_with_law(checks.exact_site_law(3, 2.5, 0, 8), m)
    with pytest.raises(CheckFailed, match="step"):
        checks.check_site_law(wrong, law, "alpha=1.5")


def test_site_law_accepts_the_library_walk():
    law = checks.exact_site_law(3, 2.5, 0, 4)
    p = vrrw.ModelParameters.for_complete_graph(3, 2.5)
    sites = np.array([vrrw.simulate(p, 0, 4, s, record_sites=True).sites for s in range(300)])
    checks.check_site_law(sites, law, "simulate")


def test_flow_energy_rejects_one_drop():
    p = vrrw.ModelParameters.for_complete_graph(3, 1.5)
    states = np.array(vrrw.integrate_flow(p, [0.5, 0.3, 0.2], t_end=1.0, dt=0.01).states)
    checks.check_flow_energy(states, 1.5)
    states[40] = states[38]
    with pytest.raises(CheckFailed, match="H drops"):
        checks.check_flow_energy(states, 1.5)


def test_trap_rejects_an_estimate_outside_the_bracket():
    bracket, bound = (0.937053, 0.937122), 0.8624
    checks.check_trap(93_705, 100_000, bracket, bound)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_trap(93_000, 100_000, bracket, bound)
    with pytest.raises(CheckFailed, match="below"):
        checks.check_trap(8_000, 10_000, (0.7, 0.9), bound)


def _campaign(n, replicas, horizon, base_seed=5):
    cfg = vrrw.ExperimentConfig(
        model=vrrw.ModelParameters.for_complete_graph(n, 2.5),
        replicas=replicas,
        horizon=horizon,
        base_seed=base_seed,
    )
    return cfg, vrrw.run_campaign(cfg)


def test_strict_json_rejects_nan():
    assert checks.parse_strict_json('{"distance": 0.5}') == {"distance": 0.5}
    with pytest.raises(CheckFailed, match="NaN"):
        checks.parse_strict_json(json.dumps({"distance": float("nan")}))


def test_strict_json_rejects_an_export_without_anchors(tmp_path):
    # past 12 sites there are no anchors and the distance is NaN
    _, result = _campaign(13, 2, 10)
    path = tmp_path / "c.json"
    vrrw.export(result, path, "json")
    with pytest.raises(CheckFailed, match="NaN"):
        checks.parse_strict_json(path.read_text())


def test_replay_rejects_a_disagreeing_replica():
    cfg, result = _campaign(3, 4, 200)
    occ = np.asarray(result.replicas[1].final_occupation)
    seed = vrrw.replica_seed(cfg.base_seed, 1)
    start = vrrw.campaign.replica_start(seed, 3)
    checks.check_replay(occ, vrrw.simulate(cfg.model, start, 200, seed).final_counts, 200)
    other = vrrw.simulate(cfg.model, start, 200, seed + 1).final_counts
    assert not np.array_equal(other / 201.0, occ)
    with pytest.raises(CheckFailed, match="replay"):
        checks.check_replay(occ, other, 200)


def test_nearest_rejects_a_wrong_anchor():
    occ = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    anchors = np.array([[0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5]])
    idx, dist = checks.nearest_anchors(occ, anchors)
    checks.check_nearest(occ, anchors, idx, dist)
    with pytest.raises(CheckFailed, match="nearest"):
        checks.check_nearest(occ, anchors, [0, 0], dist)


def test_catalog_rejects_a_stable_two_level_point():
    p = vrrw.ModelParameters.for_complete_graph(4, 1.6)
    eqs = [vrrw.classify(p, e) for e in vrrw.enumerate_all(4, 1.6)]
    args = (
        [e.kind for e in eqs],
        [e.support.sites for e in eqs],
        np.array([np.asarray(e.point) for e in eqs]),
        [e.verdict for e in eqs],
    )
    checks.check_catalog(4, 1.6, *args)
    verdicts = ["stable" if k == "two_level" else v for k, v in zip(args[0], args[3])]
    assert "two_level" in args[0]
    with pytest.raises(CheckFailed, match="two-level"):
        checks.check_catalog(4, 1.6, *args[:3], verdicts)


def test_pairs_and_campaign_totals_reject_wrong_summaries():
    supports = [(0, 1)] * 99 + [(0, 1, 2)]
    checks.check_pairs(supports, [(0.5, 0.5)] * 99 + [(0.4, 0.3, 0.3)])
    with pytest.raises(CheckFailed, match="two sites"):
        checks.check_pairs(supports[:98] + [(0, 1, 2)] * 2, [(0.5, 0.5)] * 98 + [(0.4, 0.3, 0.3)] * 2)
    summary = {
        "occupations": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
        "histogram": {2: 3},
        "supports": [(0, 1), (1, 2), (0, 2)],
        "profiles": [(0.5, 0.5)] * 3,
    }
    checks.check_campaign(summary, 3, 3)
    with pytest.raises(CheckFailed, match="totals"):
        checks.check_campaign(dict(summary, histogram={2: 2}), 3, 3)
