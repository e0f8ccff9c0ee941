import csv
import importlib.util
from pathlib import Path

import numpy

import vrrw
import vrrw.campaign
import vrrw.dynamics
import vrrw.rubin

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flow_portrait_writes_one_final_row_per_flow(tmp_path, capsys):
    out = tmp_path / "portrait.csv"
    code = _load("flow_portrait").main(
        ["--n", "3", "--flows", "2", "--t-end", "1", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["flow", "t", "v_1", "v_2", "v_3", "H"]
    finals = [row for row in rows if row[1] == "1.000"]
    assert [row[0] for row in finals] == ["0", "1"]
    assert "flow  1: end" in capsys.readouterr().out


def test_phase_sweep_writes_one_row_of_fractions_per_exponent(tmp_path):
    out = tmp_path / "sweep.csv"
    code = _load("phase_sweep").main(
        ["--n", "3", "--alphas", "1.5,2.5", "--replicas", "20", "--horizon", "200",
         "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["alpha", "frac_1", "frac_2", "frac_3", "seconds"]
    assert [float(row[0]) for row in rows] == [1.5, 2.5]
    for row in rows:
        assert abs(sum(float(x) for x in row[1:4]) - 1.0) < 1e-12


def test_traced_benchmark_targets_exist_and_are_called(monkeypatch):
    # bench/layers.py wraps these module attributes in a traced run and
    # leaves out the metrics of any it cannot find; each campaign phase it
    # times must be called once per campaign
    layers = _load("layers", ROOT / "bench")
    for module, names in ((vrrw.campaign, layers.CAMPAIGN_PHASES), (vrrw.dynamics, layers.FLOW_CALLS)):
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert vrrw.rubin.np is numpy
    calls = dict.fromkeys(layers.CAMPAIGN_PHASES, 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(vrrw.campaign, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(vrrw.campaign, name, counted)
    model = vrrw.ModelParameters.for_complete_graph(3, 2.5)
    vrrw.run_campaign(vrrw.ExperimentConfig(model=model, replicas=4, horizon=200, base_seed=1))
    assert calls == dict.fromkeys(layers.CAMPAIGN_PHASES, 1)


def _bench_run(seed, exit=0, correct=True, **metrics):
    """A run record as bench_pairs.run makes it."""
    return {
        "seed": seed,
        "exit": exit,
        "result": {"correct": correct, "metrics": {k: {"value": v} for k, v in metrics.items()}},
    }


def test_bench_pairs_summary_counts_wins_by_direction():
    summarize = _load("bench_pairs").summarize
    pairs = [
        {"parent": _bench_run(1, speed=10.0, rss=80.0), "change": _bench_run(1, speed=20.0, rss=81.0)},
        {"parent": _bench_run(2, speed=12.0, rss=82.0), "change": _bench_run(2, speed=18.0, rss=82.0)},
        {"parent": _bench_run(3, speed=11.0, rss=84.0), "change": _bench_run(3, speed=10.0, rss=79.0)},
        {"parent": _bench_run(4, speed=14.0, rss=80.0), "change": _bench_run(4, speed=22.0, rss=80.0)},
        # a failed run, an incorrect one and a missing result drop their pairs
        {"parent": _bench_run(5, exit=1, speed=1.0, rss=1.0), "change": _bench_run(5, speed=99.0, rss=1.0)},
        {"parent": _bench_run(6, speed=1.0, rss=1.0), "change": _bench_run(6, correct=False, speed=99.0, rss=1.0)},
        {"parent": _bench_run(7, speed=1.0, rss=1.0), "change": {"seed": 7, "exit": 0, "error": "no result"}},
    ]
    got = summarize(pairs, {"speed": "higher", "rss": "lower"})
    assert sorted(got) == ["rss", "speed"]
    speed, rss = got["speed"], got["rss"]
    assert speed["pairs"] == rss["pairs"] == 4
    assert speed["parent"]["values"] == [10.0, 12.0, 11.0, 14.0]
    assert speed["parent"]["median"] == 11.5 and speed["change"]["median"] == 19.0
    assert speed["change"]["q1"] == 16.0 and speed["change"]["q3"] == 20.5
    assert speed["change"]["relative_spread"] == 4.5 / 19.0
    assert (speed["change_wins"], speed["parent_wins"]) == (3, 1)
    assert speed["change_over_parent"] == 19.0 / 11.5
    # lower is better for rss; the tie in pairs 2 and 4 counts for neither
    assert (rss["change_wins"], rss["parent_wins"]) == (1, 1)


# The package's public names: what the paper's checks, scripts/, bench/ and
# the command line use. A name added or removed shows up here as a diff.
PUBLIC_NAMES = [
    "BoundaryJacobianError", "BuildError", "CampaignResult", "ClockConfig",
    "DegenerateSupportError", "DetectionConfig", "DomainError", "Equilibrium",
    "ExperimentConfig", "FaceIndex", "FlowTrajectory", "InteractionMatrix",
    "ModelParameters", "NumericError", "RNG_CONTRACT_VERSION", "ReducibilityError",
    "ReplicaResult", "RubinRecord", "SummabilityError", "ThresholdRow",
    "ThresholdTable", "TrajectoryRecord", "TrapSample", "TwoLevelData",
    "ValidationError", "VrrwError", "WalkState", "campaign", "center_eigenvalue",
    "checkpoint_schedule", "classify", "complete_graph", "critical_alpha",
    "critical_alpha_loop", "dynamics", "enumerate_all", "equilibria",
    "equilibrium_anchors", "errors", "export", "face_center", "files",
    "fundamental_matrix", "graph", "init_walk", "integrate_flow",
    "invariant_measure", "jacobian", "level_ratio_polynomial", "load_campaign",
    "lyapunov", "lyapunov_derivative", "power_weight", "project_to_simplex",
    "replica_seed", "rubin", "rubin_simulate", "run_campaign", "sample_trap_event",
    "simulate", "solve_two_level", "splitmix64", "step", "summarize",
    "tangent_eigenvalues", "threshold_table", "transition_kernel",
    "trap_probability_bound", "validate", "vector_field", "walk", "with_diagonal",
]


def test_public_surface_is_pinned():
    assert sorted(vrrw.__all__) == PUBLIC_NAMES
