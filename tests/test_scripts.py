import csv
import importlib.util
from pathlib import Path

import vrrw

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
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


# The package's public names: what the paper's checks, scripts/, bench/ and
# the command line use. A name added or removed shows up here as a diff.
PUBLIC_NAMES = [
    "BoundaryJacobianError", "CampaignResult", "ClockConfig", "ConvergenceError",
    "DegenerateSupportError", "DetectionConfig", "DomainError", "Equilibrium",
    "ExperimentConfig", "FaceIndex", "FlowTrajectory", "InteractionMatrix",
    "ModelParameters", "NumericError", "ReducibilityError", "ReplicaResult",
    "RubinRecord", "SimplexPoint", "SummabilityError", "ThresholdRow",
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
