import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vrrw
from vrrw.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_table_output(capsys):
    code, out, err = run_cli(capsys, "thresholds", "--c", "0", "--kmax", "5")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["3", "4", "5"]
    assert float(rows[0][1]) == 2.0
    assert float(rows[1][1]) == 1.5
    assert float(rows[2][1]) == 4 / 3  # 17 digits round-trip exactly
    assert "seed:" in err and "config-hash:" in err


def test_two_site_equilibria_listing(capsys):
    code, out, _ = run_cli(capsys, "equilibria", "--n", "2", "--alpha", "3")
    assert code == 0
    assert "stable" in out
    assert out.count("face_center") == 1


def test_equilibria_json_schema(capsys):
    code, out, _ = run_cli(capsys, "equilibria", "--n", "3", "--alpha", "2.5", "--json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 7
    assert set(entries[0]) == {"support", "kind", "point", "eigenvalues", "verdict", "t", "k"}
    # one compact row a line between the brackets
    lines = out.splitlines()
    assert lines[0] == "[" and lines[-1] == "]" and len(lines) == 9
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == entries
    # text ordering contract: support size, then sites, then ratio
    sizes = [len(e["support"]) for e in entries]
    assert sizes == sorted(sizes)
    kinds = {e["kind"] for e in entries}
    assert kinds == {"face_center", "two_level"}
    two = [e for e in entries if e["kind"] == "two_level"]
    assert all(e["t"] is not None and e["k"] == 1 for e in two)
    assert all(e["verdict"] == "unstable" for e in two)


def test_equilibria_print_the_catalogs_own_spectra(capsys):
    # enumerate_all's closed forms, bit for bit; classify's numeric
    # Jacobian differs from them in the last bits of most of these points
    code, out, _ = run_cli(capsys, "equilibria", "--n", "4", "--alpha", "1.6", "--json")
    assert code == 0
    catalog = {
        (e.support.labels(), tuple(np.asarray(e.point).tolist())): e.tangent_eigenvalues
        for e in vrrw.enumerate_all(4, 1.6)
    }
    entries = json.loads(out)
    assert len(entries) == len(catalog) == 27
    for e in entries:
        want = catalog[tuple(e["support"]), tuple(e["point"])]
        assert [x.hex() for x in e["eigenvalues"]] == [float(x).hex() for x in want]


def test_flow_writes_lossless_csv(tmp_path, capsys):
    out_path = tmp_path / "flow.csv"
    code, out, _ = run_cli(
        capsys,
        "flow", "--n", "3", "--alpha", "2.5",
        "--v0", "0.5,0.3,0.2", "--t", "1.0", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,v_1,v_2,v_3,H"
    first = [float(x) for x in lines[1].split(",")]
    assert first[:4] == [0.0, 0.5, 0.3, 0.2]
    h = np.array([float(l.split(",")[-1]) for l in lines[1:]])
    assert np.all(np.diff(h) >= -1e-9)


def test_flow_rejects_bad_mass(capsys):
    code, _, err = run_cli(
        capsys, "flow", "--n", "3", "--alpha", "2.5", "--v0", "0.5,0.3,0.3", "--t", "1"
    )
    assert code == 3
    assert "sum" in err


def test_simulate_round_trips_compressed_sites(tmp_path, capsys):
    out_path = tmp_path / "traj.csv.gz"
    code, _, err = run_cli(
        capsys,
        "simulate", "--n", "3", "--alpha", "2.5",
        "--start", "1", "--horizon", "300", "--seed", "42", "--out", str(out_path),
    )
    assert code == 0
    assert "final counts" in err
    body = gzip.decompress(out_path.read_bytes()).decode()
    lines = body.splitlines()
    assert lines[0] == "step,site"
    sites = np.array([int(l.split(",")[1]) for l in lines[1:]])
    assert lines[1] == "0,1"
    assert sites.min() >= 1 and sites.max() <= 3
    assert len(sites) == 301

    again = tmp_path / "traj2.csv.gz"
    code2, _, _ = run_cli(
        capsys,
        "simulate", "--n", "3", "--alpha", "2.5",
        "--start", "1", "--horizon", "300", "--seed", "42", "--out", str(again),
    )
    assert code2 == 0
    assert out_path.read_bytes() == again.read_bytes()


def test_simulate_reads_config_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "model": {"n": 3, "alpha": 2.5, "c": 0},
        "start": 1, "horizon": 50, "seed": 7,
    }))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--log", "checkpoints")
    assert code == 0
    assert out.splitlines()[0] == "n,v_1,v_2,v_3"
    # flags beat the file
    code2, _, err2 = run_cli(
        capsys, "simulate", "--config", str(cfg), "--horizon", "80",
        "--log", "checkpoints",
    )
    assert code2 == 0
    assert "over 80 steps" in err2


@pytest.mark.parametrize(
    "field, value", [("start", 1.9), ("horizon", 20.7), ("seed", "7")]
)
def test_simulate_config_takes_only_integers(field, value, tmp_path, capsys):
    # int() truncated each of these: start 1.9 ran from site 1 and horizon
    # 20.7 ran 20 steps; the run must fail before --out is opened
    config = {"model": {"n": 3, "alpha": 2.5}, "start": 1, "horizon": 20, "seed": 7, field: value}
    cfg, out = tmp_path / "sim.json", tmp_path / "sites.csv"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 3 and f"{field} must be an integer" in err
    assert not out.exists()


def test_simulate_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VRRW_SEED", "314")
    code, _, err = run_cli(
        capsys, "simulate", "--n", "3", "--alpha", "2", "--start", "1",
        "--horizon", "20", "--log", "checkpoints",
    )
    assert code == 0
    assert "seed: 314" in err


def test_rubin_emits_jump_table(tmp_path, capsys):
    out_path = tmp_path / "rubin.csv"
    code, _, _ = run_cli(
        capsys,
        "rubin", "--n", "3", "--alpha", "1.5",
        "--start", "1", "--jumps", "40", "--seed", "7", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "step,site,time"
    assert lines[1].startswith("0,1,0")
    times = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert np.all(np.diff(times) > 0)
    assert len(lines) == 42


# SHA-256 of the CSV that `vrrw rubin --n 3 --alpha 1.5 --start 1 --jumps 500
# --seed 7` writes; made with numpy 2.4.6 and glibc's log1p on x86-64.
GOLDEN_RUBIN_CSV = "d6655f45274f21ccce00268a4c926e5468b3f0004cd49bcb026a63ee1f4ae1a0"


def test_rubin_csv_bytes_match_golden_hash(tmp_path, capsys):
    out_path = tmp_path / "rubin.csv"
    code, _, _ = run_cli(
        capsys,
        "rubin", "--n", "3", "--alpha", "1.5",
        "--start", "1", "--jumps", "500", "--seed", "7", "--out", str(out_path),
    )
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GOLDEN_RUBIN_CSV


def test_campaign_command_writes_exports(tmp_path, capsys):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "model": {"n": 3, "alpha": 2.5, "c": 0},
        "replicas": 5, "horizon": 2000, "base_seed": 77,
        "start": "uniform-random",
        "detection": {"tail_fraction": 0.5, "min_share": 0.02},
    }))
    out_dir = tmp_path / "results"
    code, out, err = run_cli(
        capsys, "campaign", "--config", str(cfg), "--out", str(out_dir),
        "--format", "csv",
    )
    assert code == 0
    assert "replicas: 5" in out
    files = list(out_dir.iterdir())
    assert len(files) == 1 and files[0].suffix == ".csv"
    header = files[0].read_text().splitlines()[0]
    assert header.startswith("replica,seed,support_size,support,occ_1")
    # flag overrides shrink the run
    out_dir2 = tmp_path / "results2"
    code2, out2, _ = run_cli(
        capsys, "campaign", "--config", str(cfg), "--out", str(out_dir2),
        "--format", "json", "--replicas", "2",
    )
    assert code2 == 0
    assert "replicas: 2" in out2
    payload = json.loads((out_dir2 / "campaign.json").read_text())
    assert len(payload["replicas"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "equilibria", "--n", "3", "--alpha", "2.5", "--nope")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_domain_violation_maps_to_exit_three(capsys):
    code, _, err = run_cli(capsys, "equilibria", "--n", "1", "--alpha", "2.5")
    assert code == 3
    assert err.strip()


def test_io_failure_maps_to_exit_four(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "flow", "--n", "3", "--alpha", "2.5", "--v0", "0.4,0.3,0.3",
        "--t", "0.5", "--out", str(tmp_path / "missing" / "flow.csv"),
    )
    assert code == 4


def test_help_screens_document_flags():
    for sub in ("equilibria", "thresholds", "flow", "simulate", "rubin", "campaign"):
        proc = subprocess.run(
            [sys.executable, "-m", "vrrw.cli", sub, "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "--" in proc.stdout


def _console_script():
    """The installed `vrrw` executable when one is on PATH; otherwise what
    its generated wrapper runs: the `[project.scripts]` target of
    pyproject.toml, imported from the source root of the package under test."""
    exe = shutil.which("vrrw")
    if exe is not None:
        return [exe], None
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["vrrw"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    src_root = str(Path(vrrw.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    return [sys.executable, "-c", code], env


def test_console_script_entry_point():
    command, env = _console_script()
    proc = subprocess.run(
        command + ["thresholds", "--c", "0", "--kmax", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "1.5" in proc.stdout


K3_FILE = {"n": 3, "entries": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--alpha", "2.5", "--v0", "0.5,0.3,0.2", "--t", "1"],
        ["simulate", "--alpha", "2.5", "--start", "1", "--horizon", "300", "--seed", "4"],
        ["rubin", "--alpha", "1.5", "--start", "1", "--jumps", "40", "--seed", "7"],
    ],
    ids=["flow", "simulate", "rubin"],
)
def test_matrix_file_runs_like_the_complete_graph(argv, tmp_path, capsys):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(K3_FILE))
    code, out, err = run_cli(capsys, *argv, "--matrix", str(path))
    assert code == 0, err
    assert (code, out, err) == run_cli(capsys, *argv, "--n", "3")


CIRCULANT = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]


def test_simulate_config_honours_the_model_matrix(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "model": {"n": 4, "alpha": 1.5, "matrix": CIRCULANT},
        "start": 1, "horizon": 2000, "seed": 3,
    }))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0, err
    rec = vrrw.simulate(
        vrrw.ModelParameters(matrix=vrrw.validate(CIRCULANT), alpha=1.5), 0, 2000, 3
    )
    assert rec.final_counts.tolist() == [1000, 4, 996, 1]
    assert "final counts [1000,4,996,1] over 2000 steps" in err
    matrix = tmp_path / "circulant.json"
    matrix.write_text(json.dumps({"n": 4, "entries": CIRCULANT}))
    flags = ["simulate", "--alpha", "1.5", "--start", "1", "--horizon", "2000", "--seed", "3"]
    assert (code, out, err) == run_cli(capsys, *flags, "--matrix", str(matrix))


def test_flow_gz_output_is_the_plain_csv_compressed(tmp_path, capsys):
    argv = ["flow", "--n", "3", "--alpha", "2.5", "--v0", "0.5,0.3,0.2", "--t", "1", "--out"]
    paths = [tmp_path / name for name in ("f.csv", "f.csv.gz", "g.csv.gz")]
    for path in paths:
        assert run_cli(capsys, *argv, str(path))[0] == 0
    plain, packed, again = (path.read_bytes() for path in paths)
    assert gzip.decompress(packed) == plain
    assert packed == again


def test_campaign_prints_the_export_config_hash(tmp_path, capsys):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "model": {"n": 3, "alpha": 2.5}, "replicas": 3, "horizon": 500, "base_seed": 5,
    }))
    code, _, err = run_cli(capsys, "campaign", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    printed = [l.split(": ")[1] for l in err.splitlines() if l.startswith("config-hash: ")]
    exported = json.loads((tmp_path / "campaign.json").read_text())["provenance"]["config_hash"]
    assert printed == [exported]


@pytest.mark.parametrize("name", ["keep.csv", "keep.csv.gz"])
def test_unavailable_site_log_leaves_the_output_alone(name, tmp_path, capsys):
    # past the full-log limit the site log does not exist; the run must fail
    # before --out is opened, so an existing file keeps its bytes and a new
    # path is not created
    existing = tmp_path / name
    existing.write_bytes(b"earlier results\n")
    fresh = tmp_path / ("new-" + name)
    for path in (existing, fresh):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--alpha", "2.5", "--start", "1",
            "--horizon", "1000001", "--log", "sites", "--out", str(path),
        )
        assert code == 3 and "site log unavailable" in err
    assert existing.read_bytes() == b"earlier results\n"
    assert not fresh.exists()


def test_equilibria_catalog_at_large_exponent(capsys):
    # at alpha = 22 and beyond the pair energy of the k = 1 two-level
    # points cancels in the unscaled form; the catalog keeps all 1207 points
    code, out, err = run_cli(capsys, "equilibria", "--n", "8", "--alpha", "25")
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "total: 1207 equilibria"
