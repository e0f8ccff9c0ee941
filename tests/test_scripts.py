import csv
import importlib.util
from pathlib import Path

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
