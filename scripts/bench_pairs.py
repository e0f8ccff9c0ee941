"""Alternating parent/change pairs of benchmark runs, summarized.

    python3 scripts/bench_pairs.py --parent REV --change REV \
        --workload campaign-pairs --seeds 1 2 3 4 5 6 --seconds 40 --out FILE

Exports both git revisions with `git archive` into a work directory and
runs `bench/run.py` from each checkout once per seed: one pair of runs per
seed. The side that runs first alternates from pair to pair, so that a
drift of the host's speed favours neither. A run's result is the last line
of its output, read as strict JSON (no NaN or Infinity). The summary gives,
for every metric both sides reported in every pair, each side's median,
quartiles and relative spread (quartile distance over median), the pairs
each side won, and the ratio of the medians. It goes into FILE under the
key "<workload>/trace<t>", with the seeds, both commits and the machine's
facts; other keys already in FILE are kept. The exit code is 1 when a run
failed or gave no result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(rev, dest):
    """Commit id of rev; its tree is written to dest."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def run(checkout, workload, seed, seconds, trace):
    """One benchmark run from a checkout: its seed, exit code and result,
    or the reason it gave none."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record = {"seed": seed, "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1], parse_constant=_reject)
    except (IndexError, ValueError) as exc:
        record["error"] = f"last line is not a result: {exc}"
    if proc.returncode != 0:
        record["stderr"] = proc.stderr[-2000:]
    return record


def _values(record):
    """Metric values of a run that exited 0 with a correct result, else None."""
    result = record.get("result")
    if record["exit"] != 0 or not isinstance(result, dict) or not result.get("correct"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, better):
    """Per metric, over the pairs in which both runs gave a result: each
    side's values, median, quartiles and relative spread, the pairs each
    side won (better is "higher" or "lower" per metric; ties count for
    neither), and the change's median over the parent's."""
    values = [{side: _values(pair[side]) for side in SIDES} for pair in pairs]
    values = [v for v in values if None not in v.values()]
    names = set.intersection(*(set(v[side]) for v in values for side in SIDES)) if values else set()
    summary = {}
    for name in sorted(names):
        entry = {"better": better.get(name, "higher"), "pairs": len(values)}
        for side in SIDES:
            vals = [v[side][name] for v in values]
            median = statistics.median(vals)
            q1, q3 = _quartiles(vals)
            entry[side] = {
                "values": vals, "median": median, "q1": q1, "q3": q3,
                "relative_spread": (q3 - q1) / median if median else None,
            }
        sign = 1 if entry["better"] == "higher" else -1
        gains = [sign * (v["change"][name] - v["parent"][name]) for v in values]
        entry["change_wins"] = sum(g > 0 for g in gains)
        entry["parent_wins"] = sum(g < 0 for g in gains)
        parent = entry["parent"]["median"]
        entry["change_over_parent"] = entry["change"]["median"] / parent if parent else None
        summary[name] = entry
    return summary


def machine():
    """Facts about the host that the runs' speed depends on."""
    facts = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }
    for path, key, label in (("/proc/cpuinfo", "model name", "cpu"), ("/proc/meminfo", "MemTotal", "memory")):
        try:
            with open(path, encoding="utf-8") as fh:
                facts[label] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith(key))
        except (OSError, StopIteration):
            pass
    return facts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", required=True, help="git revision of the change side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workdir", type=Path, help="where the checkouts go (default: a new temporary directory)")
    args = ap.parse_args(argv)

    work = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {side: work / side for side in SIDES}
    commits = {side: export(getattr(args, side), checkouts[side]) for side in SIDES}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(checkouts[side], args.workload, seed, args.seconds, args.trace)
            print(f"seed {seed} {side}: exit {pair[side]['exit']}", file=sys.stderr)
        pairs.append(pair)

    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record[f"{args.workload}/trace{args.trace}"] = {
        "command": f"bench/run.py --workload {args.workload} --seconds {args.seconds:g} --trace {args.trace}",
        "seeds": args.seeds,
        "commits": commits,
        "machine": machine(),
        "summary": summarize(pairs, better),
        "runs": pairs,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = [p[s]["seed"] for p in pairs for s in SIDES if _values(p[s]) is None]
    if failed:
        print(f"runs without a result, seeds {failed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
