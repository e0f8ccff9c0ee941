"""Benchmark of the vrrw library: campaign throughput in the two-site and
large-set phases, plus the mean-field flow, equilibrium catalog, single
walks, clocks and trap sampler.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from `src/`. It
starts one episode at a time (`episode.py`, a fresh interpreter each, with
one BLAS thread), as many as fit in `--seconds` at the workload's nominal
episode length, and at least one. Each episode sets up, runs the workload's
timed parts and checks every output. The last line of standard output is
one JSON object with every end-to-end metric (`--trace 0`, from
`end_to_end`) or every per-layer metric (`--trace 1`, the median over the
episodes). The episodes' raw records go to `bench/out/`. The exit code is 1
when an episode fails a check or crashes, and 2 when the package sources
are not there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import fast_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Seconds an episode of each workload takes on a 2-CPU host. A run makes
#: `--seconds // NOMINAL_EPISODE_S` episodes, so every run of a workload
#: makes the same calls however fast the host is at the time.
NOMINAL_EPISODE_S = {"campaign-pairs": 18.0, "campaign-large-sets": 9.0, "mean-field-and-clocks": 7.0}

#: Longest a run may take in total; no episode starts that would end past
#: it, nor past twice `--seconds`.
RUN_CAP_S = 150.0


def _child_env():
    # one BLAS thread: a second one would contend with the run's own work
    # and with the host's other tenants for the few cores there are
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_episode(args, env):
    cmd = [
        sys.executable,
        str(HERE / "episode.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--out", str(OUT),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=RUN_CAP_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(1)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_call"] - started
    return record


def end_to_end(episodes):
    """One run's end-to-end figures from its episodes' records.

    Each kind of call is its time per unit of work in the host's fast
    spells (`stats.fast_unit`), over every call of that kind in the run,
    pooled across episodes; the cold `enumerate_all` time is the fastest
    episode's. Set-up time and memory are medians over the episodes.
    """
    median = statistics.median
    pooled = {}
    for ep in episodes:
        for part, calls in ep["samples"]["calls"].items():
            pooled.setdefault(part, []).extend(calls)
    unit = {part: fast_unit(calls) for part, calls in pooled.items()}
    enumerate_s = min(ep["samples"]["enumerate_s"] for ep in episodes)
    count = episodes[0]["samples"]["catalog_count"]
    return {
        "setup_s": median(ep["setup_s"] for ep in episodes),
        "peak_rss_mib": median(ep["peak_rss_mib"] for ep in episodes),
        "campaign_replica_steps_per_s": 1.0 / unit["campaign"],
        "flow_rk4_steps_per_s": 1.0 / unit["flows"],
        "catalog_s": enumerate_s + count * unit["classify"],
        "single_walk_steps_per_s": 1.0 / unit["walks"],
        "clock_jumps_per_s": 1.0 / unit["clocks"],
        "trap_draws_per_s": 1.0 / unit["trap"],
    }


def main(argv=None):
    # BENCHMARK.json names the workloads and every metric with its unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vrrw" / "__init__.py").is_file():
        print(f"no vrrw sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    count = max(1, int(args.seconds // NOMINAL_EPISODE_S[args.workload]))
    limit = min(2 * args.seconds, RUN_CAP_S)
    start = time.monotonic()
    episodes = []
    while len(episodes) < count:
        episodes.append(run_episode(args, env))
        elapsed = time.monotonic() - start
        if elapsed * (len(episodes) + 1) / len(episodes) > limit:
            break

    metrics = {}
    if args.trace:
        for metric in spec["per_layer"]:
            values = [ep["per_layer"][metric["name"]] for ep in episodes if metric["name"] in ep["per_layer"]]
            if values:
                metrics[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"]}
    else:
        figures = end_to_end(episodes)
        for metric in spec["end_to_end"]:
            if metric["name"] not in figures:
                print(f"end-to-end metric {metric['name']} was not measured", file=sys.stderr)
                return 1
            metrics[metric["name"]] = {"value": figures[metric["name"]], "unit": metric["unit"]}
    missing = sorted({m for ep in episodes for m in ep["missing"]})
    if missing:
        print(f"trace targets missing, their metrics left out: {missing}", file=sys.stderr)
    result = {
        "correct": True,
        "attempted": sum(ep["ops"] for ep in episodes),
        "failed": 0,
        "metrics": metrics,
    }
    raw = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"args": vars(args), "episodes": episodes, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
