"""Reference figures for bench/README.md.

    python3 bench/reference.py [--workloads NAME ...] [--seeds 1 2 ...] [--trace]

Runs `bench/run.py` once per workload and seed, one run at a time, with the
run length from BENCHMARK.json. For each end-to-end metric it reports the
median, the quartiles of the runs (`statistics.quantiles(values, n=4)`) and
their spread (q3 - q1) as a share of the median, next to the metric's bound.
With `--trace` it also makes a traced run per seed and reports the per-layer
medians and the tracing overhead: the traced runs' end-to-end median minus
the untraced one, as a share of the untraced one. It writes the report to
`bench/out/reference.json` and prints it as the markdown tables of the
README's reference figures. Exits 1 if a run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import end_to_end

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def host():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {int(trace)} failed")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = json.loads((OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").read_text())
    return result, raw


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}


def render(report, spec):
    """The report as the markdown tables of bench/README.md."""
    h = report["host"]
    seeds = report["seeds"]
    names = list(report["workloads"])
    out = [
        f"Host: {h['nproc']} CPUs ({h['cpu']}), Python {h['python']}, numpy {h['numpy']}. "
        f"{len(seeds)} runs of {report['run_seconds']} s per workload, seeds {seeds[0]}-{seeds[-1]}.",
    ]
    for wl, entry in report["workloads"].items():
        shares = sorted(set(entry["failed_share"]))
        out += ["", f"`{wl}` (failed share {shares}):", "",
                "| metric | unit | median | q1 | q3 | spread | bound |", "|---|---|---|---|---|---|---|"]
        for m in spec["end_to_end"]:
            q = entry["end_to_end"][m["name"]]
            out.append(f"| `{m['name']}` | {m['unit']} | {q['median']:.5g} | {q['q1']:.5g} | "
                       f"{q['q3']:.5g} | {q['spread']:.3f} | {m['bound']} |")
    traced = [wl for wl in names if "per_layer" in report["workloads"][wl]]
    if traced:
        out += ["", "Per-layer medians of the traced runs:", "",
                "| metric | unit | " + " | ".join(f"`{wl}`" for wl in traced) + " |",
                "|---|---|" + "---|" * len(traced)]
        for m in spec["per_layer"]:
            cells = [report["workloads"][wl]["per_layer"].get(m["name"], {}).get("median") for wl in traced]
            out.append(f"| `{m['name']}` | {m['unit']} | "
                       + " | ".join("missing" if c is None else f"{c:.4g}" for c in cells) + " |")
        out += ["", "Tracing overhead, (traced - untraced) / untraced, of the run medians:", "",
                "| metric | " + " | ".join(f"`{wl}`" for wl in traced) + " |",
                "|---|" + "---|" * len(traced)]
        for m in spec["end_to_end"]:
            cells = [report["workloads"][wl]["overhead"][m["name"]] for wl in traced]
            out.append(f"| `{m['name']}` | " + " | ".join(f"{c:+.3f}" for c in cells) + " |")
    return "\n".join(out)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    report = {"host": host(), "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads:
        plain = [run(wl, s, seconds, False) for s in args.seeds]
        entry = {"failed_share": [r["failed"] / r["attempted"] for r, _ in plain], "end_to_end": {}}
        for m in spec["end_to_end"]:
            entry["end_to_end"][m["name"]] = quartiles([r["metrics"][m["name"]]["value"] for r, _ in plain])
        if args.trace:
            traced = [run(wl, s, seconds, True) for s in args.seeds]
            entry["per_layer"] = {}
            for m in spec["per_layer"]:
                vals = [r["metrics"][m["name"]]["value"] for r, _ in traced if m["name"] in r["metrics"]]
                if len(vals) >= 2:
                    entry["per_layer"][m["name"]] = quartiles(vals)
            # the traced runs' end-to-end figures, aggregated as run.py does
            entry["overhead"] = {}
            traced_e2e = [end_to_end(raw["episodes"]) for _, raw in traced]
            for m in spec["end_to_end"]:
                vals = [figures[m["name"]] for figures in traced_e2e]
                base = entry["end_to_end"][m["name"]]["median"]
                entry["overhead"][m["name"]] = (statistics.median(vals) - base) / base
        report["workloads"][wl] = entry
        (OUT / "reference.json").write_text(json.dumps(report, indent=1))
        print(f"{wl}: done", file=sys.stderr)
    print(render(report, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
