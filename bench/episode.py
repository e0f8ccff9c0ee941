"""One episode of a benchmark workload, in a fresh interpreter.

    python3 bench/episode.py --workload NAME --seed N --trace 0|1 --out DIR

Imports `vrrw`, builds the workload's inputs from the seed, runs the timed
calls, checks every output and prints one JSON record as the last line of
standard output. It exits with code 1 when a check fails. `run.py` starts one
such process per episode, so the import, `_scan_grid` and the `_ratio_roots`
cache start cold in each, as they do for a user's `vrrw campaign`.

Every workload makes the same calls, so every run reports every end-to-end
metric; a workload sizes the calls it is about at full scale and the others
as small side probes (the table `WORKLOADS` below). An episode is:

- a number of rounds, each with short calls of every other kind: on
  mean-field-and-clocks a small campaign as below, then `integrate_flow`
  fans, `classify` over a few chunks of the catalog, `simulate` and
  `rubin_simulate` walks, and `sample_trap_event` calls;
- `enumerate_all` for the catalog, cold, after the first round: the first
  calls in a fresh interpreter run slow by tens of milliseconds whatever
  they are, and `enumerate_all` is short. The campaigns' anchors are at
  other exponents, so their root solves start cold all the same;
- on the campaign workloads, one campaign: `run_campaign`, `export` and
  `load_campaign` after the first third of the rounds, and a fixed sample
  of its replicas replayed alone through `simulate` after the second.

Every call is timed on its own, and the record holds each call's seconds,
units of work and variant. `run.py` pools the calls of a run's episodes and
reports each kind's time per unit in the host's fast spells (`stats.py`).
Splitting the side probes around the campaign and its replays spreads them
over the episode, so that they meet the fast spells of the whole run and not
of one stretch of it.
"""

import time

_T_IMPORT = time.perf_counter()
import vrrw  # noqa: E402  (timed: setup.import_s)

_IMPORT_S = time.perf_counter() - _T_IMPORT

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from stats import fast_unit  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Walks and clocks run on K3 from site 0 for this many steps; the site law
#: is checked over the first LAW_STEPS of them.
WALK_SITES, WALK_STEPS, LAW_STEPS = 3, 50, 8
WALK_ALPHAS = (1.5, 2.5)
FLOW_SIZES, FLOW_ALPHA, FLOW_DT, FLOW_T_END = (3, 4, 5), 1.5, 0.01, 0.3
CATALOG_N, CATALOG_ALPHA, CLASSIFY_CHUNK = 8, 1.6, 8
#: criterion_11's trap setting. Call i draws TRAP_DRAWS with seed
#: TRAP_SEED + i, not with the run seed, so the 3-sigma bracket check on the
#: pooled estimate gives the same verdict on every run.
TRAP_DEGREE, TRAP_START, TRAP_EXPONENT, TRAP_TRUNCATION = 3, 5, 3.0, 2000
TRAP_SEED, TRAP_DRAWS = 7, 100

#: Per round: flows per size, walks and clock walks per exponent, trap calls.
SIDE_ROUND = {"flows": 3, "walks": 12, "trap_calls": 8}

WORKLOADS = {
    "campaign-pairs": {
        "campaign": {"n": 3, "alpha": 2.5, "replicas": 1000, "horizon": 50_000, "replays": 1, "pairs": True},
        "rounds": 24,
        **SIDE_ROUND,
    },
    "campaign-large-sets": {
        "campaign": {"n": 8, "alpha": 1.15, "replicas": 1000, "horizon": 10_000, "replays": 2, "pairs": False},
        "rounds": 12,
        **SIDE_ROUND,
    },
    "mean-field-and-clocks": {
        "round_campaign": {"n": 3, "alpha": 2.5, "replicas": 200, "horizon": 200, "replays": 1, "pairs": False},
        "rounds": 10,
        "flows": 4,
        "walks": 60,
        "trap_calls": 10,
    },
}


def summarize(result):
    """A campaign result as plain values, for checks and equality."""
    reps = result.replicas
    return {
        "config": result.config.canonical_dict(),
        "replica": [r.replica for r in reps],
        "seeds": [r.seed for r in reps],
        "supports": [tuple(r.support.sites) for r in reps],
        "profiles": [tuple(r.tail_profile) for r in reps],
        "occupations": [tuple(np.asarray(r.final_occupation).tolist()) for r in reps],
        "nearest": [r.nearest_equilibrium for r in reps],
        "distance": [r.distance for r in reps],
        "histogram": dict(result.support_histogram),
        "mean_profile": {k: tuple(v) for k, v in result.mean_sorted_profile.items()},
        "provenance": (result.config_hash, result.code_version),
    }


class Episode:
    """Inputs, timings and pending checks of one episode."""

    def __init__(self, workload, seed, out, tracer):
        self.spec = WORKLOADS[workload]
        self.out = out
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.ops = 0
        self.calls = {}  # part -> [(seconds, work units, variant)], one per timed call
        self.facts = {"ties": 0, "replica_steps": 0, "alternation": []}
        self.walk_samples = {alpha: ([], []) for alpha in WALK_ALPHAS}
        self.trap_hits = 0
        self.pending = []  # checks, run after every timed call

    @contextmanager
    def timed(self, part, work=1, variant=0):
        """Time one call of a part that does `work` units; `variant` tells
        apart calls of one part that differ in cost per unit."""
        with self.tracer.part(part) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            yield
            seconds = time.perf_counter() - t0
        self.calls.setdefault(part, []).append((seconds, work, variant))
        self.ops += 1

    def fast(self, part):
        """Seconds per work unit of a part in the host's fast spells."""
        return fast_unit(self.calls[part])

    def seconds(self, part):
        """Seconds summed over every call of a part."""
        return sum(s for s, _, _ in self.calls[part])

    def work(self, part):
        """Work units summed over every call of a part."""
        return sum(w for _, w, _ in self.calls[part])

    def prepare(self):
        """Build every input from the seed; this is set-up, not timed."""
        spec = self.spec
        rounds = spec["rounds"]
        c = spec.get("campaign") or spec["round_campaign"]
        model = vrrw.ModelParameters.for_complete_graph(c["n"], c["alpha"])
        self.campaigns = [
            (c, vrrw.ExperimentConfig(
                model=model, replicas=c["replicas"], horizon=c["horizon"], base_seed=int(seed)
            ))
            for seed in self.rng.integers(2**62, size=1 if "campaign" in spec else rounds)
        ]
        self.flow_models = {n: vrrw.ModelParameters.for_complete_graph(n, FLOW_ALPHA) for n in FLOW_SIZES}
        self.flow_starts = [
            [(n, self.rng.dirichlet(np.ones(n))) for n in FLOW_SIZES for _ in range(spec["flows"])]
            for _ in range(rounds)
        ]
        self.walk_plan = []
        for alpha in WALK_ALPHAS:
            p = vrrw.ModelParameters.for_complete_graph(WALK_SITES, alpha)
            clock = vrrw.ClockConfig(matrix=p.matrix, weight=vrrw.power_weight(alpha))
            seeds = self.rng.integers(2**62, size=(rounds, 2, spec["walks"])).tolist()
            self.walk_plan.append((alpha, p, clock, seeds))
        self.catalog_model = vrrw.ModelParameters.for_complete_graph(CATALOG_N, CATALOG_ALPHA)
        self.trap_weight = vrrw.power_weight(TRAP_EXPONENT)

    def campaign(self, spec, cfg):
        """Run, export and load one campaign. Returns the function that
        replays its sample of replicas, for the caller to run when it likes."""
        n, horizon, replicas = cfg.model.size, cfg.horizon, cfg.replicas
        path = self.out / "campaign.export.json"
        with self.timed("campaign", replicas * horizon):
            result = vrrw.run_campaign(cfg)
        with self.timed("export"):
            vrrw.export(result, path, "json")
        text = path.read_text(encoding="utf-8")
        with self.timed("load"):
            loaded = vrrw.load_campaign(path)
        self.facts["replica_steps"] += replicas * horizon
        self.facts["export_bytes"] = len(text.encode("utf-8"))
        records = []

        def replay():
            # a fixed sample of replica indices, spread over the batch
            for r in np.linspace(0, replicas - 1, spec["replays"]).astype(int).tolist():
                s = vrrw.replica_seed(cfg.base_seed, r)
                start = vrrw.campaign.replica_start(s, n)
                with self.timed("replay", horizon):
                    records.append((r, vrrw.simulate(cfg.model, start, horizon, s, record_sites=True)))
            self.facts["alternation"] += [checks.alternation_share(rec.sites) for _, rec in records]

        def check():
            checks.parse_strict_json(text)
            mine = summarize(result)
            checks.check_round_trip(summarize(loaded), mine)
            checks.check_campaign(mine, n, replicas)
            if spec["pairs"]:
                checks.check_pairs(mine["supports"], mine["profiles"])
            for r, rec in records:
                checks.check_replay(mine["occupations"][r], rec.final_counts, horizon)
            anchors = np.array([np.asarray(e.point) for e in vrrw.campaign.equilibrium_anchors(cfg.model)])
            checks.check_residuals(anchors, cfg.model.alpha)
            checks.check_nearest(np.asarray(mine["occupations"]), anchors, mine["nearest"], mine["distance"])

        self.pending.append(check)
        return replay

    def enumerate(self):
        with self.timed("enumerate"):
            self.catalog = vrrw.enumerate_all(CATALOG_N, CATALOG_ALPHA)
        self.classified = [None] * len(self.catalog)
        # chunk j holds equilibria j, j + m, j + 2m, ..., so that every chunk
        # has about the same mix of face sizes
        m = -(-len(self.catalog) // CLASSIFY_CHUNK)
        self.classify_chunks = [range(j, len(self.catalog), m) for j in range(m)]
        self.pending.append(self.check_catalog)

    def round(self, r):
        spec = self.spec
        rounds = spec["rounds"]
        if "round_campaign" in spec:
            self.campaign(*self.campaigns[r])()
        steps = int(round(FLOW_T_END / FLOW_DT))
        for n, v0 in self.flow_starts[r]:
            with self.timed("flows", steps, n):
                flow = vrrw.integrate_flow(self.flow_models[n], v0, t_end=FLOW_T_END, dt=FLOW_DT)
            self.pending.append(lambda states=flow.states: checks.check_flow_energy(states, FLOW_ALPHA))
        # the rounds after `enumerate` share out the catalog's chunks
        for picks in self.classify_chunks[r - 1 :: rounds - 1] if r else ():
            with self.timed("classify", len(picks)):
                done = [vrrw.classify(self.catalog_model, self.catalog[i]) for i in picks]
            for i, e in zip(picks, done):
                self.classified[i] = e
        for alpha, p, clock, seeds in self.walk_plan:
            walks, clocks = self.walk_samples[alpha]
            for s in seeds[r][0]:
                with self.timed("walks", WALK_STEPS, alpha):
                    walks.append(vrrw.simulate(p, 0, WALK_STEPS, s, record_sites=True).sites)
            for s in seeds[r][1]:
                with self.timed("clocks", WALK_STEPS, alpha):
                    rec = vrrw.rubin_simulate(clock, 0, WALK_STEPS, s)
                clocks.append(rec.walk.sites)
                self.facts["ties"] += rec.tie_count
        for i in range(r * spec["trap_calls"], (r + 1) * spec["trap_calls"]):
            with self.timed("trap", TRAP_DRAWS):
                sample = vrrw.sample_trap_event(
                    TRAP_DEGREE, self.trap_weight, TRAP_START, TRAP_DRAWS, TRAP_SEED + i,
                    truncation=TRAP_TRUNCATION,
                )
            self.trap_hits += sample.hits

    def run(self):
        """Every timed call, in order; returns the monotonic time of the first."""
        first_call = time.monotonic()
        rounds = self.spec["rounds"]
        self.round(0)
        self.enumerate()
        if "campaign" in self.spec:
            # the side rounds in three blocks: before the campaign, between
            # it and its replays, and after them
            a, b = rounds // 3, 2 * rounds // 3
            for r in range(1, a):
                self.round(r)
            replay = self.campaign(*self.campaigns[0])
            for r in range(a, b):
                self.round(r)
            replay()
            for r in range(b, rounds):
                self.round(r)
        else:
            for r in range(1, rounds):
                self.round(r)
        self.pending += [self.check_walks, self.check_trap]
        return first_call

    def check_catalog(self):
        eqs = self.classified
        checks.check_catalog(
            CATALOG_N,
            CATALOG_ALPHA,
            [e.kind for e in eqs],
            [tuple(e.support.sites) for e in eqs],
            np.array([np.asarray(e.point) for e in eqs]),
            [e.verdict for e in eqs],
        )

    def check_walks(self):
        for alpha, (walks, clocks) in self.walk_samples.items():
            law = checks.exact_site_law(WALK_SITES, alpha, 0, LAW_STEPS)
            checks.check_site_law(np.array(walks), law, f"simulate alpha={alpha}")
            checks.check_site_law(np.array(clocks), law, f"rubin_simulate alpha={alpha}")

    def check_trap(self):
        sys.path.insert(0, str(ROOT / "tests"))
        from trap_oracle import trap_event_bracket

        weight = self.trap_weight
        bracket = trap_event_bracket(TRAP_DEGREE, weight, TRAP_START, truncation=TRAP_TRUNCATION)
        bound = vrrw.trap_probability_bound(TRAP_DEGREE, weight, TRAP_START)
        checks.check_trap(self.trap_hits, self.work("trap"), bracket, bound)

    def samples(self):
        """The end-to-end samples: seconds, units of work and variant of
        every call, by kind, with `export` counted into its campaign, and the
        catalog's cold `enumerate_all` time and size. `run.py` pools them
        over a run's episodes."""
        calls = {part: self.calls[part] for part in ("flows", "classify", "walks", "clocks", "trap")}
        calls["campaign"] = [
            (run + export, steps, 0)
            for (run, steps, _), (export, _, _) in zip(self.calls["campaign"], self.calls["export"])
        ]
        return {"calls": calls, "enumerate_s": self.seconds("enumerate"), "catalog_count": len(self.catalog)}

    def per_layer(self):
        """Per-layer metrics; a campaign phase is its mean over the
        episode's campaigns."""
        import vrrw.equilibria

        t = self.tracer
        count = len(self.calls["campaign"])
        phases = {k: t.seconds_in("campaign", k) for k in ("walk", "anchor", "nearest", "detect")}
        flow_steps = self.work("flows")
        flow_calls = {k: t.calls_in("flows", k) for k in ("field", "projection", "lyapunov")}
        exps = t.calls_in("trap", "exponentials")
        cache = getattr(vrrw.equilibria, "_ratio_roots", None)

        def per(x, d):
            return None if x is None else x / d

        out = {
            "walk.batch_ns_per_replica_step": per(phases["walk"], self.facts["replica_steps"] / 1e9),
            "walk.single_us_per_step": self.fast("walks") * 1e6,
            "walk.alternation_share": float(np.mean(self.facts["alternation"])),
            **{f"campaign.{k}_s": per(v, count) for k, v in phases.items()},
            "campaign.assemble_s": None
            if None in phases.values()
            else (self.seconds("campaign") - sum(phases.values())) / count,
            "campaign.export_s": self.seconds("export") / count,
            "campaign.load_s": self.seconds("load") / count,
            "campaign.export_bytes": self.facts["export_bytes"],
            "campaign.anchor_count": t.sizes.get("anchor"),
            "equilibria.enumerate_s": self.seconds("enumerate"),
            "equilibria.classify_us_per_eq": self.fast("classify") * 1e6,
            "equilibria.ratio_root_solves": cache.cache_info().misses if hasattr(cache, "cache_info") else None,
            "equilibria.count": len(self.catalog),
            "dynamics.rk4_us_per_step": self.fast("flows") * 1e6,
            **{f"dynamics.{k}_calls": per(v, flow_steps) for k, v in flow_calls.items()},
            "rubin.clock_us_per_jump": self.fast("clocks") * 1e6,
            "rubin.tie_count": self.facts["ties"],
            "rubin.trap_us_per_draw": self.fast("trap") * 1e6,
            "rubin.trap_exponentials_per_draw": per(exps or None, self.work("trap")),
            "setup.import_s": _IMPORT_S,
        }
        return {k: v for k, v in out.items() if v is not None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    out = args.out / args.workload
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    ep = Episode(args.workload, args.seed, out, tracer)
    ep.prepare()
    first_call = ep.run()
    layer_metrics = ep.per_layer() if tracer else {}
    for check in ep.pending:
        check()
    if not args.trace and "layers" in sys.modules:
        raise checks.CheckFailed("tracing wrappers were loaded in an untraced run")
    record = {
        "first_call": first_call,
        "ops": ep.ops,
        "samples": ep.samples(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_layer": layer_metrics,
        "missing": sorted(tracer.missing) if tracer else [],
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        sys.exit(1)
