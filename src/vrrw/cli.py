"""Command-line front end.

One executable with subcommands for equilibrium tables, threshold
tables, flow integration, walk simulation, the clock construction, and
Monte Carlo campaigns. Sites are 1-based in all files, flags, and
printed output; numeric output carries 17 significant digits so values
round-trip exactly. Every run prints its seed and a config hash to
stderr. Exit codes: 0 success, 2 usage, 3 domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from ._version import __version__
from .campaign import config_from_json_dict, export, model_from_json, run_campaign
from .dynamics import ModelParameters, integrate_flow
from .equilibria import classify, enumerate_all, threshold_table
from .errors import VrrwError
from .files import canonical_hash, open_text
from .graph import InteractionMatrix, complete_graph
from .rubin import ClockConfig, power_weight, rubin_simulate
from .walk import simulate

SEED_ENV_VAR = "VRRW_SEED"


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _print_provenance(seed, config_hash: str) -> None:
    print(f"seed: {seed}", file=sys.stderr)
    print(f"config-hash: {config_hash}", file=sys.stderr)


def _resolve_seed(flag_value, config_value=None) -> int:
    if flag_value is not None:
        return int(flag_value)
    if config_value is not None:
        return int(config_value)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return 0


def _load_matrix(path, n, ctx: argparse.ArgumentParser):
    if path is not None:
        with open_text(path) as fh:
            return InteractionMatrix.from_json(fh.read())
    if n is None:
        ctx.error("either --n or --matrix is required")
    return complete_graph(n)


def _output(path):
    """The --out file through open_text, or stdout (left open) without one."""
    return contextlib.nullcontext(sys.stdout) if path is None else open_text(path, "w")


def _simplex_arg(text: str) -> np.ndarray:
    try:
        vals = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if vals.size < 2:
        raise argparse.ArgumentTypeError("need at least two coordinates")
    return vals


def _cmd_equilibria(args) -> int:
    seed = _resolve_seed(args.seed)
    _print_provenance(seed, canonical_hash({"cmd": "equilibria", "n": args.n, "alpha": args.alpha}))
    eqs = enumerate_all(args.n, args.alpha)
    p = ModelParameters.for_complete_graph(args.n, args.alpha)
    classified = [classify(p, e) for e in eqs]

    def sort_key(e):
        d = e.two_level_data
        return (len(e.support.sites), e.support.sites, d.t if d else 1.0, d.k if d else 0)

    classified.sort(key=sort_key)
    if args.json:
        rows = []
        for e in classified:
            d = e.two_level_data
            rows.append(
                {
                    "support": list(e.support.labels()),
                    "kind": e.kind,
                    "point": [float(x) for x in np.asarray(e.point)],
                    "eigenvalues": [float(x) for x in e.tangent_eigenvalues],
                    "verdict": e.verdict,
                    "t": d.t if d else None,
                    "k": d.k if d else None,
                }
            )
        print(json.dumps(rows, indent=2))
    else:
        for e in classified:
            d = e.two_level_data
            support = "|".join(str(s) for s in e.support.labels())
            point = ",".join(_fmt(x) for x in np.asarray(e.point))
            eig = ",".join(_fmt(x) for x in e.tangent_eigenvalues)
            tk = f"k={d.k} t={_fmt(d.t)}" if d else "k=- t=-"
            print(f"{support}  {e.kind}  {tk}  {e.verdict}  point=[{point}]  eig=[{eig}]")
        print(f"total: {len(classified)} equilibria")
    return 0


def _cmd_thresholds(args) -> int:
    seed = _resolve_seed(args.seed)
    _print_provenance(seed, canonical_hash({"cmd": "thresholds", "c": args.c, "kmax": args.kmax}))
    table = threshold_table(args.c, args.kmax)
    if args.json:
        rows = [
            {"k": row.k, "alpha_crit": row.alpha_crit, "loop_c": row.loop_c}
            for row in table
        ]
        print(json.dumps(rows, indent=2))
    else:
        print("k  alpha_crit")
        for row in table:
            print(f"{row.k}  {_fmt(row.alpha_crit)}")
    return 0


def _cmd_flow(args) -> int:
    seed = _resolve_seed(args.seed)
    matrix = _load_matrix(args.matrix, args.n, args.parser)
    v0 = args.v0
    total = float(v0.sum())
    if abs(total - 1.0) > 1e-9:
        raise VrrwError(f"initial point must sum to 1 within 1e-9, got {total!r}")
    v0 = v0 / total
    payload = {
        "cmd": "flow",
        "matrix": matrix.entries.tolist(),
        "alpha": args.alpha,
        "c": args.c,
        "v0": v0.tolist(),
        "t": args.t,
        "dt": args.dt,
    }
    _print_provenance(seed, canonical_hash(payload))
    p = ModelParameters(matrix=matrix, alpha=args.alpha, loop_c=args.c)
    traj = integrate_flow(p, v0, t_end=args.t, dt=args.dt)
    with _output(args.out) as out:
        traj.write_csv(out)
    if args.out is not None:
        final = traj.states[-1]
        print(
            f"final state [{','.join(_fmt(x) for x in final)}] "
            f"H={_fmt(traj.lyapunov_values[-1])} -> {args.out}"
        )
    return 0


def _cmd_simulate(args) -> int:
    cfg = {}
    if args.config:
        with open_text(args.config) as fh:
            cfg = json.load(fh)
    model = dict(cfg.get("model", {}))
    for key in ("alpha", "c"):
        if getattr(args, key) is not None:
            model[key] = getattr(args, key)
    # flags beat the file: --n or --matrix replaces the file's graph
    if args.n is not None or args.matrix is not None or not {"n", "matrix"} & model.keys():
        model["matrix"] = _load_matrix(args.matrix, args.n, args.parser).entries
    start = args.start if args.start is not None else cfg.get("start")
    horizon = args.horizon if args.horizon is not None else cfg.get("horizon")
    seed = _resolve_seed(args.seed, cfg.get("seed"))
    if "alpha" not in model or start is None or horizon is None:
        args.parser.error("--alpha, --start and --horizon are required (flags or config)")
    p = model_from_json(model)
    payload = {
        "cmd": "simulate",
        "matrix": p.matrix.entries.tolist(),
        "alpha": p.alpha,
        "c": p.loop_c,
        "start": start,
        "horizon": horizon,
        "seed": seed,
    }
    _print_provenance(seed, canonical_hash(payload))
    record = simulate(p, int(start) - 1, int(horizon), seed)
    log_kind = args.log or ("sites" if record.sites is not None else "checkpoints")
    # checked before --out is opened, so a failed run leaves that path alone
    if log_kind == "sites" and record.sites is None:
        raise VrrwError("site log unavailable at this horizon; use --log checkpoints")
    with _output(args.out) as out:
        if log_kind == "sites":
            out.write("step,site\n")
            for step, site in enumerate(record.sites):
                out.write(f"{step},{site + 1}\n")
        else:
            nsites = record.final_counts.size
            out.write("n," + ",".join(f"v_{i + 1}" for i in range(nsites)) + "\n")
            occ = record.checkpoint_occupations()
            for step, row in zip(record.checkpoint_steps, occ):
                out.write(",".join([str(int(step))] + [_fmt(x) for x in row]) + "\n")
    counts = ",".join(str(int(x)) for x in record.final_counts)
    print(f"final counts [{counts}] over {horizon} steps", file=sys.stderr)
    return 0


def _cmd_rubin(args) -> int:
    seed = _resolve_seed(args.seed)
    matrix = _load_matrix(args.matrix, args.n, args.parser)
    payload = {
        "cmd": "rubin",
        "matrix": matrix.entries.tolist(),
        "alpha": args.alpha,
        "start": args.start,
        "jumps": args.jumps,
        "seed": seed,
    }
    _print_provenance(seed, canonical_hash(payload))
    config = ClockConfig(matrix=matrix, weight=power_weight(args.alpha))
    record = rubin_simulate(config, args.start - 1, args.jumps, seed)
    with _output(args.out) as out:
        out.write("step,site,time\n")
        for step, (site, tau) in enumerate(zip(record.walk.sites, record.jump_times)):
            out.write(f"{step},{site + 1},{_fmt(tau)}\n")
    if record.tie_count:
        print(f"clock ties resampled: {record.tie_count}", file=sys.stderr)
    return 0


def _cmd_campaign(args) -> int:
    with open_text(args.config) as fh:
        raw = json.load(fh)
    if args.replicas is not None:
        raw["replicas"] = args.replicas
    if args.horizon is not None:
        raw["horizon"] = args.horizon
    if args.base_seed is not None:
        raw["base_seed"] = args.base_seed
    raw.setdefault("base_seed", _resolve_seed(None))
    cfg = config_from_json_dict(raw)
    _print_provenance(cfg.base_seed, cfg.config_hash())
    result = run_campaign(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"campaign.{args.format}")
    export(result, path, args.format)
    print(f"replicas: {cfg.replicas}")
    for size, count in result.support_histogram.items():
        print(f"support size {size}: {count} ({count / cfg.replicas:.4f})")
    print(f"written: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrrw",
        description="Reinforced random walks on finite graphs: simulation, "
        "mean-field flow analysis, localization experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    eq = sub.add_parser("equilibria", help="enumerate and classify flow equilibria")
    eq.add_argument("--n", type=int, required=True, help="number of sites (2..12)")
    eq.add_argument("--alpha", type=float, required=True, help="reinforcement exponent (> 1)")
    eq.add_argument("--json", action="store_true", help="machine-readable output")
    eq.add_argument("--seed", type=int, help="provenance seed (unused by the math)")
    eq.set_defaults(func=_cmd_equilibria)

    th = sub.add_parser("thresholds", help="critical exponent table")
    th.add_argument("--c", type=float, default=0.0, help="self-loop weight in [0,1)")
    th.add_argument("--kmax", type=int, default=10, help="largest face size")
    th.add_argument("--json", action="store_true")
    th.add_argument("--seed", type=int, help="provenance seed (unused by the math)")
    th.set_defaults(func=_cmd_thresholds)

    fl = sub.add_parser("flow", help="integrate the mean-field occupation flow")
    fl.add_argument("--n", type=int, help="complete-graph size (or use --matrix)")
    fl.add_argument("--alpha", type=float, required=True)
    fl.add_argument("--c", type=float, default=0.0)
    fl.add_argument("--v0", type=_simplex_arg, required=True, help="comma-separated start point")
    fl.add_argument("--t", type=float, required=True, help="integration time")
    fl.add_argument("--dt", type=float, default=0.01)
    fl.add_argument("--matrix", help="interaction-matrix JSON file {n, entries}")
    fl.add_argument("--out", help="trajectory CSV path, .gz compresses (stdout if omitted)")
    fl.add_argument("--seed", type=int, help="provenance seed (unused by the math)")
    fl.set_defaults(func=_cmd_flow)

    si = sub.add_parser("simulate", help="sample one walk trajectory")
    si.add_argument("--config", help="JSON config {model:{n,alpha,c,matrix},start,horizon,seed}")
    si.add_argument("--n", type=int)
    si.add_argument("--alpha", type=float)
    si.add_argument("--c", type=float)
    si.add_argument("--start", type=int, help="1-based start site")
    si.add_argument("--horizon", type=int)
    si.add_argument("--seed", type=int)
    si.add_argument("--matrix", help="interaction-matrix JSON file {n, entries}")
    si.add_argument("--out", help="CSV path, .gz compresses (stdout if omitted)")
    si.add_argument("--log", choices=["sites", "checkpoints"], help="output flavor")
    si.set_defaults(func=_cmd_simulate)

    ru = sub.add_parser("rubin", help="run the exponential-clock construction")
    ru.add_argument("--n", type=int)
    ru.add_argument("--alpha", type=float, required=True)
    ru.add_argument("--start", type=int, required=True, help="1-based start site")
    ru.add_argument("--jumps", type=int, required=True)
    ru.add_argument("--seed", type=int)
    ru.add_argument("--matrix", help="interaction-matrix JSON file {n, entries}")
    ru.add_argument("--out", help="CSV path, .gz compresses (stdout if omitted)")
    ru.set_defaults(func=_cmd_rubin)

    ca = sub.add_parser("campaign", help="run a Monte Carlo campaign")
    ca.add_argument("--config", required=True, help="campaign JSON config")
    ca.add_argument("--out", required=True, help="output directory")
    ca.add_argument("--format", choices=["json", "csv"], default="json")
    ca.add_argument("--replicas", type=int, help="override config")
    ca.add_argument("--horizon", type=int, help="override config")
    ca.add_argument("--base-seed", type=int, dest="base_seed", help="override config")
    ca.set_defaults(func=_cmd_campaign)

    for p in (eq, th, fl, si, ru, ca):
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SystemExit as exc:
        # subcommands report missing required combinations as usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except VrrwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
