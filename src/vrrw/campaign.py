"""Monte Carlo campaign harness.

Runs many independent walk replicas, detects where each one localized
from its tail visit counts, anchors the final occupation to the nearest
equilibrium, and aggregates support-size statistics. Replica seeds are
derived from the base seed by a 64-bit mixing hash, so results do not
depend on execution order and single replicas can be reproduced in
isolation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ._version import __version__
from .dynamics import ModelParameters
from .equilibria import _catalog_size, enumerate_all
from .errors import DomainError, ValidationError
from .files import canonical_hash, open_text
from .graph import FaceIndex, _integer, _number, complete_graph, simplex_points, validate
from .walk import _batch_walk, splitmix64

UNIFORM_RANDOM = "uniform-random"

#: Size of the replica x anchor Gram array _nearest builds per chunk. At 12
#: to 16 MiB, freeing it raised malloc's adaptive mmap threshold so that a
#: later 20 MiB array took fresh pages: peak RSS of a campaign plus an
#: independent nearest-anchor check rose from 97 to 109 MiB.
_NEAREST_BYTES = 8 * 2**20

#: Gram values within this of a row's smallest name its candidate anchors.
_GRAM_SLACK = 1e-9

_SEED_STRIDE = 0x9E3779B97F4A7C15
_START_SALT = 0xA5A5A5A5A5A5A5A5
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class DetectionConfig:
    """Tail-window localization detector settings.

    A site is retained when it is visited in the final tail_fraction of
    steps and its share of those steps reaches min_share.
    """

    tail_fraction: float = 0.5
    min_share: float = 0.02

    def __post_init__(self):
        # stored as floats, so a config hashes alike before its export and after its load
        for name in ("tail_fraction", "min_share"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValidationError(f"tail_fraction must lie in (0,1), got {self.tail_fraction}")
        if not 0.0 <= self.min_share < 1.0:
            raise ValidationError(f"min_share must lie in [0,1), got {self.min_share}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelParameters
    replicas: int
    horizon: int
    base_seed: int
    start: Union[int, str] = UNIFORM_RANDOM
    detection: DetectionConfig = field(default_factory=DetectionConfig)

    def __post_init__(self):
        if not (isinstance(self.model, ModelParameters) and isinstance(self.detection, DetectionConfig)):
            raise ValidationError(f"need a model and detection config, got {self.model!r}, {self.detection!r}")
        # stored as Python ints, so the hash, the export and the walk agree
        names = ["replicas", "horizon", "base_seed"]
        if not isinstance(self.start, str):
            names.append("start")
        for name in names:
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.replicas < 1:
            raise ValidationError(f"need at least one replica, got {self.replicas}")
        if self.horizon < 10:
            raise ValidationError(f"horizon must be >= 10, got {self.horizon}")
        if isinstance(self.start, str):
            if self.start != UNIFORM_RANDOM:
                raise ValidationError(f"start must be a site or {UNIFORM_RANDOM!r}")
        elif not 0 <= self.start < self.model.size:
            raise ValidationError(f"start site {self.start} out of range")

    def canonical_dict(self) -> dict:
        return {
            "model": {
                "entries": self.model.matrix.entries.tolist(),
                "alpha": self.model.alpha,
                "c": self.model.loop_c,
            },
            "replicas": self.replicas,
            "horizon": self.horizon,
            "base_seed": self.base_seed,
            "start": self.start,
            "detection": {
                "tail_fraction": self.detection.tail_fraction,
                "min_share": self.detection.min_share,
            },
        }

    def config_hash(self) -> str:
        return canonical_hash(self.canonical_dict())


@dataclass(frozen=True)
class ReplicaResult:
    replica: int
    seed: int
    support: FaceIndex
    tail_profile: tuple
    final_occupation: np.ndarray
    nearest_equilibrium: int
    distance: float


@dataclass(frozen=True)
class CampaignResult:
    config: ExperimentConfig
    replicas: tuple
    support_histogram: dict
    mean_sorted_profile: dict
    config_hash: str
    code_version: str

    def __post_init__(self):
        if sum(self.support_histogram.values()) != len(self.replicas):
            raise ValidationError("support histogram does not total the replica count")


def replica_seed(base_seed: int, replica: int) -> int:
    """Seed of one replica's uniform stream, mixed so streams are
    pairwise unrelated."""
    return splitmix64((base_seed + _SEED_STRIDE * (replica + 1)) & _MASK64)


def replica_start(seed: int, n: int) -> int:
    """Start site of a uniform-random-start replica, derived from the
    replica seed without touching the walk's uniform stream."""
    return splitmix64(seed ^ _START_SALT) % n


def _tail_window(horizon: int, tail_fraction: float) -> int:
    window = int(round(tail_fraction * horizon))
    return min(max(window, 1), horizon)


def _detect_from_tail_counts(tail_counts: np.ndarray, window: int, min_share: float):
    """A FaceIndex and a tail profile, a tuple of shares, per row of (R, N)
    tail counts. Rows are grouped by support size, so each profile is
    divided by numpy's sum of exactly its retained shares."""
    shares = tail_counts / window
    retained = (tail_counts >= 1) & (shares >= min_share)
    # A threshold above every share would empty a set; keep the dominant
    # site so the detector never returns nothing.
    empty = np.flatnonzero(~retained.any(axis=1))
    retained[empty, np.argmax(shares[empty], axis=1)] = True
    sizes = retained.sum(axis=1)
    sites, profiles = [None] * len(sizes), [None] * len(sizes)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == size)
        mask = retained[rows]
        kept = shares[rows][mask].reshape(-1, size)
        group = (kept / kept.sum(axis=1, keepdims=True)).tolist()
        columns = np.nonzero(mask)[1].reshape(-1, size).tolist()
        for i, row_sites, profile in zip(rows.tolist(), columns, group):
            sites[i], profiles[i] = tuple(row_sites), tuple(profile)
    faces = {s: FaceIndex(sites=s) for s in set(sites)}
    return [faces[s] for s in sites], profiles


def _mean_sorted(group: np.ndarray) -> tuple:
    """Mean of the rows of group, each sorted in decreasing order."""
    return tuple(np.mean(-np.sort(-group, axis=1), axis=0).tolist())


def _result(config, seeds, supports, profiles, occupations, nearest, distances, code_version) -> CampaignResult:
    """The campaign result of per-replica columns, in ReplicaResult's field
    order, replica i from row i of each. The tail profiles are grouped by
    support size in replica order: the support histogram counts each group
    and the mean sorted profile averages it, both keyed by support size in
    increasing order."""
    columns = zip(seeds, supports, profiles, occupations, nearest, distances)
    replicas = tuple(ReplicaResult(i, *row) for i, row in enumerate(columns))
    groups = {}  # tail profiles by support size, in replica order
    for profile in profiles:
        groups.setdefault(len(profile), []).append(profile)
    return CampaignResult(
        config=config,
        replicas=replicas,
        support_histogram={k: len(groups[k]) for k in sorted(groups)},
        mean_sorted_profile={k: _mean_sorted(np.array(groups[k])) for k in sorted(groups)},
        config_hash=config.config_hash(),
        code_version=code_version,
    )


def _anchor_count(p: ModelParameters) -> int:
    """len(equilibrium_anchors(p)), without the catalog."""
    if p.size > 12 or not np.array_equal(p.matrix.entries, complete_graph(p.size).entries):
        return 0
    return _catalog_size(p.size, float(p.alpha), float(p.loop_c))  # numpy scalars would warn, not raise


def equilibrium_anchors(p: ModelParameters) -> list:
    """Reference points for nearest-equilibrium classification.

    The catalog describes the complete graph only, so any other matrix,
    or more than 12 sites, gets no anchors. Otherwise the anchors are the
    full enumeration at the model's loop weight, with its spectra and
    verdicts: with self-loops the vertices come first.
    """
    if not _anchor_count(p):
        return []
    return enumerate_all(p.size, p.alpha, p.loop_c)


def _nearest(occupations: np.ndarray, anchors) -> tuple:
    """Index of and distance to the nearest anchor, row by row: the first
    minimum in anchor order of np.linalg.norm(occupation - anchor).

    |p|^2 - 2 occ.p, which is |occ - p|^2 less a constant per row, only
    filters: its rounding is about 1e-14 on the simplex, so the anchors
    within _GRAM_SLACK of a row's least value hold the true minimum, and
    norm measures just those again. Rows go in chunks whose Gram array
    stays within _NEAREST_BYTES."""
    r = occupations.shape[0]
    if not anchors:
        return np.full(r, -1, dtype=np.int64), np.full(r, np.nan)
    pts = np.array([e.point for e in anchors])
    sq, minus_2pt = (pts * pts).sum(axis=1), -2.0 * pts.T
    idx = np.empty(r, dtype=np.intp)
    dist = np.empty(r)
    chunk = max(1, _NEAREST_BYTES // sq.nbytes)
    for lo in range(0, r, chunk):
        occ = occupations[lo : lo + chunk]
        g = occ @ minus_2pt
        g += sq
        # flat indices: np.nonzero of the 2-D mask takes several times longer
        kept = np.flatnonzero(g <= g.min(axis=1, keepdims=True) + _GRAM_SLACK)
        rows, cols = np.divmod(kept, len(pts))
        d = np.linalg.norm(occ[rows] - pts[cols], axis=1)
        # the kept pairs come row by row and in anchor order; a stable sort
        # by (row, distance) puts each row's first minimum first
        order = np.lexsort((d, rows))
        first = order[np.r_[True, rows[order][1:] != rows[order][:-1]]]
        idx[lo : lo + chunk] = cols[first]
        dist[lo : lo + chunk] = d[first]
    return idx, dist


def run_campaign(cfg: ExperimentConfig) -> CampaignResult:
    """Run all replicas and aggregate localization statistics.

    Replica r always uses seed replica_seed(cfg.base_seed, r), so any
    single replica reproduces bit-identically via simulate with that
    seed, and the result is independent of scheduling.
    """
    p = cfg.model
    n = p.size
    r = cfg.replicas
    seeds = [replica_seed(cfg.base_seed, i) for i in range(r)]
    if cfg.start == UNIFORM_RANDOM:
        starts = np.array([replica_start(s, n) for s in seeds], dtype=np.int64)
    else:
        starts = np.full(r, cfg.start, dtype=np.int64)

    window = _tail_window(cfg.horizon, cfg.detection.tail_fraction)
    cutoff = cfg.horizon - window
    at = [cutoff] if cutoff >= 1 else []
    _anchor_count(p)  # a catalog that fails raises here, before the walk
    final, chk, _ = _batch_walk(p, starts, cfg.horizon, seeds, False, at)

    base = chk[:, 0] if cutoff >= 1 else np.eye(n, dtype=np.int64)[starts]
    tail = final - base

    occupations = simplex_points(final / (cfg.horizon + 1.0))
    anchors = equilibrium_anchors(p)
    nearest_idx, nearest_dist = _nearest(occupations, anchors)
    faces, profiles = _detect_from_tail_counts(tail, window, cfg.detection.min_share)
    return _result(
        cfg, seeds, faces, profiles, occupations, nearest_idx.tolist(), nearest_dist.tolist(), __version__
    )


def _model_to_json(p: ModelParameters) -> dict:
    out = {"n": p.size, "alpha": p.alpha, "c": p.loop_c}
    if not np.array_equal(p.matrix.entries, complete_graph(p.size).entries):
        out["matrix"] = p.matrix.entries.tolist()
    return out


def model_from_json(d: dict) -> ModelParameters:
    if "matrix" in d:
        matrix = validate(np.asarray(d["matrix"], dtype=float))
    else:
        matrix = complete_graph(_integer(d["n"], "n"))
    return ModelParameters(matrix=matrix, alpha=_number(d["alpha"], "alpha"), loop_c=_number(d.get("c", 0.0), "c"))


def config_to_json_dict(cfg: ExperimentConfig) -> dict:
    """External JSON form; sites are 1-based there."""
    start = cfg.start if isinstance(cfg.start, str) else cfg.start + 1
    return {
        "model": _model_to_json(cfg.model),
        "replicas": cfg.replicas,
        "horizon": cfg.horizon,
        "base_seed": cfg.base_seed,
        "start": start,
        "detection": {
            "tail_fraction": cfg.detection.tail_fraction,
            "min_share": cfg.detection.min_share,
        },
    }


def config_from_json_dict(d: dict) -> ExperimentConfig:
    det = d.get("detection", {})
    start = d.get("start", UNIFORM_RANDOM)
    if not isinstance(start, str):
        start = _integer(start, "start") - 1
    return ExperimentConfig(
        model=model_from_json(d["model"]),
        replicas=d["replicas"],
        horizon=d["horizon"],
        base_seed=d["base_seed"],
        start=start,
        detection=DetectionConfig(det.get("tail_fraction", 0.5), det.get("min_share", 0.02)),
    )


def _json_head(result: CampaignResult) -> dict:
    """The JSON document of a campaign result but its replica records."""
    return {
        "config": config_to_json_dict(result.config),
        "aggregates": {
            "support_histogram": {str(k): v for k, v in result.support_histogram.items()},
            "mean_sorted_profile": {
                str(k): list(v) for k, v in result.mean_sorted_profile.items()
            },
        },
        "provenance": {
            "config_hash": result.config_hash,
            "code_version": result.code_version,
        },
    }


def _record(rep: ReplicaResult) -> dict:
    """The JSON record of one replica; sites are 1-based there."""
    return {
        "replica": rep.replica,
        "seed": rep.seed,
        "support": [s + 1 for s in rep.support.sites],
        "tail_profile": list(rep.tail_profile),
        "final_occupation": rep.final_occupation.tolist(),
        "nearest_equilibrium": rep.nearest_equilibrium,
        "distance": rep.distance,
    }


#: Writes json.dumps(record, sort_keys=True), without building an encoder per
#: call; a record holds fresh lists, so no check for cycles.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _write_json(result: CampaignResult, fh) -> None:
    """Write a campaign result's JSON document: the head laid out by
    json.dumps(..., sort_keys=True, indent=2), then each replica's _record on
    a line of its own, as json.dumps(record, sort_keys=True) writes it."""
    head = json.dumps({**_json_head(result), "replicas": []}, sort_keys=True, indent=2)
    before, after = head.rsplit('"replicas": []', 1)
    fh.write(before + '"replicas": [\n')
    encode = _RECORD_ENCODER.encode
    for i, rep in enumerate(result.replicas):
        fh.write(",\n" + encode(_record(rep)) if i else encode(_record(rep)))
    fh.write("\n  ]" + after + "\n")


def _result_from_json_dict(d: dict) -> CampaignResult:
    """A campaign result from its JSON document, checked against the
    document's own config: one record per replica, in replica order and
    with the replica's seed, each occupation a point of the model's
    simplex, each support 1-based integer labels in 1..n with one tail
    share per label, and each nearest equilibrium an index below the anchor
    count at a distance >= 0 if the model gets anchors, else -1 at a NaN
    distance. Number fields must hold JSON numbers, and the provenance and
    the aggregates must be those of the config and the records."""
    config = config_from_json_dict(d["config"])
    reps, n = d["replicas"], config.model.size
    if len(reps) != config.replicas:
        raise ValidationError(f"{len(reps)} replica records for {config.replicas} replicas")
    occupations = np.array([[_number(x, "occupation") for x in rep["final_occupation"]] for rep in reps])
    if occupations.shape != (len(reps), n):
        raise ValidationError(f"final occupations must be rows of {n}, got shape {occupations.shape}")
    occupations = simplex_points(occupations)
    faces = {}  # one FaceIndex per distinct support
    for labels in {tuple(rep["support"]) for rep in reps}:
        faces[labels] = FaceIndex(sites=tuple(_integer(s, "support label") - 1 for s in labels))
        if faces[labels].sites[-1] >= n:
            raise ValidationError(f"support labels {list(labels)} exceed the {n} sites")
    seeds = [_integer(rep["seed"], "seed") for rep in reps]
    supports = [faces[tuple(rep["support"])] for rep in reps]
    profiles = [tuple(_number(x, "tail share") for x in rep["tail_profile"]) for rep in reps]
    nearest = [_integer(rep["nearest_equilibrium"], "nearest equilibrium") for rep in reps]
    distances = [_number(rep["distance"], "distance") for rep in reps]
    anchors = _anchor_count(config.model)
    for i, rep in enumerate(reps):
        k, dist = nearest[i], distances[i]
        if not (0 <= k < anchors and dist >= 0 if anchors else k == -1 and math.isnan(dist)):
            want = f"an index in [0, {anchors}) at a distance >= 0" if anchors else "-1 at a NaN distance"
            raise ValidationError(f"replica {i} has nearest equilibrium {k} at distance {dist}, not {want}")
        if _integer(rep["replica"], "replica") != i:
            raise ValidationError(f"record {i} holds replica {rep['replica']}")
        if seeds[i] != replica_seed(config.base_seed, i):
            raise ValidationError(f"replica {i} has seed {seeds[i]}, not replica_seed({config.base_seed}, {i})")
        if len(profiles[i]) != len(supports[i].sites):
            raise ValidationError(
                f"replica {i} has {len(profiles[i])} tail shares for {len(supports[i].sites)} sites"
            )
    result = _result(
        config, seeds, supports, profiles, occupations, nearest, distances, d["provenance"]["code_version"]
    )
    head = _json_head(result)
    for key in ("provenance", "aggregates"):
        if json.dumps(d[key], sort_keys=True) != json.dumps(head[key], sort_keys=True):
            raise ValidationError(f"the {key} {d[key]} are not the config's and records', {head[key]}")
    return result


def export(result: CampaignResult, path, format: str) -> None:
    """Write a campaign result as json (round-trippable: an indented head
    and one line per replica record, _write_json) or csv (one row per
    replica, fixed columns). Paths ending in .gz are compressed."""
    if format == "json":
        with open_text(path, "w") as fh:
            _write_json(result, fh)
    elif format == "csv":
        n = result.config.model.size
        cols = ["replica", "seed", "support_size", "support"]
        cols += [f"occ_{i + 1}" for i in range(n)]
        cols += ["nearest_eq", "dist"]
        with open_text(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for rep in result.replicas:
                occ = rep.final_occupation
                row = [
                    str(rep.replica),
                    str(rep.seed),
                    str(len(rep.support.sites)),
                    "|".join(str(s) for s in rep.support.labels()),
                ]
                row += [f"{x:.17g}" for x in occ]
                row += [str(rep.nearest_equilibrium), f"{rep.distance:.17g}"]
                fh.write(",".join(row) + "\n")
    else:
        raise DomainError(f"unknown export format {format!r}")


def load_campaign(path) -> CampaignResult:
    """Read back a json export; a document that does not hold a campaign
    of its own config raises ValidationError."""
    with open_text(path) as fh:
        d = json.load(fh)
    try:
        return _result_from_json_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed campaign export: {exc!r}") from exc
