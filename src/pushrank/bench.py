"""Experiment runner and statistics engine.

Runs repeated single-node queries over target sets and config grids with
one independent RNG stream per repetition, aggregates empirical error /
variance / failure-rate summaries against the exact oracle, and fits
cost-versus-degree scaling curves.  The cost proxy for every claim is
the machine-independent counters (pushes, walk steps); wall time is
recorded for curiosity and never asserted.

Stream derivation rule (fixed, part of the reproducibility contract):
task i in the deterministic enumeration ordered by (target index,
config index, repetition index) runs on RngStream(spec.seed, i).
"""
from __future__ import annotations

import csv
import inspect
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import IO, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .estimators import ESTIMATORS, Estimate, EstimatorConfig, _check_int
from .graph import Graph, generate, load_edge_list
from .oracle import pagerank
from .sampling import RngStream

__all__ = [
    "TargetPolicy",
    "ExperimentSpec",
    "RunRecord",
    "ErrorSummary",
    "degree_bands",
    "select_targets",
    "run_experiment",
    "summarize",
    "scaling_study",
    "write_records_csv",
    "write_summary_json",
    "records_equal",
]

SCHEMA_VERSION = 1

# degree bands relative to the average degree, widest first
_BAND_EDGES = [(100.0, math.inf), (10.0, 100.0), (1.0, 10.0), (0.1, 1.0), (0.01, 0.1)]

_CONFIG_FIELDS = {f.name for f in fields(EstimatorConfig)}


def _extra_fields(estimator: str) -> set[str]:
    """The keyword parameters an estimator takes after (g, t, cfg, rng)."""
    return set(list(inspect.signature(ESTIMATORS[estimator]).parameters)[4:])


@dataclass(frozen=True)
class TargetPolicy:
    """How query nodes are chosen.

    kind 'uniform': count nodes uniformly at random.
    kind 'degree_weighted': count nodes with probability proportional to
    degree.
    kind 'degree_buckets': count nodes uniformly from each nonempty band
    of the five-way degree partition around the average degree.
    """

    kind: str
    count: int
    seed: int

    def __post_init__(self):
        if self.kind not in ("uniform", "degree_weighted", "degree_buckets"):
            raise ValidationError(f"unknown target policy {self.kind!r}")
        _check_int("target count", self.count, 1)
        _check_int("target policy seed", self.seed, 0)  # numpy's default_rng needs >= 0


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce a sweep bit-for-bit."""

    graph: str  # "gen:<genspec>" or "file:<path>"
    estimator: str
    policy: TargetPolicy
    configs: list[dict] = field(default_factory=lambda: [{}])
    repetitions: int = 1
    seed: int = 0
    oracle: bool = True

    def __post_init__(self):
        if not isinstance(self.graph, str):
            raise ValidationError(f"graph must be a string, got {self.graph!r}")
        if not isinstance(self.estimator, str) or self.estimator not in ESTIMATORS:
            raise ValidationError(
                f"unknown estimator {self.estimator!r}; choose from {sorted(ESTIMATORS)}"
            )
        _check_int("repetitions", self.repetitions, 1)
        # any integer: RngStream folds the seed into 64 bits
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.oracle, bool):  # a JSON "no" would be truthy
            raise ValidationError(f"oracle must be true or false, got {self.oracle!r}")
        if not isinstance(self.configs, list) or not self.configs:
            raise ValidationError("config grid must be a nonempty list")
        allowed = _CONFIG_FIELDS | _extra_fields(self.estimator)
        for cfg in self.configs:
            if not isinstance(cfg, dict):
                raise ValidationError(f"each config must be an object, got {cfg!r}")
            unknown = set(cfg) - allowed
            if unknown:
                raise ValidationError(
                    f"unknown config keys {sorted(unknown)} for {self.estimator}"
                )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"spec is not JSON: {exc.msg}", exc.lineno) from None
        if not isinstance(raw, dict) or not isinstance(raw.get("policy"), dict):
            raise ValidationError("spec must be a JSON object with a 'policy' object")
        try:
            raw["policy"] = TargetPolicy(**raw["policy"])
            return cls(**raw)
        except TypeError as exc:
            raise ValidationError(f"bad spec: {exc}") from None

    def to_json(self) -> str:
        out = asdict(self)
        return json.dumps(out, sort_keys=True, indent=2)


@dataclass
class RunRecord:
    """One estimator invocation; the unit row of every CSV."""

    estimator: str
    target: int
    target_original: int
    target_degree: int
    bucket: int | None
    config_index: int
    repetition: int
    stream_id: int
    value: float
    oracle_value: float | None
    pushes: int
    walk_steps: int
    rng_draws: int
    wall_nanos: int

    def key(self) -> tuple:
        """Every field except wall time; the determinism contract."""
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "wall_nanos")


def records_equal(a: Sequence[RunRecord], b: Sequence[RunRecord]) -> bool:
    return len(a) == len(b) and all(x.key() == y.key() for x, y in zip(a, b))


@dataclass
class ErrorSummary:
    """Aggregate over one (estimator, config, bucket) cell."""

    estimator: str
    config_index: int
    bucket: int | None
    runs: int
    mean: float
    variance: float | None  # absent when runs < 2
    mean_rel_err: float | None  # mean over runs of |est - pi| / pi
    rel_err_over_c: float | None  # mean_rel_err / c
    failure_rate: float | None  # fraction of runs with rel err > c
    mean_pushes: float
    mean_walk_steps: float


def degree_bands(g: Graph) -> list[tuple[float, float]]:
    """Absolute-degree intervals [lo, hi) of the five-way partition."""
    avg = 2.0 * g.edge_count / g.node_count
    return [(lo * avg, hi * avg) for lo, hi in _BAND_EDGES]


def bucket_members(g: Graph) -> list[np.ndarray]:
    return [
        np.flatnonzero((g.degrees >= lo) & (g.degrees < hi))
        for lo, hi in degree_bands(g)
    ]


def select_targets(g: Graph, policy: TargetPolicy) -> list[tuple[int, int | None]]:
    """Resolve a policy to [(node, bucket or None)], deterministically."""
    rng = np.random.default_rng(policy.seed)
    n = g.node_count
    if policy.kind == "uniform":
        picks = rng.choice(n, size=min(policy.count, n), replace=False)
        return [(int(u), None) for u in picks]
    if policy.kind == "degree_weighted":
        weights = g.degrees / g.degrees.sum()
        picks = rng.choice(n, size=min(policy.count, n), replace=False, p=weights)
        return [(int(u), None) for u in picks]
    out: list[tuple[int, int | None]] = []
    for b, members in enumerate(bucket_members(g)):
        if members.size == 0:
            continue
        picks = rng.choice(members, size=min(policy.count, members.size), replace=False)
        out.extend((int(u), b) for u in np.sort(picks))
    if not out:
        raise ValidationError("no nonempty degree bucket")
    return out


def load_graph_source(source: str) -> Graph:
    """Resolve 'gen:<spec>' or 'file:<path>' (bare paths load as files)."""
    if source.startswith("gen:"):
        return generate(source[4:])
    path = source[5:] if source.startswith("file:") else source
    with open(path, "rb") as fh:
        return load_edge_list(fh)


def _split_config(point: dict) -> tuple[EstimatorConfig, dict]:
    cfg_kwargs = {k: v for k, v in point.items() if k in _CONFIG_FIELDS}
    extras = {k: v for k, v in point.items() if k not in _CONFIG_FIELDS}
    return EstimatorConfig(**cfg_kwargs), extras


def run_experiment(
    spec: ExperimentSpec, g: Graph | None = None, threads: int = 1
) -> list[RunRecord]:
    """Execute the sweep; a pure function of the spec.

    Repetitions may fan out over a thread pool (the graph is shared
    read-only and every task owns its stream); results are returned in
    the deterministic (target, config, repetition) order either way.
    """
    if g is None:
        g = load_graph_source(spec.graph)
    parsed = [_split_config(point) for point in spec.configs]
    oracle_vec = None
    if spec.oracle:
        oracle_vec = pagerank(g, _common_alpha([cfg for cfg, _ in parsed]))

    targets = select_targets(g, spec.policy)
    fn = ESTIMATORS[spec.estimator]

    tasks = []
    for ti, (node, bucket) in enumerate(targets):
        for ci in range(len(parsed)):
            for rep in range(spec.repetitions):
                tasks.append((len(tasks), node, bucket, ci, rep))

    def run_one(task) -> RunRecord:
        idx, node, bucket, ci, rep = task
        cfg, extras = parsed[ci]
        est: Estimate = fn(g, node, cfg, rng=RngStream(spec.seed, idx), **extras)
        return RunRecord(
            estimator=spec.estimator,
            target=node,
            target_original=int(g.original_ids[node]),
            target_degree=int(g.degrees[node]),
            bucket=bucket,
            config_index=ci,
            repetition=rep,
            stream_id=idx,
            value=est.value,
            oracle_value=float(oracle_vec[node]) if oracle_vec is not None else None,
            pushes=est.pushes,
            walk_steps=est.walk_steps,
            rng_draws=est.rng_draws,
            wall_nanos=est.wall_nanos,
        )

    if threads <= 1:
        return [run_one(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run_one, tasks))


def _common_alpha(configs: list[EstimatorConfig]) -> float:
    alphas = {cfg.alpha for cfg in configs}
    if len(alphas) != 1:
        raise ValidationError(
            "oracle comparison needs a single alpha across the config grid"
        )
    return alphas.pop()


def summarize(records: Sequence[RunRecord], configs: list[dict]) -> list[ErrorSummary]:
    """Per-(estimator, config, bucket) aggregates; empty cells are
    simply absent.  ``configs`` is the spec's config grid, which the
    records' ``config_index`` points into.  Error columns require oracle
    values on the records."""
    cells: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        cells.setdefault((rec.estimator, rec.config_index, rec.bucket), []).append(rec)

    out = []
    for (estimator, ci, bucket), group in sorted(
        cells.items(), key=lambda kv: (kv[0][0], kv[0][1], -1 if kv[0][2] is None else kv[0][2])
    ):
        values = np.array([r.value for r in group])
        mean = float(values.mean())
        variance = float(values.var(ddof=1)) if len(group) >= 2 else None
        mean_rel = rel_over_c = failure = None
        if all(r.oracle_value is not None for r in group):
            truth = np.array([r.oracle_value for r in group])
            rel = np.abs(values - truth) / truth
            mean_rel = float(rel.mean())
            c = configs[ci].get("c", EstimatorConfig().c)
            rel_over_c = mean_rel / c
            failure = float(np.mean(rel > c))
        out.append(
            ErrorSummary(
                estimator=estimator,
                config_index=ci,
                bucket=bucket,
                runs=len(group),
                mean=mean,
                variance=variance,
                mean_rel_err=mean_rel,
                rel_err_over_c=rel_over_c,
                failure_rate=failure,
                mean_pushes=float(np.mean([r.pushes for r in group])),
                mean_walk_steps=float(np.mean([r.walk_steps for r in group])),
            )
        )
    return out


@dataclass
class ScalingCurve:
    """Mean cost per degree bucket and the fitted log-log slope."""

    estimator: str
    bucket_degrees: list[float]
    bucket_costs: list[float]
    slope: float


def scaling_study(
    g: Graph,
    estimators: Sequence[str],
    targets_per_bucket: int = 5,
    seed: int = 0,
    max_degree: float | None = None,
    extras_by_estimator: dict[str, dict] | None = None,
) -> dict[str, ScalingCurve]:
    """Cost-versus-degree curves over the degree-bucket partition.

    Every estimator runs once per target at the default config plus its
    ``extras_by_estimator`` entry.  Cost is pushes + walk_steps per run,
    averaged over the targets of each bucket.  ``max_degree`` optionally
    restricts the slope fit to buckets whose mean target degree is at or
    below it; fewer than two contributing buckets is an error.
    """
    extras_by_estimator = extras_by_estimator or {}
    policy = TargetPolicy("degree_buckets", targets_per_bucket, seed)
    targets = select_targets(g, policy)

    out: dict[str, ScalingCurve] = {}
    for name in estimators:
        spec = ExperimentSpec(
            graph="(in-memory)",
            estimator=name,
            policy=policy,
            configs=[dict(extras_by_estimator.get(name, {}))],
            seed=seed,
            oracle=False,
        )
        records = run_experiment(spec, g=g)
        by_bucket: dict[int, list[RunRecord]] = {}
        for rec in records:
            by_bucket.setdefault(rec.bucket, []).append(rec)
        degrees, costs = [], []
        for b in sorted(by_bucket):
            group = by_bucket[b]
            degrees.append(float(np.mean([r.target_degree for r in group])))
            costs.append(float(np.mean([r.pushes + r.walk_steps for r in group])))
        fit_d, fit_c = degrees, costs
        if max_degree is not None:
            pairs = [(d, c) for d, c in zip(degrees, costs) if d <= max_degree]
            fit_d = [p[0] for p in pairs]
            fit_c = [p[1] for p in pairs]
        if len(fit_d) < 2:
            raise ValidationError(
                f"scaling fit for {name!r} needs >= 2 nonempty buckets, got {len(fit_d)}"
            )
        slope = float(np.polyfit(np.log(fit_d), np.log(fit_c), 1)[0])
        out[name] = ScalingCurve(name, degrees, costs, slope)
    return out


_CSV_COLUMNS = [f.name for f in fields(RunRecord)]


def write_records_csv(records: Sequence[RunRecord], out: IO[str]) -> None:
    writer = csv.writer(out)
    writer.writerow(_CSV_COLUMNS)
    for rec in records:
        row = []
        for col in _CSV_COLUMNS:
            val = getattr(rec, col)
            if isinstance(val, float):
                val = f"{val:.17g}"
            elif val is None:
                val = ""
            row.append(val)
        writer.writerow(row)


def write_summary_json(
    summaries: Sequence[ErrorSummary], out: IO[str], spec: ExperimentSpec
) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec": json.loads(spec.to_json()),
        "summaries": [asdict(s) for s in summaries],
    }
    json.dump(doc, out, sort_keys=True, indent=2)
    out.write("\n")
