"""Per-layer metrics derived from the traced run.

The layers are the package modules.  Times come from spans around calls
into each module's public functions; counts come from the counters the
estimators return.  Per-query figures are means over the run's queries
of that estimator; call times are medians over calls.  A layer the
workload never calls reports 0.
"""
from __future__ import annotations

from collections import defaultdict

from measure import Query, median
from spans import self_times

METHODS = ("setpush", "reverse_mc", "local_push", "forward_mc")
UNIT = {"local_push": "pushes", "forward_mc": "walk_steps"}

# name -> (unit, better); BENCHMARK.json lists the same names
PER_LAYER = {
    "graph.generate_s": ("s", "lower"),
    "graph.load_edge_list_s": ("s", "lower"),
    "graph.load_mb_per_s": ("MB/s", "higher"),
    "graph.from_original_us": ("us", "lower"),
    "sampling.uniforms_calls": ("count", "lower"),
    "sampling.draws_per_call": ("count", "higher"),
    "sampling.uniforms_s": ("s", "lower"),
    "sampling.alpha_walk_batch_s": ("s", "lower"),
    "estimators.setpush.pushes": ("count", "lower"),
    "estimators.setpush.rng_draws": ("count", "lower"),
    "estimators.setpush.ns_per_push": ("ns", "lower"),
    "estimators.setpush.self_s": ("s", "lower"),
    "estimators.setpush.pushes_per_half_edge": ("ratio", "lower"),
    "estimators.setpush.p50_ms": ("ms", "lower"),
    "estimators.reverse_mc.walk_steps": ("count", "lower"),
    "estimators.reverse_mc.ns_per_step": ("ns", "lower"),
    "estimators.reverse_mc.tally_s": ("s", "lower"),
    "estimators.reverse_mc.p50_ms": ("ms", "lower"),
    "estimators.local_push.pushes": ("count", "lower"),
    "estimators.local_push.ns_per_unit": ("ns", "lower"),
    "estimators.forward_mc.walk_steps": ("count", "lower"),
    "estimators.forward_mc.ns_per_unit": ("ns", "lower"),
    **{f"estimators.{m}.rel_err_over_c": ("ratio", "lower") for m in METHODS},
    "oracle.build_tables_s": ("s", "lower"),
    "oracle.table_mb": ("MB", "lower"),
    "oracle.pagerank_s": ("s", "lower"),
    **{f"bench.run_experiment.{m}_s": ("s", "lower") for m in METHODS},
    "bench.harness_overhead_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def derive(
    spans: list[tuple],
    queries: list[Query],
    edge_count: int,
    passes: int,
    c: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric from the spans and queries of one run.

    ``extra`` holds what the workload measured itself (file size, table
    size, CLI times, tracing overhead)."""
    selfs = self_times(spans)
    secs: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    for sid, name, start, end, _, _, w in spans:
        secs[name].append((end - start) / 1e9)
        self_s[name] += selfs[sid] / 1e9
        work[name] += w

    by_method: dict[str, list[Query]] = defaultdict(list)
    for q in queries:
        by_method[q.method.replace("-", "_")].append(q)

    def mean(xs, default=0.0):
        xs = list(xs)
        return sum(xs) / len(xs) if xs else default

    def per(total, count):
        return total / count if count else 0.0

    est_calls = sum(len(secs[f"estimators.{m}"]) for m in METHODS)
    walk_calls = len(secs["estimators.reverse_mc"]) + len(secs["estimators.forward_mc"])
    uniforms = secs["sampling.uniforms"]
    load_s = median(secs["graph.load_edge_list"])
    out = {
        "graph.generate_s": median(secs["graph.generate"]),
        "graph.load_edge_list_s": load_s,
        "graph.load_mb_per_s": per(extra.get("edge_list_bytes", 0) / 1e6, load_s),
        "graph.from_original_us": median(secs["graph.from_original"]) * 1e6,
        "sampling.uniforms_calls": per(len(uniforms), est_calls),
        "sampling.draws_per_call": per(work["sampling.uniforms"], len(uniforms)),
        "sampling.uniforms_s": per(sum(uniforms), est_calls),
        "sampling.alpha_walk_batch_s": per(sum(secs["sampling.alpha_walk_batch"]), walk_calls),
        "oracle.build_tables_s": median(secs["oracle.build_tables"]),
        "oracle.table_mb": extra.get("oracle.table_mb", 0.0),
        "oracle.pagerank_s": median(secs["oracle.pagerank"]),
        "cli.import_s": extra.get("cli.import_s", 0.0),
        "trace.overhead_share": extra.get("trace.overhead_share", 0.0),
    }
    for m in METHODS:
        name = f"estimators.{m}"
        qs = by_method[m]
        calls = len(secs[name])
        ns_per_unit = per(sum(secs[name]) * 1e9, work[name])
        out[f"{name}.rel_err_over_c"] = mean(
            (q.rel_err / c for q in qs if q.rel_err is not None))
        out[f"bench.run_experiment.{m}_s"] = median(secs[f"bench.run_experiment.{m}"])
        if m == "setpush":
            pushes = mean(q.pushes for q in qs)
            out.update({
                f"{name}.pushes": pushes,
                f"{name}.rng_draws": mean(q.rng_draws for q in qs),
                f"{name}.ns_per_push": ns_per_unit,
                f"{name}.self_s": per(self_s[name], calls),
                f"{name}.pushes_per_half_edge": pushes / (2 * edge_count),
                f"{name}.p50_ms": median(secs[name]) * 1e3,
            })
        elif m == "reverse_mc":
            out.update({
                f"{name}.walk_steps": mean(q.walk_steps for q in qs),
                f"{name}.ns_per_step": ns_per_unit,
                f"{name}.tally_s": per(self_s[name], calls),
                f"{name}.p50_ms": median(secs[name]) * 1e3,
            })
        else:
            out[f"{name}.{UNIT[m]}"] = mean(getattr(q, UNIT[m]) for q in qs)
            out[f"{name}.ns_per_unit"] = ns_per_unit
    runs = [f"bench.run_experiment.{m}" for m in METHODS]
    out["bench.harness_overhead_s"] = per(sum(self_s[r] for r in runs), passes)
    cli = extra.get("cli_query_s", 0.0)
    estimate = median(secs["estimators.reverse_mc"]) + median(secs["graph.from_original"])
    out["cli.overhead_s"] = cli - out["cli.import_s"] - load_s - estimate if cli else 0.0
    return out
