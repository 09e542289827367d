"""Command-line front end.

Subcommands: query (one estimate), oracle (exact CSV dump), bench
(experiment sweep), gen (write a generated graph), validate (check an
edge list).  Exit codes: 0 ok, 1 validation/config/capacity error or
out of memory, 2 I/O error, 3 internal contract violation.

``--json`` output is schema-stable, sorted-key, and excludes wall-clock
timing, so the same --seed reproduces byte-identical bytes; the plain
text output is for humans and not a compatibility surface.
"""
from __future__ import annotations

import functools
import io
import json
import os
import sys
from pathlib import Path

import click

from .bench import (
    ExperimentSpec,
    TargetPolicy,
    _extra_fields,
    load_graph_source,
    run_experiment,
    summarize,
    write_records_csv,
    write_summary_json,
)
from .errors import ContractViolationError, PushrankError, ValidationError
from .estimators import ESTIMATORS, EstimatorConfig, amplified, default_groups
from .graph import check_invariants, dump_edge_list, generate
from .oracle import pagerank, truncated_pagerank, truncation_levels, write_csv
from .sampling import RngStream

_METHODS = sorted(ESTIMATORS)


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ContractViolationError as exc:
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(3)
        except PushrankError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except MemoryError as exc:  # e.g. a tiny c's walk count; numpy names the size
            click.echo(f"error: out of memory: {exc}", err=True)
            sys.exit(1)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _load(graph: str | None, gen: str | None):
    if (graph is None) == (gen is None):
        raise ValidationError("exactly one of --graph or --gen is required")
    if gen is not None:
        return generate(gen)
    return load_graph_source(f"file:{graph}")


@click.group()
@click.version_option()
def main():
    """Single-node PageRank estimation on undirected graphs."""


@main.command()
@click.option("--graph", type=click.Path(), help="Edge-list file.")
@click.option("--gen", "genspec", help="Generator spec, e.g. power_law:10000:2.5:7.")
@click.option("--target", required=True, type=int, help="Target node (original id).")
@click.option("--method", required=True, type=click.Choice(_METHODS))
@click.option("--alpha", default=0.2, show_default=True, help="Teleport probability.")
@click.option("--c", default=0.1, show_default=True, help="Relative error target.")
@click.option("--pf", default=0.1, show_default=True, help="Failure probability.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--theta", type=float, default=None, help="Push threshold override (setpush).")
@click.option("--walks", type=int, default=None, help="Walk count override (MC methods).")
@click.option("--reps", type=int, default=None, help="Median-of-means repetitions.")
@click.option("--groups", type=int, default=None, help="Median-of-means groups.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@_exit_codes
def query(graph, genspec, target, method, alpha, c, pf, seed, theta, walks, reps, groups, as_json):
    """Estimate one node's PageRank."""
    g = _load(graph, genspec)
    node = g.from_original(target)
    cfg = EstimatorConfig(alpha=alpha, c=c, failure_prob=pf)
    rng = RngStream(seed, 0)
    fn = ESTIMATORS[method]
    extras = {k: v for k, v in (("theta", theta), ("walks", walks)) if v is not None}
    for key in extras:
        if key not in _extra_fields(method):
            raise ValidationError(f"--{key} does not apply to {method}")

    if reps is not None:
        if groups is None:
            groups = default_groups(pf, reps)
        est = amplified(fn, g, node, cfg, rng, repetitions=reps, groups=groups, **extras)
    else:
        if groups is not None:
            raise ValidationError("--groups requires --reps")
        est = fn(g, node, cfg, rng=rng, **extras)

    derived = {"levels": cfg.levels(g.node_count), **est.derived}

    if as_json:
        doc = {
            "schema_version": 1,
            "method": method,
            "target": target,
            "value": est.value,
            "derived": derived,
            "config": {"alpha": alpha, "c": c, "failure_prob": pf, "seed": seed},
            "counters": {
                "pushes": est.pushes,
                "walk_steps": est.walk_steps,
                "rng_draws": est.rng_draws,
            },
            "graph": {"n": g.node_count, "m": g.edge_count},
        }
        click.echo(json.dumps(doc, sort_keys=True))
    else:
        click.echo(f"method      {method}")
        click.echo(f"target      {target} (degree {g.degree(node)})")
        click.echo(f"value       {est.value:.12e}")
        for key, val in derived.items():
            click.echo(f"{key:<11} {val}")
        click.echo(
            f"counters    pushes={est.pushes} walk_steps={est.walk_steps} "
            f"rng_draws={est.rng_draws}"
        )
        click.echo(f"wall_ms     {est.wall_nanos / 1e6:.3f}")


@main.command()
@click.option("--graph", type=click.Path())
@click.option("--gen", "genspec")
@click.option("--alpha", default=0.2, show_default=True)
@click.option("--c", default=0.1, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="CSV path (default stdout).")
@_exit_codes
def oracle(graph, genspec, alpha, c, out):
    """Exact PageRank and truncated PageRank as CSV."""
    g = _load(graph, genspec)
    truncated = truncated_pagerank(g, alpha, truncation_levels(g.node_count, alpha, c))
    buf = io.StringIO()
    write_csv(buf, g, pagerank(g, alpha), truncated)
    if out is None:
        click.echo(buf.getvalue(), nl=False)
    else:
        Path(out).write_text(buf.getvalue(), encoding="utf-8")
        click.echo(f"wrote {out}", err=True)


@main.command()
@click.option("--spec", "spec_path", type=click.Path(), help="ExperimentSpec JSON file.")
@click.option("--graph", type=click.Path())
@click.option("--gen", "genspec")
@click.option("--method", type=click.Choice(_METHODS))
@click.option("--targets", default="uniform:10", show_default=True,
              help="Policy kind:count (uniform | degree_weighted | degree_buckets).")
@click.option("--reps", default=1, show_default=True, type=int)
@click.option("--alpha", default=0.2, show_default=True)
@click.option("--c", default=0.1, show_default=True)
@click.option("--pf", default=0.1, show_default=True)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--threads", default=None, type=int,
              help="Worker pool size for repetitions (default: available cores).")
@click.option("--no-oracle", is_flag=True, help="Skip exact-error columns.")
@click.option("--out-dir", required=True, type=click.Path())
@_exit_codes
def bench(spec_path, graph, genspec, method, targets, reps, alpha, c, pf, seed,
          threads, no_oracle, out_dir):
    """Run an experiment sweep; writes records.csv and summary.json."""
    if spec_path is not None:
        spec = ExperimentSpec.from_json(Path(spec_path).read_text(encoding="utf-8"))
        g = load_graph_source(spec.graph)
    else:
        if method is None:
            raise ValidationError("--method is required without --spec")
        g = _load(graph, genspec)
        kind, _, count = targets.partition(":")
        try:
            policy = TargetPolicy(kind, int(count or 10), seed)
        except ValueError:
            raise ValidationError(
                f"--targets count must be an integer, got {targets!r}"
            ) from None
        source = f"gen:{genspec}" if genspec is not None else f"file:{graph}"
        spec = ExperimentSpec(
            graph=source,
            estimator=method,
            policy=policy,
            configs=[{"alpha": alpha, "c": c, "failure_prob": pf}],
            repetitions=reps,
            seed=seed,
            oracle=not no_oracle,
        )
    if threads is None:
        threads = os.cpu_count() or 1
    records = run_experiment(spec, g=g, threads=threads)
    summaries = summarize(records, spec.configs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "records.csv", "w", encoding="utf-8", newline="") as fh:
        write_records_csv(records, fh)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        write_summary_json(summaries, fh, spec)
    click.echo(f"wrote {out / 'records.csv'} ({len(records)} records)", err=True)
    click.echo(f"wrote {out / 'summary.json'}", err=True)


@main.command()
@click.argument("genspec")
@click.option("--out", required=True, type=click.Path())
@_exit_codes
def gen(genspec, out):
    """Generate a graph and write its canonical edge list."""
    g = generate(genspec)
    with open(out, "w", encoding="utf-8") as fh:
        dump_edge_list(g, fh)
    click.echo(f"wrote {out}: n={g.node_count} m={g.edge_count}", err=True)


@main.command()
@click.option("--graph", required=True, type=click.Path())
@_exit_codes
def validate(graph):
    """Check a graph file against the structural invariants."""
    g = load_graph_source(f"file:{graph}")
    check_invariants(g)
    stats = g.stats()
    click.echo(f"nodes       {g.node_count}")
    click.echo(f"edges       {g.edge_count}")
    click.echo(f"avg_degree  {stats.avg_degree:.4f}")
    click.echo(f"min_degree  {stats.min_degree}")
    click.echo(f"max_degree  {stats.max_degree}")
    if g.self_loops_dropped:
        click.echo(f"warning: dropped {g.self_loops_dropped} self-loop(s)", err=True)
    click.echo("ok")


if __name__ == "__main__":
    main()
