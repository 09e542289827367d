"""The four benchmark workloads.

Each workload is a single client in a closed loop: run.py times one
request, then sends the next.  A request is the unit a user waits for:

* ``ring-1e6``: one target answered by ``setpush`` and then by
  ``reverse-mc`` (two queries);
* ``powerlaw-1e5``: one target from every degree band, each answered the
  same way;
* ``file-query-1e6``: one ``pushrank query`` subprocess on a text edge list;
* ``oracle-sweep-1e3``: ``oracle.build_tables`` followed by
  ``bench.run_experiment`` and ``bench.summarize`` for all four estimators.

Inputs depend only on the seed.  In-process query q uses RngStream(seed, q);
a CLI query can only set ``--seed``, so CLI query i runs with seed
``seed * 100000 + i`` and is compared bit for bit with an in-process run on
RngStream(seed * 100000 + i, 0).  Every estimator runs at the default
config (alpha 0.2, c 0.1, failure_prob 0.1).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pushrank import bench, estimators, graph, oracle, sampling
from pushrank.bench import ExperimentSpec, TargetPolicy

from measure import Query, estimate_query, judge, median, tail, timed_call, trim_heap
from spans import Point

CFG = estimators.EstimatorConfig()
SWEEP_METHODS = ("setpush", "reverse-mc", "local-push", "forward-mc")
WARM_UP_STREAM = 1 << 62


@dataclass
class Request:
    seconds: float
    queries: list[Query]


def _work(args, kwargs, est) -> int:
    return est.pushes + est.walk_steps


def trace_points() -> list[Point]:
    """The public functions the traced run wraps, at the bindings the
    library itself calls them through."""
    points = [
        Point(graph, "generate", "graph.generate"),
        Point(graph, "load_edge_list", "graph.load_edge_list"),
        Point(graph.Graph, "from_original", "graph.from_original"),
        Point(sampling.RngStream, "uniforms", "sampling.uniforms",
              work=lambda args, kwargs, out: int(args[1] if len(args) > 1 else kwargs["size"])),
        Point(estimators, "alpha_walk_batch", "sampling.alpha_walk_batch"),
        Point(oracle, "pagerank", "oracle.pagerank"),
        Point(bench, "pagerank", "oracle.pagerank"),
        Point(oracle, "build_tables", "oracle.build_tables"),
        Point(bench, "run_experiment",
              lambda args, kwargs: "bench.run_experiment." + args[0].estimator.replace("-", "_")),
        Point(bench, "summarize", "bench.summarize"),
    ]
    for method in estimators.ESTIMATORS:
        name = "estimators." + method.replace("-", "_")
        points.append(Point(estimators.ESTIMATORS, method, name, work=_work, new_query=True))
    return points


class Workload:
    name = ""
    spec = ""
    # every request repeats the same queries, so requests check each other
    repeats_requests = False

    def __init__(self, seed: int, root: Path, out_dir: Path, code_hash: str):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.code_hash = code_hash
        self.threads = 1
        self.facts: dict = {}
        self.layers: dict[str, float] = {}

    def materialize(self) -> None:
        """Create inputs that set-up reads (untimed, untraced)."""

    def setup(self) -> graph.Graph:
        """Everything until the graph can be queried; timed and repeated."""
        return graph.generate(self.spec)

    def prepare(self, g: graph.Graph) -> None:
        """Untimed: ground truth and targets."""
        self.g = g
        self.truth = oracle.pagerank(g, CFG.alpha)
        self.facts.update(graph=self.spec, n=g.node_count, m=g.edge_count)

    def warm_up(self) -> None:
        """Untimed and untraced: work done once before the loop."""

    def request(self, i: int) -> list[Query]:
        raise NotImplementedError

    def rerun(self, i: int, first: Request) -> tuple[Request, Request]:
        """(what request i recorded, the same request run again)."""
        t0 = time.perf_counter()
        queries = self.request(i)
        return first, Request(time.perf_counter() - t0, queries)

    def report(self, requests: list[Request]) -> dict:
        return {}

    def finish(self, trace: bool) -> None:
        """Measurements taken after the loop (untimed)."""


def _latency(queries: list[Query], method: str) -> dict:
    ms = [q.seconds * 1e3 for q in queries if q.method == method and q.error is None]
    if not ms:
        return {}
    key = method.replace("-", "_")
    t = tail(ms)
    return {
        f"{key}_p50_ms": median(ms),
        f"{key}_tail_ms": t.value,
        f"{key}_tail_percentile": t.percentile,
        f"{key}_samples": t.samples,
    }


class EstimatorPairs(Workload):
    """Each request answers a fixed-size group of targets, each with
    setpush and then reverse-mc; query q of the run uses RngStream(seed, q)."""

    methods = ("setpush", "reverse-mc")

    def prepare(self, g):
        super().prepare(g)
        self.groups = self.pick_targets(g)
        self.facts.update(targets=sum(map(len, self.groups)),
                          targets_per_request=len(self.groups[0]))

    def pick_targets(self, g) -> list[list[int]]:
        """The requests' target groups, all of one size, in request order."""
        raise NotImplementedError

    def warm_up(self):
        """Answer the highest-degree node once.  Its reverse-mc walks need
        the most memory, so every run reaches its peak RSS here, however
        many requests it completes; its streams lie outside the requests'.
        A failure here is left to the requests to count."""
        hub = int(np.argmax(self.g.degrees))
        for k, m in enumerate(self.methods):
            timed_call(estimators.ESTIMATORS[m], self.g, hub, CFG,
                       rng=sampling.RngStream(self.seed, WARM_UP_STREAM + k))

    def request(self, i):
        group = self.groups[i % len(self.groups)]
        first = i * len(group) * len(self.methods)
        return [
            estimate_query(
                estimators.ESTIMATORS[m], m, self.g, t, CFG,
                sampling.RngStream(self.seed, first + j * len(self.methods) + k),
                float(self.truth[t]),
            )
            for j, t in enumerate(group)
            for k, m in enumerate(self.methods)
        ]

    def report(self, requests):
        queries = [q for r in requests for q in r.queries]
        out = {}
        for m in self.methods:
            out.update(_latency(queries, m))
        return out


class Ring(EstimatorPairs):
    name = "ring-1e6"
    spec = "ring:1000000"

    def pick_targets(self, g):
        picks = bench.select_targets(g, TargetPolicy("uniform", 64, self.seed))
        return [[u] for u, _ in picks]


class PowerLaw(EstimatorPairs):
    name = "powerlaw-1e5"
    spec = "power_law:100000:2.5:7"

    def pick_targets(self, g):
        """16 targets per nonempty degree band, one from each degree
        stratum of the band.  A request takes one target from every band,
        all from the same stratum, and the requests visit the strata in an
        order whose every prefix spreads over each band's degree range.
        Targets differ in cost by more than 10x, so a request that covers
        every band varies far less than one target would, and a run covers
        the same mix of degrees whatever its seed and however many requests
        it completes."""
        rng = np.random.default_rng(self.seed)
        strata = 16
        order = [int(f"{j:04b}"[::-1], 2) for j in range(strata)]  # bit reversal
        bands = []
        for members in bench.bucket_members(g):
            if members.size == 0:
                continue
            ranked = members[np.lexsort((rng.random(members.size), g.degrees[members]))]
            pos = ((np.arange(strata) + rng.random(strata)) * ranked.size / strata).astype(int)
            bands.append([int(ranked[pos[j]]) for j in order])
        return [[band[k] for band in bands] for k in range(strata)]


class FileQuery(Workload):
    name = "file-query-1e6"
    spec = "power_law:1000000:2.5:7"

    def __init__(self, *args):
        super().__init__(*args)
        self.refs: dict[int, Request] = {}
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def materialize(self):
        # keyed by the source hash: the generator is part of the code
        self.path = self.out_dir / f"edges-{self.code_hash[:12]}.txt"
        if not self.path.exists():
            for stale in self.out_dir.glob("edges-*"):
                stale.unlink()
            g = graph.generate(self.spec)
            tmp = self.path.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "w", encoding="utf-8") as fh:
                graph.dump_edge_list(g, fh)
            os.replace(tmp, self.path)
        self.facts["edge_list_bytes"] = self.path.stat().st_size

    def setup(self):
        with open(self.path, "r", encoding="utf-8") as fh:
            return graph.load_edge_list(fh)

    def prepare(self, g):
        super().prepare(g)
        low = np.flatnonzero(g.degrees <= 2)
        picks = np.random.default_rng(self.seed).choice(low, size=16, replace=False)
        self.picks = [(int(u), int(g.original_ids[u])) for u in picks]

    def _query_seed(self, i):
        return self.seed * 100_000 + i

    def reference(self, i) -> Query:
        label, s = self.picks[i % len(self.picks)][1], self._query_seed(i)
        node, lookup_s, error = timed_call(self.g.from_original, label)
        if error is not None:
            return Query("reverse-mc", label, s, error=error, seconds=lookup_s)
        q = estimate_query(
            estimators.ESTIMATORS["reverse-mc"], "reverse-mc", self.g, node, CFG,
            sampling.RngStream(s, 0), float(self.truth[node]),
        )
        q.target, q.stream, q.seconds = label, s, q.seconds + lookup_s
        return q

    def request(self, i):
        node, label = self.picks[i % len(self.picks)]
        s = self._query_seed(i)
        cmd = [sys.executable, "-m", "pushrank.cli", "query", "--graph", str(self.path),
               "--target", str(label), "--method", "reverse-mc", "--seed", str(s), "--json"]
        q = Query("reverse-mc", label, s)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=self.root, timeout=150)
        except subprocess.TimeoutExpired:
            proc = None
        q.seconds = time.perf_counter() - t0
        ref = self.reference(i)
        self.refs[i] = Request(ref.seconds, [ref])
        if proc is None:
            q.error = "CLI query timed out"
        elif proc.returncode != 0:
            q.error = f"CLI exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        else:
            try:
                doc = json.loads(proc.stdout)
                q.value = doc["value"]
                counters = doc["counters"]
                q.pushes, q.walk_steps, q.rng_draws = (
                    counters["pushes"], counters["walk_steps"], counters["rng_draws"])
            except (ValueError, KeyError, TypeError) as exc:
                q.error = f"CLI output unreadable: {exc}"
            else:
                if q.key() != ref.key():
                    q.error = f"CLI answer {q.key()} differs from in-process {ref.key()}"
        return [judge(q, float(self.truth[node]), CFG.c)]

    def rerun(self, i, first):
        ref = self.reference(i)
        return self.refs[i], Request(ref.seconds, [ref])

    def report(self, requests):
        cli = [r.seconds for r in requests]
        refs = [q for r in self.refs.values() for q in r.queries]
        out = {"cli_query_s": median(cli), "cli_samples": len(cli)}
        out.update(_latency(refs, "reverse-mc"))
        return out

    def finish(self, trace):
        if trace:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", "import pushrank.cli"], env=self.env,
                               cwd=self.root, check=True, timeout=60)
                times.append(time.perf_counter() - t0)
            self.layers["cli.import_s"] = median(times)


class OracleSweep(Workload):
    name = "oracle-sweep-1e3"
    spec = "power_law:1000:2.5:13"
    repeats_requests = True

    def prepare(self, g):
        super().prepare(g)
        self.threads = os.cpu_count() or 1
        self.specs = [
            ExperimentSpec(graph=f"gen:{self.spec}", estimator=m,
                           policy=TargetPolicy("degree_buckets", 1, self.seed),
                           repetitions=2, seed=self.seed, oracle=True)
            for m in SWEEP_METHODS
        ]
        spec = self.specs[0]
        self.expected = len(bench.select_targets(g, spec.policy)) * spec.repetitions
        self.oracle_s: list[float] = []
        self.sweep_s: list[float] = []
        self.method_s: dict[str, list[float]] = {m: [] for m in SWEEP_METHODS}
        self.facts.update(bench_threads=self.threads, records_per_method=self.expected)

    def _oracle_query(self) -> Query:
        tables, seconds, error = timed_call(oracle.build_tables, self.g, CFG.alpha, CFG.c)
        self.oracle_s.append(seconds)
        q = Query("oracle", -1, 0, seconds=seconds, error=error)
        if tables is None:
            return q
        levels, n, _ = tables.lhop_ppr.shape
        self.layers["oracle.table_mb"] = levels * n * n * 8 / 1e6
        q.value = float(tables.truncated.sum())
        gap = np.abs(tables.truncated - self.truth) / self.truth
        if not np.array_equal(tables.pagerank, self.truth):
            q.error = "build_tables pagerank differs from oracle.pagerank"
        elif gap.max() > CFG.c / 2:
            q.error = f"truncated PageRank {gap.max():.3g} from PageRank, above c/2"
        return q

    def request(self, i):
        # Each pass starts from a trimmed heap, close to what a fresh
        # `pushrank oracle` process would have: without this, freed sweep
        # arrays that glibc kept add a thread-timing-dependent amount to the
        # tables' peak memory.  Trimming does not reach all of it: the bench
        # workers' own arenas can still keep 20-40 MB after some passes, so
        # peak RSS here takes one of a few levels 5-15% apart.
        trim_heap()
        queries = [self._oracle_query()]
        t0 = time.perf_counter()
        for spec in self.specs:
            t1 = time.perf_counter()
            records, _, error = timed_call(bench.run_experiment, spec, g=self.g,
                                           threads=self.threads)
            if records is not None:
                summaries, _, error = timed_call(bench.summarize, records, spec.configs)
                if error is None and sum(s.runs for s in summaries) != len(records):
                    error = "summarize lost records"
            self.method_s[spec.estimator].append(time.perf_counter() - t1)
            if error is not None:
                queries += [Query(spec.estimator, -1, k, error=error) for k in range(self.expected)]
                continue
            for r in records:
                q = Query(r.estimator, r.target, r.stream_id, value=r.value, pushes=r.pushes,
                          walk_steps=r.walk_steps, rng_draws=r.rng_draws,
                          seconds=r.wall_nanos / 1e9)
                truth = float(self.truth[r.target])
                if r.oracle_value != truth:
                    q.error = f"record oracle value {r.oracle_value!r} != {truth!r}"
                queries.append(judge(q, truth, CFG.c))
        self.sweep_s.append(time.perf_counter() - t0)
        return queries

    def report(self, requests):
        out = {"oracle_s": median(self.oracle_s), "sweep_s": median(self.sweep_s),
               "passes": len(requests)}
        for m, xs in self.method_s.items():
            out[f"run_experiment_{m.replace('-', '_')}_s"] = median(xs)
        return out


WORKLOADS = {w.name: w for w in (Ring, PowerLaw, FileQuery, OracleSweep)}

