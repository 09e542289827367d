"""pushrank benchmark: one workload per process, single client, closed loop.

    python3 perfbench/run.py --workload ring-1e6 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it report the run's facts and the workload's own figures.
Spans, counters and results are written under ``.perfbench_out/``.
``--workload all`` runs every workload in its own process and prints a
table.  See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from importlib.metadata import version
from pathlib import Path

import layers
from measure import Tally, median, mismatches, tail, trim_heap
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ring-1e6", "powerlaw-1e5", "file-query-1e6", "oracle-sweep-1e3")
# BLAS/OpenMP pools pinned to one thread; the bench pool is the only other
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is timed at least 3 times before the loop, in batches of at most 25
# that run on while they total under 0.3 s, and then between requests while
# set-ups stay under a tenth of the loop's time, so that their median spans
# the host's speed over the whole run.
MIN_SETUPS, SETUP_BATCH, MAX_SETUPS = 3, 25, 500
SETUP_BUDGET_S, SETUP_SHARE = 0.3, 0.1
# requests re-run after the loop: one checks the counters; the traced run
# re-runs more, untraced, to measure the tracing overhead
RERUNS, TRACED_RERUNS = 1, 3
END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "p50_ms": "ms",
                    "tail_ms": "ms", "peak_rss_mb": "MB"}


def code_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_counters(path: Path, requests) -> list[str]:
    """Compare this run's counters with an earlier run of the same code and
    seed (the requests both completed), then store the union."""
    mine = {str(i): [list(q.key()) for q in r.queries] for i, r in enumerate(requests)}
    earlier = json.loads(path.read_text()) if path.exists() else {}
    bad = [f"request {i} differs from an earlier run" for i in mine.keys() & earlier.keys()
           if mine[i] != earlier[i]]
    if not bad:
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps({**earlier, **mine}))
        os.replace(tmp, path)
    return bad


def cpu_ticks() -> tuple[int, int]:
    """(stolen, all) clock ticks of the machine's CPUs so far, from
    /proc/stat; (0, 0) where it cannot be read.  Time the hypervisor gave to
    other guests shows as stolen, and slows every request it falls in."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def set_up(wl, setups: list[float], more):
    """Time set-ups into ``setups`` while ``more(k)`` holds for the k done
    in this batch; return the last graph built."""
    g, k = None, 0
    while more(k):
        g = None  # drop the previous graph before building the next
        t0 = time.perf_counter()
        g = wl.setup()
        setups.append(time.perf_counter() - t0)
        k += 1
    return g


def run_one(args) -> int:
    import workloads  # imports numpy: only after the thread variables are pinned

    OUT.mkdir(exist_ok=True)
    digest = code_hash(ROOT / "src")
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT, digest)
    wl.materialize()
    tracer = Tracer() if args.trace else None
    requests = []
    with tracer.installed(workloads.trace_points()) if tracer else nullcontext():
        setups: list[float] = []
        g = set_up(wl, setups, lambda k: k < MIN_SETUPS or (
            k < SETUP_BATCH and sum(setups) < SETUP_BUDGET_S))
        wl.prepare(g)
        traced = len(tracer.spans) if tracer else 0
        wl.warm_up()
        if tracer:
            del tracer.spans[traced:]
        ticks = cpu_ticks()
        start = time.perf_counter()
        deadline = start + args.seconds

        def between(k):
            return (k < SETUP_BATCH and len(setups) < MAX_SETUPS
                    and sum(setups) < SETUP_SHARE * (time.perf_counter() - start))

        while not requests or time.perf_counter() < deadline:
            i = len(requests)
            if tracer:
                tracer.set_query(i)
            t0 = time.perf_counter()
            queries = wl.request(i)
            requests.append(workloads.Request(time.perf_counter() - t0, queries))
            if between(0):
                # the batch starts and ends on a trimmed heap, so that its
                # graphs add to the peak RSS the same way every time
                trim_heap()
                set_up(wl, setups, between)
                trim_heap()
    stolen, total = (b - a for a, b in zip(ticks, cpu_ticks()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = wl.report(requests)

    # the same code and seed must repeat every counter and value bit
    if wl.repeats_requests and len(requests) > 1 and not tracer:
        pairs = [(requests[0], r) for r in requests[1:]]
    else:
        reruns = TRACED_RERUNS if tracer and not wl.repeats_requests else RERUNS
        last = range(max(0, len(requests) - reruns), len(requests))
        pairs = [wl.rerun(i, requests[i]) for i in last]
    problems = [p for a, b in pairs for p in mismatches(a.queries, b.queries)]
    problems += check_counters(OUT / f"counters-{wl.name}-{args.seed}-{digest[:12]}.json",
                               requests)
    wl.finish(bool(tracer))

    tally = Tally()
    for r in requests:
        tally.add(r.queries)
    latencies = [r.seconds for r in requests]
    answered = tally.attempted - tally.failed
    t = tail(latencies)
    report.update(failed_share=tally.failed_share, requests=len(requests),
                  tail_percentile=t.percentile, tail_samples=t.samples,
                  setups=len(setups), setup_s=median(setups))
    facts = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "threads": wl.threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "code_sha256": digest, "steal_share": stolen / total if total else 0.0,
        **wl.facts,
    }
    if tracer:
        traced = sum(a.seconds for a, _ in pairs)
        untraced = sum(b.seconds for _, b in pairs)
        extra = {**wl.layers, **wl.facts, **report,
                 "trace.overhead_share": traced / untraced - 1.0}
        metrics = layers.derive(tracer.spans, [q for r in requests for q in r.queries],
                                g.edge_count, len(requests), workloads.CFG.c, extra)
        metrics = {k: metrics[k] for k in layers.PER_LAYER}
        units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
        tracer.write(OUT / f"spans-{wl.name}.json")
        report["spans"] = len(tracer.spans)
    else:
        metrics = {
            "setup_s": median(setups),
            "queries_per_s": answered / sum(latencies),
            "p50_ms": median(latencies) * 1e3,
            "tail_ms": t.value * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    correct = not problems and tally.failed == 0
    result = {
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"facts": facts, "report": report, "problems": problems,
                    "errors": tally.errors, "latencies_s": latencies, **result}, indent=1))
    print("facts " + json.dumps(facts, sort_keys=True))
    for key, value in report.items():
        print(f"report {key} {value}")
    for p in problems + tally.errors:
        print(f"problem {p}")
    for key, m in result["metrics"].items():
        print(f"metric {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table of metrics."""
    status, rows = 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith("report ") or line.startswith("problem "):
                print(f"{name} {line}")
        try:
            rows[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name} failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        status = status or proc.returncode
    if not rows:
        return 1
    first = next(iter(rows.values()))["metrics"]
    print(f"{'metric':40}" + "".join(f"{n:>20}" for n in rows) + "  unit")
    for k, m in first.items():
        cells = "".join(f"{r['metrics'][k]['value']:>20.6g}" for r in rows.values())
        print(f"{k:40}{cells}  {m['unit']}")
    for n, r in rows.items():
        print(f"{n}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pushrank" / "__init__.py").is_file():
        print(f"error: no pushrank sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import pushrank

    if Path(pushrank.__file__).resolve().parent != (src / "pushrank").resolve():
        print(f"error: imported pushrank from {pushrank.__file__}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
