"""Latency statistics and answer accounting shared by every workload.

A *query* is one estimate of one node's PageRank (an in-process estimator
call, a CLI subprocess, or one record of a bench sweep).  A query fails if
it raises, returns a non-finite or non-positive value, or misses the
paper's failure event: relative error against the exact PageRank above c.
"""
from __future__ import annotations

import ctypes
import math
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

MIN_BEYOND = 10
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only


def trim_heap() -> None:
    """Hand the heap's free pages back to the OS (glibc ``malloc_trim``), so
    that the next allocations add to resident memory as in a fresh process."""
    if _malloc_trim is not None:
        _malloc_trim(0)


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile it sits at and the sample count."""

    value: float
    percentile: float
    samples: int


def tail(values: Sequence[float]) -> Tail:
    """Value at the highest percentile with at least ten samples beyond it.

    By nearest rank, the p-th percentile of n sorted samples is the
    ceil(p*n/100)-th smallest, with n - ceil(p*n/100) samples beyond it, so
    the highest rank that leaves ten beyond is n - 10.  Below 21 samples
    that rank is not above the middle; the tail is then the upper middle
    sample (rank n//2 + 1), so that it never reads below the median.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    rank = max(n - MIN_BEYOND, n // 2 + 1)
    return Tail(xs[rank - 1], 100.0 * rank / n, n)


def median(values: Iterable[float], default: float = 0.0) -> float:
    xs = list(values)
    return statistics.median(xs) if xs else default


@dataclass
class Query:
    """One answered (or failed) query and the counters it reported."""

    method: str
    target: int
    stream: int
    value: float | None = None
    pushes: int = 0
    walk_steps: int = 0
    rng_draws: int = 0
    seconds: float = 0.0
    rel_err: float | None = None
    error: str | None = None

    def key(self) -> tuple:
        """Everything that must repeat exactly when the query is re-run."""
        bits = None if self.value is None else struct.pack("<d", self.value).hex()
        return (
            self.method,
            self.target,
            self.stream,
            bits,
            self.pushes,
            self.walk_steps,
            self.rng_draws,
        )


def timed_call(fn: Callable, *args, **kwargs) -> tuple[object, float, str | None]:
    """Call ``fn``; return (result, seconds, error).  A raising call is an
    answer that failed, so the exception is caught and described here."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the run goes on and counts the failure
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - t0, None


def judge(query: Query, truth: float, c: float) -> Query:
    """Set ``rel_err`` and, if the answer misses the contract, ``error``."""
    if query.error is not None:
        return query
    value = query.value
    if value is None or not math.isfinite(value) or value <= 0.0:
        query.error = f"non-finite or non-positive value {value!r}"
        return query
    query.rel_err = abs(value - truth) / truth
    if query.rel_err > c:
        query.error = f"relative error {query.rel_err:.4g} above c={c}"
    return query


def estimate_query(
    fn: Callable, method: str, g, target: int, cfg, rng, truth: float
) -> Query:
    """Run one in-process estimator call, time it, and judge its answer."""
    est, seconds, error = timed_call(fn, g, target, cfg, rng=rng)
    q = Query(method, target, int(rng.stream_id), seconds=seconds, error=error)
    if est is not None:
        q.value = est.value
        q.pushes, q.walk_steps, q.rng_draws = est.pushes, est.walk_steps, est.rng_draws
    return judge(q, truth, cfg.c)


@dataclass
class Tally:
    """Failed queries counted against queries attempted."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, queries: Iterable[Query]) -> None:
        for q in queries:
            self.attempted += 1
            if q.error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{q.method} target {q.target}: {q.error}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def mismatches(first: Sequence[Query], second: Sequence[Query]) -> list[str]:
    """Describe every query whose re-run did not repeat it exactly."""
    if len(first) != len(second):
        return [f"re-run gave {len(second)} queries, first run {len(first)}"]
    return [
        f"{a.method} target {a.target} stream {a.stream}: {a.key()} != {b.key()}"
        for a, b in zip(first, second)
        if a.key() != b.key()
    ]
