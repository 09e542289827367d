"""Exact reference computations on small graphs.

Everything here is dense and deterministic: full PageRank by power
iteration, per-hop personalized-PageRank tables, the truncated PageRank
they sum to, and single-source PPR vectors.  These are the ground truth
the estimators' statistical contracts are tested against, not a scalable
product path.  The per-hop tables take (levels+1) * n^2 * 8 bytes and are
gated at 1 GiB (n <= 1562 at the default alpha 0.2 and c 0.1); dense
single-source vectors are gated at n <= 10^4.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

import numpy as np

from .errors import CapacityError, ValidationError
from .graph import Graph

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "OracleTables",
    "DENSE_GATE",
    "TABLE_BYTES_GATE",
    "truncation_levels",
    "pagerank",
    "lhop_ppr_tables",
    "build_tables",
    "ppr_vector",
    "ppr_matrix",
    "write_csv",
]

DENSE_GATE = 10_000
TABLE_BYTES_GATE = 1 << 30


@dataclass
class OracleTables:
    """Dense exact tables for one (graph, alpha, c) configuration.

    ``lhop_ppr[l][s][t]`` is the probability that a discounted walk from
    s terminates at t at exactly step l; ``truncated`` sums those over
    l <= hop_limit and averages over sources.
    """

    pagerank: np.ndarray
    lhop_ppr: np.ndarray  # shape (hop_limit + 1, n, n)
    truncated: np.ndarray
    alpha: float
    hop_limit: int


def truncation_levels(n: int, alpha: float, c: float) -> int:
    """Hop cutoff L = ceil(log_{1-alpha}(c*alpha / 2n)), at least 1.

    Rounding up only tightens the truncation bound.
    """
    ratio = c * alpha / (2.0 * n)
    if ratio >= 1.0:
        return 1
    return max(1, math.ceil(math.log(ratio) / math.log1p(-alpha)))


def _adjacency(g: Graph) -> sp.csr_matrix:
    import scipy.sparse as sp  # deferred: it about doubles the CLI start-up, and only this needs it

    n = g.node_count
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    data = np.ones(g.neighbors.shape[0], dtype=np.float64)
    return sp.csr_matrix((data, (src, g.neighbors)), shape=(n, n))


def _push_forward(g: Graph, x: np.ndarray) -> np.ndarray:
    """Apply the column-stochastic walk operator: out[v] = sum over
    u in N(v) of x[u] / d_u."""
    contrib = x / g.degrees
    return np.add.reduceat(contrib[g.neighbors], g.offsets[:-1])


def pagerank(
    g: Graph, alpha: float, tol: float = 1e-12, max_iter: int = 2000
) -> np.ndarray:
    """Ground-truth PageRank by power iteration from the uniform vector:
    iterate until the max-norm change is at most ``tol`` or ``max_iter``
    updates are done, whichever comes first.  ``tol=0`` runs exactly
    ``max_iter`` updates, short of a fixed point.

    Successive-iterate max-norm differences contract geometrically with
    rate (1 - alpha).
    """
    _check_alpha(alpha)
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    n = g.node_count
    x = np.full(n, 1.0 / n)
    teleport = alpha / n
    for _ in range(max_iter):
        nxt = (1.0 - alpha) * _push_forward(g, x) + teleport
        delta = np.max(np.abs(nxt - x))
        x = nxt
        if delta <= tol:
            break
    return x


def lhop_ppr_tables(g: Graph, alpha: float, levels: int) -> np.ndarray:
    """Dense (levels+1, n, n) array of per-hop PPR values.

    Level 0 is alpha * I; each next level applies the one-hop recursion
    out[t, v] = (1-alpha) * sum over u in N(v) of prev[t, u] / d_u.
    """
    _check_alpha(alpha)
    if levels < 0:
        raise ValidationError("levels must be >= 0")
    n = g.node_count
    nbytes = (levels + 1) * n * n * 8
    if nbytes > TABLE_BYTES_GATE:
        raise CapacityError(
            f"dense per-hop tables for n={n}, levels={levels} need "
            f"{nbytes / 2**30:.2f} GiB, over the {TABLE_BYTES_GATE / 2**30:.0f} GiB "
            "gate; use the estimators for larger graphs"
        )
    adj = _adjacency(g)
    inv_deg = 1.0 / g.degrees
    tables = np.zeros((levels + 1, n, n))
    tables[0] = alpha * np.eye(n)
    for level in range(levels):
        scaled = tables[level] * inv_deg[None, :]
        tables[level + 1] = (1.0 - alpha) * (scaled @ adj)
    return tables


def build_tables(g: Graph, alpha: float, c: float) -> OracleTables:
    """Tables for the hop cutoff implied by (alpha, c), plus ground-truth
    PageRank and the truncated vector."""
    levels = truncation_levels(g.node_count, alpha, c)
    lhop = lhop_ppr_tables(g, alpha, levels)
    truncated = lhop.sum(axis=(0, 1)) / g.node_count
    return OracleTables(
        pagerank=pagerank(g, alpha),
        lhop_ppr=lhop,
        truncated=truncated,
        alpha=alpha,
        hop_limit=levels,
    )


def ppr_vector(
    g: Graph, s: int, alpha: float, tol: float = 1e-15, max_iter: int = 5000
) -> np.ndarray:
    """Single-source PPR by accumulating the discounted walk series."""
    _check_alpha(alpha)
    n = g.node_count
    if n > DENSE_GATE:
        raise CapacityError(f"dense PPR vector gated at n <= {DENSE_GATE} (got {n})")
    g._check_node(s)
    hop = np.zeros(n)
    hop[s] = 1.0
    acc = alpha * hop.copy()
    weight = alpha
    for _ in range(max_iter):
        hop = _push_forward(g, hop)
        weight *= 1.0 - alpha
        acc += weight * hop
        if weight <= tol:
            break
    return acc


def ppr_matrix(g: Graph, alpha: float) -> np.ndarray:
    """All-pairs PPR by direct linear solve; column s is the PPR vector
    of source s.  Verification helper, gated at n <= 2000."""
    _check_alpha(alpha)
    n = g.node_count
    if n > 2000:
        raise CapacityError(f"dense PPR matrix gated at n <= 2000 (got {n})")
    dense = _adjacency(g).toarray()
    walk_op = dense * (1.0 / g.degrees)[None, :]  # [v, u] = A[v,u] / d_u
    return np.linalg.solve(np.eye(n) - (1.0 - alpha) * walk_op, alpha * np.eye(n))


def write_csv(
    out: IO[str],
    g: Graph,
    pagerank_vec: np.ndarray,
    truncated_vec: np.ndarray | None = None,
) -> None:
    """Dump (node_id, pagerank[, truncated]) rows for external diffing."""
    writer = csv.writer(out)
    header = ["node", "pagerank"] + (["truncated"] if truncated_vec is not None else [])
    writer.writerow(header)
    for u in range(g.node_count):
        row: list = [int(g.original_ids[u]), f"{pagerank_vec[u]:.15e}"]
        if truncated_vec is not None:
            row.append(f"{truncated_vec[u]:.15e}")
        writer.writerow(row)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
