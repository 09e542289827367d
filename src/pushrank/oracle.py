"""Exact reference computations.

Everything here is deterministic: full PageRank by power iteration, the
truncated PageRank, per-hop personalized-PageRank tables and
single-source PPR vectors.  These are the ground truth the estimators'
statistical contracts are tested against.  PageRank and the truncated
vector are sparse recursions costing O(m) per iteration or level, with no
size gate, and a single-source PPR vector is n floats, built the same way.
Only the per-hop tables and the all-pairs matrix are dense: the tables
take (levels+1) * n^2 * 8 bytes and are gated at 1 GiB (n <= 1562 at the
default alpha 0.2 and c 0.1); the matrix is gated at n <= 2000.
"""
from __future__ import annotations

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
    "TABLE_BYTES_GATE",
    "truncation_levels",
    "pagerank",
    "truncated_pagerank",
    "lhop_ppr_tables",
    "build_tables",
    "ppr_vector",
    "ppr_matrix",
    "write_csv",
]

TABLE_BYTES_GATE = 1 << 30

# power iteration stops at this max-norm change, or after this many updates
_PAGERANK_TOL = 1e-12
_PAGERANK_MAX_ITER = 2000
# a PPR vector sums walk lengths until the discount falls to this, or this many
_PPR_TOL = 1e-15
_PPR_MAX_ITER = 5000


@dataclass
class OracleTables:
    """Dense exact tables for one (graph, alpha, c) configuration.

    ``lhop_ppr[l][s][t]`` is the probability that a discounted walk from
    s terminates at t at exactly step l; ``truncated`` sums those over
    l <= levels, the hop cutoff of (alpha, c), and averages over sources.
    ``lhop_ppr`` is the non-contiguous transposed view that
    ``lhop_ppr_tables`` returns.
    """

    pagerank: np.ndarray
    lhop_ppr: np.ndarray  # shape (levels + 1, n, n)
    truncated: np.ndarray


def truncation_levels(n: int, alpha: float, c: float) -> int:
    """Hop cutoff L = ceil(log_{1-alpha}(c*alpha / 2n)), at least 1.

    Rounding up only tightens the truncation bound.
    """
    _check_alpha(alpha)
    if not 0.0 < c < math.inf:
        raise ValidationError(f"relative error c must be finite and > 0, got {c}")
    ratio = c * alpha / (2.0 * n)
    if ratio >= 1.0:
        return 1
    return max(1, math.ceil(math.log(ratio) / math.log1p(-alpha)))


def _walk_matrix(g: Graph) -> sp.csr_matrix:
    """The column-stochastic walk operator as CSR: row v holds
    walk[v, u] = 1/d_u for every u in N(v), in ascending u."""
    import scipy.sparse as sp  # deferred: it about doubles the CLI start-up, and only this needs it

    n = g.node_count
    inv_deg = 1.0 / g.degrees
    return sp.csr_matrix((inv_deg[g.neighbors], g.neighbors, g.offsets), shape=(n, n))


def _push_forward(g: Graph, x: np.ndarray) -> np.ndarray:
    """Apply the column-stochastic walk operator: out[v] = sum over
    u in N(v) of x[u] / d_u."""
    contrib = x / g.degrees
    return np.add.reduceat(contrib[g.neighbors], g.offsets[:-1])


def pagerank(g: Graph, alpha: float) -> np.ndarray:
    """Ground-truth PageRank by power iteration from the uniform vector:
    iterate until the max-norm change is at most 1e-12 or 2000 updates
    are done, whichever comes first.

    Successive-iterate max-norm differences contract geometrically with
    rate (1 - alpha).
    """
    _check_alpha(alpha)
    n = g.node_count
    x = np.full(n, 1.0 / n)
    teleport = alpha / n
    for _ in range(_PAGERANK_MAX_ITER):
        nxt = (1.0 - alpha) * _push_forward(g, x) + teleport
        delta = np.max(np.abs(nxt - x))
        x = nxt
        if delta <= _PAGERANK_TOL:
            break
    return x


def truncated_pagerank(g: Graph, alpha: float, levels: int) -> np.ndarray:
    """Truncated PageRank, the sum over l <= levels of x_l, where
    x_0 = alpha/n everywhere and x_{l+1} = (1-alpha) * walk x_l: the
    per-hop tables summed over levels and averaged over sources, in
    O(levels * m) time and O(n) memory."""
    _check_levels(alpha, levels)
    x = np.full(g.node_count, alpha / g.node_count)
    acc = x.copy()
    for _ in range(levels):
        x = (1.0 - alpha) * _push_forward(g, x)
        acc += x
    return acc


def lhop_ppr_tables(g: Graph, alpha: float, levels: int) -> np.ndarray:
    """Dense (levels+1, n, n) array of per-hop PPR values, [l][s][t].

    Level 0 is alpha * I; each next level applies the one-hop recursion
    out[s, v] = (1-alpha) * sum over u in N(v) of prev[s, u] / d_u.  The
    tables are built transposed, as [l][t][s], so that a level is one
    sparse product walk @ prev with no transposed copies; the result is
    the non-contiguous view ``.transpose(0, 2, 1)`` of that array.
    """
    _check_levels(alpha, levels)
    n = g.node_count
    nbytes = (levels + 1) * n * n * 8
    if nbytes > TABLE_BYTES_GATE:
        raise CapacityError(
            f"dense per-hop tables for n={n}, levels={levels} need "
            f"{nbytes / 2**30:.2f} GiB, over the {TABLE_BYTES_GATE / 2**30:.0f} GiB "
            "gate; use the estimators for larger graphs"
        )
    walk = _walk_matrix(g)
    hops = np.zeros((levels + 1, n, n))
    np.fill_diagonal(hops[0], alpha)
    for level in range(levels):
        np.multiply(walk @ hops[level], 1.0 - alpha, out=hops[level + 1])
    return hops.transpose(0, 2, 1)


def build_tables(g: Graph, alpha: float, c: float) -> OracleTables:
    """Tables for the hop cutoff implied by (alpha, c), plus ground-truth
    PageRank and the truncated vector."""
    levels = truncation_levels(g.node_count, alpha, c)
    return OracleTables(
        pagerank=pagerank(g, alpha),
        lhop_ppr=lhop_ppr_tables(g, alpha, levels),
        truncated=truncated_pagerank(g, alpha, levels),
    )


def ppr_vector(g: Graph, s: int, alpha: float) -> np.ndarray:
    """Single-source PPR by accumulating the discounted walk series, up
    to the walk length whose discount alpha (1-alpha)^l is at most 1e-15
    (at most 5000 lengths); O(m) time per length and O(n) memory."""
    _check_alpha(alpha)
    g._check_node(s)
    hop = np.zeros(g.node_count)
    hop[s] = 1.0
    acc = alpha * hop.copy()
    weight = alpha
    for _ in range(_PPR_MAX_ITER):
        hop = _push_forward(g, hop)
        weight *= 1.0 - alpha
        acc += weight * hop
        if weight <= _PPR_TOL:
            break
    return acc


def ppr_matrix(g: Graph, alpha: float) -> np.ndarray:
    """All-pairs PPR by direct linear solve; column s is the PPR vector
    of source s.  Verification helper, gated at n <= 2000."""
    _check_alpha(alpha)
    n = g.node_count
    if n > 2000:
        raise CapacityError(f"dense PPR matrix gated at n <= 2000 (got {n})")
    walk_op = _walk_matrix(g).toarray()
    return np.linalg.solve(np.eye(n) - (1.0 - alpha) * walk_op, alpha * np.eye(n))


def write_csv(
    out: IO[str],
    g: Graph,
    pagerank_vec: np.ndarray,
    truncated_vec: np.ndarray | None = None,
) -> None:
    """Dump (node_id, pagerank[, truncated]) rows for external diffing,
    byte for byte as ``csv.writer``'s default dialect writes them."""
    columns = [g.original_ids.tolist(), pagerank_vec.tolist()]
    if truncated_vec is None:
        out.write("node,pagerank\r\n")
        row = "{},{:.15e}\r\n"
    else:
        out.write("node,pagerank,truncated\r\n")
        row = "{},{:.15e},{:.15e}\r\n"
        columns.append(truncated_vec.tolist())
    out.write("".join(map(row.format, *columns)))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")


def _check_levels(alpha: float, levels: int) -> None:
    _check_alpha(alpha)
    if levels < 0:
        raise ValidationError("levels must be >= 0")
