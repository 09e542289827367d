"""Immutable undirected graphs in CSR form.

A graph is stored as two flat int64 arrays: ``offsets`` (length n+1) and
``neighbors`` (length 2m, both endpoints of every edge, each adjacency
list sorted ascending).  Degrees are O(1), neighbor iteration is O(d_u),
and the structure is read-only after construction so any number of query
workers can share it.

Simple graphs only: self-loops are dropped at load time (walk semantics
divide by d_u and self-loop degree conventions would silently change the
scores), duplicate edges are collapsed, and a node that ends up with
degree 0 is a hard error rather than being silently patched.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import ParseError, ValidationError
from .sampling import RngStream, skip_sample

logger = logging.getLogger(__name__)

__all__ = [
    "Graph",
    "GraphStats",
    "load_edge_list",
    "dump_edge_list",
    "generate",
    "complete",
    "star",
    "path",
    "ring",
    "erdos_renyi",
    "power_law",
    "check_invariants",
]


@dataclass(frozen=True)
class GraphStats:
    avg_degree: float
    max_degree: int
    min_degree: int


class Graph:
    """Undirected simple graph with CSR adjacency.

    Attributes
    ----------
    offsets : int64 array, length n+1, nondecreasing, offsets[n] == 2m
    neighbors : int64 array, length 2m, ascending within each list
    degrees : int64 array, degrees[u] == offsets[u+1] - offsets[u]
    original_ids : int64 array mapping dense id -> id in the source file
    self_loops_dropped : count of self-loop lines discarded at load
    """

    __slots__ = ("offsets", "neighbors", "degrees", "original_ids", "self_loops_dropped")

    def __init__(
        self,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        original_ids: np.ndarray | None = None,
        self_loops_dropped: int = 0,
    ):
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.neighbors = np.ascontiguousarray(neighbors, dtype=np.int64)
        self.degrees = np.diff(self.offsets)
        n = self.offsets.shape[0] - 1
        if original_ids is None:
            original_ids = np.arange(n, dtype=np.int64)
        self.original_ids = np.ascontiguousarray(original_ids, dtype=np.int64)
        self.self_loops_dropped = int(self_loops_dropped)
        for arr in (self.offsets, self.neighbors, self.degrees, self.original_ids):
            arr.flags.writeable = False

    @property
    def node_count(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def edge_count(self) -> int:
        return self.neighbors.shape[0] // 2

    def degree(self, u: int) -> int:
        self._check_node(u)
        return int(self.degrees[u])

    def neighbor_list(self, u: int) -> np.ndarray:
        """Neighbors of u in ascending order; position idx holds the
        idx-th neighbor (1-based idx-1 here) used by index-addressed
        sampling."""
        self._check_node(u)
        return self.neighbors[self.offsets[u] : self.offsets[u + 1]]

    def stats(self) -> GraphStats:
        return GraphStats(
            avg_degree=2.0 * self.edge_count / self.node_count,
            max_degree=int(self.degrees.max()),
            min_degree=int(self.degrees.min()),
        )

    def from_original(self, label: int) -> int:
        hits = np.flatnonzero(self.original_ids == label)
        if hits.size == 0:
            raise ValidationError(f"node {label} not present in graph")
        return int(hits[0])

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.node_count:
            raise IndexError(f"node {u} out of range [0, {self.node_count})")

    def _labeled_edges(self) -> np.ndarray:
        """Undirected edge list in original-label space, sorted; the
        identity a Graph keeps through remapping round-trips."""
        src = np.repeat(self.original_ids, self.degrees)
        dst = self.original_ids[self.neighbors]
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        order = np.lexsort((hi, lo))
        pairs = np.stack([lo[order], hi[order]], axis=1)
        return pairs[::2]  # each edge appears once per endpoint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.node_count != other.node_count:
            return False
        # the same labels in the same internal order need no edge sort
        if (
            np.array_equal(self.original_ids, other.original_ids)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        ):
            return True
        return np.array_equal(self._labeled_edges(), other._labeled_edges())

    def __hash__(self):
        return hash((self.node_count, self.edge_count, self._labeled_edges().tobytes()))

    def __repr__(self):
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def _build_csr(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    original_ids: np.ndarray | None = None,
    self_loops_dropped: int = 0,
) -> Graph:
    """Build a Graph from directed half-edges after cleaning.

    ``src``/``dst`` must already exclude self-loops; duplicates are
    collapsed here.  Raises if any of the n nodes ends with degree 0.

    Edges are handled as combined keys ``u * n + v`` (n^2 must fit in
    int64): sorting those keys orders pairs by (u, v), so one value sort
    both finds duplicates and lays out every adjacency list ascending.
    """
    if n < 1 or src.size == 0:
        raise ValidationError("empty graph: no edges after cleaning")
    n64 = np.int64(n)
    und = np.minimum(src, dst) * n64 + np.maximum(src, dst)
    und.sort()
    und = und[_run_heads(und)]
    lo, hi = np.divmod(und, n64)
    half = np.concatenate([und, hi * n64 + lo])
    del und, lo, hi
    half.sort()
    owner, neighbors = np.divmod(half, n64)
    del half
    degrees = np.bincount(owner, minlength=n)
    isolated = np.flatnonzero(degrees == 0)
    if isolated.size:
        labels = isolated if original_ids is None else np.asarray(original_ids)[isolated]
        raise ValidationError(f"isolated node(s) with degree 0: {labels[:8].tolist()}")
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    return Graph(offsets, neighbors, original_ids, self_loops_dropped)


def _run_heads(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    head = np.empty(sorted_values.size, dtype=bool)
    head[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=head[1:])
    return head


# Edge-list grammar: lines end at LF; ASCII whitespace (space, \t, \r, \v,
# \f) separates tokens; a line whose first token starts with '#' or '%' is a
# comment; every other nonblank line holds two ids of ASCII digits < 2^63.
_COMMENT_LEADS = (ord("#"), ord("%"))
_SIGNED_DIGITS = re.compile(rb"-?[0-9]+")
_INT64_MAX = int(np.iinfo(np.int64).max)


def load_edge_list(source: IO[str] | IO[bytes] | str | bytes | Iterable[str | bytes]) -> Graph:
    """Parse a SNAP-style edge list into a Graph.

    ``source`` is the text itself (``str`` or UTF-8 ``bytes``), an open
    text or binary handle, or an iterable whose items are lines.  Lines
    whose first non-blank character is '#' or '%' are comments; data lines
    hold exactly two whitespace-separated ids made of ASCII digits, each
    below 2^63.  Ids are remapped densely to 0..n-1 in first-appearance
    order; duplicate edges collapse, self-loops are dropped (counted on
    the result), and a node left with degree 0 is a validation error
    naming its original id.  A malformed line raises ParseError naming
    the first offending line.
    """
    ids = _parse_ids(_read_bytes(source))
    if ids.size == 0:
        raise ValidationError("empty graph: no data lines")
    dense, original = _first_appearance(ids)
    del ids
    n = original.size
    src, dst = dense[0::2], dense[1::2]
    loop = src == dst
    loops = int(np.count_nonzero(loop))
    if loops:
        logger.warning("dropped %d self-loop(s) while loading edge list", loops)
        src, dst = src[~loop], dst[~loop]
    del dense, loop
    if src.size == 0:
        raise ValidationError("empty graph: all edges were self-loops")
    degrees = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    dead = np.flatnonzero(degrees == 0)
    if dead.size:
        raise ValidationError(
            f"isolated node(s) after cleaning, original id(s): {original[dead][:8].tolist()}"
        )
    return _build_csr(n, src, dst, original, loops)


def _read_bytes(source) -> bytes:
    """The whole input as bytes ending in a newline."""
    if isinstance(source, str):
        data = source.encode("utf-8")
    elif isinstance(source, bytes):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    else:
        lines = (line.encode("utf-8") if isinstance(line, str) else line for line in source)
        data = b"".join(line if line.endswith(b"\n") else line + b"\n" for line in lines)
    return data if data.endswith(b"\n") else data + b"\n"


def _parse_ids(data: bytes) -> np.ndarray:
    """Ids of every data line, in file order (two per line), as int64.

    Raises ParseError for the first line that is not valid UTF-8, has a
    token count other than two, has a token that is not ASCII digits, or
    holds an id of 2^63 or more.
    """
    text, nl, data_line, bad = _scan_lines(data)
    stop = int(np.argmax(bad)) if bad.any() else nl.size  # first malformed line
    undecodable = None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start)
            if line <= stop:
                stop = line
                undecodable = ParseError(f"invalid UTF-8 ({exc.reason})", line + 1)
    # a too-large id before that line is the first error
    ids = np.empty(0, dtype=np.int64)
    if data_line[:stop].any():  # fromstring reads blank text as [0]
        ids = np.fromstring(text[: int(nl[stop - 1]) + 1], dtype=np.int64, sep=" ")
    del text
    big = np.flatnonzero(ids == _INT64_MAX)  # fromstring clamps larger ids to this
    # every data line before ``stop`` holds two ids, so id i sits on data line i // 2
    for line in np.flatnonzero(data_line[:stop])[big // 2].tolist():
        if any(int(tok) > _INT64_MAX for tok in _line_text(data, nl, line).split()):
            raise _line_error(data, nl, line)
    if undecodable is not None:
        raise undecodable
    if stop < nl.size:
        raise _line_error(data, nl, stop)
    return ids


def _scan_lines(data: bytes) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray]:
    """The text with comment lines blanked, and per line (0-based): its
    newline offset, whether it is a data line, and whether it is a
    malformed data line."""
    buf = np.frombuffer(data, dtype=np.uint8)
    word = (buf != 32) & ((buf - np.uint8(9)) > 4)  # not ASCII whitespace
    starts = np.flatnonzero(word[1:] > word[:-1]) + 1
    if word[0]:
        starts = np.concatenate([[0], starts])
    odd = word & ((buf - np.uint8(48)) > 9)  # token bytes that are not digits
    del word
    nl = np.flatnonzero(buf == 10)
    after = np.searchsorted(starts, nl)  # tokens on lines 0..j
    first = np.concatenate([[0], after[:-1]])
    count = after - first
    lead = buf[np.append(starts, 0)[first]]  # blank lines read a stand-in
    data_line = (count > 0) & ~np.isin(lead, _COMMENT_LEADS)
    bad = data_line & (count != 2)
    comment = np.flatnonzero((count > 0) & ~data_line)
    del first, count, lead
    if comment.size:
        # bytes of comment lines, newlines excluded
        mark = np.zeros(buf.size, dtype=np.int8)
        mark[np.where(comment > 0, nl[comment - 1] + 1, 0)] = 1
        mark[nl[comment]] = -1
        in_comment = np.cumsum(mark, dtype=np.int8).view(bool)
        del mark
        odd &= ~in_comment
        cleaned = buf.copy()
        cleaned[in_comment] = ord(" ")
        del in_comment
        data = cleaned.tobytes()
    odd_at = np.flatnonzero(odd)
    del odd
    if odd_at.size:
        odd_line = np.searchsorted(after, np.searchsorted(starts, odd_at, "right") - 1, "right")
        bad[odd_line] = True
    return data, nl, data_line, bad


def _first_appearance(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids numbering the distinct labels in ``ids`` by first
    appearance, and the labels in that order."""
    order = np.argsort(ids)
    ranked = ids[order]
    head = _run_heads(ranked)
    runs = np.flatnonzero(head)
    labels = ranked[runs]
    del ranked
    # equal labels may sit in any order within a run: take its least position
    first_seen = np.argsort(np.minimum.reduceat(order, runs))
    dense_of_run = np.empty(labels.size, dtype=np.int64)
    dense_of_run[first_seen] = np.arange(labels.size)
    dense = np.empty(ids.size, dtype=np.int64)
    dense[order] = dense_of_run[np.cumsum(head) - 1]
    return dense, labels[first_seen]


def _line_text(data: bytes, nl: np.ndarray, line: int) -> bytes:
    return data[int(nl[line - 1]) + 1 if line else 0 : int(nl[line])]


def _line_error(data: bytes, nl: np.ndarray, line: int) -> ParseError:
    """The ParseError for malformed data line ``line`` (0-based)."""
    tokens = _line_text(data, nl, line).split()
    parts = [tok.decode("utf-8") for tok in tokens]
    if len(tokens) != 2:
        message = f"expected two node ids, got {len(tokens)} tokens"
    elif not all(_SIGNED_DIGITS.fullmatch(tok) for tok in tokens):
        message = f"non-integer node id in {parts!r}"
    elif any(tok.startswith(b"-") for tok in tokens):
        message = f"negative node id in {parts!r}"
    else:
        message = f"node id not below 2^63 in {parts!r}"
    return ParseError(message, line + 1)


def dump_edge_list(g: Graph, out: IO[str]) -> None:
    """Canonical serialization: header, then 'u v' with u < v, sorted
    ascending, one edge per line, in original-label space.

    load(dump(g)) == g and dump is idempotent under reload, which makes
    the byte output a canonical form of the labeled graph.
    """
    out.write(f"# undirected graph: n={g.node_count} m={g.edge_count}\n")
    pairs = g._labeled_edges()
    for k in range(0, len(pairs), 65536):  # one write per chunk, not per edge
        out.write("".join(f"{u} {v}\n" for u, v in pairs[k : k + 65536].tolist()))


def complete(n: int) -> Graph:
    _need(n >= 2, "complete graph needs n >= 2")
    src, dst = np.triu_indices(n, k=1)
    return _build_csr(n, src.astype(np.int64), dst.astype(np.int64))


def star(n: int) -> Graph:
    _need(n >= 2, "star graph needs n >= 2")
    leaves = np.arange(1, n, dtype=np.int64)
    return _build_csr(n, np.zeros(n - 1, dtype=np.int64), leaves)


def path(n: int) -> Graph:
    _need(n >= 2, "path graph needs n >= 2")
    src = np.arange(n - 1, dtype=np.int64)
    return _build_csr(n, src, src + 1)


def ring(n: int) -> Graph:
    _need(n >= 3, "ring graph needs n >= 3")
    src = np.arange(n, dtype=np.int64)
    return _build_csr(n, src, (src + 1) % n)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) by geometric skipping over the C(n,2) pair index space:
    one ``skip_sample`` set of size C(n,2) on ``RngStream(seed)``.
    Isolated nodes are attached to a uniformly random other node."""
    _need(n >= 2, "erdos_renyi needs n >= 2")
    _need(0.0 < p <= 1.0, "erdos_renyi needs 0 < p <= 1")
    total = n * (n - 1) // 2
    if p >= 1.0:
        idx = np.arange(total, dtype=np.int64)
    else:
        _, position = skip_sample(np.array([total]), np.array([p]), RngStream(seed))
        idx = position - 1
    # invert the row-major upper-triangle linearization
    src = (
        n - 2 - np.floor(np.sqrt(-8.0 * idx + 4.0 * n * (n - 1) - 7) / 2.0 - 0.5)
    ).astype(np.int64)
    dst = idx + src + 1 - src * (2 * n - src - 1) // 2
    return _attach_isolated(n, src, dst, np.random.default_rng(seed))


def power_law(n: int, exponent: float, seed: int) -> Graph:
    """Configuration-model graph with a discrete power-law degree tail.

    Degrees are drawn as floor(U^(-1/(exponent-1))) capped at n-1, stubs
    are matched uniformly at random, then self-loops and duplicate edges
    are discarded; any node isolated by the cleanup is attached to a
    uniformly random neighbor.
    """
    _need(n >= 2, "power_law needs n >= 2")
    _need(exponent > 1.0, "power_law needs exponent > 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    deg = np.floor(u ** (-1.0 / (exponent - 1.0))).astype(np.int64)
    deg = np.clip(deg, 1, n - 1)
    if deg.sum() % 2 == 1:
        deg[int(rng.integers(n))] += 1
    stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
    rng.shuffle(stubs)
    half = stubs.reshape(-1, 2)
    keep = half[:, 0] != half[:, 1]
    return _attach_isolated(n, half[keep, 0], half[keep, 1], rng)


def _attach_isolated(
    n: int, src: np.ndarray, dst: np.ndarray, rng: np.random.Generator
) -> Graph:
    degrees = np.bincount(np.concatenate([src, dst]), minlength=n)
    isolated = np.flatnonzero(degrees == 0)
    if isolated.size:
        partners = rng.integers(0, n - 1, size=isolated.size)
        partners = partners + (partners >= isolated)  # never itself
        src = np.concatenate([src, isolated])
        dst = np.concatenate([dst, partners.astype(np.int64)])
    return _build_csr(n, src, dst)


_ALIASES = {"k2": "complete:2", "p3": "path:3"}


def generate(spec: str) -> Graph:
    """Build a graph from a 'kind:param[:param...]' spec string.

    Kinds: complete:N, star:N, path:N, ring:N, erdos_renyi:N:P:SEED,
    power_law:N:EXPONENT:SEED.  Aliases: k2, p3.
    """
    spec = _ALIASES.get(spec.strip().lower(), spec.strip().lower())
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "complete":
            return complete(int(args[0]))
        if kind == "star":
            return star(int(args[0]))
        if kind == "path":
            return path(int(args[0]))
        if kind == "ring":
            return ring(int(args[0]))
        if kind in ("erdos_renyi", "er"):
            return erdos_renyi(int(args[0]), float(args[1]), int(args[2]))
        if kind == "power_law":
            return power_law(int(args[0]), float(args[1]), int(args[2]))
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"bad generator spec {spec!r}: {exc}") from None
    raise ValidationError(f"unknown generator kind {kind!r}")


def check_invariants(g: Graph) -> None:
    """Re-verify every structural invariant; raises ValidationError."""
    n = g.node_count
    if g.offsets[0] != 0 or np.any(np.diff(g.offsets) < 0):
        raise ValidationError("offsets not nondecreasing from 0")
    if g.offsets[-1] != g.neighbors.shape[0]:
        raise ValidationError("offsets[n] != len(neighbors)")
    if g.neighbors.size and (g.neighbors.min() < 0 or g.neighbors.max() >= n):
        raise ValidationError("neighbor id out of range")
    if np.any(g.degrees < 1):
        raise ValidationError(f"degree-0 node(s): {np.flatnonzero(g.degrees < 1)[:8].tolist()}")
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    if np.any(src == g.neighbors):
        raise ValidationError("self-loop present")
    # sorted ascending and duplicate-free within each list
    if g.neighbors.size > 1:
        list_start = np.zeros(g.neighbors.size, dtype=bool)
        list_start[g.offsets[1:-1]] = True
        within = ~list_start[1:]
        if np.any(np.diff(g.neighbors)[within] <= 0):
            raise ValidationError("adjacency list not strictly ascending")
    fwd = np.sort(src * np.int64(n) + g.neighbors)
    rev = np.sort(g.neighbors * np.int64(n) + src)
    if not np.array_equal(fwd, rev):
        raise ValidationError("adjacency not symmetric")


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)
