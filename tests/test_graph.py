import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushrank import graph as pg
from pushrank.errors import ParseError, ValidationError


class TestLoadEdgeList:
    def test_path_graph(self):
        g = pg.load_edge_list("0 1\n1 2\n")
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.degrees.tolist() == [1, 2, 1]

    def test_duplicate_and_self_loop(self):
        g = pg.load_edge_list("0 1\n1 0\n0 0\n")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.self_loops_dropped == 1

    def test_gap_in_ids_means_no_node(self):
        g = pg.load_edge_list("0 1\n2 3\n")
        assert g.node_count == 4
        assert g.edge_count == 2
        assert g.degrees.tolist() == [1, 1, 1, 1]

    def test_first_appearance_remap(self):
        g = pg.load_edge_list("7 3\n3 9\n")
        assert g.original_ids.tolist() == [7, 3, 9]
        assert g.from_original(9) == 2

    def test_comments_ignored(self):
        g = pg.load_edge_list("# header\n% other\n0 1\n")
        assert g.node_count == 2

    def test_malformed_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            pg.load_edge_list("0 1\n0 1 2\n")
        with pytest.raises(ParseError, match="line 1"):
            pg.load_edge_list("a b\n")
        with pytest.raises(ParseError, match="line 1"):
            pg.load_edge_list("-1 2\n")

    def test_isolated_node_named(self):
        with pytest.raises(ValidationError, match="5"):
            pg.load_edge_list("5 5\n1 2\n")

    def test_empty_graph(self):
        with pytest.raises(ValidationError):
            pg.load_edge_list("# nothing\n")
        with pytest.raises(ValidationError):
            pg.load_edge_list("3 3\n")

    def test_round_trip(self):
        g = pg.power_law(300, 2.5, 42)
        buf = io.StringIO()
        pg.dump_edge_list(g, buf)
        again = pg.load_edge_list(buf.getvalue())
        assert again == g
        buf2 = io.StringIO()
        pg.dump_edge_list(again, buf2)
        assert buf.getvalue() == buf2.getvalue()

    def test_dump_matches_per_line_writer(self, suite):
        def per_line(g, out):
            out.write(f"# undirected graph: n={g.node_count} m={g.edge_count}\n")
            for u, v in g._labeled_edges():
                out.write(f"{u} {v}\n")

        relabeled = pg.load_edge_list("70 3\n3 912\n912 70\n5 3\n")
        # ring(70000) spans two 65536-edge chunks
        for name, g in suite + [("relabeled", relabeled), ("ring70000", pg.ring(70000))]:
            fast, slow = io.StringIO(), io.StringIO()
            pg.dump_edge_list(g, fast)
            per_line(g, slow)
            assert fast.getvalue() == slow.getvalue(), name


class TestGenerators:
    def test_complete(self):
        g = pg.complete(4)
        assert g.degrees.tolist() == [3, 3, 3, 3]
        assert g.neighbor_list(0).tolist() == [1, 2, 3]

    def test_star(self):
        g = pg.star(5)
        assert g.degree(0) == 4
        assert all(g.degree(u) == 1 for u in range(1, 5))
        assert pg.star(4).neighbor_list(0).tolist() == [1, 2, 3]

    def test_path_middle(self):
        assert pg.path(3).neighbor_list(1).tolist() == [0, 2]

    def test_ring(self):
        g = pg.ring(6)
        assert g.degrees.tolist() == [2] * 6

    def test_erdos_renyi_deterministic(self):
        a = pg.erdos_renyi(100, 0.05, 7)
        b = pg.erdos_renyi(100, 0.05, 7)
        assert a == b
        assert a != pg.erdos_renyi(100, 0.05, 8)

    def test_erdos_renyi_p1_is_complete(self):
        assert pg.erdos_renyi(6, 1.0, 0) == pg.complete(6)

    def test_erdos_renyi_edge_density(self):
        g = pg.erdos_renyi(200, 0.05, 3)
        expect = 0.05 * 200 * 199 / 2
        sigma = np.sqrt(expect * 0.95)
        assert abs(g.edge_count - expect) < 4 * sigma + 200  # + isolated attachments

    def test_power_law_deterministic_and_valid(self):
        a = pg.power_law(500, 2.5, 9)
        assert a == pg.power_law(500, 2.5, 9)
        pg.check_invariants(a)
        assert a.degrees.min() >= 1

    def test_generate_spec_strings(self):
        assert pg.generate("k2") == pg.complete(2)
        assert pg.generate("p3") == pg.path(3)
        assert pg.generate("power_law:100:2.5:7") == pg.power_law(100, 2.5, 7)
        with pytest.raises(ValidationError):
            pg.generate("complete:1")
        with pytest.raises(ValidationError):
            pg.generate("blob:3")
        with pytest.raises(ValidationError):
            pg.generate("erdos_renyi:10:2.0:1")


class TestAccessors:
    def test_degree_matches_neighbor_length(self, suite):
        for _, g in suite:
            for u in range(0, g.node_count, max(1, g.node_count // 7)):
                nbrs = g.neighbor_list(u)
                assert g.degree(u) == len(nbrs)
                assert np.all(np.diff(nbrs) > 0)

    def test_out_of_range(self):
        g = pg.complete(4)
        with pytest.raises(IndexError):
            g.degree(4)
        with pytest.raises(IndexError):
            g.neighbor_list(-1)

    def test_stats(self):
        s = pg.star(5).stats()
        assert s.max_degree == 4
        assert s.min_degree == 1
        assert s.avg_degree == pytest.approx(2 * 4 / 5)

    def test_immutable(self):
        g = pg.complete(3)
        with pytest.raises(ValueError):
            g.neighbors[0] = 5

    def test_equality_across_internal_order(self):
        # equality is over labeled edges: a copy with the same arrays takes
        # the array compare, a relabeled one the edge sort
        g = pg.power_law(300, 2.5, 42)
        copy = pg.Graph(g.offsets.copy(), g.neighbors.copy(), g.original_ids.copy())
        assert copy == g
        perm = np.random.default_rng(7).permutation(g.node_count)  # old id -> new id
        old = np.argsort(perm)  # new id -> old id
        relabeled = pg.Graph(
            np.concatenate([[0], np.cumsum(g.degrees[old])]),
            np.concatenate([np.sort(perm[g.neighbor_list(int(u))]) for u in old]),
            g.original_ids[old],
        )
        pg.check_invariants(relabeled)
        assert not np.array_equal(relabeled.neighbors, g.neighbors)
        assert relabeled == g
        other_labels = pg.Graph(g.offsets, g.neighbors, g.original_ids + 1)
        assert other_labels != g
        assert pg.Graph(relabeled.offsets, relabeled.neighbors, g.original_ids) != g


class TestInvariants:
    def test_suite_symmetry_and_degree_sum(self, suite):
        for name, g in suite:
            pg.check_invariants(g)
            assert int(g.degrees.sum()) == 2 * g.edge_count, name
            # exhaustive symmetry on the smaller graphs
            if g.node_count <= 120:
                sets = [set(g.neighbor_list(u).tolist()) for u in range(g.node_count)]
                for u in range(g.node_count):
                    for v in sets[u]:
                        assert u in sets[v]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=1,
            max_size=120,
        )
    )
    def test_random_edge_lists(self, pairs):
        text = "\n".join(f"{a} {b}" for a, b in pairs)
        nodes = {x for p in pairs for x in p}
        loops_only = {u for u in nodes if all((a, b) in ((u, u),) for a, b in pairs if u in (a, b))}
        try:
            g = pg.load_edge_list(text)
        except ValidationError:
            # legal only when some node would end isolated or no edges remain
            assert loops_only or all(a == b for a, b in pairs)
            return
        pg.check_invariants(g)
        assert g.node_count == len(nodes)
        buf = io.StringIO()
        pg.dump_edge_list(g, buf)
        assert pg.load_edge_list(buf.getvalue()) == g


def _reference_load(source):
    """The original per-line loader, kept as the reference the vectorized
    loader is compared against."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = io.StringIO(source)

    id_map: dict[int, int] = {}
    us: list[int] = []
    vs: list[int] = []
    loops = 0
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two node ids, got {len(parts)} tokens", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {parts!r}", lineno) from None
        if a < 0 or b < 0:
            raise ParseError(f"negative node id in {parts!r}", lineno)
        ua = id_map.setdefault(a, len(id_map))
        ub = id_map.setdefault(b, len(id_map))
        if ua == ub:
            loops += 1
            continue
        us.append(ua)
        vs.append(ub)

    if not id_map:
        raise ValidationError("empty graph: no data lines")
    n = len(id_map)
    original = np.empty(n, dtype=np.int64)
    for label, dense in id_map.items():
        original[dense] = label
    src = np.asarray(us, dtype=np.int64)
    dst = np.asarray(vs, dtype=np.int64)
    if src.size == 0:
        raise ValidationError("empty graph: all edges were self-loops")
    degrees = np.bincount(np.concatenate([src, dst]), minlength=n)
    dead = np.flatnonzero(degrees == 0)
    if dead.size:
        raise ValidationError(
            f"isolated node(s) after cleaning, original id(s): {original[dead][:8].tolist()}"
        )
    return _reference_csr(n, src, dst, original, loops)


def _reference_csr(n, src, dst, original_ids=None, self_loops_dropped=0):
    """The original CSR build (np.unique, then np.lexsort)."""
    if n < 1 or src.size == 0:
        raise ValidationError("empty graph: no edges after cleaning")
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    und = np.unique(lo * np.int64(n) + hi)
    lo = und // n
    hi = und % n
    all_src = np.concatenate([lo, hi])
    all_dst = np.concatenate([hi, lo])
    order = np.lexsort((all_dst, all_src))
    degrees = np.bincount(all_src, minlength=n)
    isolated = np.flatnonzero(degrees == 0)
    if isolated.size:
        labels = isolated if original_ids is None else np.asarray(original_ids)[isolated]
        raise ValidationError(f"isolated node(s) with degree 0: {labels[:8].tolist()}")
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    return pg.Graph(offsets, all_dst[order], original_ids, self_loops_dropped)


def _outcome(fn, source):
    try:
        g = fn(source)
    except ValidationError as exc:  # ParseError included
        return type(exc), str(exc)
    return (g.offsets.tolist(), g.neighbors.tolist(), g.original_ids.tolist(),
            g.self_loops_dropped)


_WS = st.sampled_from([" ", "  ", "\t", " \t ", "\r", "\x0b", "\x0c"])
_IDS = st.one_of(
    st.integers(0, 12),
    st.sampled_from([2**53 + 1, 2**62 + 1, 2**63 - 1]),
).map(str)


@st.composite
def _padded_id(draw):
    token = draw(_IDS)
    return "0" * draw(st.integers(0, 2)) + token


@st.composite
def _edge_list_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["data"] * 6 + ["comment", "blank", "bad"]))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        if kind == "data":
            tail = draw(st.sampled_from(["", " ", "\t"]))
            body = draw(_padded_id()) + draw(_WS) + draw(_padded_id()) + tail
        elif kind == "comment":
            text = draw(st.text(alphabet="ab 19\t#%é", max_size=8))
            body = draw(st.sampled_from("#%")) + text
        elif kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t", "\r"]))
        else:
            body = draw(st.sampled_from([
                "7", "1 2 3", "a b", "-1 2", "3 -12", "1 2 # note", "1.5 2", "0x1 2",
                "1,2", "é 3", "4 5 6 7",
            ]))
        lines.append(lead + body)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines)
    if lines and draw(st.booleans()):
        text += eol  # otherwise the last line has no newline
    return text


class TestVectorizedLoader:
    """The vectorized loader against the original per-line loader."""

    @settings(max_examples=300, deadline=None)
    @given(_edge_list_text())
    def test_matches_reference(self, text):
        expected = _outcome(_reference_load, text)
        assert _outcome(pg.load_edge_list, text) == expected
        assert _outcome(pg.load_edge_list, text.encode("utf-8")) == expected

    @settings(max_examples=60, deadline=None)
    @given(_edge_list_text())
    def test_every_source_kind(self, text):
        expected = _outcome(_reference_load, text)
        for source in (io.StringIO(text), io.BytesIO(text.encode("utf-8"))):
            assert _outcome(pg.load_edge_list, source) == expected

    def test_cases_the_reference_agrees_on(self):
        cases = [
            "  # indented comment\n\t% tabbed comment\n1 2\n",
            "1 2\r\n2 3\r\n",
            "1\t2\n\n   \n2 3",
            "1 1\n1 2\n2 1\n1 2\n",
            "5 5\n1 2\n",
            "3 3\n4 4\n",
            "",
            "1 2\n0003 001\n",
            "1 2\n2 x 3\n",
            "1 2 # trailing comment\n",
            "9223372036854775807 1\n",
        ]
        for text in cases:
            assert _outcome(pg.load_edge_list, text) == _outcome(_reference_load, text), text

    def test_isolated_after_cleaning(self):
        text = "1 2\n7 7\n2 3\n8 8\n"
        assert _outcome(pg.load_edge_list, text) == _outcome(_reference_load, text)
        with pytest.raises(ValidationError, match=r"original id\(s\): \[7, 8\]"):
            pg.load_edge_list(text)

    def test_large_file_matches_reference(self):
        g = pg.power_law(3000, 2.5, 5)
        buf = io.StringIO()
        pg.dump_edge_list(g, buf)
        text = "% comment\n" + buf.getvalue().replace("\n2 ", "\n  2\t", 40)
        assert _outcome(pg.load_edge_list, text) == _outcome(_reference_load, text)


class TestLoaderEscapes:
    """Inputs that once escaped as OverflowError or UnicodeDecodeError."""

    @pytest.mark.parametrize("big", ["9223372036854775808", "10000000000000000000",
                                     "18446744073709551615", "000018446744073709551616",
                                     "99999999999999999999"])
    def test_id_not_below_two_to_63(self, big):
        with pytest.raises(ParseError, match=r"^line 2: node id not below 2\^63"):
            pg.load_edge_list(f"0 1\n{big} 1\n2 3\n")

    def test_first_offending_line_wins(self):
        with pytest.raises(ParseError, match="^line 1: node id not below"):
            pg.load_edge_list("99999999999999999999 1\nfoo 1\n")
        with pytest.raises(ParseError, match="^line 1: non-integer"):
            pg.load_edge_list("foo 1\n99999999999999999999 1\n")

    def test_largest_id_accepted(self):
        g = pg.load_edge_list("9223372036854775807 0\n")
        assert g.original_ids.tolist() == [2**63 - 1, 0]

    @pytest.mark.parametrize("source", [
        b"0 1\n1 2\n\xff\xfe 3\n",
        b"0 1\n1 2\n# caf\xe9\n",
        io.BytesIO(b"0 1\n1 2\n2 \xc3\n"),
    ])
    def test_invalid_utf8(self, source):
        with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8"):
            pg.load_edge_list(source)

    def test_utf8_comment_accepted(self):
        g = pg.load_edge_list("# café\n0 1\n".encode("utf-8"))
        assert g.edge_count == 1

    @pytest.mark.parametrize("line", ["+3 1", "1 1_0", "\u0663 1", "1\u00a02", "1\x1c2", "-0 1"])
    def test_ascii_only_grammar(self, line):
        with pytest.raises(ParseError, match="^line 2: "):
            pg.load_edge_list(f"0 1\n{line}\n")


class TestBuildCsr:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150),
    )))
    def test_matches_lexsort_reference(self, case):
        n, pairs = case
        pairs = [(a, b) for a, b in pairs if a != b]
        src = np.array([a for a, _ in pairs], dtype=np.int64)
        dst = np.array([b for _, b in pairs], dtype=np.int64)
        expected = _outcome(lambda _: _reference_csr(n, src, dst), None)
        assert _outcome(lambda _: pg._build_csr(n, src, dst), None) == expected
        if isinstance(expected[0], list):
            g = pg._build_csr(n, src, dst)
            for u in range(n):
                assert np.all(np.diff(g.neighbor_list(u)) > 0)

    def test_suite_generators_match_reference(self, suite):
        for name, g in suite:
            src = np.repeat(np.arange(g.node_count, dtype=np.int64), g.degrees)
            ref = _reference_csr(g.node_count, src, g.neighbors)
            assert np.array_equal(ref.offsets, g.offsets), name
            assert np.array_equal(ref.neighbors, g.neighbors), name
