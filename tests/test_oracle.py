import csv
import io

import numpy as np
import pytest
import scipy.sparse as sp

from pushrank import graph as pg
from pushrank import oracle
from pushrank.errors import CapacityError, ValidationError

A = 0.2
ALPHAS = (0.05, 0.2, 0.5)


def _reference_levels(g, alpha, levels):
    """Yield the per-hop tables level by level, [s][t], by the dense @
    sparse recursion over an unweighted adjacency: the earlier oracle,
    frozen as the bit-exact reference."""
    n = g.node_count
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    adj = sp.csr_matrix((np.ones(src.size), (src, g.neighbors)), shape=(n, n))
    inv_deg = 1.0 / g.degrees
    table = alpha * np.eye(n)
    yield table
    for _ in range(levels):
        table = (1.0 - alpha) * ((table * inv_deg[None, :]) @ adj)
        yield table


def _reference_write_csv(out, g, pagerank_vec, truncated_vec=None):
    """The earlier ``write_csv``, one ``csv.writer`` row at a time, frozen
    as the byte-exact reference."""
    writer = csv.writer(out)
    header = ["node", "pagerank"] + (["truncated"] if truncated_vec is not None else [])
    writer.writerow(header)
    for u in range(g.node_count):
        row = [int(g.original_ids[u]), f"{pagerank_vec[u]:.15e}"]
        if truncated_vec is not None:
            row.append(f"{truncated_vec[u]:.15e}")
        writer.writerow(row)


def _reference_ppr_matrix(g, alpha):
    n = g.node_count
    dense = np.zeros((n, n))
    dense[np.repeat(np.arange(n), g.degrees), g.neighbors] = 1.0
    walk_op = dense * (1.0 / g.degrees)[None, :]
    return np.linalg.solve(np.eye(n) - (1.0 - alpha) * walk_op, alpha * np.eye(n))


class TestPowerMethod:
    def test_k2_symmetric(self):
        pi = oracle.pagerank(pg.complete(2), A)
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_complete4_uniform(self):
        pi = oracle.pagerank(pg.complete(4), A)
        assert np.allclose(pi, 0.25, atol=1e-12)

    def test_p3_against_linear_solve(self):
        # independent oracle: solve the 3x3 stationarity system directly
        g = pg.path(3)
        walk_op = np.array([[0, 0.5, 0], [1, 0, 1], [0, 0.5, 0]])
        expect = np.linalg.solve(np.eye(3) - (1 - A) * walk_op, (A / 3) * np.ones(3))
        assert expect[1] == pytest.approx(13 / 27)
        pi = oracle.pagerank(g, A)
        assert np.max(np.abs(pi - expect)) < 1e-10
        assert pi[1] > pi[0]

    def test_sums_to_one(self, suite):
        for name, g in suite:
            pi = oracle.pagerank(g, A)
            assert abs(pi.sum() - 1.0) < 1e-10, name

    def test_max_norm_contraction(self, suite):
        for name, g in suite:
            n = g.node_count
            x = np.full(n, 1.0 / n)
            deltas = []
            for _ in range(25):
                nxt = (1 - A) * oracle._push_forward(g, x) + A / n
                deltas.append(np.max(np.abs(nxt - x)))
                x = nxt
            for k, d in enumerate(deltas):
                assert d <= (1 - A) ** k * deltas[0] * (1 + 1e-9), (name, k)


class TestLhopTables:
    def test_k2_first_levels(self):
        # direct evaluation of the per-hop law on two nodes: the walk
        # alternates sides, so level l mass a(1-a)^l sits on one node
        t = oracle.lhop_ppr_tables(pg.complete(2), A, 2)
        assert t[0, 0, 0] == pytest.approx(0.2, abs=1e-15)
        assert t[0, 0, 1] == 0.0
        assert t[1, 0, 1] == pytest.approx(0.16, abs=1e-15)
        assert t[1, 0, 0] == 0.0
        assert t[2, 0, 0] == pytest.approx(0.128, abs=1e-15)

    def test_level_mass_and_reversibility(self, suite):
        for name, g in suite:
            if g.node_count > 120:
                continue
            t = oracle.lhop_ppr_tables(g, A, 6)
            d = g.degrees.astype(float)
            for lvl in range(7):
                mass = t[lvl].sum(axis=1)
                assert np.max(np.abs(mass - A * (1 - A) ** lvl)) < 1e-10, (name, lvl)
                scaled = d[:, None] * t[lvl]
                assert np.max(np.abs(scaled - scaled.T)) < 1e-10, (name, lvl)

    def test_recursion_consistency(self):
        # each level equals the one-hop pushforward of the previous one
        g = pg.erdos_renyi(40, 0.15, 17)
        t = oracle.lhop_ppr_tables(g, A, 4)
        for lvl in range(4):
            nxt = np.vstack(
                [(1 - A) * oracle._push_forward(g, t[lvl, s]) for s in range(40)]
            )
            assert np.max(np.abs(nxt - t[lvl + 1])) < 1e-12

    def test_bit_identical_to_reference(self, suite):
        graphs = suite + [("pl1000", pg.generate("power_law:1000:2.5:13"))]
        for name, g in graphs:
            for alpha in ALPHAS if g.node_count <= 200 else (A,):
                levels = oracle.truncation_levels(g.node_count, alpha, 0.1)
                t = oracle.lhop_ppr_tables(g, alpha, levels)
                assert t.shape == (levels + 1, g.node_count, g.node_count)
                for lvl, ref in enumerate(_reference_levels(g, alpha, levels)):
                    assert np.array_equal(t[lvl], ref), (name, alpha, lvl)
                del t

    def test_dense_gate(self):
        # gated on the bytes the tables take, (levels+1) * n^2 * 8 <= 1 GiB
        g = pg.ring(10_001)
        with pytest.raises(CapacityError, match="1.49 GiB"):
            oracle.lhop_ppr_tables(g, A, 1)
        with pytest.raises(CapacityError):
            oracle.lhop_ppr_tables(pg.ring(100), A, 13_422)


class TestTruncated:
    def test_k2_geometric_sum(self):
        # derived oracle: closed-form partial geometric sum
        tables = oracle.build_tables(pg.complete(2), A, 0.1)
        levels = oracle.truncation_levels(2, A, 0.1)
        assert levels == 24
        expect = 0.5 * (1 - (1 - A) ** (levels + 1))
        assert tables.truncated[0] == pytest.approx(expect, abs=1e-12)

    def test_p3_truncation_bound(self):
        g = pg.path(3)
        tables = oracle.build_tables(g, A, 0.1)
        pi = tables.pagerank
        gap = pi - tables.truncated
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= 0.05 * pi + 1e-12)

    def test_tail_vanishes_with_levels(self):
        g = pg.star(6)
        pi = oracle.pagerank(g, A)
        deep = oracle.lhop_ppr_tables(g, A, 140).sum(axis=(0, 1)) / 6
        assert np.max(np.abs(deep - pi)) < 1e-12
        assert np.max(np.abs(oracle.truncated_pagerank(g, A, 140) - pi)) < 1e-12

    def test_vector_equals_table_average(self, suite):
        # the recursion on the uniform start against the tables summed
        # over levels and averaged over sources
        for name, g in suite:
            n = g.node_count
            for alpha in ALPHAS:
                levels = oracle.truncation_levels(n, alpha, 0.1)
                expect = oracle.lhop_ppr_tables(g, alpha, levels).sum(axis=(0, 1)) / n
                got = oracle.truncated_pagerank(g, alpha, levels)
                assert np.max(np.abs(got - expect) / expect) < 1e-12, (name, alpha)

    def test_validation(self):
        with pytest.raises(ValidationError):
            oracle.truncated_pagerank(pg.complete(2), A, -1)
        with pytest.raises(ValidationError):
            oracle.truncated_pagerank(pg.complete(2), 1.0, 3)
        for c in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                oracle.truncation_levels(10, A, c)
        with pytest.raises(ValidationError):
            oracle.truncation_levels(10, 1.5, 0.1)


class TestPprVector:
    def test_k2_closed_forms(self):
        # geometric series over even / odd walk lengths
        pv = oracle.ppr_vector(pg.complete(2), 0, A)
        even = A / (1 - (1 - A) ** 2)
        assert pv[0] == pytest.approx(even, abs=1e-12)
        assert pv[1] == pytest.approx(even * (1 - A), abs=1e-12)
        assert pv[0] == pytest.approx(5 / 9, abs=1e-12)

    def test_pagerank_ppr_identity_p3(self):
        g = pg.path(3)
        pi = oracle.pagerank(g, A)
        avg = np.mean([oracle.ppr_vector(g, s, A) for s in range(3)], axis=0)
        assert np.max(np.abs(avg - pi)) < 1e-10

    def test_matrix_agrees_with_vectors(self):
        g = pg.erdos_renyi(30, 0.2, 5)
        mat = oracle.ppr_matrix(g, A)
        for s in (0, 7, 29):
            assert np.max(np.abs(mat[:, s] - oracle.ppr_vector(g, s, A))) < 1e-10

    def test_matrix_bit_identical_to_reference(self, suite):
        for name, g in suite:
            for alpha in ALPHAS:
                ref = _reference_ppr_matrix(g, alpha)
                assert np.array_equal(oracle.ppr_matrix(g, alpha), ref), (name, alpha)

    def test_reversibility(self):
        g = pg.power_law(50, 2.5, 8)
        mat = oracle.ppr_matrix(g, A)
        scaled = mat * g.degrees[None, :]
        assert np.max(np.abs(scaled - scaled.T)) < 1e-10

    def test_lower_bound(self, suite):
        for name, g in suite:
            pi = oracle.pagerank(g, A)
            assert np.all(pi >= A / g.node_count - 1e-12), name

    def test_no_size_gate(self):
        # n floats: a graph past n = 10^4 gets its vector too
        pv = oracle.ppr_vector(pg.ring(10_001), 0, A)
        assert abs(pv.sum() - 1.0) <= 1e-12


class TestCsv:
    def test_rows_and_header(self):
        g = pg.complete(2)
        tables = oracle.build_tables(g, A, 0.1)
        buf = io.StringIO()
        oracle.write_csv(buf, g, tables.pagerank, tables.truncated)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "node,pagerank,truncated"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5)

    def test_bytes_equal_csv_writer(self, suite):
        relabeled = pg.load_edge_list("10 7\n7 3\n3 10\n3 99\n")
        assert relabeled.original_ids.tolist() == [10, 7, 3, 99]
        for name, g in suite + [("relabeled", relabeled)]:
            pi = oracle.pagerank(g, A)
            truncated = oracle.truncated_pagerank(g, A, 30)
            for column in (None, truncated):
                got, want = io.StringIO(newline=""), io.StringIO(newline="")
                oracle.write_csv(got, g, pi, column)
                _reference_write_csv(want, g, pi, column)
                assert got.getvalue() == want.getvalue(), name
