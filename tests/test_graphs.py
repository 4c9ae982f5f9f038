import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgetype.graphs import (
    DiGraph,
    DistortionValue,
    _unpack,
    and_,
    complement,
    density,
    distortion,
    respects_restriction,
    xor,
)
from edgetype.typealg import EdgeType


def all_graphs(n):
    return [DiGraph.from_bits(n, b) for b in range(1 << (n * n))]


def graph_strategy(n):
    return st.integers(min_value=0, max_value=(1 << (n * n)) - 1).map(
        lambda b: DiGraph.from_bits(n, b)
    )


class TestDiGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiGraph([[0, 1]])
        with pytest.raises(ValueError):
            DiGraph([[0, 2], [0, 0]])

    def test_bits_roundtrip(self):
        for g in all_graphs(2):
            assert DiGraph.from_bits(2, g.to_bits()) == g

    @pytest.mark.parametrize("n", range(9))
    def test_codecs_match_cell_loops(self, n):
        # seeded ints, negative and beyond n*n bits included, against a loop over the cells
        rng = random.Random(n)
        for _ in range(300):
            bits = rng.randrange(-(1 << n * n + 5), 1 << n * n + 5)
            cells = [(bits >> k) & 1 for k in range(n * n)]
            g = DiGraph.from_bits(n, bits)
            assert g.adj.shape == (n, n) and g.adj.reshape(-1).tolist() == cells
            assert g.to_bits() == sum(v << k for k, v in enumerate(cells))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_unpack_reads_to_bits(self, n):
        # one batch of seeded graphs, their masks read plain, with bits set from n*n up, and negative
        rng = random.Random(100 + n)
        graphs = [DiGraph([[rng.getrandbits(1) for _ in range(n)] for _ in range(n)]) for _ in range(40)]
        graphs += [DiGraph.empty(n), DiGraph.complete(n)]
        plain = [g.to_bits() for g in graphs]
        cells = [g.adj.reshape(-1).tolist() for g in graphs]
        high = [b | rng.getrandbits(70) << n * n for b in plain]
        negative = [b - (1 << n * n + rng.randrange(70)) for b in plain]
        for masks in (plain, high, negative):
            rows = _unpack(n, masks)
            assert rows.dtype == np.uint8 and rows.shape == (len(graphs), n * n)
            assert rows.tolist() == cells
            assert [DiGraph.from_bits(n, b) for b in masks] == graphs
        assert _unpack(n, []).shape == (0, n * n)

    def test_hash_eq(self):
        a = DiGraph([[1, 0], [0, 1]])
        b = DiGraph.from_edges(2, [(0, 0), (1, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != DiGraph.empty(2)

    def test_immutable(self):
        g = DiGraph.empty(2)
        with pytest.raises(ValueError):
            g.adj[0, 0] = 1

    def test_complete_empty(self):
        assert DiGraph.complete(3).edge_count() == 9
        assert DiGraph.empty(3).edge_count() == 0


class TestDegrees:
    def test_example(self):
        g = DiGraph([[1, 1], [1, 0]])
        d = EdgeType.of_graph(g)
        assert (d.r, d.c) == ((2, 1), (2, 1))

    def test_sum_balance_exhaustive_n2(self):
        for g in all_graphs(2):
            d = EdgeType.of_graph(g)
            assert sum(d.r) == sum(d.c) == g.edge_count()

    @given(graph_strategy(3))
    def test_sum_balance_property(self, g):
        d = EdgeType.of_graph(g)
        assert sum(d.r) == sum(d.c)
        assert all(0 <= v <= 3 for v in d.r + d.c)


class TestBooleanOps:
    def test_xor_self_is_empty(self):
        g = DiGraph([[1, 0], [1, 1]])
        assert xor(g, g) == DiGraph.empty(2)

    def test_and_complement(self):
        g = DiGraph([[1, 0], [1, 1]])
        assert and_(g, complement(g)) == DiGraph.empty(2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            xor(DiGraph.empty(2), DiGraph.empty(3))

    @given(graph_strategy(3), graph_strategy(3))
    def test_respects_restriction_of_and(self, g, w):
        assert respects_restriction(and_(g, w), w)


class TestDistortion:
    def test_exact_value(self):
        g = DiGraph([[1, 1], [1, 0]])
        h = DiGraph([[0, 1], [1, 1]])
        d = distortion(g, h)
        assert (d.numerator, d.denominator) == (1, 2)
        assert d.as_fraction() == DistortionValue(1, 2).as_fraction()

    def test_pseudometric_exhaustive_n2(self):
        gs = all_graphs(2)
        for g in gs:
            assert distortion(g, g).numerator == 0
            for h in gs:
                assert distortion(g, h) == distortion(h, g)
                assert (distortion(g, h).numerator == 0) == (g == h)

    @settings(max_examples=200)
    @given(graph_strategy(3), graph_strategy(3), graph_strategy(3))
    def test_triangle_inequality(self, g, h, k):
        assert (
            distortion(g, k).as_fraction()
            <= distortion(g, h).as_fraction() + distortion(h, k).as_fraction()
        )

    def test_xor_degree_bound(self):
        for g in all_graphs(2):
            for h in all_graphs(2):
                d = EdgeType.of_graph(xor(g, h))
                assert max(d.r + d.c, default=0) <= 2


class TestDensity:
    def test_max_entry(self):
        assert density((2, 1), (2, 1)) == 2

    def test_zero_floor(self):
        assert density((0, 0), (0, 0)) == 1
