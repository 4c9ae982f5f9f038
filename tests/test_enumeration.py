import random
from functools import reduce
from itertools import product
from operator import and_

import numpy as np
import pytest

from edgetype import enumeration
from edgetype.enumeration import (
    EnumerationLimitError,
    class_invariants,
    class_nonempty,
    components_by_enumeration,
    count_class,
    count_delta_class,
    delta_degree_choices,
    enumerate_class,
    enumerate_conditional,
    enumerate_delta_class,
    interchange_connected,
    interchange_neighbors,
    invariants_by_enumeration,
    partition_by_type,
)
from edgetype.graphs import DiGraph, respects_restriction
from edgetype.typealg import (
    ComponentPartition,
    EdgeType,
    InvariantMasks,
    components_from_structure,
    gale_ryser_feasible,
    invariant_positions,
)


class TestEnumerateClass:
    def test_two_member_class(self):
        members = list(enumerate_class(EdgeType((1, 1), (1, 1))))
        assert members == [
            DiGraph([[0, 1], [1, 0]]),
            DiGraph([[1, 0], [0, 1]]),
        ]

    def test_infeasible_empty(self):
        assert list(enumerate_class(EdgeType((2, 0), (2, 0)))) == []

    def test_permutation_class_n3(self):
        assert count_class(EdgeType((1, 1, 1), (1, 1, 1))) == 6

    def test_members_valid_and_unique(self):
        w = DiGraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        t = EdgeType((1, 1, 1), (1, 1, 1), w)
        members = list(enumerate_class(t))
        assert len(set(members)) == len(members) == 2
        for g in members:
            assert EdgeType.of_graph(g, w) == t
            assert respects_restriction(g, w)

    def test_limit_enforced(self):
        with pytest.raises(EnumerationLimitError):
            list(enumerate_class(EdgeType((0,) * 7, (0,) * 7)))

    def test_agrees_with_unpruned_bucketing_n3(self):
        buckets = partition_by_type(3)
        for (r, c), bits in sorted(buckets.items()):
            got = [g.to_bits() for g in enumerate_class(EdgeType(r, c))]
            assert sorted(got) == sorted(bits), (r, c)


class TestCountClass:
    def test_examples(self):
        assert count_class(EdgeType((1, 1), (1, 1))) == 2
        assert count_class(EdgeType((2, 2), (2, 2))) == 1
        assert count_class(EdgeType((1, 1, 1), (1, 1, 1))) == 6

    def test_partition_of_graph_space_n3(self):
        total = 0
        for r in product(range(4), repeat=3):
            for c in product(range(4), repeat=3):
                if sum(r) == sum(c):
                    total += count_class(EdgeType(r, c))
        assert total == 2**9

    def test_relabeling_invariance(self):
        t = EdgeType((2, 1, 0), (1, 1, 1))
        perm = (2, 0, 1)
        r2 = tuple(t.r[p] for p in perm)
        c2 = tuple(t.c[p] for p in perm)
        assert count_class(t) == count_class(EdgeType(r2, c2))


class TestCountDynamicProgram:
    """count_class against oracles that visit every member."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_partition_every_pair(self, n):
        buckets = partition_by_type(n)
        for r in product(range(n + 1), repeat=n):
            for c in product(range(n + 1), repeat=n):
                assert count_class(EdgeType(r, c)) == len(buckets.get((r, c), [])), (r, c)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_enumeration_under_restriction(self, n):
        rng = random.Random(f"count:{n}")
        for _ in range(12):
            w = DiGraph.from_bits(n, rng.getrandbits(n * n))
            for r in product(range(n + 1), repeat=n):
                for c in product(range(n + 1), repeat=n):
                    t = EdgeType(r, c, w)
                    assert count_class(t) == sum(1 for _ in enumerate_class(t)), (r, c, w)

    def test_matches_enumeration_random_restricted_n5(self):
        rng = random.Random("count:5")
        n = 5
        for _ in range(200):
            wbits = rng.getrandbits(n * n) | rng.getrandbits(n * n)
            w = DiGraph.from_bits(n, wbits)
            t = EdgeType.of_graph(DiGraph.from_bits(n, wbits & rng.getrandbits(n * n)), w)
            assert count_class(t) == sum(1 for _ in enumerate_class(t)), (t.r, t.c, wbits)

    @pytest.mark.parametrize(
        "k, n, size",
        [
            # OEIS A001499 (2-regular) and A001501 (3-regular)
            (2, 6, 67_950), (2, 7, 3_110_940), (2, 8, 187_530_840),
            (3, 6, 297_200), (3, 7, 68_938_800), (3, 8, 24_046_189_440),
        ],
    )
    def test_regular_classes_beyond_default_limit(self, k, n, size):
        assert count_class(EdgeType((k,) * n, (k,) * n)) == size

    def test_budget_edge(self, monkeypatch):
        # The derangements of 3 vertices cost 11 column-class visits, a step being charged
        # the classes of the state it leaves: row 0 takes either column W allows from the
        # start state of three classes (3 + 3), row 1 its one column from each of the two
        # states of two classes (2 + 2), and row 2 the last column (1).
        t = EdgeType((1,) * 3, (1,) * 3, DiGraph([[int(i != j) for j in range(3)] for i in range(3)]))
        monkeypatch.setattr(enumeration, "COUNT_BUDGET", 11)
        assert count_class(t) == count_delta_class(t, 0, 1) == 2
        monkeypatch.setattr(enumeration, "COUNT_BUDGET", 10)
        for count in (lambda: count_class(t), lambda: count_delta_class(t, 0, 1)):
            with pytest.raises(EnumerationLimitError, match="^counting exceeds its budget of 10 column-class visits$"):
                count()

    def test_delta_count_matches_enumeration(self):
        types = [
            EdgeType((1, 1, 1), (1, 1, 1)),
            EdgeType((2, 1, 0), (1, 1, 1)),
            EdgeType((2, 2, 2), (2, 2, 2)),
            EdgeType((3, 0, 0), (1, 1, 1)),
        ]
        for t in types:
            dens = t.density()
            for delta in (0.1, 0.25, 0.4, 0.5, 1.1, 2.0):
                expected = len(set(enumerate_delta_class(t, delta, dens)))
                assert count_delta_class(t, delta, dens) == expected, (t.r, t.c, delta)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_delta_count_matches_enumeration_every_pair(self, n):
        # every degree pair at n, every W at n <= 2 and seeded W at n = 3; the enumeration
        # depends only on the admissible degrees and W, so each such set is enumerated once
        ws = [DiGraph.from_bits(n, bits) for bits in range(1 << n * n)]
        if n == 3:
            rng = random.Random("delta-count:3")
            ws = [DiGraph.complete(3), *(DiGraph.from_bits(3, rng.getrandbits(9) | rng.getrandbits(9)) for _ in range(3))]
        sizes = {}
        for r, c in partition_by_type(n):
            for w in ws:
                t = EdgeType(r, c, w)
                for delta, dens in product((0, 0.25, 0.5, 1.0, 2.0), (0, 1, t.density())):
                    key = (tuple(tuple(delta_degree_choices(v, n, delta, dens)) for v in r + c), w)
                    if key not in sizes:
                        sizes[key] = len(set(enumerate_delta_class(t, delta, dens)))
                    assert count_delta_class(t, delta, dens) == sizes[key], (r, c, w, delta, dens)

    def test_delta_count_matches_pair_sum(self):
        # sparse seeded types at n = 4..6 (each cell the AND of `masks` fair bits), rows
        # unsorted, under W complete and a seeded W; at delta 1.0, dens 2 and 3 let every
        # degree move by one and by two
        rng = random.Random("delta-pairs")
        for n, copies, masks, dens_values in ((4, 4, 2, (2, 3)), (5, 2, 2, (2,)), (6, 1, 3, (2,))):
            for _, restricted in product(range(copies), (False, True)):
                g = reduce(and_, (rng.getrandbits(n * n) for _ in range(masks)))
                w = g | rng.getrandbits(n * n) if restricted else (1 << n * n) - 1
                t = EdgeType.of_graph(DiGraph.from_bits(n, g), DiGraph.from_bits(n, w))
                for delta, dens in [(0.5, t.density()), *((1.0, d) for d in dens_values)]:
                    assert count_delta_class(t, delta, dens) == delta_pair_sum(t, delta, dens), (t.r, t.c, w, dens)

    def test_delta_count_walks_no_degree_pairs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the degree pairs were walked")

        t = EdgeType((4, 2, 1, 0), (2, 2, 2, 1))
        expected = delta_pair_sum(t, 0.5, t.density())
        monkeypatch.setattr(enumeration, "_delta_types", refuse)
        assert count_delta_class(t, 0.5, t.density()) == expected == 2336

    @pytest.mark.parametrize("delta, size", [(0.5, 61_725_145), (1.0, 4_347_049_110)])
    def test_delta_count_of_a_wide_class(self, delta, size):
        # 49 721 and 5 191 565 admissible degree pairs at dens 3
        assert count_delta_class(EdgeType((3, 3, 2, 1, 1, 0), (2, 2, 2, 2, 1, 1)), delta, 3) == size


def delta_pair_sum(t, delta, dens):
    """|T_delta| as the sum of the class sizes over the admissible degree pairs."""
    return sum(count_class(EdgeType(r, c, t.w)) for r, c in enumeration._delta_types(t, delta, dens))


class TestInterchange:
    def test_single_neighbor(self):
        g = DiGraph([[1, 0], [0, 1]])
        nb = interchange_neighbors(g, DiGraph.complete(2))
        assert nb == [DiGraph([[0, 1], [1, 0]])]

    def test_empty_and_complete_have_none(self):
        for g in (DiGraph.empty(3), DiGraph.complete(3)):
            assert interchange_neighbors(g, DiGraph.complete(3)) == []

    def test_neighbors_preserve_type_and_restriction(self):
        g = DiGraph([[1, 1, 0], [0, 1, 1], [1, 0, 0]])
        w = DiGraph.complete(3)
        for h in interchange_neighbors(g, w):
            assert EdgeType.of_graph(h) == EdgeType.of_graph(g)

    def test_restriction_filters_neighbors(self):
        g = DiGraph([[1, 0], [0, 1]])
        w = DiGraph([[1, 0], [1, 1]])  # the swap needs cell (0,1)
        assert interchange_neighbors(g, w) == []

    def test_connected_examples(self):
        assert interchange_connected(EdgeType((1, 1, 1), (1, 1, 1)))
        assert interchange_connected(EdgeType((2, 2), (2, 2)))  # singleton

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            interchange_connected(EdgeType((2, 0), (2, 0)))

    def test_connected_all_types_n3(self):
        buckets = partition_by_type(3)
        for (r, c), bits in sorted(buckets.items()):
            if bits:
                assert interchange_connected(EdgeType(r, c)), (r, c)


class TestDeltaClass:
    def test_delta_zero_is_plain_class(self):
        t = EdgeType((1, 1), (1, 1))
        assert list(enumerate_delta_class(t, 0.0, 1)) == list(enumerate_class(t))

    def test_large_delta_admits_everything(self):
        t = EdgeType((1, 1), (1, 1))
        got = set(enumerate_delta_class(t, 10.0, 1))
        assert len(got) == 16

    def test_monotone_in_delta(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        sizes = [
            len(set(enumerate_delta_class(t, d, t.density())))
            for d in (0.0, 0.6, 1.1, 2.1, 10.0)
        ]
        assert sizes == sorted(sizes)
        assert sizes[0] == 6 and sizes[-1] == 512

    def test_disjoint_union_cardinality(self):
        t = EdgeType((1, 1), (1, 1))
        delta, dens = 1.5, 1
        expected = 0
        r_opts = [delta_degree_choices(v, 2, delta, dens) for v in t.r]
        c_opts = [delta_degree_choices(v, 2, delta, dens) for v in t.c]
        for r in product(*r_opts):
            for c in product(*c_opts):
                if sum(r) == sum(c):
                    expected += count_class(EdgeType(r, c))
        got = list(enumerate_delta_class(t, delta, dens))
        assert len(got) == len(set(got)) == expected

    def test_strict_inequality(self):
        # deviation exactly delta*dens is excluded
        t = EdgeType((1, 1), (1, 1))
        members = set(enumerate_delta_class(t, 1.0, 1))
        assert members == set(enumerate_class(t))


class TestConditional:
    def test_remark_pair(self):
        g = DiGraph([[1, 1], [1, 0]])
        t = EdgeType((1, 1), (1, 1))
        got = list(enumerate_conditional(t, g))
        assert set(got) == {
            DiGraph([[0, 1], [1, 1]]),
            DiGraph([[1, 0], [0, 0]]),
        }
        # the two reconstructions have different edge-types
        counts = {h.edge_count() for h in got}
        assert counts == {1, 3}

    def test_zero_type_returns_reference(self):
        g = DiGraph([[1, 1], [1, 0]])
        t = EdgeType((0, 0), (0, 0))
        assert list(enumerate_conditional(t, g)) == [g]

    def test_reference_must_respect_restriction(self):
        w = DiGraph([[0, 1], [1, 1]])
        g = DiGraph([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            list(enumerate_conditional(EdgeType((1, 1), (1, 1), w), g))


class TestOracles:
    def test_singleton_all_invariant(self):
        masks = invariants_by_enumeration(EdgeType((2, 2), (2, 2)))
        assert masks.free.edge_count() == 0

    def test_regular_pair_no_invariants(self):
        masks = invariants_by_enumeration(EdgeType((1, 1), (1, 1)))
        assert masks.free == DiGraph.complete(2)

    def test_matches_structure_n3(self):
        buckets = partition_by_type(3)
        for (r, c), bits in sorted(buckets.items()):
            if not bits:
                continue
            if tuple(sorted(r, reverse=True)) != r or tuple(sorted(c, reverse=True)) != c:
                continue
            t = EdgeType(r, c)
            a = invariant_positions(t)
            b = invariants_by_enumeration(t)
            assert a.inv1 == b.inv1 and a.inv0 == b.inv0, (r, c)
            ca = components_from_structure(t)
            cb = components_by_enumeration(t)
            assert ca.row_blocks == cb.row_blocks
            assert ca.col_blocks == cb.col_blocks
            assert ca.blocks == cb.blocks

    def test_block_margins_constant_across_members(self):
        t = EdgeType((2, 2, 1, 1), (2, 2, 1, 1))
        comp = components_by_enumeration(t)
        members = list(enumerate_class(t))
        for rows, cols, _ in comp.blocks:
            sums = {
                int(sum(int(m.adj[i, j]) for i in rows for j in cols)) for m in members
            }
            assert len(sums) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_components_of_unsorted_types_in_vertex_labels(n):
    checked = 0
    for (r, c), bits in sorted(partition_by_type(n).items()):
        if not bits or (list(r) == sorted(r, reverse=True) and list(c) == sorted(c, reverse=True)):
            continue
        t = EdgeType(r, c)
        comp = components_from_structure(t)
        members = np.stack([m.adj for m in enumerate_class(t)])
        # free cells, as invariants_by_enumeration defines them
        free = members.min(axis=0) != members.max(axis=0)
        for rows, cols, trivial in comp.blocks:
            assert list(rows) == sorted(rows) and list(cols) == sorted(cols)
            sums = members[:, rows][:, :, cols].sum(axis=(1, 2))
            assert (sums == sums[0]).all(), (r, c, rows, cols)
            assert trivial == (not free[np.ix_(rows, cols)].any()), (r, c, rows, cols)
        assert sorted(i for rows in comp.row_blocks for i in rows) == list(range(n))
        assert sorted(j for cols in comp.col_blocks for j in cols) == list(range(n))
        checked += 1
    assert checked > 0


class TestClassDispatch:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nonempty_matches_brute_force_under_restriction(self, n):
        buckets = partition_by_type(n)
        rng = random.Random(f"nonempty:{n}")
        cells = n * n
        ws = [(1 << cells) - 1, 0] + [rng.getrandbits(cells) for _ in range(10)]
        for wbits in ws:
            w = DiGraph.from_bits(n, wbits)
            inside = {rc for rc, bits in buckets.items() if any(b & ~wbits == 0 for b in bits)}
            for r in product(range(n + 1), repeat=n):
                for c in product(range(n + 1), repeat=n):
                    got = class_nonempty(EdgeType(r, c, w))
                    assert got == ((r, c) in inside), (r, c, wbits)

    def test_invariants_dispatch(self):
        t = EdgeType((2, 1, 0), (1, 1, 1))
        assert class_invariants(t) == invariant_positions(t)
        w = DiGraph([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        tw = EdgeType((1, 1, 1), (1, 1, 1), w)
        assert class_invariants(tw) == invariants_by_enumeration(tw)

    def test_restricted_nonempty_respects_limit(self):
        # a flow question, so no enumeration limit applies (this once raised
        # EnumerationLimitError); each answer is checked by counting the class
        derangements = EdgeType((1,) * 7, (1,) * 7, DiGraph([[int(i != j) for j in range(7)] for i in range(7)]))
        w = DiGraph([[1] * 7] * 6 + [[0] * 7])
        types = [derangements, EdgeType((1,) * 6 + (0,), (1,) * 6 + (0,), w), EdgeType((1,) * 7, (1,) * 7, w)]
        assert [class_nonempty(t) for t in types] == [count_class(t) > 0 for t in types]
        assert [class_nonempty(t) for t in types] == [True, True, False]


def seeded_types(n, count=8):
    """Nonempty classes at n: the types of seeded random graphs, each under
    W complete and under a seeded W that contains the graph and about
    three quarters of the other cells."""
    rng = random.Random(f"seeded-types:{n}")
    for _ in range(count):
        g = DiGraph.from_bits(n, rng.getrandbits(n * n))
        w = DiGraph.from_bits(n, g.to_bits() | rng.getrandbits(n * n) | rng.getrandbits(n * n))
        yield EdgeType.of_graph(g)
        yield EdgeType.of_graph(g, w)


def brute_force_interchanges(g, t):
    """The members h of g's class for which g xor h is exactly a 2 x 2
    rectangle, ordered by its row pair and then its column pair."""
    found = []
    for h in enumerate_class(t):
        d = g.adj ^ h.adj
        rows, cols = np.flatnonzero(d.any(axis=1)), np.flatnonzero(d.any(axis=0))
        if len(rows) == 2 and len(cols) == 2 and d.sum() == 4:
            found.append(((*rows.tolist(), *cols.tolist()), h))
    return [h for _, h in sorted(found, key=lambda x: x[0])]


def intersect_members(t):
    """Invariant masks by intersecting the member matrices one by one."""
    members = list(enumerate_class(t))
    inv1 = members[0].adj.copy()
    inv0 = 1 - members[0].adj
    for m in members[1:]:
        inv1 &= m.adj
        inv0 &= 1 - m.adj
    free = (1 - inv1 - inv0).astype(np.uint8)
    return InvariantMasks(inv1=DiGraph(inv1), inv0=DiGraph(inv0), free=DiGraph(free))


def components_per_member(t):
    """Cut pairs tested on every member's 2D prefix sums:
    top-left e x f all ones <=> prefix[e][f] == e*f, bottom-right all
    zeros <=> total - row strip - col strip + prefix == 0."""
    n = t.n
    prefixes = []
    for m in enumerate_class(t):
        p = np.zeros((n + 1, n + 1), dtype=np.int64)
        p[1:, 1:] = m.adj.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
        prefixes.append(p)
    corners = [
        (e, f)
        for e in range(n + 1)
        for f in range(n + 1)
        if all(
            p[e, f] == e * f and p[n, n] - p[e, n] - p[n, f] + p[e, f] == 0
            for p in prefixes
        )
    ]
    return ComponentPartition.from_cuts(
        sorted({e for e, _ in corners if 0 < e < n}),
        sorted({f for _, f in corners if 0 < f < n}),
        intersect_members(t).free.adj,
    )


class TestBitmaskOracles:
    """The bitmask oracles against per-member DiGraph implementations."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_interchange_neighbors_match_brute_force(self, n):
        for t in seeded_types(n):
            for g in enumerate_class(t):
                assert interchange_neighbors(g, t.w) == brute_force_interchanges(g, t), (t, g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_invariants_and_components_match_per_member(self, n):
        types = list(seeded_types(n))
        if n <= 3:
            types += [EdgeType(r, c) for (r, c), bits in sorted(partition_by_type(n).items()) if bits]
        for t in types:
            assert invariants_by_enumeration(t) == intersect_members(t), t
            assert components_by_enumeration(t) == components_per_member(t), t

    def test_interchange_reach_matches_brute_force_walk(self):
        no_loops = DiGraph(1 - np.eye(3, dtype=np.uint8))  # two 3-cycles, no interchange
        for t in [*seeded_types(4), EdgeType((1, 1, 1), (1, 1, 1), no_loops)]:
            first = next(enumerate_class(t))
            seen, frontier = {first}, [first]
            while frontier:
                frontier = [
                    h for g in frontier for h in brute_force_interchanges(g, t) if h not in seen
                ]
                seen.update(frontier)
            assert enumeration.interchange_reach(t) == (len(seen), count_class(t)), t
        assert enumeration.interchange_reach(t) == (1, 2)


def lex_key(bits, n):
    """Lexicographic rank of the row-major bit string, cell (0, 0) first."""
    return int(format(bits, f"0{n * n}b")[::-1], 2)


class TestMemberOrder:
    """The pruned search against the unpruned sweep of all 2^(n^2) graphs:
    the same members, in lexicographic order of the row-major bit string."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pair_in_order(self, n):
        buckets, w = partition_by_type(n), DiGraph.complete(n)
        degrees = list(product(range(n + 1), repeat=n))
        for r in degrees:
            for c in degrees:
                if sum(r) == sum(c):  # other pairs are empty before any search
                    want = sorted(buckets.get((r, c), []), key=lambda b: lex_key(b, n))
                    assert list(enumeration._members(EdgeType(r, c, w), 4)) == want, (r, c)

    @pytest.mark.parametrize("n", [3, 4])
    def test_restricted_in_order(self, n):
        buckets = partition_by_type(n)
        rng = random.Random(f"member-order:{n}")
        for _ in range(6 if n == 3 else 3):
            wbits = rng.getrandbits(n * n) | rng.getrandbits(n * n)
            w = DiGraph.from_bits(n, wbits)
            for (r, c), bits in sorted(buckets.items()):
                want = sorted((b for b in bits if not b & ~wbits), key=lambda b: lex_key(b, n))
                assert list(enumeration._members(EdgeType(r, c, w), 4)) == want, (r, c, wbits)

    def test_delta_class_in_order(self):
        n = 3
        buckets = partition_by_type(n)
        for t in [EdgeType((1, 1, 1), (1, 1, 1)), EdgeType((2, 1, 0), (1, 1, 1)), EdgeType((3, 1, 0), (2, 1, 1))]:
            for delta, dens in [(0.0, 1), (0.5, 3), (0.4, 5), (1.1, 2)]:
                want = [
                    DiGraph.from_bits(n, b)
                    for (r, c), bits in sorted(buckets.items())
                    if all(x == y or abs(x - y) < delta * dens for x, y in zip(r + c, t.r + t.c))
                    for b in sorted(bits, key=lambda b: lex_key(b, n))
                ]
                assert list(enumerate_delta_class(t, delta, dens)) == want, (t, delta, dens)

    def test_two_regular_n6_stream(self):
        # OEIS A001499: 67 950 members, each once, in order, each of the type
        t = EdgeType((2,) * 6, (2,) * 6)
        members = list(enumeration._members(t, 6))
        assert len(set(members)) == len(members) == count_class(t) == 67_950
        keys = [lex_key(b, 6) for b in members]
        assert keys == sorted(keys)
        cells = np.unpackbits(
            np.array(members, dtype="<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )[:, :36].reshape(-1, 6, 6)
        assert (cells.sum(axis=2) == 2).all() and (cells.sum(axis=1) == 2).all()
