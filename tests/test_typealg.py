import random

import numpy as np
import pytest

from edgetype.graphs import DiGraph
from edgetype.typealg import (
    ComponentPartition,
    EdgeType,
    _staircase,
    components_from_structure,
    gale_ryser_feasible,
    invariant_positions,
    normalize,
    flow_feasible,
    reduce_by_invariants,
    structure_matrix,
)

# Golden 11-vertex example: normalized degree vectors whose structure
# matrix, zero staircase, and components are known in full.
GOLDEN_R = (10, 10, 9, 7, 6, 6, 5, 5, 2, 2, 1)
GOLDEN_C = (11, 9, 9, 8, 8, 5, 5, 3, 3, 1, 1)
GOLDEN_T = [
    [63, 52, 43, 34, 26, 18, 13, 8, 5, 2, 1, 0],
    [53, 43, 35, 27, 20, 13, 9, 5, 3, 1, 1, 1],
    [43, 34, 27, 20, 14, 8, 5, 2, 1, 0, 1, 2],
    [34, 26, 20, 14, 9, 4, 2, 0, 0, 0, 2, 4],
    [27, 20, 15, 10, 6, 2, 1, 0, 1, 2, 5, 8],
    [21, 15, 11, 7, 4, 1, 1, 1, 3, 5, 9, 13],
    [15, 10, 7, 4, 2, 0, 1, 2, 5, 8, 13, 18],
    [10, 6, 4, 2, 1, 0, 2, 4, 8, 12, 18, 24],
    [5, 2, 1, 0, 0, 0, 3, 6, 11, 16, 23, 30],
    [3, 1, 1, 1, 2, 3, 7, 11, 17, 23, 31, 39],
    [1, 0, 1, 2, 4, 6, 11, 16, 23, 30, 39, 48],
    [0, 0, 2, 4, 7, 10, 16, 22, 30, 38, 48, 58],
]


def structure_matrix_block_form(g: DiGraph) -> np.ndarray:
    """Block-count form evaluated on a member graph:
    t[e][f] = #zeros of the top-left e x f block + #ones of the bottom-right
    (n-e) x (n-f) block.  Cross-check for the closed form.
    """
    n = g.n
    a = g.adj.astype(np.int64)
    ones_tl = np.zeros((n + 1, n + 1), dtype=np.int64)
    ones_tl[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    total = ones_tl[n, n]
    t = np.empty((n + 1, n + 1), dtype=np.int64)
    for e in range(n + 1):
        for f in range(n + 1):
            n1_w = ones_tl[e, f]
            n0_w = e * f - n1_w
            n1_z = total - ones_tl[e, n] - ones_tl[n, f] + n1_w
            t[e, f] = n0_w + n1_z
    return t


def staircase_reference(r, c):
    """Haber's criterion cell by cell on a normalized type: every zero
    (e, f) of the structure matrix makes the top-left e x f rectangle
    invariant 1 and the bottom-right one from (e, f) invariant 0.  The
    zero rows and columns strictly inside (0, n) are the cuts."""
    n = len(r)
    inv1 = np.zeros((n, n), dtype=np.uint8)
    inv0 = np.zeros((n, n), dtype=np.uint8)
    zeros = list(zip(*np.nonzero(structure_matrix(r, c).t == 0)))
    for e, f in zeros:
        inv1[:e, :f] = 1
        inv0[e:, f:] = 1
    row_cuts = sorted({int(e) for e, _ in zeros if 0 < e < n})
    col_cuts = sorted({int(f) for _, f in zeros if 0 < f < n})
    return inv1, inv0, row_cuts, col_cuts


def zero_cell_runs(r, c):
    """(a, b, row cuts, column cuts) of a normalized type read off the zero
    cells of its structure matrix: sorted row i is invariant 1 before
    column a_i, the largest zero column of the rows below it, and
    invariant 0 from b_i, the smallest zero column of the rows up to it."""
    n = len(r)
    e, f = np.nonzero(structure_matrix(r, c).t == 0)
    a = [int(f[e > i].max(initial=0)) for i in range(n)]
    b = [int(f[e <= i].min(initial=n + 1)) for i in range(n)]
    row_cuts = sorted({int(x) for x in e if 0 < x < n})
    col_cuts = sorted({int(x) for x in f if 0 < x < n})
    return a, b, row_cuts, col_cuts


def staircase_types():
    """Seeded unrestricted types on n = 1..60 vertices, labels shuffled:
    random graphs of random density, threshold (Ferrers) graphs whose row
    lengths take few values, near-empty and near-full graphs, and graphs
    with an all-ones top-left and an all-zeros bottom-right block, whose
    column degrees often tie at the block height."""
    rng = np.random.default_rng(21)
    for n in range(1, 61):
        few = rng.integers(0, n + 1, 3)
        k, m = rng.integers(0, n + 1, 2)
        rows, cols = np.arange(n)[:, None], np.arange(n)
        blocked = (rows < k) & (cols < m) | (rng.random((n, n)) < rng.choice([0.0, 0.3, 1.0]))
        blocked &= (rows < k) | (cols < m)
        shapes = {
            "random": rng.random((n, n)) < rng.random(),
            "ferrers": cols < rng.choice(few, n)[:, None],
            "near-empty": rng.random((n, n)) < 1.5 / n**2,
            "near-full": rng.random((n, n)) >= 1.5 / n**2,
            "blocked": blocked,
        }
        for name, g in shapes.items():
            g = g[rng.permutation(n)][:, rng.permutation(n)]
            yield name, EdgeType.of_graph(DiGraph(g.astype(np.uint8)))


def all_degree_pairs(n):
    from itertools import product

    vals = range(n + 1)
    for r in product(vals, repeat=n):
        for c in product(vals, repeat=n):
            yield r, c


class TestEdgeTypeDegrees:
    @pytest.mark.parametrize(
        "bad, fragment",
        [
            (1.7, "degree 1.7 is not an integer"),
            (1.0, "degree 1.0 is not an integer"),
            (True, "degree True is not an integer"),
            (np.bool_(True), "is not an integer"),
            (np.float64(1.0), "is not an integer"),
            ("1", "degree '1' is not an integer"),
            (None, "degree None is not an integer"),
            (4, "degree 4 outside [0, 3]"),
            (-1, "degree -1 outside [0, 3]"),
            (np.int64(4), "degree 4 outside [0, 3]"),
        ],
        ids=["fraction", "integral-float", "bool", "numpy-bool", "numpy-float", "str", "none",
             "above-n", "negative", "numpy-above-n"],
    )
    def test_refused(self, bad, fragment):
        # a non-integer was once cast with int(), so (1.7, 1, 1) and (True, 1, 1) became (1, 1, 1)
        for r, c in (((bad, 1, 1), (1, 1, 1)), ((1, 1, 1), (1, bad, 1))):
            with pytest.raises(ValueError) as err:
                EdgeType(r, c)
            assert fragment in str(err.value)

    def test_numpy_integers_become_ints(self):
        t = EdgeType(tuple(np.array([2, 1, 0])), (np.int8(1), np.uint64(1), 1))
        assert t == EdgeType((2, 1, 0), (1, 1, 1))
        assert all(type(v) is int for v in (*t.r, *t.c))


class TestGaleRyser:
    def test_simple_feasible(self):
        assert gale_ryser_feasible((1, 1), (1, 1))
        assert gale_ryser_feasible((2, 2), (2, 2))
        assert gale_ryser_feasible((2, 0), (1, 1))

    def test_sum_mismatch_false(self):
        assert not gale_ryser_feasible((2, 0), (1, 0))

    def test_majorization_failure(self):
        # a full first row forces column sums (1, 1), so (2, 0) is unrealizable
        assert not gale_ryser_feasible((2, 0), (2, 0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gale_ryser_feasible((3, 0), (1, 1))

    def test_agrees_with_enumeration_n3(self):
        from edgetype.enumeration import count_class

        for r, c in all_degree_pairs(3):
            expected = count_class(EdgeType(r, c)) > 0
            assert gale_ryser_feasible(r, c) == expected, (r, c)


    def test_matches_quadratic_conjugate_seeded(self):
        def reference(r, c):
            """Gale-Ryser with the conjugate written out term by term."""
            n = len(r)
            if sum(r) != sum(c):
                return False
            cbar = [sum(1 for ri in r if ri >= j) for j in range(1, n + 1)]
            cdesc = sorted(c, reverse=True)
            return all(sum(cdesc[: k + 1]) <= sum(cbar[: k + 1]) for k in range(n))

        rng = random.Random(20)
        outcomes = set()
        for n in range(1, 51):
            for _ in range(12):
                r = [rng.choice((0, n, rng.randint(0, n))) for _ in range(n)]
                # c: the same total spread at random over columns of capacity n
                c = [0] * n
                for _ in range(sum(r)):
                    c[rng.choice([j for j in range(n) if c[j] < n])] += 1
                if rng.random() < 0.25:
                    j = rng.randrange(n)
                    c[j] += 1 if c[j] < n else -1  # unequal sums
                expected = reference(r, c)
                assert gale_ryser_feasible(r, c) == expected, (r, c)
                outcomes.add((expected, sum(r) == sum(c)))
        assert outcomes == {(True, True), (False, True), (False, False)}


class TestNormalize:
    def test_identity_when_sorted(self):
        t = EdgeType((2, 1), (2, 0))
        tn, rp, cp = normalize(t)
        assert tn.r == t.r and tn.c == t.c
        assert rp == (0, 1) and cp == (0, 1)

    def test_two_element_swap(self):
        t = EdgeType((1, 2), (0, 2))
        tn, rp, cp = normalize(t)
        assert tn.r == (2, 1) and tn.c == (2, 0)
        assert rp == (1, 0) and cp == (1, 0)

    def test_golden_vectors_already_normalized(self):
        t = EdgeType(GOLDEN_R, GOLDEN_C)
        tn, rp, cp = normalize(t)
        assert tn.r == GOLDEN_R and tn.c == GOLDEN_C
        assert rp == tuple(range(11)) and cp == tuple(range(11))

    def test_stable_ties(self):
        t = EdgeType((1, 1, 2), (1, 1, 2))
        _, rp, cp = normalize(t)
        assert rp == (2, 0, 1) and cp == (2, 0, 1)

    def test_restriction_permuted_consistently(self):
        w = DiGraph([[0, 1], [1, 1]])
        t = EdgeType((1, 2), (1, 2), w)
        tn, rp, cp = normalize(t)
        assert tn.w.adj[0, 0] == w.adj[rp[0], cp[0]]


class TestStructureMatrix:
    def test_golden_full_matrix(self):
        sm = structure_matrix(GOLDEN_R, GOLDEN_C)
        assert sm.tolist() == GOLDEN_T

    def test_corners(self):
        sm = structure_matrix((1, 1), (1, 1))
        assert sm.t[0, 0] == 2 and sm.t[2, 2] == 2
        assert sm.t[1, 1] == 1 and sm.t[2, 0] == 0 and sm.t[0, 2] == 0

    def test_all_zero_type(self):
        sm = structure_matrix((0, 0), (0, 0))
        assert sm.tolist() == [[e * f for f in range(3)] for e in range(3)]

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            structure_matrix((1, 2), (2, 1))

    def test_block_form_agrees_exhaustive_n3(self):
        from edgetype.enumeration import enumerate_class

        for r, c in all_degree_pairs(3):
            if tuple(sorted(r, reverse=True)) != r or tuple(sorted(c, reverse=True)) != c:
                continue
            if not gale_ryser_feasible(r, c):
                continue
            sm = structure_matrix(r, c)
            for g in enumerate_class(EdgeType(r, c)):
                assert structure_matrix_block_form(g).tolist() == sm.tolist()

    def test_nonnegative_iff_feasible_n3(self):
        for r, c in all_degree_pairs(3):
            if tuple(sorted(r, reverse=True)) != r or tuple(sorted(c, reverse=True)) != c:
                continue
            if sum(r) != sum(c):
                continue
            sm = structure_matrix(r, c)
            assert ((sm.t >= 0).all()) == gale_ryser_feasible(r, c), (r, c)


class TestInvariantPositions:
    def test_complete_graph_type_all_inv1(self):
        t = EdgeType((2, 2), (2, 2))
        masks = invariant_positions(t)
        assert masks.inv1 == DiGraph.complete(2)
        assert masks.free.edge_count() == 0

    def test_regular_pair_all_free(self):
        masks = invariant_positions(EdgeType((1, 1), (1, 1)))
        assert masks.free == DiGraph.complete(2)

    def test_golden_free_gaps(self):
        masks = invariant_positions(EdgeType(GOLDEN_R, GOLDEN_C))
        free = {(i, j) for i in range(11) for j in range(11) if masks.free.adj[i, j]}
        expected = {(i, j) for i in (0, 1) for j in (9, 10)}
        expected |= {(i, j) for i in (4, 5) for j in (5, 6)}
        expected |= {(i, j) for i in (8, 9) for j in (1, 2)}
        assert free == expected
        # first two rows carry invariant ones in columns 1-9 (0-indexed 0-8)
        assert masks.inv1.adj[0, :9].all() and masks.inv1.adj[1, :9].all()

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            invariant_positions(EdgeType((2, 0), (2, 0)))

    def test_restricted_rejected(self):
        w = DiGraph([[0, 1], [1, 1]])
        with pytest.raises(ValueError):
            invariant_positions(EdgeType((1, 1), (1, 1), w))

    def test_non_normalized_mapped_back(self):
        t = EdgeType((0, 2), (1, 1))
        masks = invariant_positions(t)
        # row 1 must carry both invariant ones, row 0 none
        assert masks.inv1.adj[1].sum() == 2 and masks.inv1.adj[0].sum() == 0

    def test_staircase_matches_rectangle_union_seeded(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(5, 61))
            adj = (rng.random((n, n)) < rng.random()).astype(np.uint8)
            g = DiGraph(adj)
            t = EdgeType.of_graph(g)
            masks = invariant_positions(t)
            tn, rp, cp = normalize(t)
            inv1, inv0, _, _ = staircase_reference(tn.r, tn.c)
            cells = np.ix_(rp, cp)
            assert (masks.inv1.adj[cells] == inv1).all(), (t.r, t.c)
            assert (masks.inv0.adj[cells] == inv0).all(), (t.r, t.c)
            # the generating graph is a member of its own class
            assert not (masks.inv1.adj & ~adj).any()
            assert not (masks.inv0.adj & adj).any()


class TestStaircase:
    def test_runs_and_cuts_match_zero_cells(self):
        tied = set()
        for name, t in staircase_types():
            s = _staircase(t, "staircase")
            tn, rp, cp = normalize(t)
            assert (s.row_perm.tolist(), s.col_perm.tolist()) == (list(rp), list(cp))
            a, b, row_cuts, col_cuts = zero_cell_runs(tn.r, tn.c)
            got = s.inv1_end.tolist(), s.inv0_start.tolist(), s.row_cuts, s.col_cuts
            assert got == (a, b, row_cuts, col_cuts), (name, t.r, t.c)
            # a row of the structure matrix with two zeros steps by 0 between
            # them: the zeros fall inside a run of equal column degrees
            if ((structure_matrix(tn.r, tn.c).t == 0).sum(axis=1) >= 2).any():
                tied.add(name)
        assert tied == {"random", "ferrers", "near-empty", "near-full", "blocked"}

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="empty class has no staircase"):
            _staircase(EdgeType((2, 0), (2, 0)), "staircase")


class TestComponents:
    def test_golden_nontrivial_blocks(self):
        comp = components_from_structure(EdgeType(GOLDEN_R, GOLDEN_C))
        nontrivial = {(rows, cols) for rows, cols in comp.nontrivial()}
        assert nontrivial == {
            ((0, 1), (9, 10)),
            ((4, 5), (5, 6)),
            ((8, 9), (1, 2)),
        }

    def test_complete_graph_type_all_trivial(self):
        comp = components_from_structure(EdgeType((2, 2), (2, 2)))
        assert comp.nontrivial() == []

    def test_regular_pair_single_block(self):
        comp = components_from_structure(EdgeType((1, 1), (1, 1)))
        assert comp.row_blocks == ((0, 1),) and comp.col_blocks == ((0, 1),)
        assert comp.nontrivial() == [((0, 1), (0, 1))]

    def test_blocks_tile_grid(self):
        comp = components_from_structure(EdgeType(GOLDEN_R, GOLDEN_C))
        cells = set()
        for rows, cols, _ in comp.blocks:
            for i in rows:
                for j in cols:
                    assert (i, j) not in cells
                    cells.add((i, j))
        assert len(cells) == 121

    def test_cuts_match_rectangle_union_seeded(self):
        rng = np.random.default_rng(8)
        for _ in range(120):
            n = int(rng.integers(5, 61))
            t = EdgeType.of_graph(DiGraph(rng.random((n, n)) < rng.random()))
            tn, rp, cp = normalize(t)
            inv1, inv0, row_cuts, col_cuts = staircase_reference(tn.r, tn.c)
            expected = ComponentPartition.from_cuts(row_cuts, col_cuts, 1 - inv1 - inv0, rp, cp)
            assert components_from_structure(t) == expected, (t.r, t.c)


class TestRestrictionNecessary:
    """The cases of the former necessary condition `restriction_necessary`
    (W must allow every invariant-1 cell of the unrestricted class), now
    decided exactly by one 0/1 flow."""

    def test_complete_is_feasibility(self):
        assert flow_feasible(EdgeType((1, 1), (1, 1)))
        assert not flow_feasible(EdgeType((2, 0), (2, 0)))

    def test_golden_missing_inv1_edge(self):
        adj = np.ones((11, 11), dtype=np.uint8)
        adj[0, 0] = 0  # cell (1,1) is an invariant 1-position
        assert not flow_feasible(EdgeType(GOLDEN_R, GOLDEN_C, DiGraph(adj)))
        assert flow_feasible(EdgeType(GOLDEN_R, GOLDEN_C))

    def test_no_inv1_cells_passes(self):
        w = DiGraph([[0, 1], [1, 0]])
        assert flow_feasible(EdgeType((1, 1), (1, 1), w))
        # no invariant-1 cell is forbidden here either, yet row 2 has no allowed cell
        assert not flow_feasible(EdgeType((1, 1), (1, 1), DiGraph([[1, 1], [0, 0]])))


class TestReduceByInvariants:
    def test_no_invariants_unchanged(self):
        t = EdgeType((1, 1), (1, 1))
        reduced = reduce_by_invariants(t, invariant_positions(t))
        assert reduced.r == t.r and reduced.c == t.c
        assert reduced.w == t.w

    def test_complete_type_reduces_to_zero(self):
        t = EdgeType((2, 2), (2, 2))
        reduced = reduce_by_invariants(t, invariant_positions(t))
        assert reduced.r == (0, 0) and reduced.c == (0, 0)
        assert reduced.w == DiGraph.empty(2)

    def test_golden_row_one_remainder(self):
        t = EdgeType(GOLDEN_R, GOLDEN_C)
        reduced = reduce_by_invariants(t, invariant_positions(t))
        assert reduced.r[0] == 1  # 10 minus 9 invariant ones
        assert reduced.w.adj[0, 9] == 1 and reduced.w.adj[0, 10] == 1

    def test_inconsistent_masks_rejected(self):
        from edgetype.typealg import InvariantMasks

        t = EdgeType((0, 0), (0, 0))
        bad = InvariantMasks(
            inv1=DiGraph.complete(2), inv0=DiGraph.empty(2), free=DiGraph.empty(2)
        )
        with pytest.raises(ValueError):
            reduce_by_invariants(t, bad)
