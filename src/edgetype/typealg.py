"""Edge-type classes: feasibility, normalization, the Ryser structure
matrix, invariant positions, components, and restriction-graph reduction.

An edge-type is a pair of degree vectors (r, c) plus an optional
restriction graph W whose non-edges are forbidden cells.  A *normalized*
type has both r and c sorted non-increasing; the structure matrix is
defined on normalized types with W complete.  Invariant positions and
components are two readings of one staircase: the degrees are sorted
once, each row's zero cells of the structure matrix are read from prefix
sums in O(n) without building the matrix, and both invariant masks and
the block cuts come from them, answered in the caller's vertex labels;
the max-entropy solve reads the same staircase.  For any W, non-emptiness
and the invariant masks come from one 0/1 flow and the strongly connected
components of its residual digraph, and the components from the masks
(`flow_feasible`, `flow_invariants`, `components_from_masks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import DiGraph, _pack, density

__all__ = [
    "EdgeType",
    "EmptyResult",
    "StructureMatrix",
    "InvariantMasks",
    "ComponentPartition",
    "gale_ryser_feasible",
    "normalize",
    "structure_matrix",
    "invariant_positions",
    "components_from_structure",
    "flow_feasible",
    "flow_invariants",
    "components_from_masks",
    "reduce_by_invariants",
]


class EmptyResult(ValueError):
    """A well-formed query whose answer is an empty class or codebook."""


@dataclass(frozen=True)
class EdgeType:
    """Restricted edge-type (r, c, W).  Feasibility is not assumed."""

    r: tuple[int, ...]
    c: tuple[int, ...]
    w: DiGraph = None  # type: ignore[assignment]

    def __post_init__(self):
        n = len(self.r)
        if n == 0:
            raise ValueError("edge types need n >= 1 vertices")
        if len(self.c) != n:
            raise ValueError("r and c must have equal length")
        if self.w is None:
            object.__setattr__(self, "w", DiGraph.complete(n))
        if self.w.n != n:
            raise ValueError("restriction graph size must match degree vectors")
        deg = []  # an integer (a numpy one too, but not a bool) in [0, n]
        for v in (*self.r, *self.c):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"degree {v!r} is not an integer")
            if not 0 <= v <= n:
                raise ValueError(f"degree {v} outside [0, {n}]")
            deg.append(int(v))
        object.__setattr__(self, "r", tuple(deg[:n]))
        object.__setattr__(self, "c", tuple(deg[n:]))

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def unrestricted(self) -> bool:
        return bool(self.w.adj.all())

    def density(self) -> int:
        return density(self.r, self.c)

    @classmethod
    def of_graph(cls, g: DiGraph, w: DiGraph | None = None) -> "EdgeType":
        return cls(
            r=tuple(int(x) for x in g.adj.sum(axis=1)),
            c=tuple(int(x) for x in g.adj.sum(axis=0)),
            w=w if w is not None else DiGraph.complete(g.n),
        )


@dataclass(frozen=True)
class StructureMatrix:
    """(n+1) x (n+1) integer matrix of a normalized unrestricted type."""

    t: np.ndarray

    def tolist(self) -> list[list[int]]:
        return self.t.astype(int).tolist()


@dataclass(frozen=True)
class InvariantMasks:
    """Partition of the n^2 cells into always-1, always-0, and free cells."""

    inv1: DiGraph
    inv0: DiGraph
    free: DiGraph

    def __post_init__(self):
        total = self.inv1.adj + self.inv0.adj + self.free.adj
        if not (total == 1).all():
            raise ValueError("masks must partition the cell grid")


@dataclass(frozen=True)
class ComponentPartition:
    """Row/column blocks with constant block margins across the class.

    Blocks are (rows, cols, trivial) with sorted 0-indexed vertex tuples;
    a trivial block contains only invariant cells.
    """

    row_blocks: tuple[tuple[int, ...], ...]
    col_blocks: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...], bool], ...]

    @classmethod
    def from_cuts(
        cls,
        row_cuts: Sequence[int],
        col_cuts: Sequence[int],
        free: np.ndarray,
        row_perm: Sequence[int] | None = None,
        col_perm: Sequence[int] | None = None,
    ) -> "ComponentPartition":
        """Blocks of consecutive positions between ascending interior cuts;
        a block is trivial when the free-cell mask, indexed by position,
        misses it.  Positions are reported as vertex labels through the
        permutations (identity by default).
        """
        n = free.shape[0]
        rows = list(zip([0, *row_cuts], [*row_cuts, n]))
        cols = list(zip([0, *col_cuts], [*col_cuts, n]))

        def label(lo, hi, perm):
            return tuple(range(lo, hi)) if perm is None else tuple(sorted(perm[lo:hi]))

        return cls(
            row_blocks=tuple(label(lo, hi, row_perm) for lo, hi in rows),
            col_blocks=tuple(label(lo, hi, col_perm) for lo, hi in cols),
            blocks=tuple(
                (label(r0, r1, row_perm), label(c0, c1, col_perm), not free[r0:r1, c0:c1].any())
                for r0, r1 in rows
                for c0, c1 in cols
            ),
        )

    def nontrivial(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [(rows, cols) for rows, cols, trivial in self.blocks if not trivial]


def gale_ryser_feasible(r: Sequence[int], c: Sequence[int]) -> bool:
    """Nonemptiness of the unrestricted class T(r, c) by majorization.

    The maximal matrix packs each row's ones to the left; its column sums
    must majorize c.  A total-sum mismatch simply yields False.
    """
    n = len(r)
    if len(c) != n:
        raise ValueError("r and c must have equal length")
    for v in (*r, *c):
        if not 0 <= v <= n:
            raise ValueError(f"degree {v} outside [0, {n}]")
    if sum(r) != sum(c):
        return False
    # cbar[j-1] = #{i : r_i >= j}, the column sums of the maximal matrix
    counts = np.bincount(np.asarray(r, dtype=np.intp), minlength=n + 1)
    cbar = counts[::-1].cumsum()[::-1][1:].tolist()
    cdesc = sorted(c, reverse=True)
    partial_c = 0
    partial_cbar = 0
    for k in range(n):
        partial_c += cdesc[k]
        partial_cbar += cbar[k]
        if partial_c > partial_cbar:
            return False
    return partial_c == partial_cbar


def _degree_order(deg: Sequence[int]) -> np.ndarray:
    """Vertices by non-increasing degree, ties in vertex order."""
    return np.argsort(-np.asarray(deg), kind="stable")


def normalize(t: EdgeType) -> tuple[EdgeType, tuple[int, ...], tuple[int, ...]]:
    """Sort r and c non-increasing; return the permutations mapping sorted
    indices back to original vertices (stable: ties keep original order).

    row_perm[k] is the original vertex whose out-degree lands at sorted
    position k, likewise col_perm for in-degrees.  The restriction graph
    is permuted accordingly.
    """
    row_perm = tuple(_degree_order(t.r).tolist())
    col_perm = tuple(_degree_order(t.c).tolist())
    r_sorted = tuple(t.r[i] for i in row_perm)
    c_sorted = tuple(t.c[j] for j in col_perm)
    w_sorted = DiGraph(t.w.adj[np.ix_(row_perm, col_perm)])
    return EdgeType(r_sorted, c_sorted, w_sorted), row_perm, col_perm


def structure_matrix(r: Sequence[int], c: Sequence[int]) -> StructureMatrix:
    """Closed-form structure matrix of a normalized unrestricted type:

        t[e][f] = e*f + sum_{i > e} r(i) - sum_{j <= f} c(j)

    with e, f ranging over 0..n (degree indices are 1-based here).
    """
    if any(r[i] < r[i + 1] for i in range(len(r) - 1)) or any(
        c[j] < c[j + 1] for j in range(len(c) - 1)
    ):
        raise ValueError("structure matrix requires non-increasing (r, c)")
    n = len(r)
    r_tail = np.concatenate([np.cumsum(np.asarray(r, dtype=np.int64)[::-1])[::-1], [0]])
    c_head = np.concatenate([[0], np.cumsum(np.asarray(c, dtype=np.int64))])
    e = np.arange(n + 1)
    f = np.arange(n + 1)
    t = e[:, None] * f[None, :] + r_tail[:, None] - c_head[None, :]
    return StructureMatrix(t=t)


class _Staircase(NamedTuple):
    """The zero staircase of an unrestricted class, read in sorted
    positions: sorted row i is invariant 1 on the columns before
    inv1_end[i], invariant 0 from inv0_start[i] on and free in between.
    With the interior cuts and the permutations (arrays) that map sorted
    positions to vertex labels."""

    row_perm: np.ndarray
    col_perm: np.ndarray
    inv1_end: np.ndarray
    inv0_start: np.ndarray
    row_cuts: list[int]
    col_cuts: list[int]

    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """The invariant-1 and invariant-0 cells, in sorted positions."""
        j = np.arange(len(self.inv1_end))
        return j < self.inv1_end[:, None], j >= self.inv0_start[:, None]


def _staircase(t: EdgeType, what: str, hint: str = "") -> _Staircase:
    """Sort the degrees once and read everything off the zero cells of the
    structure matrix (Haber's criterion): sorted cell (i, j) is invariant 1
    iff some zero (e, f) has e > i and f > j, and invariant 0 iff some zero
    has e <= i and f <= j.  So row i's invariant ones end at the largest
    zero column of the rows below it (a suffix maximum), and its invariant
    zeros start at the smallest zero column of the rows up to it (a prefix
    minimum).

    The matrix itself is never built.  Along row e it steps by e - c(f+1)
    from column f to f+1, which never falls as f grows, so the row's
    minimum is held exactly on the columns #{c_j > e} .. #{c_j >= e}; a
    nonempty class has no negative cell, so those are the row's zeros when
    that minimum is 0, and it has none otherwise.
    """
    if not t.unrestricted:
        raise ValueError(f"{what} from the structure matrix require W complete{hint}")
    if not gale_ryser_feasible(t.r, t.c):
        raise EmptyResult(f"empty class has no {what}")
    n = t.n
    row_perm = _degree_order(t.r)
    col_perm = _degree_order(t.c)
    r = np.asarray(t.r, dtype=np.int64)[row_perm]
    c = np.asarray(t.c, dtype=np.int64)[col_perm]
    e = np.arange(n + 1)
    c_ascending = c[::-1]
    lo = n - np.searchsorted(c_ascending, e, side="right")  # #{c_j > e}
    hi = n - np.searchsorted(c_ascending, e, side="left")  # #{c_j >= e}
    r_tail = np.concatenate([np.cumsum(r[::-1])[::-1], [0]])
    c_head = np.concatenate([[0], np.cumsum(c)])
    held = e * lo + r_tail - c_head[lo] == 0
    first = np.where(held, lo, n + 1)
    last = np.where(held, hi, 0)
    # columns inside some held row's run of zeros, by a difference array
    spans = np.bincount(lo[held], minlength=n + 2) - np.bincount(hi[held] + 1, minlength=n + 2)
    return _Staircase(
        row_perm=row_perm,
        col_perm=col_perm,
        inv1_end=np.maximum.accumulate(last[::-1])[::-1][1:],
        inv0_start=np.minimum.accumulate(first)[:n],
        row_cuts=(np.flatnonzero(held[1:n]) + 1).tolist(),
        col_cuts=(np.flatnonzero(np.cumsum(spans)[1:n]) + 1).tolist(),
    )


def invariant_positions(t: EdgeType) -> InvariantMasks:
    """Invariant 1-/0-positions of an unrestricted class via the zero cells
    of the structure matrix (Haber's criterion), in the caller's original
    vertex indexing.
    """
    s = _staircase(
        t, "invariant positions", "; use flow_invariants for restricted types"
    )
    n = t.n
    cells = np.ix_(s.row_perm, s.col_perm)
    inv1 = np.zeros((n, n), dtype=np.uint8)
    inv0 = np.zeros((n, n), dtype=np.uint8)
    inv1[cells], inv0[cells] = s.masks()
    free = (1 - inv1 - inv0).astype(np.uint8)
    return InvariantMasks(inv1=DiGraph(inv1), inv0=DiGraph(inv0), free=DiGraph(free))


def components_from_structure(t: EdgeType) -> ComponentPartition:
    """Component partition of an unrestricted class, in t's vertex labels.

    The rows (resp. columns) of the staircase's zero cells cut the sorted
    positions into row (resp. column) blocks, which are mapped back to
    vertex labels.  A block all of whose cells are invariant is trivial;
    blocks spanned by a staircase gap (both coordinate jumps >= 1 between
    staircase-adjacent zeros) are the non-trivial components.
    """
    s = _staircase(t, "components")
    inv1, inv0 = s.masks()
    return ComponentPartition.from_cuts(
        s.row_cuts, s.col_cuts, ~(inv1 | inv0), s.row_perm.tolist(), s.col_perm.tolist()
    )


def _bit_rows(adj: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as a bitmask, bit j being column j."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _one_member(
    r: Sequence[int], c: Sequence[int], w_rows: Sequence[int], n: int
) -> tuple[list[int], list[int]] | None:
    """One member of T(r, c, W) as its row bitmasks and its column bitmasks
    (bit i of column j set when row i uses it), or None when the class is
    empty.

    A 0/1 flow: source -> row i with capacity r_i, row i -> column j with
    capacity 1 when W allows the cell, column j -> sink with capacity c_j.
    A greedy fill (each row, largest degree first, takes the allowed
    columns with the most room left) is completed by augmenting paths
    found breadth first from every row still short of its degree; the
    class is nonempty iff the flow saturates every row.
    """
    if sum(r) != sum(c):
        return None
    rows, cols = [0] * n, [0] * n
    room = list(c)
    for i in sorted(range(n), key=lambda i: -r[i]):
        allowed = sorted((j for j in range(n) if w_rows[i] >> j & 1 and room[j]), key=lambda j: -room[j])
        for j in allowed[: r[i]]:
            rows[i] |= 1 << j
            cols[j] |= 1 << i
            room[j] -= 1
    short = [r[i] - rows[i].bit_count() for i in range(n)]
    while any(short):
        # breadth first over the residual graph: an empty allowed cell
        # leads row -> column, a used cell column -> row
        via_row: dict[int, int] = {}  # column -> the row it was reached from
        via_col: dict[int, int] = {}  # row -> the column it was reached from
        frontier = [i for i in range(n) if short[i]]
        seen_rows = sum(1 << i for i in frontier)
        seen_cols = 0
        end = -1
        while frontier and end < 0:
            nxt = []
            for i in frontier:
                new = w_rows[i] & ~rows[i] & ~seen_cols
                seen_cols |= new
                while new and end < 0:
                    j = (new & -new).bit_length() - 1
                    new &= new - 1
                    via_row[j] = i
                    if room[j]:
                        end = j
                    reached = cols[j] & ~seen_rows
                    seen_rows |= reached
                    while reached:
                        k = (reached & -reached).bit_length() - 1
                        reached &= reached - 1
                        via_col[k] = j
                        nxt.append(k)
                if end >= 0:
                    break
            frontier = nxt
        if end < 0:
            return None
        room[end] -= 1
        j = end
        while True:  # flip the cells of the path
            i = via_row[j]
            rows[i] |= 1 << j
            cols[j] |= 1 << i
            if i not in via_col:
                short[i] -= 1
                break
            j = via_col[i]
            rows[i] &= ~(1 << j)
            cols[j] &= ~(1 << i)
    return rows, cols


def _reach(start: int, succ: Sequence[int]) -> int:
    """The nodes (a bitmask) reachable from `start` along `succ`, the
    successor bitmask of every node."""
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            nxt |= succ[(frontier & -frontier).bit_length() - 1]
            frontier &= frontier - 1
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def _flow_masks(t: EdgeType) -> tuple[list[int], list[int]] | None:
    """The invariant-1 and invariant-0 rows (bitmasks) of T(r, c, W), or
    None when the class is empty.

    Two members differ by a union of alternating cycles in the residual
    digraph of one member on rows and columns (the source and sink edges
    are saturated, so no cycle passes them): an empty allowed cell points
    row -> column, a used cell column -> row.  So an allowed cell is free
    iff its row and column share a strongly connected component, and is
    otherwise invariant 1 when used and invariant 0 when empty; forbidden
    cells are invariant 0 (Régin, AAAI 1994; Tassa, TCS 2012).
    """
    n = t.n
    w_rows = _bit_rows(t.w.adj)
    member = _one_member(t.r, t.c, w_rows, n)
    if member is None:
        return None
    rows, cols = member
    # node i is row i, node n + j is column j
    succ = [(w & ~x) << n for w, x in zip(w_rows, rows)] + cols
    pred = [x << n for x in rows] + [w & ~x for w, x in zip(_bit_rows(t.w.adj.T), cols)]
    component = [0] * 2 * n
    left = (1 << 2 * n) - 1
    while left:
        v = left & -left
        scc = _reach(v, succ) & _reach(v, pred)
        left &= ~scc
        while scc:
            component[(scc & -scc).bit_length() - 1] = scc
            scc &= scc - 1
    full = (1 << n) - 1
    free = [w_rows[i] & component[i] >> n & full for i in range(n)]
    inv1 = [x & ~f for x, f in zip(rows, free)]
    return inv1, [full & ~(x | f) for x, f in zip(inv1, free)]


def flow_feasible(t: EdgeType) -> bool:
    """Whether T(r, c, W) has a member, for any W, by one 0/1 flow."""
    return _one_member(t.r, t.c, _bit_rows(t.w.adj), t.n) is not None


def flow_invariants(t: EdgeType) -> InvariantMasks:
    """Invariant masks of a nonempty T(r, c, W), for any W, from the
    strongly connected components of one member's residual digraph (see
    `_flow_masks`), in t's vertex labels."""
    found = _flow_masks(t)
    if found is None:
        raise EmptyResult("empty class has no invariant positions")
    n = t.n
    inv1, inv0 = (np.unpackbits(_pack(rows, (n + 7) // 8), axis=1, count=n, bitorder="little") for rows in found)
    return InvariantMasks(DiGraph(inv1), DiGraph(inv0), DiGraph(1 - inv1 - inv0))


def components_from_masks(masks: InvariantMasks) -> ComponentPartition:
    """Component partition read off a class's invariant masks, in their
    vertex labels.

    An invariance corner (e, f) is a cut pair where every member has an
    all-ones top-left e x f block and an all-zeros bottom-right block, that
    is where the first block lies in the invariant 1-cells and the second
    in the invariant 0-cells; the distinct interior corner coordinates cut
    [n] into the row and column blocks, and a block is trivial when all its
    cells are invariant.  For normalized unrestricted types this matches
    the zero cells of the structure matrix.
    """
    inv1, inv0 = masks.inv1.adj.astype(np.int64), masks.inv0.adj.astype(np.int64)
    n = len(inv1)
    ones = np.zeros((n + 1, n + 1), dtype=np.int64)  # ones[e, f]: inv1 cells in [:e, :f]
    ones[1:, 1:] = inv1.cumsum(axis=0).cumsum(axis=1)
    zeros = np.zeros((n + 1, n + 1), dtype=np.int64)  # zeros[e, f]: inv0 cells in [e:, f:]
    zeros[:n, :n] = inv0[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
    e = np.arange(n + 1)
    corner = (ones == np.outer(e, e)) & (zeros == np.outer(n - e, n - e))
    return ComponentPartition.from_cuts(
        (np.flatnonzero(corner[1:n].any(axis=1)) + 1).tolist(),
        (np.flatnonzero(corner[:, 1:n].any(axis=0)) + 1).tolist(),
        masks.free.adj,
    )


def reduce_by_invariants(t: EdgeType, masks: InvariantMasks) -> EdgeType:
    """Strip invariant cells: the reduced restriction graph keeps only free
    cells allowed by W, and every invariant-1 edge is subtracted from the
    degree budget.  The reduced polytope has an interior whenever the class
    is nonempty.
    """
    n = t.n
    w_hat = t.w.adj & masks.free.adj
    r_hat = np.asarray(t.r) - masks.inv1.adj.sum(axis=1)
    c_hat = np.asarray(t.c) - masks.inv1.adj.sum(axis=0)
    if (r_hat < 0).any() or (c_hat < 0).any():
        raise ValueError("inconsistent masks: reduction yields negative degree")
    return EdgeType(tuple(int(x) for x in r_hat), tuple(int(x) for x in c_hat), DiGraph(w_hat))
