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
the max-entropy solve reads the same staircase.  For restricted W the
enumeration oracle is the only route (see edgetype.enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import DiGraph, density, respects_restriction

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
    "restriction_necessary",
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
        for v in (*self.r, *self.c):
            if not 0 <= v <= n:
                raise ValueError(f"degree {v} outside [0, {n}]")
        object.__setattr__(self, "r", tuple(int(v) for v in self.r))
        object.__setattr__(self, "c", tuple(int(v) for v in self.c))

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


def _class_key(
    r: tuple[int, ...], c: tuple[int, ...], complete: bool
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The degrees of the representative of (r, c)'s class up to
    relabelling, whose size, emptiness and max-entropy are its own: both
    sorted non-increasing when W is complete, as `normalize` sorts them, and
    (r, c) itself when W is restricted, since relabelling moves W."""
    if not complete:
        return r, c
    return tuple(sorted(r, reverse=True)), tuple(sorted(c, reverse=True))


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
        t, "invariant positions", "; use the enumeration oracle for restricted types"
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


def restriction_necessary(t: EdgeType) -> bool:
    """Necessary condition for T(r, c, W) to be nonempty: W must allow every
    invariant-1 edge of the unrestricted class T(r, c).  True is only
    necessary; False certifies emptiness.
    """
    if t.unrestricted:
        return gale_ryser_feasible(t.r, t.c)
    if not gale_ryser_feasible(t.r, t.c):
        return False
    masks = invariant_positions(EdgeType(t.r, t.c))
    return respects_restriction(masks.inv1, t.w)


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
