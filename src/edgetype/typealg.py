"""Edge-type classes: feasibility, normalization, the Ryser structure
matrix, invariant positions, components, and restriction-graph reduction.

An edge-type is a pair of degree vectors (r, c) plus an optional
restriction graph W whose non-edges are forbidden cells.  A *normalized*
type has both r and c sorted non-increasing; the structure matrix is
defined on normalized types with W complete, and the invariant/component
machinery built on it normalizes internally and answers in the caller's
vertex labels.  For restricted W the enumeration oracle is the only route
(see edgetype.enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import DiGraph, density, respects_restriction

__all__ = [
    "EdgeType",
    "StructureMatrix",
    "InvariantMasks",
    "ComponentPartition",
    "gale_ryser_feasible",
    "normalize",
    "structure_matrix",
    "structure_matrix_block_form",
    "invariant_positions",
    "components_from_structure",
    "restriction_necessary",
    "reduce_by_invariants",
]


@dataclass(frozen=True)
class EdgeType:
    """Restricted edge-type (r, c, W).  Feasibility is not assumed."""

    r: tuple[int, ...]
    c: tuple[int, ...]
    w: DiGraph = None  # type: ignore[assignment]

    def __post_init__(self):
        n = len(self.r)
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

    @property
    def n(self) -> int:
        return self.t.shape[0] - 1

    def zero_cells(self) -> list[tuple[int, int]]:
        """Zero positions in staircase order: e ascending, f descending."""
        zs = [(int(e), int(f)) for e, f in zip(*np.nonzero(self.t == 0))]
        return sorted(zs, key=lambda ef: (ef[0], -ef[1]))

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


def normalize(t: EdgeType) -> tuple[EdgeType, tuple[int, ...], tuple[int, ...]]:
    """Sort r and c non-increasing; return the permutations mapping sorted
    indices back to original vertices (stable: ties keep original order).

    row_perm[k] is the original vertex whose out-degree lands at sorted
    position k, likewise col_perm for in-degrees.  The restriction graph
    is permuted accordingly.
    """
    n = t.n
    row_perm = tuple(sorted(range(n), key=lambda i: (-t.r[i], i)))
    col_perm = tuple(sorted(range(n), key=lambda j: (-t.c[j], j)))
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


def structure_matrix_block_form(g: DiGraph) -> StructureMatrix:
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
    return StructureMatrix(t=t)


def _masks_from_zeros(n: int, zeros: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    inv1 = np.zeros((n, n), dtype=np.uint8)
    inv0 = np.zeros((n, n), dtype=np.uint8)
    for e, f in zeros:
        inv1[:e, :f] = 1
        inv0[e:, f:] = 1
    return inv1, inv0


def invariant_positions(t: EdgeType) -> InvariantMasks:
    """Invariant 1-/0-positions of an unrestricted class via the zero cells
    of the structure matrix (Haber's criterion), in the caller's original
    vertex indexing.
    """
    if not t.unrestricted:
        raise ValueError(
            "invariant positions from the structure matrix require W complete; "
            "use the enumeration oracle for restricted types"
        )
    if not gale_ryser_feasible(t.r, t.c):
        raise ValueError("empty class has no invariant positions")
    tn, row_perm, col_perm = normalize(t)
    sm = structure_matrix(tn.r, tn.c)
    inv1_n, inv0_n = _masks_from_zeros(t.n, sm.zero_cells())
    n = t.n
    inv1 = np.zeros((n, n), dtype=np.uint8)
    inv0 = np.zeros((n, n), dtype=np.uint8)
    inv1[np.ix_(row_perm, col_perm)] = inv1_n
    inv0[np.ix_(row_perm, col_perm)] = inv0_n
    free = (1 - inv1 - inv0).astype(np.uint8)
    return InvariantMasks(inv1=DiGraph(inv1), inv0=DiGraph(inv0), free=DiGraph(free))


def components_from_structure(t: EdgeType) -> ComponentPartition:
    """Component partition of an unrestricted class, in t's vertex labels.

    The zero cells of the normalized type's structure matrix form a
    staircase; their distinct e-values (resp. f-values) cut the sorted
    positions into row (resp. column) blocks, which are mapped back to
    vertex labels.  A block all of whose cells are invariant is trivial;
    blocks spanned by a staircase gap (both coordinate jumps >= 1 between
    staircase-adjacent zeros) are the non-trivial components.
    """
    if not t.unrestricted:
        raise ValueError("components from the structure matrix require W complete")
    if not gale_ryser_feasible(t.r, t.c):
        raise ValueError("empty class has no components")
    n = t.n
    tn, row_perm, col_perm = normalize(t)
    zeros = structure_matrix(tn.r, tn.c).zero_cells()
    inv1, inv0 = _masks_from_zeros(n, zeros)
    return ComponentPartition.from_cuts(
        sorted({e for e, _ in zeros if 0 < e < n}),
        sorted({f for _, f in zeros if 0 < f < n}),
        1 - inv1 - inv0,
        row_perm,
        col_perm,
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
