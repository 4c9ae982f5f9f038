"""Maximum-entropy random graphs with prescribed expected margins.

Solves the convex dual

    G(s, t) = -sum_i r(i) s_i - sum_j c(j) t_j
              + sum_{ij allowed} ln(1 + e^{s_i + t_j})

whose minimizer yields the unique independent-edge random graph F_T with
rank-one logistic probabilities p_ij = sigma(s_i + t_j) matching the
margins.  e^{H(F_T)} upper-bounds the class cardinality and lower-bounds
it up to a quasi-polynomial factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .enumeration import DEFAULT_LIMIT, count_class
from .graphs import DiGraph
from .typealg import EdgeType, EmptyResult, _staircase, flow_invariants, reduce_by_invariants

__all__ = [
    "ProductRandomGraph",
    "DualVars",
    "SolveReport",
    "binary_entropy",
    "entropy",
    "dual_objective",
    "dual_gradient",
    "solve_maxent",
    "counting_gap",
    "barvinok_bounds",
    "polytope_membership",
]

MAX_ITER = 500
# Relative float resolution of the dual objective: a predicted decrease
# below F_RESOLUTION times the sum of its terms' magnitudes is rounding noise.
F_RESOLUTION = 64 * np.finfo(float).eps
# Largest H(F_T) whose e^H is a finite float; alpha is inf beyond it.
LN_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class ProductRandomGraph:
    """Independent-edge random graph: p[i][j] = Pr(edge i->j), zero off W."""

    p: np.ndarray
    w: DiGraph

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.w.n, self.w.n):
            raise ValueError("probability matrix shape must match W")
        if (p < -1e-15).any() or (p > 1 + 1e-15).any():
            raise ValueError("probabilities must lie in [0, 1]")
        if (p[self.w.adj == 0] != 0).any():
            raise ValueError("forbidden cells must have probability 0")
        p = np.clip(p, 0.0, 1.0)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.w.n

    @classmethod
    def deterministic(cls, g: DiGraph) -> "ProductRandomGraph":
        return cls(p=g.adj.astype(float), w=DiGraph.complete(g.n))


@dataclass(frozen=True)
class DualVars:
    """Dual variables (s, t); probabilities are sigma(s_i + t_j)."""

    s: tuple[float, ...]
    t: tuple[float, ...]

    def __post_init__(self):
        if len(self.s) != len(self.t):
            raise ValueError("s and t must have equal length")


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome.  alpha = e^H, or inf once H exceeds ln(float max);
    entropy_nats = H = ln alpha stays finite."""

    converged: bool
    iterations: int
    grad_norm: float
    objective: float
    entropy_nats: float
    alpha: float


def binary_entropy(p: float) -> float:
    """H_b(p) in nats with H_b(0) = H_b(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def entropy(f: ProductRandomGraph) -> float:
    """H(F) = sum of cellwise binary entropies, in nats."""
    p = f.p
    return float(_binary_entropies(p[(p > 0) & (p < 1)]).sum())


def _binary_entropies(q: np.ndarray) -> np.ndarray:
    """Elementwise H_b(q) in nats, for q strictly inside (0, 1)."""
    return -(q * np.log(q) + (1 - q) * np.log(1 - q))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def dual_objective(t: EdgeType, v: DualVars) -> float:
    """Value of the convex dual at (s, t), in nats."""
    s = np.asarray(v.s, dtype=float)
    tt = np.asarray(v.t, dtype=float)
    z = s[:, None] + tt[None, :]
    allowed = t.w.adj.astype(bool)
    return float(
        -np.dot(t.r, s) - np.dot(t.c, tt) + _softplus(z)[allowed].sum()
    )


def dual_gradient(t: EdgeType, v: DualVars) -> tuple[np.ndarray, np.ndarray]:
    """Gradient components are margin residuals: (sum_j p_ij - r_i, sum_i p_ij - c_j)."""
    s = np.asarray(v.s, dtype=float)
    tt = np.asarray(v.t, dtype=float)
    p = _sigmoid(s[:, None] + tt[None, :]) * t.w.adj
    return p.sum(axis=1) - np.asarray(t.r, float), p.sum(axis=0) - np.asarray(t.c, float)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _PLabels(NamedTuple):
    """The rows (resp. columns) of p told apart: two vertices share a label
    when their rows of p are equal by construction, so p is
    block[np.ix_(row, col)] for a block with one entry per label cell.  The
    solver group of each label, and which label cells are free and which
    invariant 1."""

    row: np.ndarray
    col: np.ndarray
    row_group: np.ndarray
    col_group: np.ndarray
    free: np.ndarray
    inv1: np.ndarray


class _Groups(NamedTuple):
    """The reduced dual of a class with one variable per group of
    interchangeable rows (resp. columns): the group of every vertex, with
    groups labelled by first appearance in vertex order; the group sizes;
    each group's reduced degree; the number of free vertex cells in each
    group cell; and the p-labels, which refine the groups by their
    invariant cells."""

    row_of: np.ndarray
    col_of: np.ndarray
    mr: np.ndarray
    mc: np.ndarray
    r: np.ndarray
    c: np.ndarray
    cells: np.ndarray
    labels: _PLabels


def _orbits(deg: Sequence[int], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group label of every vertex and one representative per group; two
    vertices share a group when their degrees and their rows in `rows`
    agree.  Labels follow first appearance.
    """
    index: dict[tuple[int, bytes], int] = {}
    label = np.fromiter(
        (index.setdefault((d, row.tobytes()), len(index)) for d, row in zip(deg, rows)),
        dtype=np.intp,
        count=len(deg),
    )
    return label, _representatives(label, len(index))


def _representatives(label: np.ndarray, k: int) -> np.ndarray:
    rep = np.empty(k, dtype=np.intp)
    rep[label] = np.arange(len(label))  # members of a group are interchangeable
    return rep


def _restricted_groups(t: EdgeType) -> _Groups:
    """Groups of a restricted class: its invariant cells come from one 0/1
    flow (`typealg.flow_invariants`), and two rows share a group when their
    reduced degrees and their allowed free cells agree (`_orbits`),
    likewise columns.  A group's rows share a row of p when their
    invariant-1 cells agree too."""
    masks = flow_invariants(t)
    reduced = reduce_by_invariants(t, masks)
    w, inv1 = reduced.w.adj, masks.inv1.adj
    row_of, row_rep = _orbits(reduced.r, w)
    col_of, col_rep = _orbits(reduced.c, w.T)
    mr, mc = np.bincount(row_of), np.bincount(col_of)
    row_lab, row_lrep = _orbits(row_of.tolist(), inv1)
    col_lab, col_lrep = _orbits(col_of.tolist(), inv1.T)
    lab_cells = np.ix_(row_lrep, col_lrep)
    return _Groups(
        row_of,
        col_of,
        mr,
        mc,
        np.asarray(reduced.r, dtype=float)[row_rep],
        np.asarray(reduced.c, dtype=float)[col_rep],
        (w[row_rep][:, col_rep] * np.outer(mr, mc)).astype(float),
        _PLabels(
            row_lab, col_lab, row_of[row_lrep], col_of[col_lrep], w[lab_cells] == 1, inv1[lab_cells] == 1
        ),
    )


def _first_appearance(key: np.ndarray) -> np.ndarray:
    """Label of every vertex by its key, labels following first appearance."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _unrestricted_groups(t: EdgeType) -> _Groups:
    """Groups of an unrestricted class from its degree sequences alone.

    Sorted row i is free exactly on the sorted columns [a_i, b_i) of the
    staircase, and a_i, b_i never rise with i, so sorted column j is free
    exactly on the sorted rows [#{a_i > j}, #{b_i > j}).  A vertex's free
    cells are thus one run of the other side's sorted positions, and its
    group key is (reduced degree, run), every empty run being one run: the
    partition `_orbits` makes of the reduced type, with the same labels.
    A row's p is 1 before its run and 0 after it, so a row's p-label is
    (group, a_i), and a column's (group, #{a_i > j}): a degree-0 and a
    degree-n row share a group but not a row of p.
    """
    s = _staircase(t, "invariant positions")
    n = t.n
    row_pos, col_pos = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    row_pos[s.row_perm] = col_pos[s.col_perm] = np.arange(n)

    def above(ends):  # #{i : ends[i] > j} per sorted position j
        return n - np.searchsorted(ends[::-1], np.arange(n), side="right")

    def key(deg, lo, hi):  # (degree, run), every empty run being one run
        return deg * (n + 1) ** 2 + np.where(lo < hi, lo * (n + 1) + hi, 0)

    a, b = s.inv1_end[row_pos], s.inv0_start[row_pos]
    lo, hi = above(s.inv1_end)[col_pos], above(s.inv0_start)[col_pos]
    r_hat, c_hat = np.asarray(t.r) - a, np.asarray(t.c) - lo
    row_of, col_of = _first_appearance(key(r_hat, a, b)), _first_appearance(key(c_hat, lo, hi))
    mr, mc = np.bincount(row_of), np.bincount(col_of)
    row_rep, col_rep = _representatives(row_of, len(mr)), _representatives(col_of, len(mc))
    row_lab, col_lab = _first_appearance(row_of * (n + 1) + a), _first_appearance(col_of * (n + 1) + lo)
    row_lrep = _representatives(row_lab, row_lab.max() + 1)
    col_lrep = _representatives(col_lab, col_lab.max() + 1)

    def run_masks(rows, cols):  # the free and the invariant-1 cells of rows x cols
        q, a_i, b_i = col_pos[cols], a[rows, None], b[rows, None]
        return (a_i <= q) & (q < b_i), q < a_i

    return _Groups(
        row_of,
        col_of,
        mr,
        mc,
        r_hat[row_rep].astype(float),
        c_hat[col_rep].astype(float),
        (run_masks(row_rep, col_rep)[0] * np.outer(mr, mc)).astype(float),
        _PLabels(row_lab, col_lab, row_of[row_lrep], col_of[col_lrep], *run_masks(row_lrep, col_lrep)),
    )


def _newton_solve(
    r: np.ndarray,
    c: np.ndarray,
    mr: np.ndarray,
    mc: np.ndarray,
    cells: np.ndarray,
    tol: float,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float, float, bool]:
    """Damped ridge-regularized Newton on the multiplicity-weighted dual

        F(a, b) = sum_gh cells_gh ln(1 + e^{a_g + b_h})
                  - sum_g mr_g r_g a_g - sum_h mc_h c_h b_h

    over row groups g of size mr_g and column groups h of size mc_h, where
    cells_gh counts the allowed vertex cells of group cell (g, h).  F is
    the 2n-variable dual restricted to duals constant on each group, and
    its Newton iterates are the 2n-variable ones from such a point.

    The dual has gauge freedom (one shift per connected block of the free
    cells); a small ridge, scaled by the group sizes, keeps the Newton
    system solvable without pinning variables.  The line search asks for
    an Armijo decrease of F; once the predicted decrease is below what F
    can resolve in floating point, it accepts a step that lowers the
    residual instead.  The residual is the largest per-vertex margin
    error, and the solve converges when it falls to tol.

    Returns (x = (a, b), iterations, residual, F(x), converged).
    """
    kr, k = len(mr), len(mr) + len(mc)
    mult = np.concatenate([mr, mc]).astype(float)
    target = mult * np.concatenate([r, c])
    x = np.zeros(k) if x0 is None else x0

    def evaluate(x):
        """F(x), the sum of its terms' magnitudes (which sets F's float
        resolution), and the group-cell probabilities sigma(a_g + b_h)."""
        z = x[:kr, None] + x[None, kr:]
        soft = _softplus(z)
        fsoft = (soft * cells).sum()
        lin = target @ x
        return fsoft - lin, fsoft + abs(lin), np.exp(z - soft)

    def gradient(p):
        pc = p * cells
        return np.concatenate([pc.sum(axis=1), pc.sum(axis=0)]) - target

    def residual(g):
        return float(np.abs(g / mult).max(initial=0.0))

    f, fscale, p = evaluate(x)
    g = gradient(p)
    gnorm = residual(g)
    it = 0
    for it in range(1, MAX_ITER + 1):
        if gnorm <= tol:
            return x, it - 1, gnorm, f, True
        q = p * (1.0 - p) * cells
        diag = np.concatenate([q.sum(axis=1), q.sum(axis=0)])
        h = np.zeros((k, k))
        h[:kr, kr:] = q
        h[kr:, :kr] = q.T
        ridge = 1e-12 * max(1.0, float(diag.sum()))
        step = None
        for _ in range(6):
            h.flat[:: k + 1] = diag + ridge * mult
            try:
                step = np.linalg.solve(h, -g)
                break
            except np.linalg.LinAlgError:
                ridge *= 1e3
        if step is None or not np.isfinite(step).all() or g @ step >= 0:
            step = -g  # gradient fallback keeps descent guaranteed
        slope = float(g @ step)
        alpha = 1.0
        for _ in range(60):
            xn = x + alpha * step
            fn, fn_scale, pn = evaluate(xn)
            if fn <= f + 1e-4 * alpha * slope:
                x, f, fscale, p = xn, fn, fn_scale, pn
                g = gradient(p)
                break
            if -alpha * slope <= F_RESOLUTION * fscale:
                gn = gradient(pn)
                if residual(gn) < gnorm:
                    x, f, fscale, p, g = xn, fn, fn_scale, pn, gn
                    break
            alpha *= 0.5
        else:
            x = x + 1e-12 * step
            f, fscale, p = evaluate(x)
            g = gradient(p)
        gnorm = residual(g)
    return x, it, gnorm, f, gnorm <= tol


class _Solution(NamedTuple):
    """The grouped dual solve of a class: its groups, the optimal group
    duals (a, b), sigma(a_g + b_h) per group cell, and the report."""

    groups: _Groups
    a: np.ndarray
    b: np.ndarray
    sig: np.ndarray
    report: SolveReport

    def p_block(self) -> np.ndarray:
        """p on the p-labels: F_T's p is p_block()[np.ix_(labels.row, labels.col)],
        sigma(a_g + b_h) on free cells and 1 or 0 on invariant ones."""
        lab = self.groups.labels
        sig = self.sig[np.ix_(lab.row_group, lab.col_group)]
        return np.clip(np.where(lab.free, sig, lab.inv1), 0.0, 1.0)


def _solve(t: EdgeType, tol: float | None = None, init: DualVars | None = None) -> _Solution:
    """Solve the dual of a nonempty class with one variable per group;
    H(F_T) is read off the group cells, so no n x n array is built."""
    if tol is None:
        tol = 1e-10 * max(t.n, 1)
    g = _unrestricted_groups(t) if t.unrestricted else _restricted_groups(t)
    x0 = None
    if init is not None:
        x0 = np.concatenate(
            [
                np.bincount(g.row_of, weights=init.s) / g.mr,
                np.bincount(g.col_of, weights=init.t) / g.mc,
            ]
        )
    x, iters, gnorm, obj, converged = _newton_solve(g.r, g.c, g.mr, g.mc, g.cells, tol, x0=x0)
    if not converged:
        raise ArithmeticError(
            f"maxent dual failed to converge: gradient norm {gnorm:.3e} > tol {tol:.3e}"
        )
    a, b = x[: len(g.mr)], x[len(g.mr) :]
    sig = _sigmoid(a[:, None] + b[None, :])
    inside = (g.cells > 0) & (sig > 0) & (sig < 1)
    h = float((g.cells[inside] * _binary_entropies(sig[inside])).sum())
    report = SolveReport(
        converged=True,
        iterations=iters,
        grad_norm=gnorm,
        objective=obj,
        entropy_nats=h,
        alpha=math.inf if h > LN_FLOAT_MAX else math.exp(h),
    )
    return _Solution(g, a, b, sig, report)


def solve_maxent(
    t: EdgeType, tol: float | None = None, init: DualVars | None = None
) -> tuple[ProductRandomGraph, DualVars, SolveReport]:
    """Maximum-entropy random graph of a nonempty class.

    Invariant cells are stripped before solving so every dual variable
    stays finite, then re-inserted (p = 1 on always-present edges, p = 0
    on always-absent ones).  Rows with equal (r_i, allowed cells of row i)
    can be swapped without changing the reduced dual, and likewise
    columns, so a minimizer constant on each such group exists
    (Chatterjee, Diaconis & Sly 2011); the dual is solved with one
    variable per group, and a given init is averaged over each group.
    With W complete the groups come from the degree sequences alone (the
    staircase of `typealg`); with W restricted the invariant cells come
    from one 0/1 flow and its residual components.
    """
    sol = _solve(t, tol=tol, init=init)
    g = sol.groups
    f = ProductRandomGraph(p=sol.p_block()[np.ix_(g.labels.row, g.labels.col)], w=t.w)
    dual = DualVars(tuple(sol.a[g.row_of].tolist()), tuple(sol.b[g.col_of].tolist()))
    return f, dual, sol.report


def counting_gap(entropy_nats: float, count: int, n: int) -> float:
    """(H - ln count) / (n ln n): the measured stand-in for the universal
    constant in the counting lower bound."""
    denom = n * math.log(n) if n > 1 else 1.0
    return (entropy_nats - math.log(count)) / denom


def barvinok_bounds(
    t: EdgeType, tol: float | None = None, limit: int = DEFAULT_LIMIT
) -> tuple[float, float | None, int | None]:
    """(alpha, gap, count): alpha(T) = e^{H(F_T)} plus, when n <= limit,
    the class size (`count_class`) and the measured counting gap."""
    report = _solve(t, tol=tol).report
    if t.n > limit:
        return report.alpha, None, None
    count = count_class(t)
    if count == 0:
        raise EmptyResult("empty class has no counting bounds")
    return report.alpha, counting_gap(report.entropy_nats, count, t.n), count


def polytope_membership(f: ProductRandomGraph, t: EdgeType, tol: float = 1e-8) -> bool:
    """True iff f's expected margins equal (r, c) within tol and every
    W-forbidden cell has probability exactly zero."""
    if f.n != t.n:
        return False
    if (f.p[t.w.adj == 0] != 0).any():
        return False
    row = np.abs(f.p.sum(axis=1) - np.asarray(t.r, float)).max(initial=0.0)
    col = np.abs(f.p.sum(axis=0) - np.asarray(t.c, float)).max(initial=0.0)
    return bool(max(row, col) <= tol)
