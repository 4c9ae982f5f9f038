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

import numpy as np

from .enumeration import class_invariants, count_class
from .graphs import DiGraph
from .typealg import EdgeType, reduce_by_invariants

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
    mask = (p > 0) & (p < 1)
    q = p[mask]
    return float(-(q * np.log(q) + (1 - q) * np.log(1 - q)).sum())


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


def _newton_solve(
    r: np.ndarray, c: np.ndarray, w: np.ndarray, tol: float, x0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int, float, bool]:
    """Damped ridge-regularized Newton on the dual.

    The dual has gauge freedom (one shift per connected block of the free
    cells); a small ridge keeps the Newton system solvable without pinning
    variables, and a backtracking line search guarantees descent.
    """
    n = len(r)
    x = np.zeros(2 * n) if x0 is None else x0.astype(float).copy()

    def split(x):
        return x[:n], x[n:]

    def fval(x):
        s, t = split(x)
        z = s[:, None] + t[None, :]
        return -r @ s - c @ t + (_softplus(z) * w).sum()

    def grad(x):
        s, t = split(x)
        p = _sigmoid(s[:, None] + t[None, :]) * w
        return np.concatenate([p.sum(axis=1) - r, p.sum(axis=0) - c])

    f = fval(x)
    g = grad(x)
    it = 0
    for it in range(1, MAX_ITER + 1):
        gnorm = float(np.abs(g).max(initial=0.0))
        if gnorm <= tol:
            return *split(x), it - 1, gnorm, True
        s, t = split(x)
        p = _sigmoid(s[:, None] + t[None, :]) * w
        q = p * (1.0 - p)
        h = np.zeros((2 * n, 2 * n))
        h[:n, :n] = np.diag(q.sum(axis=1))
        h[n:, n:] = np.diag(q.sum(axis=0))
        h[:n, n:] = q
        h[n:, :n] = q.T
        ridge = 1e-12 * max(1.0, float(np.trace(h)))
        step = None
        for _ in range(6):
            try:
                step = np.linalg.solve(h + ridge * np.eye(2 * n), -g)
                break
            except np.linalg.LinAlgError:
                ridge *= 1e3
        if step is None or not np.isfinite(step).all() or g @ step >= 0:
            step = -g  # gradient fallback keeps descent guaranteed
        alpha = 1.0
        for _ in range(60):
            xn = x + alpha * step
            fn = fval(xn)
            if fn <= f + 1e-4 * alpha * (g @ step):
                x, f = xn, fn
                break
            alpha *= 0.5
        else:
            x = x + 1e-12 * step
            f = fval(x)
        g = grad(x)
    gnorm = float(np.abs(g).max(initial=0.0))
    return *split(x), it, gnorm, gnorm <= tol


def solve_maxent(
    t: EdgeType, tol: float | None = None, init: DualVars | None = None
) -> tuple[ProductRandomGraph, DualVars, SolveReport]:
    """Maximum-entropy random graph of a nonempty class.

    Invariant cells are stripped before solving so every dual variable
    stays finite, then re-inserted (p = 1 on always-present edges, p = 0
    on always-absent ones).
    """
    n = t.n
    if tol is None:
        tol = 1e-10 * max(n, 1)
    masks = class_invariants(t)
    reduced = reduce_by_invariants(t, masks)
    w = reduced.w.adj.astype(float)
    r = np.asarray(reduced.r, dtype=float)
    c = np.asarray(reduced.c, dtype=float)
    x0 = None
    if init is not None:
        x0 = np.concatenate([np.asarray(init.s, float), np.asarray(init.t, float)])
    s, tv, iters, gnorm, converged = _newton_solve(r, c, w, tol, x0=x0)
    if not converged:
        raise ArithmeticError(
            f"maxent dual failed to converge: gradient norm {gnorm:.3e} > tol {tol:.3e}"
        )
    p = _sigmoid(s[:, None] + tv[None, :]) * reduced.w.adj
    p = p + masks.inv1.adj.astype(float)
    p[t.w.adj == 0] = 0.0
    f = ProductRandomGraph(p=np.clip(p, 0.0, 1.0), w=t.w)
    h = entropy(f)
    obj = dual_objective(reduced, DualVars(tuple(s), tuple(tv)))
    report = SolveReport(
        converged=True,
        iterations=iters,
        grad_norm=gnorm,
        objective=obj,
        entropy_nats=h,
        alpha=math.exp(h),
    )
    return f, DualVars(tuple(s), tuple(tv)), report


def counting_gap(entropy_nats: float, count: int, n: int) -> float:
    """(H - ln count) / (n ln n): the measured stand-in for the universal
    constant in the counting lower bound."""
    denom = n * math.log(n) if n > 1 else 1.0
    return (entropy_nats - math.log(count)) / denom


def barvinok_bounds(
    t: EdgeType, tol: float | None = None, limit: int = 6
) -> tuple[float, float | None, int | None]:
    """(alpha, gap, count): alpha(T) = e^{H(F_T)} plus, when the class is
    enumerable, its size and the measured counting gap."""
    _, _, report = solve_maxent(t, tol=tol)
    if t.n > limit:
        return report.alpha, None, None
    count = count_class(t, limit=limit)
    if count == 0:
        raise ValueError("empty class has no counting bounds")
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
