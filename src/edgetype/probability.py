"""Probability laws over edge-type classes.

Covers the rank-one logistic family of independent-edge random graphs
(under which every member of a class is equiprobable), point and class
probabilities expressed through the maximum-entropy graph and KL
divergences, a Sanov-style bound for unions of classes, the Hoeffding
lower bound on δ-class probability, and mixture decompositions extending
the family to arbitrary product random graphs.

All probability arithmetic is done in log space (nats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .enumeration import DEFAULT_LIMIT, _members
from .graphs import DiGraph, _unpack
from .maxent import LN_FLOAT_MAX, ProductRandomGraph, solve_maxent
from .typealg import EdgeType, EmptyResult

__all__ = [
    "FamilyDParams",
    "MixtureDecomposition",
    "family_d_graph",
    "graph_prob",
    "log_graph_prob",
    "kl_bernoulli",
    "kl_sum",
    "typeclass_point_prob",
    "typeclass_prob_bounds",
    "typeclass_prob",
    "sanov_bounds",
    "delta_class_prob_lower",
    "verify_mixture",
    "decompose_single_edge",
    "mixture_lower_bound",
]

CLASS_SLICE = 1 << 14  # class members decoded per `_log_probs` call in a class mass


@dataclass(frozen=True)
class FamilyDParams:
    """Rank-one logistic parameters: p_ij = sigma(-(a_i + b_j)) on W cells.

    Entries may be +/-inf; +inf forces p = 0 and dominates -inf (so a
    single-cell-support graph is expressible), -inf alone forces p = 1.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    w: DiGraph

    def __post_init__(self):
        n = self.w.n
        if len(self.a) != n or len(self.b) != n:
            raise ValueError("parameter vectors must have length n")
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))

    @property
    def n(self) -> int:
        return self.w.n


@dataclass(frozen=True)
class MixtureDecomposition:
    """Convex combination of family atoms matching a product random graph."""

    weights: tuple[float, ...]
    atoms: tuple[FamilyDParams, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.atoms) or not self.atoms:
            raise ValueError("need one weight per atom and at least one atom")
        if any(not 0 < lam <= 1 for lam in self.weights):
            raise ValueError("weights must lie in (0, 1]")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


def _logistic_cell(a: float, b: float) -> float:
    if math.isinf(a) and a > 0 or math.isinf(b) and b > 0:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return 1.0
    z = -(a + b)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def family_d_graph(params: FamilyDParams) -> ProductRandomGraph:
    """Materialize the logistic probabilities, forcing zeros off W."""
    n = params.n
    p = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(n):
            if params.w.adj[i, j]:
                p[i, j] = _logistic_cell(params.a[i], params.b[j])
    return ProductRandomGraph(p=p, w=params.w)


def _log_probs(f: ProductRandomGraph, cells: np.ndarray) -> np.ndarray:
    """ln Pr(F = g) of each graph g whose row-major cells (`graphs._unpack`)
    are a row of cells; -inf when g is outside the support.

    Each row adds math.log(p) for a set cell and math.log1p(-p) for an
    unset one, cell by cell, row-major, from 0.0.  A row that sets a p = 0
    cell or leaves a p = 1 cell unset is -inf, even when another of its
    cells is NaN."""
    total = np.zeros(len(cells))
    dead = np.zeros(len(cells), dtype=bool)
    for k, p in enumerate(f.p.ravel().tolist()):
        on = -math.inf if p == 0.0 else math.log(p)
        off = -math.inf if p == 1.0 else math.log1p(-p)
        term = np.where(cells[:, k], on, off)
        total += term
        dead |= term == -math.inf
    return np.where(dead, -math.inf, total)


def log_graph_prob(f: ProductRandomGraph, g: DiGraph) -> float:
    """ln Pr(F = g) for an independent-edge random graph; -inf when g is
    outside the support."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    return _log_probs(f, g.adj.reshape(1, -1)).tolist()[0]


def graph_prob(f: ProductRandomGraph, g: DiGraph) -> float:
    return math.exp(log_graph_prob(f, g))


def kl_bernoulli(p: float, q: float) -> float:
    """D(p || q) in nats; raises on absolute-continuity violation."""
    d = _kl_cell(p, q)
    if math.isinf(d):
        raise ValueError(f"absolute continuity violated: D({p} || {q}) infinite")
    return d


def _kl_cell(p: float, q: float) -> float:
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    total = 0.0
    if p > 0.0:
        if q == 0.0:
            return math.inf
        total += p * math.log(p / q)
    if p < 1.0:
        if q == 1.0:
            return math.inf
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return total


def kl_sum(pt: ProductRandomGraph, f: ProductRandomGraph) -> float:
    """Sum over every cell, row-major, of D((p_T)_ij || p_ij); +inf encodes an
    unrecoverable continuity failure (a forced cell of f that is not the
    matching invariant cell of the class).  A cell pt's W forbids has
    (p_T)_ij = 0, so it adds -ln(1 - p_ij), which every member pays there,
    and +0.0 where f is 0 too."""
    if pt.n != f.n:
        raise ValueError("dimension mismatch")
    total = 0.0
    for p, q in zip(pt.p.ravel().tolist(), f.p.ravel().tolist()):
        total += _kl_cell(p, q)
        if math.isinf(total):
            return math.inf
    return total


def _solve_against(
    params: FamilyDParams, t: EdgeType, tol: float | None
) -> tuple[ProductRandomGraph, float, float]:
    """(family graph, H(F_T), sum of cellwise KL terms) from one dual solve."""
    f = family_d_graph(params)
    ft, _, report = solve_maxent(t, tol=tol)
    return f, report.entropy_nats, kl_sum(ft, f)


def _point_prob(h: float, kl: float) -> float:
    if math.isinf(kl):
        raise ValueError(
            "family graph forces a non-invariant cell; class probability is "
            "not constant and cannot be expressed through F_T"
        )
    return math.exp(-h - kl)


def _class_mass(
    f: ProductRandomGraph, t: EdgeType, limit: int, exact: float = 0.0
) -> tuple[int, float]:
    """(|T|, exact + Pr(F = g) added up over the members g in class order).
    The members are decoded CLASS_SLICE at a time, so memory stays bounded
    on large classes; each weight does not depend on the slicing."""
    members, count = _members(t, limit), 0
    while batch := list(islice(members, CLASS_SLICE)):
        for x in _log_probs(f, _unpack(t.n, batch)).tolist():
            exact += math.exp(x)
        count += len(batch)
    return count, exact


def _prob_bounds(
    f: ProductRandomGraph, t: EdgeType, h: float, kl: float, limit: int
) -> tuple[float | None, float, float | None]:
    if math.isinf(kl):
        raise ValueError("continuity failure: upper bound formula undefined")
    upper = math.exp(-kl)
    if t.n > limit:
        return None, upper, None
    count, exact = _class_mass(f, t, limit)
    lower = math.exp(-kl + math.log(count) - h) if count else 0.0
    return lower, upper, exact


def typeclass_point_prob(params: FamilyDParams, t: EdgeType, tol: float | None = None) -> float:
    """Common probability of every member of T(r,c,W) under the family
    graph: exp(-H(F_T) - sum of cellwise KL terms).

    Forced cells of the family graph that coincide with the class's
    invariant cells contribute zero KL (the fold-into-W reduction);
    anywhere else they make the class probability non-constant and an
    error is raised.
    """
    _, h, kl = _solve_against(params, t, tol)
    return _point_prob(h, kl)


def typeclass_prob_bounds(
    params: FamilyDParams, t: EdgeType, tol: float | None = None, limit: int = DEFAULT_LIMIT
) -> tuple[float | None, float, float | None]:
    """(lower, upper, exact) for Pr(F in T(r,c,W)).

    upper = exp(-sum KL).  When the class is enumerable, exact is the
    summed member probability and lower = upper * (count / alpha), the
    measured stand-in for the quasi-polynomial factor; above the limit
    lower is None (the universal constant is unknown).
    """
    f, h, kl = _solve_against(params, t, tol)
    return _prob_bounds(f, t, h, kl, limit)


def typeclass_prob(
    params: FamilyDParams, t: EdgeType, tol: float | None = None, limit: int = DEFAULT_LIMIT
) -> tuple[float, float | None, float, float | None]:
    """(point, lower, upper, exact): typeclass_point_prob followed by
    typeclass_prob_bounds, sharing one dual solve."""
    f, h, kl = _solve_against(params, t, tol)
    return (_point_prob(h, kl), *_prob_bounds(f, t, h, kl, limit))


def sanov_bounds(
    params: FamilyDParams,
    types: list[EdgeType],
    tol: float | None = None,
    limit: int = DEFAULT_LIMIT,
) -> tuple[float, float, float | None]:
    """(lower, upper, exact) for Pr(F in union of the listed classes).

    upper = exp(2n ln(n+1) - min KL), inf past the float range; lower
    replaces the universal constant with the largest measured counting gap
    among the listed types, which keeps the bound valid on enumerable
    instances.
    """
    if not types:
        raise ValueError("need at least one type")
    f = family_d_graph(params)
    n = types[0].n
    seen: set[tuple] = set()
    min_kl = math.inf
    max_gap = 0.0
    exact: float | None = 0.0
    for t in types:
        if t.n != n:
            raise ValueError("all types must share n")
        key = (t.r, t.c, t.w.to_bits())
        if key in seen:
            continue
        seen.add(key)
        ft, _, report = solve_maxent(t, tol=tol)
        kl = kl_sum(ft, f)
        min_kl = min(min_kl, kl)
        if n <= limit:
            count, exact = _class_mass(f, t, limit, exact)
            if count == 0:
                raise EmptyResult("empty type in collection")
            gap = max(0.0, report.entropy_nats - math.log(count))
            max_gap = max(max_gap, gap)
        else:
            exact = None
    if math.isinf(min_kl):
        raise ValueError("continuity failure on every listed type")
    # max_gap plays the role of gamma * n * ln(n); the theorem's exponent
    # is 4x that, which only loosens a valid lower bound.
    lower = math.exp(-4.0 * max_gap - min_kl)
    exponent = 2.0 * n * math.log(n + 1) - min_kl
    upper = math.inf if exponent > LN_FLOAT_MAX else math.exp(exponent)
    return lower, upper, exact


def _hoeffding_tail(n: int, dens: int, delta: float) -> float:
    """4n exp(-2 dens^2 delta^2 / n): Hoeffding's bound on Pr(F_T leaves its δ-class)."""
    return 4.0 * n * math.exp(-2.0 * dens * dens * delta * delta / n)


def delta_class_prob_lower(t: EdgeType, delta: float, dens: int) -> float:
    """Hoeffding lower bound on Pr(F_T lands in the δ-class of its own
    type): max(0, 1 - `_hoeffding_tail`)."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return max(0.0, 1.0 - _hoeffding_tail(t.n, dens, delta))


def verify_mixture(
    p: ProductRandomGraph, mix: MixtureDecomposition, tol: float = 1e-9
) -> bool:
    """True iff the weighted atom probabilities reproduce p elementwise."""
    acc = np.zeros((p.n, p.n))
    for lam, atom in zip(mix.weights, mix.atoms):
        if atom.n != p.n:
            return False
        acc += lam * family_d_graph(atom).p
    return bool(np.abs(acc - p.p).max(initial=0.0) <= tol)


def _single_cell_params(n: int, i: int, j: int, value: float, w: DiGraph) -> FamilyDParams:
    a = [math.inf] * n
    b = [math.inf] * n
    if value >= 1.0:
        a[i] = -math.inf
        b[j] = 0.0
    else:
        a[i] = math.log(1.0 / value - 1.0)
        b[j] = 0.0
    return FamilyDParams(a=tuple(a), b=tuple(b), w=w)


def decompose_single_edge(p: ProductRandomGraph) -> MixtureDecomposition:
    """Mixture of single-edge atoms reproducing p when its total edge mass
    S is at most 1: each positive cell (i, j) becomes a deterministic
    single-edge atom with weight p_ij, plus a zero-graph atom of weight
    1 - S when S < 1."""
    n = p.n
    cells = [
        (i, j, float(p.p[i, j]))
        for i in range(n)
        for j in range(n)
        if p.p[i, j] > 0
    ]
    s = sum(v for _, _, v in cells)
    if s > 1.0 + 1e-12:
        raise ValueError(f"total edge mass {s:.6g} exceeds 1; single-edge atoms cannot reproduce p")
    s = min(s, 1.0)
    weights: list[float] = []
    atoms: list[FamilyDParams] = []
    for i, j, v in cells:
        weights.append(v)
        atoms.append(_single_cell_params(n, i, j, 1.0, p.w))
    if s < 1.0:
        zero = FamilyDParams(a=(math.inf,) * n, b=(math.inf,) * n, w=p.w)
        weights.append(1.0 - s)
        atoms.append(zero)
    return MixtureDecomposition(weights=tuple(weights), atoms=tuple(atoms))


def mixture_lower_bound(mix: MixtureDecomposition, t: EdgeType, tol: float | None = None) -> float:
    """exp(-H(F_T) - sum_k lambda_k * KL_k): a lower bound on the point
    probability of any class member under the mixed product graph.  An
    atom violating absolute continuity drives its KL term to +inf and the
    bound collapses to 0 (still valid, just vacuous)."""
    ft, _, report = solve_maxent(t, tol=tol)
    exponent = report.entropy_nats
    for lam, atom in zip(mix.weights, mix.atoms):
        kl = kl_sum(ft, family_d_graph(atom))
        if math.isinf(kl):
            return 0.0
        exponent += lam * kl
    return math.exp(-exponent)
