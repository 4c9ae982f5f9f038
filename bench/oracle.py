"""Reference oracles for checking edgetype CLI outputs.

Everything here is independent of the package under test: numpy and the
standard library only.  Graphs are numpy uint8 arrays of shape (n, n);
a restriction graph W is given as such an array too (1 = allowed cell).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------------------
# Counting and member lists
# ---------------------------------------------------------------------------


def count_members(r, c, w) -> int:
    """|T(r, c, W)| by a memoised row-by-row recursion over the residual
    column degrees; row i may only use the columns W allows in that row."""
    n = len(r)
    r = tuple(int(v) for v in r)
    allowed = [tuple(j for j in range(n) if w[i][j]) for i in range(n)]
    # cap[i][j]: rows >= i that allow column j (a residual above it is dead)
    cap = [[0] * n for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(n):
            cap[i][j] = cap[i + 1][j] + (1 if w[i][j] else 0)
    tail = [sum(r[i:]) for i in range(n + 1)]

    @lru_cache(maxsize=None)
    def rest(i: int, res: tuple[int, ...]) -> int:
        if i == n:
            return 1
        if sum(res) != tail[i] or any(res[j] > cap[i][j] for j in range(n)):
            return 0
        cols = [j for j in allowed[i] if res[j] > 0]
        total = 0
        for pick in combinations(cols, r[i]):
            nxt = list(res)
            for j in pick:
                nxt[j] -= 1
            total += rest(i + 1, tuple(nxt))
        return total

    if sum(r) != sum(c):
        return 0
    return rest(0, tuple(int(v) for v in c))


def invariant_masks(r, c, w) -> tuple[np.ndarray, np.ndarray, int]:
    """(inv1, inv0, count) by forcing one cell at a time: an allowed cell
    is always present iff no member avoids it, and always absent iff every
    member avoids it.  Forbidden cells are always absent."""
    n = len(r)
    w = np.asarray(w, dtype=np.uint8)
    total = count_members(r, c, w)
    inv1 = np.zeros((n, n), dtype=np.uint8)
    inv0 = (1 - w).astype(np.uint8)
    for i in range(n):
        for j in range(n):
            if not w[i, j]:
                continue
            w_off = w.copy()
            w_off[i, j] = 0
            avoid = count_members(r, c, w_off)
            inv1[i, j] = avoid == 0
            inv0[i, j] = avoid == total
    return inv1, inv0, total


def components(inv1: np.ndarray, inv0: np.ndarray):
    """Row/column blocks cut at invariance corners (e, f): an all-invariant-1
    top-left e x f block together with an all-invariant-0 bottom-right one.
    Returns (row_blocks, col_blocks, [(rows, cols, trivial), ...])."""
    n = inv1.shape[0]
    corners = [
        (e, f)
        for e in range(n + 1)
        for f in range(n + 1)
        if inv1[:e, :f].all() and inv0[e:, f:].all()
    ]

    def blocks(cuts):
        bounds = [0, *sorted(cuts), n]
        return [list(range(bounds[k], bounds[k + 1])) for k in range(len(bounds) - 1)]

    row_blocks = blocks({e for e, _ in corners if 0 < e < n})
    col_blocks = blocks({f for _, f in corners if 0 < f < n})
    free = 1 - inv1 - inv0
    cells = [
        (rows, cols, not free[np.ix_(rows, cols)].any())
        for rows in row_blocks
        for cols in col_blocks
    ]
    return row_blocks, col_blocks, cells


@lru_cache(maxsize=None)
def all_graphs(n: int) -> np.ndarray:
    """Every graph on [n], shape (2^(n^2), n, n); bit k of the index is
    cell (k // n, k % n)."""
    idx = np.arange(1 << (n * n), dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n * n)) & 1
    return bits.astype(np.uint8).reshape(-1, n, n)


def brute_members(r, c, w) -> np.ndarray:
    """All members of T(r, c, W) by filtering every graph on [n] (n <= 4)."""
    n = len(r)
    g = all_graphs(n)
    keep = (
        (g.sum(axis=2) == np.asarray(r)).all(axis=1)
        & (g.sum(axis=1) == np.asarray(c)).all(axis=1)
        & ((g & (1 - np.asarray(w, dtype=np.uint8))) == 0).all(axis=(1, 2))
    )
    return g[keep]


def delta_choices(value: int, n: int, delta: float, dens: int) -> list[int]:
    """Admissible degrees of a δ-class: the nominal one, or any degree whose
    deviation is strictly below delta * dens."""
    return [v for v in range(n + 1) if v == value or abs(v - value) < delta * dens]


def density(r, c) -> int:
    return max(1, max(max(r), max(c)))


# ---------------------------------------------------------------------------
# Distortion, covering and probability
# ---------------------------------------------------------------------------


def distortion_matrix(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(len(g), len(h)) matrix of d(G, H) = max(row, column XOR degree) / n."""
    n = g.shape[-1]
    x = g[:, None, :, :] ^ h[None, :, :, :]
    worst = np.maximum(x.sum(axis=3).max(axis=2), x.sum(axis=2).max(axis=2))
    return worst / n


def logistic_probs(a, b, n: int) -> np.ndarray:
    """p_ij = sigma(-(a_i + b_j)); +inf on either side forces 0 and wins
    over -inf, -inf alone forces 1."""
    p = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ai, bj = a[i], b[j]
            if ai == math.inf or bj == math.inf:
                p[i, j] = 0.0
            elif ai == -math.inf or bj == -math.inf:
                p[i, j] = 1.0
            else:
                p[i, j] = 1.0 / (1.0 + math.exp(ai + bj))
    return p


def graph_probs(p: np.ndarray, graphs: np.ndarray) -> np.ndarray:
    """Pr(F = g) for each graph under independent edges with probabilities p."""
    cell = np.where(graphs == 1, p[None], 1.0 - p[None])
    return cell.reshape(len(graphs), -1).prod(axis=1)


def min_cover_needs_more(cover: np.ndarray, k: int, weights=None, need=None) -> bool:
    """True iff no k rows of the boolean coverage matrix (candidates x
    source) cover everything (or, with weights, mass >= need).  k <= 2."""
    rows = np.unique(cover, axis=0)
    if weights is None:
        weights = np.ones(cover.shape[1])
        need = float(cover.shape[1])
    slack = 1e-12 * max(1.0, abs(need))
    if k == 0:
        return need > slack
    if k == 1:
        return bool(((rows @ weights) < need - slack).all())
    for a in range(len(rows)):
        if ((rows[a] | rows[a:]) @ weights >= need - slack).any():
            return False
    return True


def binary_entropy_sum(p: np.ndarray) -> float:
    q = p[(p > 0) & (p < 1)]
    return float(-(q * np.log(q) + (1 - q) * np.log(1 - q)).sum())
