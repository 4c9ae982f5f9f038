"""Quick self-test of the reference oracles in oracle.py.

    python3 bench/selftest.py

Checks the memoised counter against n! (permutation classes), the
2-regular counts 90, 2040 and 67 950 (OEIS A001499), and brute force over
every graph on n <= 3 vertices, for W complete and for random W.  Exits 1
on the first disagreement.
"""

from __future__ import annotations

import itertools
import math
import random
import sys

import numpy as np

import oracle


def ensure(ok, what=None) -> None:
    if not ok:
        raise SystemExit(f"oracle self-test failed: {what}")


def brute_classes(n: int, w: np.ndarray) -> dict:
    """Members of every class inside W, keyed by (r, c)."""
    g = oracle.all_graphs(n)
    g = g[((g & (1 - w)) == 0).all(axis=(1, 2))]
    out: dict = {}
    for m in g:
        out.setdefault((tuple(m.sum(axis=1)), tuple(m.sum(axis=0))), []).append(m)
    return out


def check_small(n: int, w: np.ndarray) -> int:
    classes = brute_classes(n, w)
    for r in itertools.product(range(n + 1), repeat=n):
        for c in itertools.product(range(n + 1), repeat=n):
            members = classes.get((r, c), [])
            ensure(oracle.count_members(r, c, w) == len(members), (r, c, w))
            if not members:
                continue
            stack = np.stack(members)
            inv1, inv0, total = oracle.invariant_masks(r, c, w)
            ensure(total == len(members))
            ensure((inv1 == stack.all(axis=0)).all(), (r, c))
            ensure((inv0 == (1 - stack).all(axis=0)).all(), (r, c))
            ensure(len(oracle.brute_members(r, c, w)) == len(members))
            rows, cols, _ = oracle.components(inv1, inv0)
            corners = [
                (e, f) for e in range(n + 1) for f in range(n + 1)
                if stack[:, :e, :f].all() and not stack[:, e:, f:].any()
            ]
            ensure([b[0] for b in rows[1:]] == sorted({e for e, _ in corners if 0 < e < n}), (r, c))
            ensure([b[0] for b in cols[1:]] == sorted({f for _, f in corners if 0 < f < n}), (r, c))
    return len(classes)


def main() -> int:
    for n in range(1, 7):
        ones = [1] * n
        ensure(oracle.count_members(ones, ones, np.ones((n, n), np.uint8)) == math.factorial(n))
    for n, expect in ((4, 90), (5, 2040), (6, 67950)):
        two = [2] * n
        ensure(oracle.count_members(two, two, np.ones((n, n), np.uint8)) == expect, n)
    rng = random.Random(0)
    classes = 0
    for n in (1, 2, 3):
        classes += check_small(n, np.ones((n, n), np.uint8))
        for _ in range(4):
            w = np.array([[rng.random() < 0.7 for _ in range(n)] for _ in range(n)], np.uint8)
            classes += check_small(n, w)
    g3 = oracle.all_graphs(3)
    p = oracle.logistic_probs([0.3, -1.0, math.inf], [0.0, -math.inf, 2.0], 3)
    ensure(abs(oracle.graph_probs(p, g3).sum() - 1.0) < 1e-12)
    ensure(p[2].tolist() == [0.0, 0.0, 0.0] and p[0, 1] == 1.0)
    d = oracle.distortion_matrix(g3[:40], g3[:40])
    for a in range(40):
        for b in range(40):
            x = g3[a] ^ g3[b]
            ensure(d[a, b] == max(x.sum(axis=1).max(), x.sum(axis=0).max()) / 3)
    cover = np.eye(3, dtype=bool)
    ensure(oracle.min_cover_needs_more(cover, 2) and not oracle.min_cover_needs_more(cover | cover[[1, 2, 0]], 2))
    print(f"oracle self-test passed ({classes} classes checked by brute force)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
