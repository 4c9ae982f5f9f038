"""Lossy-compression bounds for edge-type classes under the per-vertex
local-structure distortion.

Provides the distortion budget set, sign variants of a type, δ-class
cardinality and high-probability-set bounds, the random covering
construction with its rate bound, the rate-distortion upper/lower bound
formulas, and exact small-n oracles for the combinatorial and
probabilistic rate-distortion functions via minimum set cover.

Rates are per potential edge (divide by n^2); nats internally, bits
where the definitions call for them.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .enumeration import (
    DEFAULT_LIMIT,
    MEMO_SIZE,
    _class_count,
    _delta_members,
    _members,
    class_nonempty,
)
from .graphs import DiGraph, DistortionValue, density
from .maxent import ProductRandomGraph, binary_entropy, counting_gap, solve_maxent
from .probability import graph_prob
from .typealg import EdgeType, _class_key

__all__ = [
    "Codebook",
    "RDReport",
    "omega_iter",
    "sign_variants",
    "delta_class_cardinality_bounds",
    "build_cover_random",
    "verify_cover",
    "rd_upper",
    "rd_lower",
    "rd_bounds",
    "exact_rn",
    "exact_rn_prob",
]

POOL_DRAW_CAP = 10_000_000
BLOCK_CELLS = 1 << 19  # candidate x source cells per coverage chunk
MASS_CELLS = 1 << 15  # candidate x element cells per batched mass chunk
REACH_BLOCK = 16  # fewest candidates whose uncovered masses the bound computes at once
TABLE_MAX_N = 4  # the exact oracles tabulate all 2^(n^2) graphs


@dataclass(frozen=True)
class Codebook:
    graphs: tuple[DiGraph, ...]
    seed: int | None
    m_target: int | None
    provenance: str

    def __post_init__(self):
        if len(set(self.graphs)) != len(self.graphs):
            raise ValueError("codebook contains duplicates")


def _codebook(
    n: int, codewords: Iterable[int], provenance: str, seed: int | None = None, m_target: int | None = None
) -> Codebook:
    """The codebook of the graphs on [n] with these row-major bitmasks."""
    return Codebook(tuple(DiGraph.from_bits(n, bits) for bits in codewords), seed, m_target, provenance)


@dataclass(frozen=True)
class RDReport:
    kind: str
    value_nats: float  # per-cell rate bound, clamped at 0 for lower bounds
    value_bits: float
    raw_nats: float  # unclamped formula value
    slack_terms: dict
    assumption_flags: dict


def _as_fraction(x) -> Fraction:
    if isinstance(x, (Fraction, str, int)):
        return Fraction(x)
    if isinstance(x, DistortionValue):
        return x.as_fraction()
    return Fraction(x).limit_denominator(10**9)


def omega_iter(xi, n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Lazy scan of all (d_r, d_c) with entries in [0, min(floor(Xi*n), n)]:
    no vertex differs in more than its n cells, so Xi > 1 adds no budget."""
    xf = _as_fraction(xi)
    if xf < 0:
        raise ValueError("Xi must be nonnegative")
    rng = range(min(int(xf * n), n) + 1)  # int() floors nonnegative rationals
    for d_r in product(rng, repeat=n):
        for d_c in product(rng, repeat=n):
            yield d_r, d_c


def sign_variants(
    t: EdgeType, d_r: Sequence[int], d_c: Sequence[int]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The degree pairs (r +/- d_r, c +/- d_c) with per-coordinate signs,
    each once (a zero budget has one sign), filtered to degrees in [0, n]
    with equal totals; each is a type under t's W."""
    n = t.n

    def options(x: int, d: int) -> list[int]:
        return [v for v in sorted({x + d, x - d}) if 0 <= v <= n]

    cols: dict[int, list[tuple[int, ...]]] = {}  # by total
    for c in product(*map(options, t.c, d_c)):
        cols.setdefault(sum(c), []).append(c)
    return [(r, c) for r in product(*map(options, t.r, d_r)) for c in cols.get(sum(r), ())]


@lru_cache(maxsize=MEMO_SIZE)
def _class_facts(
    r: tuple[int, ...], c: tuple[int, ...], w_bits: int, tol: float | None, limit: int
) -> tuple[float, float] | None:
    """(H(F_T), measured counting gap floored at 0) of the type (r, c)
    under the W on n = len(r) vertices whose row-major bitmask is w_bits,
    or None when its class is empty.  The gap (H - ln count) / (n ln n) is
    the enumerable stand-in for the universal counting constant.

    One bounded memo per process, shared by every reader and every call.
    H is solved on (r, c) as given; the scan's readers pass the class
    representative (`_facts_reader`), so with W complete a class met in
    any labelling is analysed once.  Emptiness and the count do not
    depend on labels: the count is read from `enumeration._class_count`
    under the representative, so it is shared by every labelling.  Each
    entry is the value a fresh computation gives, so output does not
    depend on what the memo holds; a raised error is not kept and is
    raised again on the next call."""
    n = len(r)
    t = EdgeType(r, c, DiGraph.from_bits(n, w_bits))
    if not class_nonempty(t, limit=limit):
        return None
    h = solve_maxent(t, tol=tol, limit=limit)[2].entropy_nats
    count = _class_count(*_class_key(r, c, w_bits == (1 << n * n) - 1), w_bits, limit)
    return h, max(0.0, counting_gap(h, count, n))


def _facts_reader(w: DiGraph, tol: float | None, limit: int):
    """`_class_facts` of the degree pairs (r, c) under W, looked up by the
    class representative; an EdgeType is built only for a class the memo
    does not hold."""
    complete, w_bits = bool(w.adj.all()), w.to_bits()

    def facts(r: tuple[int, ...], c: tuple[int, ...]) -> tuple[float, float] | None:
        return _class_facts(*_class_key(r, c, complete), w_bits, tol, limit)

    return facts


def delta_class_cardinality_bounds(
    t: EdgeType, delta: float, dens: int, tol: float | None = None, limit: int = DEFAULT_LIMIT
) -> tuple[float, float]:
    """Bounds on (1/n^2) ln |T_delta| around the per-cell entropy:

        H/n^2 - gap*ln(n)/n  <=  (1/n^2) ln |T_delta|  <=  H/n^2 + H_b(delta) + ln max(n*dens, 1)/n^2

    with the measured counting gap in place of the universal constant; at dens = 0, T_delta = T.
    H and the count are read under t's class representative, as the Omega scan reads them,
    so the bounds do not depend on vertex labels; the count is shared with `count_delta_class`.
    """
    facts = _facts_reader(t.w, tol, limit)(t.r, t.c)
    if facts is None:
        raise ValueError("empty class")
    n = t.n
    h, gap = facts
    lnn = math.log(n) if n > 1 else 0.0
    lower = h / n**2 - gap * lnn / n
    upper = h / n**2 + binary_entropy(delta) + math.log(max(n * dens, 1)) / n**2
    return lower, upper


def _covering_scan(t: EdgeType, xi, facts) -> tuple[float, float, bool, float]:
    """Max over distortion budgets and sign variants of the entropy
    difference H(variant) - H(distortion type), per n^2 cells, reading
    each type's facts through `facts` (a `_facts_reader` under t's W), so
    a class the memo still holds from any earlier call is neither tested,
    solved nor counted again.

    Returns (max_diff_per_cell, max_measured_gap, density_preserved,
    max_distortion_entropy).  Infeasible variants and infeasible
    distortion types are skipped; the zero budget always contributes t
    itself against the zero type, so t's facts, read first to refuse an
    empty class, cost no extra work.
    """
    if facts(t.r, t.c) is None:
        raise ValueError("empty class")
    n = t.n
    dens = t.density()
    best = -math.inf
    max_gap = 0.0
    density_ok = True
    h_dist_max = -math.inf
    for d_r, d_c in omega_iter(xi, n):
        dist = facts(d_r, d_c)
        if dist is None:
            continue
        h_dist, gap = dist
        h_dist_max = max(h_dist_max, h_dist)
        max_gap = max(max_gap, gap)
        for r, c in sign_variants(t, d_r, d_c):
            variant = facts(r, c)
            if variant is None:
                continue
            max_gap = max(max_gap, variant[1])
            density_ok = density_ok and density(r, c) == dens
            best = max(best, (variant[0] - h_dist) / n**2)
    return best, max_gap, density_ok, h_dist_max


def _covering_terms(n: int, xi, delta: float, dens: int, gap: float) -> dict:
    """The covering lemma's slack exponents in nats, in the lemma's order;
    per cell (divided by n^2) they are the upper bound's slack terms."""
    lnn = math.log(n) if n > 1 else 0.0
    return {
        "omega_count": (2.0 * float(_as_fraction(xi)) * n + 2.0) * lnn,
        "delta_entropy": n**2 * binary_entropy(delta),
        "delta_log_term": math.log(max(n * dens, 1)),
        "counting_gap": gap * n * lnn,
        "union_bound": n,
    }


def _upper_report(t: EdgeType, xi, delta: float, dens: int, scan) -> RDReport:
    n = t.n
    diff, gap, density_ok, _ = scan
    slack = {k: v / n**2 for k, v in _covering_terms(n, xi, delta, dens, gap).items()}
    value = diff + sum(slack.values())
    return RDReport(
        kind="upper",
        value_nats=value,
        value_bits=value / math.log(2),
        raw_nats=value,
        slack_terms={"entropy_difference": diff, **slack},
        assumption_flags={"density_preserved": density_ok},
    )


def _lower_report(
    t: EdgeType, xi, delta: float, delta_hat: float, dens: int,
    t_facts: tuple[float, float], h_dist_max: float,
) -> RDReport:
    """The converse needs min over distortion types of H(t) - H(type),
    i.e. the largest distortion-type entropy, which the scan returns."""
    n = t.n
    h_t, gap = t_facts
    best = (h_t - h_dist_max) / n**2
    xf = _as_fraction(xi)
    lnn = math.log(n) if n > 1 else 0.0
    hoeffding_ok = 4.0 * n * math.exp(-2.0 * dens * dens * delta_hat * delta_hat / n) < 0.5
    slack = {
        "typicality_entropies": -(binary_entropy(delta_hat) + binary_entropy(delta)),
        "half_term": math.log(0.5) / n**2,
        "type_count": -(2.0 + gap) * math.log(n + 1) / n,
        "density_log_terms": -2.0 * math.log(max(n * dens, 1)) / n**2,
        "omega_count": -2.0 * (float(xf) * n + 1.0) * lnn / n**2,
    }
    raw = best + sum(slack.values())
    return RDReport(
        kind="lower",
        value_nats=max(0.0, raw),
        value_bits=max(0.0, raw) / math.log(2),
        raw_nats=raw,
        slack_terms={"entropy_difference": best, **slack},
        assumption_flags={"hoeffding_condition": hoeffding_ok},
    )


def rd_upper(
    t: EdgeType,
    xi,
    delta: float,
    dens: int | None = None,
    tol: float | None = None,
    limit: int = DEFAULT_LIMIT,
) -> RDReport:
    """Achievability bound on R_n(Xi + delta/n) for the class of t."""
    return rd_bounds(t, xi, delta, 0.0, dens, tol, limit)[0]


def rd_lower(
    t: EdgeType,
    xi,
    delta: float,
    delta_hat: float,
    dens: int | None = None,
    tol: float | None = None,
    limit: int = DEFAULT_LIMIT,
) -> RDReport:
    """Converse bound on R_n(Xi + delta/n), clamped at 0."""
    return rd_bounds(t, xi, delta, delta_hat, dens, tol, limit)[1]


def rd_bounds(
    t: EdgeType,
    xi,
    delta: float,
    delta_hat: float,
    dens: int | None = None,
    tol: float | None = None,
    limit: int = DEFAULT_LIMIT,
) -> tuple[RDReport, RDReport]:
    """(rd_upper, rd_lower) from one scan of Omega.  The facts of every
    class the scan meets, t's included, come from the `_class_facts` memo:
    a class is solved and counted only when the memo does not hold it, so
    a repeated call solves, counts and builds nothing."""
    if dens is None:
        dens = t.density()
    facts = _facts_reader(t.w, tol, limit)
    scan = _covering_scan(t, xi, facts)
    upper = _upper_report(t, xi, delta, dens, scan)
    return upper, _lower_report(t, xi, delta, delta_hat, dens, facts(t.r, t.c), scan[3])


def _cover_pool(t: EdgeType, xi, delta: float, dens: int, limit: int) -> list[int]:
    """Union over distortion budgets of the δ-classes of all sign
    variants, each distinct variant enumerated once, as sorted distinct bitmasks."""
    variants = {v for d_r, d_c in omega_iter(xi, t.n) for v in sign_variants(t, d_r, d_c)}
    classes = (_delta_members(EdgeType(r, c, t.w), delta, dens, limit) for r, c in variants)
    return sorted({bits for members in classes for bits in members})


def lemma_codebook_size(
    t: EdgeType, xi, delta: float, dens: int, tol: float | None = None, limit: int = DEFAULT_LIMIT
) -> float:
    """The covering lemma's (deliberately loose) codebook size: e to the
    upper bound's exponent before its division by n^2."""
    n = t.n
    diff, gap, _, _ = _covering_scan(t, xi, _facts_reader(t.w, tol, limit))
    return math.exp(sum(_covering_terms(n, xi, delta, dens, gap).values(), diff * n**2))


def build_cover_random(
    t: EdgeType,
    xi,
    delta: float,
    m: int | None = None,
    seed: int = 0,
    dens: int | None = None,
    tol: float | None = None,
    limit: int = DEFAULT_LIMIT,
) -> Codebook:
    """Draw m uniform codewords (with replacement, duplicates collapsed)
    from the covering pool.  With m omitted, the lemma's size formula is
    used; if that exceeds the draw cap the whole pool is returned, which
    trivially covers (every class member lies in its own pool)."""
    if not class_nonempty(t, limit=limit):
        raise ValueError("empty class")
    if dens is None:
        dens = t.density()
    pool = _cover_pool(t, xi, delta, dens, limit)
    m_target = m
    if m_target is None:
        m_target = math.ceil(lemma_codebook_size(t, xi, delta, dens, tol, limit))
    if m_target >= POOL_DRAW_CAP or m_target >= len(pool) * 64:
        provenance = f"exhaustive pool of {len(pool)} (target M {m_target} saturates it)"
        return _codebook(t.n, pool, provenance, m_target=m_target)
    rng = random.Random(seed)
    chosen = sorted({pool[rng.randrange(len(pool))] for _ in range(m_target)})
    provenance = f"{m_target} uniform draws from pool of {len(pool)}, seed {seed}"
    return _codebook(t.n, chosen, provenance, seed, m_target)


def _line_masks(n: int) -> list[int]:
    """The row and column masks of a row-major n x n bitmask."""
    row, col = (1 << n) - 1, sum(1 << (i * n) for i in range(n))
    return [row << (i * n) for i in range(n)] + [col << j for j in range(n)]


def verify_cover(
    b: Codebook, t: EdgeType, threshold, limit: int = DEFAULT_LIMIT
) -> tuple[bool, DiGraph | None, Fraction]:
    """Exhaustive check that every class member is within the distortion
    threshold of the codebook.  Returns (ok, worst member or None, worst
    min-distortion); the worst member is the first in enumeration order
    that reaches the max.

    Members and codewords are row-major bitmasks: a pair's distortion is
    k/n with k the largest row or column popcount of g ^ h, an exact int.
    A member's scan stops at the first codeword no farther than the worst
    member so far, which it then cannot replace."""
    thr = _as_fraction(threshold)
    if not b.graphs:
        raise ValueError("empty codebook")
    n = t.n
    for h in b.graphs:
        if h.n != n:
            raise ValueError(f"dimension mismatch: {n} vs {h.n}")
    lines = _line_masks(n)
    codes = [h.to_bits() for h in b.graphs]
    worst_g, worst_k = None, -1
    for g in _members(t, limit):
        best = n + 1
        for h in codes:
            x = g ^ h
            k = max((x & line).bit_count() for line in lines)
            if k < best:
                best = k
                if best <= worst_k:
                    break
        if best > worst_k:
            worst_g, worst_k = g, best
    if worst_g is None:
        return True, None, Fraction(0)
    worst_v = Fraction(worst_k, n)
    return worst_v <= thr, DiGraph.from_bits(n, worst_g), worst_v


# ---------------------------------------------------------------------------
# Exact small-n oracles: minimum set cover over all candidate codewords.
# ---------------------------------------------------------------------------


def _check_oracle_n(n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(f"n={n} exceeds exact oracle limit {limit}")
    if n > TABLE_MAX_N:
        raise ValueError(f"n={n} exceeds the exact oracles' ceiling n={TABLE_MAX_N} (2^(n^2) graphs)")


@lru_cache(maxsize=TABLE_MAX_N + 1)  # n = 0..TABLE_MAX_N
def _xor_weights(n: int) -> np.ndarray:
    """Worst row or column weight of every XOR pattern x in [0, 2^(n^2)),
    in the row-major bit order of `DiGraph.to_bits`; one read-only table
    per n (512 entries at n = 3, 64 KB at n = 4)."""
    x = np.arange(1 << (n * n), dtype="<u4").view(np.uint8).reshape(-1, 4)
    cells = np.unpackbits(x, axis=1, count=n * n, bitorder="little").reshape(-1, n, n)
    rows = cells.sum(axis=2, dtype=np.int8).max(axis=1)
    table = np.maximum(rows, cells.sum(axis=1, dtype=np.int8).max(axis=1))
    table.setflags(write=False)
    return table


def _pack(masks: Sequence[int], nbytes: int) -> np.ndarray:
    """The masks as rows of nbytes little-endian bytes."""
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)


def _first_rows(words: np.ndarray) -> np.ndarray:
    """The index of the first occurrence of each distinct row of words (a
    stable sort keeps equal rows in ascending index)."""
    order = np.lexsort(words.T[::-1])
    rows = words[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return order[first]


def _coverage_masks(
    source_bits: list[int], n: int, thr: Fraction
) -> list[tuple[int, int]]:
    """For every candidate codeword (all 2^(n^2) graphs) the bitmask of
    source elements it covers; dominated and empty candidates dropped.

    h covers g iff worst(h ^ g) / n <= thr, i.e. worst <= floor(thr * n).
    The candidate x source block is built BLOCK_CELLS at a time and packed
    into rows of 64-bit words; only its distinct rows, each with its
    smallest h, become ints."""
    covered = _xor_weights(n) <= max(-1, min(n, thr.numerator * n // thr.denominator))
    index = np.min_scalar_type(covered.size - 1)
    src = np.array(source_bits, dtype=index)
    nbytes = 8 * -(-len(src) // 64)
    step = max(1, BLOCK_CELLS // len(src))
    masks: dict[int, int] = {}
    for start in range(0, covered.size, step):
        hs = np.arange(start, min(start + step, covered.size), dtype=index)
        packed = np.packbits(covered[hs[:, None] ^ src], axis=1, bitorder="little")
        rows = np.zeros((len(hs), nbytes), dtype=np.uint8)
        rows[:, : packed.shape[1]] = packed
        for i in _first_rows(rows.view(np.uint64)).tolist():
            m = int.from_bytes(rows[i].tobytes(), "little")
            if m and m not in masks:  # ascending h: the first is the smallest
                masks[m] = start + i
    items = sorted(masks.items(), key=lambda kv: (-kv[0].bit_count(), kv[1]))
    # Drop strictly dominated coverage masks.  The masks are distinct, so one
    # is dropped iff it lies within another, which covers more and so comes
    # earlier: each block of rows is tested against the rows up to its end,
    # MASS_CELLS words at a time.
    words = _pack([m for m, _ in items], nbytes).view(np.uint64)
    inside = np.zeros(len(items), dtype=bool)
    step = max(1, MASS_CELLS // max(words.size, 1))
    for start in range(0, len(items), step):
        stop = min(start + step, len(items))
        within = ~(words[start:stop, None] & ~words[None, :stop]).any(axis=2)
        within[np.arange(stop - start), np.arange(start, stop)] = False  # not within itself
        inside[start:stop] = within.any(axis=1)
    return [item for item, dropped in zip(items, inside.tolist()) if not dropped]


def _top_sums(values: list[float], k: int) -> list[float]:
    """Entry i is the sum of the k largest of values[i:]."""
    heap: list[float] = []
    sums = [0.0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        if len(heap) < k:
            heapq.heappush(heap, values[i])
        elif values[i] > heap[0]:
            heapq.heapreplace(heap, values[i])
        sums[i] = sum(heap)
    return sums


def _masses(packed: np.ndarray, weights: np.ndarray) -> list[float]:
    """The weight each packed row covers: weights[j] summed over its set bits j.

    Each sum is a sequential cumsum over a 0/1 row in ascending j, which adds
    the weights one at a time in the order a loop over the set bits would,
    and adding +0.0 for an unset bit leaves it unchanged: every sum is the
    loop's, bit for bit.  (A reduction would not do: numpy sums pairwise
    along a contiguous axis.)  Rows are unpacked MASS_CELLS cells at a time."""
    width = len(weights)
    step = max(1, MASS_CELLS // width)
    out: list[float] = []
    for start in range(0, len(packed), step):
        bits = np.unpackbits(packed[start : start + step], axis=1, count=width, bitorder="little")
        out += np.cumsum(bits * weights, axis=1)[:, -1].tolist()
    return out


def _smallest_cover(
    cands: list[tuple[int, int]], weights: Sequence[float], need: float
) -> list[int]:
    """Codewords of the fewest candidates whose union carries weight >= need.

    cands are (coverage mask over the weighted elements, codeword bits).  They
    are ordered by covered weight, largest first, then codeword bits; for the
    smallest k the first covering k-subset in that order is returned.  The one
    optimistic bound, the sum of the k' largest uncovered masses among the
    candidates still open, prunes only subtrees that hold no cover."""
    # rows: the candidates as `masses` reads them, ints or packed byte rows
    unit = set(weights) == {1.0}
    if unit:

        def masses(rows: list[int], covered: int) -> list[int]:
            return [(m & ~covered).bit_count() for m in rows]  # a sum of ones is exact

        rows = [m for m, _ in cands]
    else:
        w = np.asarray(weights, dtype=float)
        nbytes = (len(w) + 7) // 8

        def masses(rows: np.ndarray, covered: int) -> list[float]:
            if covered:
                rows = rows & _pack([~covered & ((1 << 8 * nbytes) - 1)], nbytes)
            return _masses(rows, w)

        rows = _pack([m for m, _ in cands], nbytes)
    whole = masses(rows, 0)
    order = sorted(range(len(cands)), key=lambda i: (-whole[i], cands[i][1]))
    whole = [whole[i] for i in order]
    cover_masks = [cands[i][0] for i in order]
    codewords = [cands[i][1] for i in order]
    rows = cover_masks if unit else rows[order]
    goal = need - 1e-12
    hopeless = goal - 1e-12  # room for rounding in the optimistic sums

    def uncovered(lo: int, hi: int, covered: int) -> list:
        """The uncovered masses of the candidates lo..hi-1 in search order;
        while nothing is covered they are the whole masses."""
        return masses(rows[lo:hi], covered) if covered else whole[lo:hi]

    def reach(start: int, left: int, covered: int, extras: list) -> float:
        """The `left` largest uncovered masses among the candidates from
        start on; an uncovered mass is at most the whole mass, which falls along the list,
        so the scan stops where no later one can enter.  The masses it reads
        are appended to extras, computed in blocks that double."""
        heap: list[float] = []
        for idx in range(start, len(whole)):
            if len(heap) == left and whole[idx] <= heap[0]:
                break
            if idx - start == len(extras):
                extras += uncovered(idx, idx + max(left, len(extras), REACH_BLOCK), covered)
            extra = extras[idx - start]
            if len(heap) < left:
                heapq.heappush(heap, extra)
            elif extra > heap[0]:
                heapq.heapreplace(heap, extra)
        return sum(heap)

    def dfs(start: int, left: int, covered: int, got: float, chosen: list[int]) -> list[int] | None:
        if got >= goal:
            return list(chosen)
        extras: list = []
        if left == 0 or got + reach(start, left, covered, extras) < hopeless:
            return None
        extras += uncovered(start + len(extras), len(whole), covered)
        for idx, extra, bound in zip(range(start, len(whole)), extras, _top_sums(extras, left)):
            if got + bound < hopeless:
                break  # the same bound over the candidates from idx on; it only falls with idx
            if extra <= 0:
                continue
            chosen.append(codewords[idx])
            found = dfs(idx + 1, left - 1, covered | cover_masks[idx], got + extra, chosen)
            chosen.pop()
            if found is not None:
                return found
        return None

    for k in range(1, len(weights) + 1):
        found = dfs(0, k, 0, 0.0, [])
        if found is not None:
            return sorted(found)
    raise ValueError("source not coverable")


def exact_rn(
    source: Iterable[DiGraph], d, limit: int = 3
) -> tuple[float, Codebook]:
    """Exact combinatorial rate-distortion point: the smallest codebook
    (over all graphs on [n]) covering every source graph within d.
    Returns (rate in bits per potential edge, optimal codebook)."""
    graphs = sorted(set(source), key=DiGraph.to_bits)
    if not graphs:
        return 0.0, _codebook(0, (), "empty source", m_target=0)
    n = graphs[0].n
    _check_oracle_n(n, limit)
    thr = _as_fraction(d)
    source_bits = [g.to_bits() for g in graphs]
    cands = _coverage_masks(source_bits, n, thr)
    if not cands:
        raise ValueError("no candidate covers anything")
    chosen = _smallest_cover(cands, [1.0] * len(source_bits), len(source_bits))
    book = _codebook(n, chosen, f"exact set cover over {len(cands)} candidate coverage patterns")
    return math.log2(len(chosen)) / n**2, book


def exact_rn_prob(
    f: ProductRandomGraph, d, eps: float, limit: int = 3
) -> tuple[float, Codebook]:
    """Exact probabilistic rate-distortion point: the smallest codebook
    leaving uncovered probability mass at most eps under f."""
    if not eps >= 0:  # else no codebook meets the need and every subset is tried
        raise ValueError(f"eps must be nonnegative, got {eps}")
    n = f.n
    _check_oracle_n(n, limit)
    thr = _as_fraction(d)
    weights = [graph_prob(f, DiGraph.from_bits(n, b)) for b in range(1 << (n * n))]
    support = [i for i, w in enumerate(weights) if w > 0]
    need = sum(weights[i] for i in support) - eps
    if need <= 0:
        return 0.0, _codebook(n, (), "eps covers everything", m_target=0)
    cands = _coverage_masks(support, n, thr)  # graph i has bits i
    best = _smallest_cover(cands, [weights[i] for i in support], need)
    book = _codebook(n, best, f"exact weighted partial cover, eps={eps}")
    return math.log2(len(best)) / n**2, book
