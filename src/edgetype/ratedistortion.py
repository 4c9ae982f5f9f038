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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

from .enumeration import class_nonempty, count_class, enumerate_class, enumerate_delta_class
from .graphs import DiGraph, DistortionValue, distortion
from .maxent import ProductRandomGraph, binary_entropy, counting_gap, solve_maxent
from .probability import graph_prob
from .typealg import EdgeType

__all__ = [
    "Codebook",
    "RDReport",
    "omega_iter",
    "sign_variants",
    "delta_class_cardinality_bounds",
    "high_prob_set_lower",
    "build_cover_random",
    "verify_cover",
    "rd_upper",
    "rd_lower",
    "exact_rn",
    "exact_rn_prob",
]

POOL_DRAW_CAP = 10_000_000


@dataclass(frozen=True)
class Codebook:
    graphs: tuple[DiGraph, ...]
    seed: int | None
    m_target: int | None
    provenance: str

    def __post_init__(self):
        if len(set(self.graphs)) != len(self.graphs):
            raise ValueError("codebook contains duplicates")


@dataclass(frozen=True)
class RDReport:
    kind: str
    value_nats: float  # per-cell rate bound, clamped at 0 for lower bounds
    value_bits: float
    raw_nats: float  # unclamped formula value
    slack_terms: dict
    assumption_flags: dict
    exact_rate_bits: float | None = None


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, DistortionValue):
        return x.as_fraction()
    return Fraction(x).limit_denominator(10**9)


def omega_iter(xi, n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Lazy scan of all (d_r, d_c) with entries in [0, floor(Xi*n)]."""
    xf = _as_fraction(xi)
    if xf < 0:
        raise ValueError("Xi must be nonnegative")
    k = int(xf * n)  # floor for nonnegative rationals
    rng = range(k + 1)
    for d_r in product(rng, repeat=n):
        for d_c in product(rng, repeat=n):
            yield d_r, d_c


def sign_variants(t: EdgeType, d_r: Sequence[int], d_c: Sequence[int]) -> list[EdgeType]:
    """All types (r +/- d_r, c +/- d_c) with per-coordinate signs,
    deduplicated and filtered to degrees in [0, n] with equal totals."""
    n = t.n
    r_opts = [sorted({t.r[i] + d_r[i], t.r[i] - d_r[i]}) for i in range(n)]
    c_opts = [sorted({t.c[j] + d_c[j], t.c[j] - d_c[j]}) for j in range(n)]
    out: list[EdgeType] = []
    seen = set()
    for r in product(*r_opts):
        if any(v < 0 or v > n for v in r):
            continue
        sr = sum(r)
        for c in product(*c_opts):
            if any(v < 0 or v > n for v in c):
                continue
            if sum(c) != sr:
                continue
            key = (r, c)
            if key in seen:
                continue
            seen.add(key)
            out.append(EdgeType(r, c, t.w))
    return out


def _entropy_of(t: EdgeType, tol: float | None) -> float:
    _, _, report = solve_maxent(t, tol=tol)
    return report.entropy_nats


def _measured_gap(t: EdgeType, h: float, limit: int = 6) -> float:
    """(H - ln count) / (n ln n), floored at 0: the enumerable stand-in
    for the universal counting constant."""
    if t.n > limit:
        return 0.0
    count = count_class(t, limit=limit)
    if count == 0:
        raise ValueError("empty class has no measured gap")
    return max(0.0, counting_gap(h, count, t.n))


def delta_class_cardinality_bounds(
    t: EdgeType, delta: float, dens: int, tol: float | None = None, limit: int = 6
) -> tuple[float, float]:
    """Bounds on (1/n^2) ln |T_delta| around the per-cell entropy:

        H/n^2 - gap*ln(n)/n  <=  (1/n^2) ln |T_delta|  <=  H/n^2 + H_b(delta) + ln(n*dens)/n^2

    with the measured counting gap in place of the universal constant.
    """
    if not class_nonempty(t, limit=limit):
        raise ValueError("empty class")
    n = t.n
    h = _entropy_of(t, tol)
    gap = _measured_gap(t, h, limit=limit)
    lnn = math.log(n) if n > 1 else 0.0
    lower = h / n**2 - gap * lnn / n
    upper = h / n**2 + binary_entropy(delta) + math.log(n * dens) / n**2
    return lower, upper


def high_prob_set_lower(
    t: EdgeType,
    delta_hat: float,
    eta: float,
    dens: int,
    tol: float | None = None,
    limit: int = 6,
) -> tuple[float, bool]:
    """Lower bound on (1/n^2) ln|A| for any set A with probability >= eta
    under any margin-matching product graph.  Returns (bound, vacuous);
    vacuous is True when the Hoeffding precondition
    4n exp(-2 dens^2 delta_hat^2 / n) <= eta/2 fails.
    """
    n = t.n
    vacuous = 4.0 * n * math.exp(-2.0 * dens * dens * delta_hat * delta_hat / n) > eta / 2.0
    h = _entropy_of(t, tol)
    gap = _measured_gap(t, h, limit=limit)
    lnn = math.log(n) if n > 1 else 0.0
    bound = (
        h / n**2
        - binary_entropy(delta_hat)
        + math.log(eta / 2.0) / n**2
        - gap * lnn / n
        - 2.0 * math.log(dens + 1) / n
        - math.log(n * dens) / n**2
    )
    return bound, vacuous


def _covering_scan(
    t: EdgeType, xi, tol: float | None, limit: int
) -> tuple[float, float, bool]:
    """Max over distortion budgets and sign variants of the entropy
    difference H(variant) - H(distortion type), per n^2 cells.

    Returns (max_diff_per_cell, max_measured_gap, density_preserved).
    Infeasible variants and infeasible distortion types are skipped.
    """
    n = t.n
    dens = t.density()
    best = -math.inf
    max_gap = 0.0
    density_ok = True
    entropy_cache: dict[tuple, float] = {}

    def h_of(tt: EdgeType) -> float:
        key = (tt.r, tt.c)
        if key not in entropy_cache:
            entropy_cache[key] = _entropy_of(tt, tol)
        return entropy_cache[key]

    for d_r, d_c in omega_iter(xi, n):
        dist_type = EdgeType(d_r, d_c, t.w)
        if not class_nonempty(dist_type, limit=limit):
            continue
        h_dist = h_of(dist_type)
        max_gap = max(max_gap, _measured_gap(dist_type, h_dist, limit=limit))
        for variant in sign_variants(t, d_r, d_c):
            if not class_nonempty(variant, limit=limit):
                continue
            h_var = h_of(variant)
            max_gap = max(max_gap, _measured_gap(variant, h_var, limit=limit))
            if variant.density() != dens:
                density_ok = False
            best = max(best, (h_var - h_dist) / n**2)
    if best == -math.inf:
        raise ValueError("no feasible sign variant for any distortion budget")
    return best, max_gap, density_ok


def rd_upper(
    t: EdgeType,
    xi,
    delta: float,
    dens: int | None = None,
    tol: float | None = None,
    limit: int = 6,
) -> RDReport:
    """Achievability bound on R_n(Xi + delta/n) for the class of t."""
    n = t.n
    if dens is None:
        dens = t.density()
    diff, gap, density_ok = _covering_scan(t, xi, tol, limit)
    xf = _as_fraction(xi)
    lnn = math.log(n) if n > 1 else 0.0
    slack = {
        "omega_count": (2.0 * float(xf) * n + 2.0) * lnn / n**2,
        "delta_entropy": binary_entropy(delta),
        "delta_log_term": math.log(n * dens) / n**2,
        "counting_gap": gap * lnn / n,
        "union_bound": 1.0 / n,
    }
    value = diff + sum(slack.values())
    return RDReport(
        kind="upper",
        value_nats=value,
        value_bits=value / math.log(2),
        raw_nats=value,
        slack_terms={"entropy_difference": diff, **slack},
        assumption_flags={"density_preserved": density_ok},
    )


def rd_lower(
    t: EdgeType,
    xi,
    delta: float,
    delta_hat: float,
    dens: int | None = None,
    tol: float | None = None,
    limit: int = 6,
) -> RDReport:
    """Converse bound on R_n(Xi + delta/n), clamped at 0."""
    n = t.n
    if dens is None:
        dens = t.density()
    h_base = _entropy_of(t, tol)
    gap = _measured_gap(t, h_base, limit=limit)
    best = math.inf
    for d_r, d_c in omega_iter(xi, n):
        dist_type = EdgeType(d_r, d_c, t.w)
        if not class_nonempty(dist_type, limit=limit):
            continue
        best = min(best, (h_base - _entropy_of(dist_type, tol)) / n**2)
    if best == math.inf:
        raise ValueError("no feasible distortion type in Omega")
    xf = _as_fraction(xi)
    lnn = math.log(n) if n > 1 else 0.0
    hoeffding_ok = 4.0 * n * math.exp(-2.0 * dens * dens * delta_hat * delta_hat / n) < 0.5
    slack = {
        "typicality_entropies": -(binary_entropy(delta_hat) + binary_entropy(delta)),
        "half_term": math.log(0.5) / n**2,
        "type_count": -(2.0 + gap) * math.log(n + 1) / n,
        "density_log_terms": -2.0 * math.log(n * dens) / n**2,
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


def _cover_pool(t: EdgeType, xi, delta: float, dens: int, limit: int) -> list[DiGraph]:
    """Union over distortion budgets of the δ-classes of all sign
    variants, deduplicated, in deterministic order."""
    seen: set[int] = set()
    pool: list[DiGraph] = []
    for d_r, d_c in omega_iter(xi, t.n):
        for variant in sign_variants(t, d_r, d_c):
            for g in enumerate_delta_class(variant, delta, dens, limit=limit):
                b = g.to_bits()
                if b not in seen:
                    seen.add(b)
                    pool.append(g)
    pool.sort(key=DiGraph.to_bits)
    return pool


def lemma_codebook_size(
    t: EdgeType, xi, delta: float, dens: int, tol: float | None = None, limit: int = 6
) -> float:
    """The covering lemma's (deliberately loose) codebook size:
    exp(max entropy difference + all slack terms + n)."""
    n = t.n
    diff, gap, _ = _covering_scan(t, xi, tol, limit)
    xf = _as_fraction(xi)
    lnn = math.log(n) if n > 1 else 0.0
    exponent = (
        diff * n**2
        + (2.0 * float(xf) * n + 2.0) * lnn
        + n**2 * binary_entropy(delta)
        + math.log(n * dens)
        + gap * n * lnn
        + n
    )
    return math.exp(exponent)


def build_cover_random(
    t: EdgeType,
    xi,
    delta: float,
    m: int | None = None,
    seed: int = 0,
    dens: int | None = None,
    tol: float | None = None,
    limit: int = 6,
) -> Codebook:
    """Draw m uniform codewords (with replacement, duplicates collapsed)
    from the covering pool.  With m omitted, the lemma's size formula is
    used; if that exceeds the draw cap the whole pool is returned, which
    trivially covers (every class member lies in its own pool)."""
    if dens is None:
        dens = t.density()
    pool = _cover_pool(t, xi, delta, dens, limit)
    if not pool:
        raise ValueError("empty covering pool")
    m_target = m
    if m_target is None:
        m_target = math.ceil(lemma_codebook_size(t, xi, delta, dens, tol, limit))
    if m_target >= POOL_DRAW_CAP or m_target >= len(pool) * 64:
        return Codebook(
            graphs=tuple(pool),
            seed=None,
            m_target=m_target,
            provenance=f"exhaustive pool of {len(pool)} (target M {m_target} saturates it)",
        )
    rng = random.Random(seed)
    chosen_bits: set[int] = set()
    chosen: list[DiGraph] = []
    for _ in range(m_target):
        g = pool[rng.randrange(len(pool))]
        b = g.to_bits()
        if b not in chosen_bits:
            chosen_bits.add(b)
            chosen.append(g)
    chosen.sort(key=DiGraph.to_bits)
    return Codebook(
        graphs=tuple(chosen),
        seed=seed,
        m_target=m_target,
        provenance=f"{m_target} uniform draws from pool of {len(pool)}, seed {seed}",
    )


def verify_cover(
    b: Codebook, t: EdgeType, threshold, limit: int = 6
) -> tuple[bool, DiGraph | None, Fraction]:
    """Exhaustive check that every class member is within the distortion
    threshold of the codebook (exact rational comparisons).  Returns
    (ok, worst member or None, worst min-distortion)."""
    thr = _as_fraction(threshold)
    worst_g = None
    worst_v = Fraction(0)
    ok = True
    if not b.graphs:
        raise ValueError("empty codebook")
    for g in enumerate_class(t, limit=limit):
        best = min(distortion(g, h).as_fraction() for h in b.graphs)
        if best > worst_v or worst_g is None:
            worst_v, worst_g = best, g
        if best > thr:
            ok = False
    return ok, worst_g, worst_v


# ---------------------------------------------------------------------------
# Exact small-n oracles: minimum set cover over all candidate codewords.
# ---------------------------------------------------------------------------


def _distortion_bits(gb: int, hb: int, n: int) -> Fraction:
    x = gb ^ hb
    row_mask = (1 << n) - 1
    worst = 0
    cols = [0] * n
    for i in range(n):
        row = (x >> (i * n)) & row_mask
        worst = max(worst, bin(row).count("1"))
        for j in range(n):
            cols[j] += (row >> j) & 1
    worst = max(worst, max(cols))
    return Fraction(worst, n)


def _coverage_masks(
    source_bits: list[int], n: int, thr: Fraction
) -> list[tuple[int, int]]:
    """For every candidate codeword (all 2^(n^2) graphs) the bitmask of
    source elements it covers; dominated and empty candidates dropped."""
    masks: dict[int, int] = {}
    for hb in range(1 << (n * n)):
        m = 0
        for idx, gb in enumerate(source_bits):
            if _distortion_bits(gb, hb, n) <= thr:
                m |= 1 << idx
        if m:
            prev = masks.get(m)
            if prev is None or hb < prev:
                masks[m] = hb
    items = sorted(masks.items(), key=lambda kv: (-bin(kv[0]).count("1"), kv[1]))
    # drop strictly dominated coverage masks
    kept: list[tuple[int, int]] = []
    for m, hb in items:
        if not any(m | km == km for km, _ in kept):
            kept.append((m, hb))
    return kept


def _min_cover(universe: int, cands: list[tuple[int, int]]) -> list[int]:
    """Exact minimum set cover (greedy seed + branch and bound).
    Returns the chosen candidate codeword bitmasks."""
    # greedy upper bound
    greedy: list[int] = []
    un = universe
    while un:
        m, hb = max(cands, key=lambda kv: (bin(kv[0] & un).count("1"), -kv[1]))
        if not m & un:
            raise ValueError("source not coverable")
        greedy.append(hb)
        un &= ~m
    best = greedy
    max_cover = max(bin(m).count("1") for m, _ in cands)

    def dfs(un: int, chosen: list[int]):
        nonlocal best
        if not un:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        need = -(-bin(un).count("1") // max_cover)
        if len(chosen) + need >= len(best):
            return
        # branch on the uncovered element with fewest covering candidates
        elem = None
        elem_cands: list[tuple[int, int]] = []
        u = un
        while u:
            e = u & (-u)
            cs = [kv for kv in cands if kv[0] & e]
            if elem is None or len(cs) < len(elem_cands):
                elem, elem_cands = e, cs
            u &= u - 1
        for m, hb in elem_cands:
            chosen.append(hb)
            dfs(un & ~m, chosen)
            chosen.pop()

    dfs(universe, [])
    return best


def exact_rn(
    source: Iterable[DiGraph], d, limit: int = 3
) -> tuple[float, Codebook]:
    """Exact combinatorial rate-distortion point: the smallest codebook
    (over all graphs on [n]) covering every source graph within d.
    Returns (rate in bits per potential edge, optimal codebook)."""
    graphs = sorted(set(source), key=DiGraph.to_bits)
    if not graphs:
        return 0.0, Codebook(graphs=(), seed=None, m_target=0, provenance="empty source")
    n = graphs[0].n
    if n > limit:
        raise ValueError(f"n={n} exceeds exact oracle limit {limit}")
    thr = _as_fraction(d)
    source_bits = [g.to_bits() for g in graphs]
    cands = _coverage_masks(source_bits, n, thr)
    universe = (1 << len(source_bits)) - 1
    if not any(True for _ in cands):
        raise ValueError("no candidate covers anything")
    chosen = _min_cover(universe, cands)
    chosen.sort()
    book = Codebook(
        graphs=tuple(DiGraph.from_bits(n, hb) for hb in chosen),
        seed=None,
        m_target=None,
        provenance=f"exact set cover over {len(cands)} candidate coverage patterns",
    )
    rate = math.log2(len(chosen)) / n**2
    return rate, book


def exact_rn_prob(
    f: ProductRandomGraph, d, eps: float, limit: int = 3
) -> tuple[float, Codebook]:
    """Exact probabilistic rate-distortion point: the smallest codebook
    leaving uncovered probability mass at most eps under f."""
    n = f.n
    if n > limit:
        raise ValueError(f"n={n} exceeds exact oracle limit {limit}")
    thr = _as_fraction(d)
    all_graphs = [DiGraph.from_bits(n, b) for b in range(1 << (n * n))]
    weights = [graph_prob(f, g) for g in all_graphs]
    support = [i for i, w in enumerate(weights) if w > 0]
    need = sum(weights[i] for i in support) - eps
    if need <= 0:
        return 0.0, Codebook(graphs=(), seed=None, m_target=0, provenance="eps covers everything")
    source_bits = [all_graphs[i].to_bits() for i in support]
    wts = [weights[i] for i in support]
    cands = _coverage_masks(source_bits, n, thr)

    def mass(m: int) -> float:
        total = 0.0
        k = 0
        while m:
            if m & 1:
                total += wts[k]
            m >>= 1
            k += 1
        return total

    cands.sort(key=lambda kv: (-mass(kv[0]), kv[1]))
    cand_mass = [mass(m) for m, _ in cands]
    tol = 1e-12

    best: list[int] | None = None

    def covers(k: int) -> list[int] | None:
        """Can k candidates cover mass >= need?  Returns codewords or None."""
        found: list[int] | None = None

        def dfs(start: int, left: int, covered: int, got: float, chosen: list[int]):
            nonlocal found
            if found is not None:
                return
            if got >= need - tol:
                found = list(chosen)
                return
            if left == 0 or start >= len(cands):
                return
            # optimistic bound: add the largest remaining masses outright
            if got + sum(cand_mass[start : start + left]) < need - tol:
                return
            for idx in range(start, len(cands)):
                m, hb = cands[idx]
                extra = mass(m & ~covered)
                if extra <= 0 and got < need - tol:
                    continue
                chosen.append(hb)
                dfs(idx + 1, left - 1, covered | m, got + extra, chosen)
                chosen.pop()
                if found is not None:
                    return

        dfs(0, k, 0, 0.0, [])
        return found

    for k in range(1, len(support) + 1):
        res = covers(k)
        if res is not None:
            best = sorted(res)
            break
    if best is None:
        raise ValueError("source not coverable")
    book = Codebook(
        graphs=tuple(DiGraph.from_bits(n, hb) for hb in best),
        seed=None,
        m_target=None,
        provenance=f"exact weighted partial cover, eps={eps}",
    )
    return math.log2(len(best)) / n**2, book
