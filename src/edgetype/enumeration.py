"""Exact oracles over edge-type classes at small n.

Everything here is ground truth: class enumeration by backtracking,
class counting by an exact dynamic program over column classes (no
member is visited), interchange walks, δ and conditional classes, and
invariants/components recomputed directly from the members.  These
oracles validate the closed-form machinery and the flow in
edgetype.typealg and the analytic bounds elsewhere; `class_nonempty` and
`class_invariants` answer from typealg and enumerate nothing.
Enumeration refuses n above the limit (DEFAULT_LIMIT unless given);
counting takes no size option and stops past its work budget instead.

Inside this module a class member is an int throughout: a row-major
bitmask, bit k being cell (k // n, k % n).  The invariant masks are the
AND and the NOR of the members, the components are read off those two
masks, and interchange walks flip bits.  A DiGraph is built only for a
graph the public API hands out.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import comb
from operator import add, le, sub
from typing import Iterator, Sequence

from .graphs import DiGraph, respects_restriction
from .typealg import (
    ComponentPartition,
    EdgeType,
    EmptyResult,
    InvariantMasks,
    _bit_rows,
    components_from_masks,
    flow_feasible,
    flow_invariants,
    gale_ryser_feasible,
    invariant_positions,
)

__all__ = [
    "EnumerationLimitError",
    "DEFAULT_LIMIT",
    "enumerate_class",
    "count_class",
    "class_nonempty",
    "class_invariants",
    "partition_by_type",
    "interchange_neighbors",
    "interchange_reach",
    "interchange_connected",
    "enumerate_delta_class",
    "count_delta_class",
    "delta_degree_choices",
    "enumerate_conditional",
    "invariants_by_enumeration",
    "components_by_enumeration",
]

DEFAULT_LIMIT = 6
# The column-class visits one count may make (`_count_within`); on a 2-core
# Xeon VM a visit took 0.5-3 µs and left at most ~75 bytes of states.
COUNT_BUDGET = 2_000_000


class EnumerationLimitError(RuntimeError):
    """Raised when an operation would exceed its resource limit: n above the
    size limit of an enumeration or a scan, or a count past COUNT_BUDGET."""


def _check_limit(n: int, limit: int) -> None:
    if n > limit:
        raise EnumerationLimitError(f"n={n} exceeds enumeration limit {limit} (estimated work 2^{n * n})")


@lru_cache(maxsize=None)
def _row_vectors(n: int) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """The 0/1 column vector of every row bitmask of width n, and its inverse."""
    vecs = tuple(tuple(m >> j & 1 for j in range(n)) for m in range(1 << n))
    return vecs, {v: m for m, v in enumerate(vecs)}


@lru_cache(maxsize=None)
def _row_patterns(allowed: int, k: int, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(bitmask, column vector) of every row with k ones inside the allowed
    columns, in lexicographic order of the row's bit string (cell (i, 0)
    first, 0 before 1), which is ascending order of the vector."""
    vecs = _row_vectors(n)[0]
    masks = [m for m in range(1 << n) if m & allowed == m and m.bit_count() == k]
    return tuple(sorted(((m, vecs[m]) for m in masks), key=lambda p: p[1]))


def _enumerate_bits(
    r: Sequence[int], c: Sequence[int], w_rows: Sequence[int], n: int
) -> Iterator[int]:
    """Backtracking search over row bitmasks in deterministic order.

    Rows are placed top to bottom, and a child is entered only if its
    residual column sums pass a test: with W complete, Gale-Ryser on the
    open rows (the sorted sums against the prefix sums of the conjugate of
    r[i:]), which is exact, so no subtree lacks a member; with W
    restricted, each sum between 0 and its column's room in the open rows.
    The last row is forced to the residual, which must be 0/1 inside W.
    """
    if sum(r) != sum(c):
        return
    vecs, mask_of = _row_vectors(n)
    full = (1 << n) - 1
    unrestricted = all(w == full for w in w_rows)
    # room[i][j]: the ones column j can take in rows i.., each row's ones
    # packed to the left when W is complete (the conjugate of r[i:]), else
    # the cells W allows
    room = [[0] * n]
    for row in reversed([full >> n - v for v in r] if unrestricted else w_rows):
        room.append(list(map(add, room[-1], vecs[row])))
    room.reverse()
    if unrestricted:
        caps = [list(accumulate(cols)) for cols in room]

        def fits(i: int, cols: tuple[int, ...]) -> bool:
            # a negative sum fails too: the other n - 1 then exceed the total
            return all(map(le, accumulate(sorted(cols, reverse=True)), caps[i]))

    else:

        def fits(i: int, cols: tuple[int, ...]) -> bool:
            return min(cols) >= 0 and all(map(le, cols, room[i]))

    outside_last = ~w_rows[n - 1]
    patterns = [_row_patterns(w_rows[i], r[i], n) for i in range(n - 1)]

    def search(i: int, cols: tuple[int, ...], bits: int) -> Iterator[int]:
        """The members whose rows < i are `bits`; cols are the residual sums."""
        shift = i * n
        for m, vec in patterns[i]:
            rest = tuple(map(sub, cols, vec))
            if i == n - 2:
                last = mask_of.get(rest)  # None unless rest is 0/1
                if last is not None and not last & outside_last:
                    yield bits | m << shift | last << shift + n
            elif fits(i + 1, rest):
                yield from search(i + 1, rest, bits | m << shift)

    c = tuple(c)
    if n == 1:
        last = mask_of.get(c)
        if last is not None and not last & outside_last:
            yield last
    elif fits(0, c):
        yield from search(0, c, 0)


def _members(t: EdgeType, limit: int) -> Iterator[int]:
    """The members of T(r, c, W) as bitmasks, in enumeration order."""
    _check_limit(t.n, limit)
    yield from _enumerate_bits(t.r, t.c, _bit_rows(t.w.adj), t.n)


def enumerate_class(t: EdgeType, limit: int = DEFAULT_LIMIT) -> Iterator[DiGraph]:
    """All members of T(r, c, W), each exactly once, in deterministic
    row-major lexicographic order."""
    for bits in _members(t, limit):
        yield DiGraph.from_bits(t.n, bits)


def count_class(t: EdgeType) -> int:
    """|T(r, c, W)| by an exact dynamic program over column classes
    (`_count_within` with every degree interval a single value)."""
    return _count_within(t, (t.r, t.r), (t.c, t.c))


def _count_within(t: EdgeType, rows: tuple[Sequence[int], ...], cols: tuple[Sequence[int], ...]) -> int:
    """The graphs inside t's W whose row i has between least[i] and most[i]
    ones, (least, most) = rows, and likewise each column, by one dynamic
    program.  Rows are placed in non-increasing (most, least) order, W's
    rows permuted alike.  A column class is (least, most ones still to
    take, W bits of the column in the rows not yet placed), most capped at
    the number of those rows; columns of one class are interchangeable, so
    the state is the multiset of classes, held as sorted (class,
    multiplicity) pairs without the finished columns (most 0).  Row i takes
    k_g columns from each class g that W allows in row i, with sum k_g
    inside the row's own interval, in prod C(m_g, k_g) ways; a class whose
    least would exceed the later rows allowing it gives row i all its
    columns.  A table's row and column sums agree, so no pair of sums is
    matched.  With W complete and single-value intervals this is the
    recursion of Miller and Harrison (Ann. Statist. 41(3), 2013) over the
    multiset of residual column degrees.  One forward pass places the rows
    in turn, holding the ways to reach each state.  A step, one take from
    one state, is charged the classes of that state; past COUNT_BUDGET in
    all it raises EnumerationLimitError."""
    n, (row_least, row_most), (col_least, col_most) = t.n, rows, cols
    if sum(row_least) > sum(col_most) or sum(col_least) > sum(row_most):
        return 0
    order = sorted(range(n), key=lambda i: (row_most[i], row_least[i]), reverse=True)  # stable
    patterns = _bit_rows(t.w.adj[order].T)  # column j's W bits, in placement order
    start = Counter((lo, min(hi, p.bit_count()), p) for lo, hi, p in zip(col_least, col_most, patterns))
    if any(lo > hi for lo, hi, _ in start):  # a column W leaves too little room
        return 0
    level = {tuple(sorted(item for item in start.items() if item[0][1])): 1}
    budget = COUNT_BUDGET
    for i in order:
        after = {}
        for state, count in level.items():
            rest = {}  # classes W forbids in row i, by (least, most, later pattern)
            groups = []  # (multiplicity, least take, class of a taker, class of the rest)
            for (lo, hi, pattern), m in state:
                later = pattern >> 1
                if pattern & 1:
                    room = later.bit_count()
                    up = (lo - 1 if lo else 0, hi - 1, later) if hi > 1 else None
                    stay = (lo, hi if hi < room else room, later) if room else None
                    groups.append((m, m if lo > room else 0, up, stay))
                else:
                    rest[lo, hi, later] = m
            for take in _takes(groups, row_least[i], row_most[i]):
                budget -= len(state)
                if budget < 0:
                    raise EnumerationLimitError(f"counting exceeds its budget of {COUNT_BUDGET} column-class visits")
                nxt = rest.copy()
                ways = 1
                for (m, _, up, stay), k in zip(groups, take):
                    if k:
                        ways *= comb(m, k)
                        if up:
                            nxt[up] = nxt.get(up, 0) + k
                    if k < m and stay:
                        nxt[stay] = nxt.get(stay, 0) + m - k
                key = tuple(sorted(nxt.items()))
                after[key] = after.get(key, 0) + count * ways
        level = after
    return level.get((), 0)


def _takes(groups: list[tuple], least: int, most: int) -> Iterator[list[int]]:
    """Every take vector placing between `least` and `most` ones in the
    groups (multiplicity, least take, ...), group g taking between its
    least take and its multiplicity, in lexicographic order, written into
    one list in place."""
    last = len(groups) - 1
    if last < 0:
        if least <= 0 <= most:
            yield []
        return
    # above[g], below[g]: the most and least the groups after g can take
    # together; above also holds the interval's width, so that left[g] -
    # above[g] is the least group g must take
    above = list(accumulate((m for m, _, _, _ in groups[:0:-1]), initial=most - least))[::-1]
    below = list(accumulate((lo for _, lo, _, _ in groups[:0:-1]), initial=0))[::-1]
    take = [0] * (last + 1)
    left = [most] * (last + 1)  # left[g]: the most ones for the groups g..
    take[0] = max(groups[0][1], most - above[0]) - 1
    g = 0
    while g >= 0:
        k = take[g] + 1
        if k > min(groups[g][0], left[g] - below[g]):
            g -= 1
            continue
        take[g] = k
        if g == last:
            yield take
            continue
        g += 1
        left[g] = left[g - 1] - k
        take[g] = max(groups[g][1], left[g] - above[g]) - 1


def class_nonempty(t: EdgeType) -> bool:
    """Whether T(r, c, W) has a member: Gale-Ryser when W is complete, one
    0/1 flow otherwise (`typealg.flow_feasible`)."""
    return gale_ryser_feasible(t.r, t.c) if t.unrestricted else flow_feasible(t)


def class_invariants(t: EdgeType) -> InvariantMasks:
    """Invariant masks of a nonempty class: from the structure matrix when
    W is complete, from one 0/1 flow otherwise (`typealg.flow_invariants`)."""
    return invariant_positions(t) if t.unrestricted else flow_invariants(t)


def partition_by_type(n: int, limit: int = 4) -> dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]]:
    """Bucket all 2^(n^2) graphs by their (r, c) degree pair.

    Returns bitmask lists keyed by (r, c); the single-pass sweep is the
    cheapest way to cross-check counting, feasibility, and interchange
    connectivity over every type at once.
    """
    _check_limit(n, limit)
    row_mask = (1 << n) - 1
    pop = [bin(m).count("1") for m in range(1 << n)]
    col_counts = [
        tuple((m >> j) & 1 for j in range(n)) for m in range(1 << n)
    ]
    buckets: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}
    for bits in range(1 << (n * n)):
        r = []
        c = [0] * n
        for i in range(n):
            row = (bits >> (i * n)) & row_mask
            r.append(pop[row])
            cc = col_counts[row]
            for j in range(n):
                c[j] += cc[j]
        buckets.setdefault((tuple(r), tuple(c)), []).append(bits)
    return buckets


def interchange_neighbors(g: DiGraph, w: DiGraph) -> list[DiGraph]:
    """All graphs one interchange away from g that still respect w.

    An interchange swaps a 2x2 submatrix between the patterns
    [[1,0],[0,1]] and [[0,1],[1,0]]; it preserves both degree vectors.
    """
    return [DiGraph.from_bits(g.n, h) for h in _interchanges(g.to_bits(), _bit_rows(w.adj), g.n)]


def _interchanges(bits: int, w_rows: Sequence[int], n: int) -> Iterator[int]:
    """The bitmasks one W-respecting interchange away from `bits`, by row
    pair (i1, i2) and then column pair (j1, j2)."""
    full = (1 << n) - 1
    rows = [(bits >> (i * n)) & full for i in range(n)]
    for i1, i2 in combinations(range(n), 2):
        # columns whose one may move from row i1 to row i2, and back
        down = rows[i1] & ~rows[i2] & w_rows[i2]
        up = rows[i2] & ~rows[i1] & w_rows[i1]
        if not (down and up):
            continue
        for j1, j2 in combinations(range(n), 2):
            if ((down >> j1) & (up >> j2) | (up >> j1) & (down >> j2)) & 1:
                yield bits ^ ((1 << j1 | 1 << j2) * (1 << i1 * n | 1 << i2 * n))


def interchange_reach(t: EdgeType, limit: int = DEFAULT_LIMIT) -> tuple[int, int]:
    """BFS over single interchanges from the first member.  Returns
    (members reached, class size); the walk is connected iff they agree."""
    members = list(_members(t, limit))
    if not members:
        raise EmptyResult("empty class has no interchange graph")
    w_rows = _bit_rows(t.w.adj)
    seen = {members[0]}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for g in frontier:
            for h in _interchanges(g, w_rows, t.n):
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen), len(members)


def interchange_connected(t: EdgeType, limit: int = DEFAULT_LIMIT) -> bool:
    """True iff interchange walks from one member reach the whole class."""
    reached, members = interchange_reach(t, limit=limit)
    return reached == members


def delta_degree_choices(value: int, n: int, delta: float, dens: int) -> list[int]:
    """Admissible per-vertex degrees: deviation strictly below delta*dens,
    so an interval of consecutive degrees around the nominal one.

    delta=0 admits exactly the nominal degree (the zero deviation), so the
    δ-class degenerates to the plain class.
    """
    return [v for v in range(n + 1) if v == value or abs(v - value) < delta * dens]


def _delta_types(
    t: EdgeType, delta: float, dens: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The admissible degree pairs (r~, c~) of the δ-class with equal sums,
    in lexicographic order, for enumeration; each class lies under t's W."""
    n = t.n
    r_opts = [delta_degree_choices(t.r[i], n, delta, dens) for i in range(n)]
    c_opts = [delta_degree_choices(t.c[j], n, delta, dens) for j in range(n)]
    for r_tilde in product(*r_opts):
        sr = sum(r_tilde)
        for c_tilde in product(*c_opts):
            if sum(c_tilde) == sr:
                yield r_tilde, c_tilde


def _delta_members(t: EdgeType, delta: float, dens: int, limit: int) -> Iterator[int]:
    """The members of the δ-class as bitmasks, in enumerate_delta_class order."""
    _check_limit(t.n, limit)
    w_rows = _bit_rows(t.w.adj)
    for r, c in _delta_types(t, delta, dens):
        yield from _enumerate_bits(r, c, w_rows, t.n)


def enumerate_delta_class(
    t: EdgeType, delta: float, dens: int, limit: int = DEFAULT_LIMIT
) -> Iterator[DiGraph]:
    """Disjoint union over all admissible (r~, c~) of their classes under W,
    in lexicographic order of (r~, c~) then class order."""
    for bits in _delta_members(t, delta, dens, limit):
        yield DiGraph.from_bits(t.n, bits)


def count_delta_class(t: EdgeType, delta: float, dens: int) -> int:
    """|T_δ(r, c, W)|: the graphs inside W whose every degree is admissible,
    counted in one pass (`_count_within`) over the degree intervals of
    `delta_degree_choices`; no degree pair (r~, c~) is visited."""

    def bounds(degrees: tuple[int, ...]) -> tuple[list[int], list[int]]:
        choices = [delta_degree_choices(v, t.n, delta, dens) for v in degrees]
        return [v[0] for v in choices], [v[-1] for v in choices]

    return _count_within(t, bounds(t.r), bounds(t.c))


def _conditional_members(
    t: EdgeType, g: DiGraph, delta: float, dens: int, limit: int
) -> Iterator[int]:
    """The graphs of enumerate_conditional as bitmasks, in its order."""
    if not respects_restriction(g, t.w):
        raise ValueError("reference graph violates the restriction graph")
    g_bits = g.to_bits()
    for d in _delta_members(t, delta, dens, limit):
        yield g_bits ^ d  # inside W, as g and every member are


def enumerate_conditional(
    t: EdgeType,
    g: DiGraph,
    delta: float = 0.0,
    dens: int = 1,
    limit: int = DEFAULT_LIMIT,
) -> Iterator[DiGraph]:
    """Graphs H with H xor g in the (δ-)class of t, restricted by W.

    Here t carries the degree pair of the *distortion* graph; g is the
    reference and must itself respect W.
    """
    for h in _conditional_members(t, g, delta, dens, limit):
        yield DiGraph.from_bits(t.n, h)


def invariants_by_enumeration(t: EdgeType, limit: int = DEFAULT_LIMIT) -> InvariantMasks:
    """Invariant 1-/0-positions: the cells on which all class members agree."""
    members = _members(t, limit)
    first = next(members, None)
    if first is None:
        raise EmptyResult("empty class has no invariant positions")
    inv1 = union = first
    for bits in members:
        inv1 &= bits
        union |= bits
    n = t.n
    inv0 = ((1 << n * n) - 1) & ~union
    return InvariantMasks(*(DiGraph.from_bits(n, m) for m in (inv1, inv0, union & ~inv1)))


def components_by_enumeration(t: EdgeType, limit: int = DEFAULT_LIMIT) -> ComponentPartition:
    """Component partition recomputed from the class members: the
    invariance corners (`typealg.components_from_masks`) of the masks that
    `invariants_by_enumeration` reads off them."""
    return components_from_masks(invariants_by_enumeration(t, limit=limit))
