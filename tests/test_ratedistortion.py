import functools
import itertools
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from edgetype import enumeration, ratedistortion
from edgetype.enumeration import (
    EnumerationLimitError,
    class_nonempty,
    count_class,
    enumerate_class,
    enumerate_delta_class,
    partition_by_type,
)
from edgetype.graphs import DiGraph, distortion
from edgetype.maxent import ProductRandomGraph, binary_entropy, counting_gap, solve_maxent
from edgetype.probability import FamilyDParams, family_d_graph
from edgetype.ratedistortion import (
    Codebook,
    build_cover_random,
    delta_class_cardinality_bounds,
    exact_rn,
    exact_rn_prob,
    lemma_codebook_size,
    omega_iter,
    rd_bounds,
    rd_lower,
    rd_upper,
    sign_variants,
    verify_cover,
)
from edgetype.typealg import EdgeType


def seeded_types(n, count, w_density=1.0):
    """Degree pairs of seeded random graphs inside a seeded random W,
    which is complete at w_density 1."""
    rng = np.random.default_rng(n)
    types = []
    for _ in range(count):
        w = rng.random((n, n)) < w_density
        g = w & (rng.random((n, n)) < rng.uniform(0.2, 0.8))
        types.append(EdgeType.of_graph(DiGraph(g), DiGraph(w)))
    return types


def entropy(t, tol=None):
    """H(F_T) of t's class, solved in t's own labels."""
    return solve_maxent(t, tol=tol)[2].entropy_nats


class TestOmega:
    def test_zero_budget_is_singleton(self):
        assert list(omega_iter(0, 3)) == [((0, 0, 0), (0, 0, 0))]

    def test_half_at_n2(self):
        pairs = list(omega_iter(Fraction(1, 2), 2))
        assert len(pairs) == len(set(pairs)) == 16  # entries in {0, 1} on both sides

    def test_floor_of_xi_n(self):
        # Xi = 1/3 at n = 2 floors to 0: only the zero budget
        assert len(list(omega_iter(Fraction(1, 3), 2))) == 1

    def test_iter_lazy(self):
        it = omega_iter(1, 4)  # 5^8 budgets, never materialized here
        assert next(it) == ((0, 0, 0, 0), (0, 0, 0, 0))
        assert next(it) == ((0, 0, 0, 0), (0, 0, 0, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(omega_iter(-1, 2))

    @pytest.mark.parametrize("xi", [Fraction(4, 3), 5])
    def test_budget_capped_at_n(self, xi):
        # no distortion exceeds 1, so a budget above n per vertex adds nothing
        assert list(omega_iter(xi, 3)) == list(omega_iter(1, 3))


class TestSignVariants:
    def test_zero_budget_returns_type_itself(self):
        t = EdgeType((2, 1, 0), (1, 1, 1))
        assert sign_variants(t, (0, 0, 0), (0, 0, 0)) == [(t.r, t.c)]

    def test_example_counts_and_totals(self):
        t = EdgeType((1, 1), (1, 1))
        vs = sign_variants(t, (1, 0), (1, 0))
        assert set(vs) == {((0, 1), (0, 1)), ((2, 1), (2, 1))}
        for r, c in vs:
            assert sum(r) == sum(c)

    def test_bounded_by_sign_choices(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        vs = sign_variants(t, (1, 1, 1), (1, 1, 1))
        assert 0 < len(vs) <= 2 ** (2 * 3)

    @pytest.mark.parametrize("k", range(8))
    def test_each_variant_once(self, k):
        # zero budgets collapse the two signs of a coordinate into one
        t = seeded_types(3 + k % 2, 8)[k]
        rng = random.Random(k)
        d_r, d_c = ([rng.randint(0, 2) for _ in range(t.n)] for _ in "rc")
        want = set()
        for signs in product((1, -1), repeat=2 * t.n):
            r = tuple(x + s * d for x, s, d in zip(t.r, signs[: t.n], d_r))
            c = tuple(x + s * d for x, s, d in zip(t.c, signs[t.n :], d_c))
            if all(0 <= v <= t.n for v in r + c) and sum(r) == sum(c):
                want.add((r, c))
        got = sign_variants(t, d_r, d_c)
        assert len(got) == len(set(got)) and set(got) == want

    def test_out_of_range_dropped(self):
        t = EdgeType((2, 2), (2, 2))
        vs = sign_variants(t, (1, 1), (1, 1))
        for r, c in vs:
            assert all(0 <= x <= 2 for x in r + c)


class TestDeltaClassCardinalityBounds:
    @pytest.mark.parametrize("delta", [0.0, 0.2, 0.4, 0.5])
    @pytest.mark.parametrize(
        "r,c",
        [((1, 1), (1, 1)), ((1, 1, 1), (1, 1, 1)), ((2, 1, 0), (1, 1, 1))],
    )
    def test_sandwich_exact(self, r, c, delta):
        t = EdgeType(r, c)
        dens = t.density()
        lower, upper = delta_class_cardinality_bounds(t, delta, dens)
        count = len(set(enumerate_delta_class(t, delta, dens)))
        value = math.log(count) / t.n**2
        assert lower <= value + 1e-12
        assert value <= upper + 1e-12

    def test_sandwich_widened_class(self):
        # a density-3 type where delta = 1/2 genuinely widens the class
        t = EdgeType((3, 0, 0), (1, 1, 1))
        lower, upper = delta_class_cardinality_bounds(t, 0.5, 3)
        count = len(set(enumerate_delta_class(t, 0.5, 3)))
        assert count > len(list(enumerate_class(t)))
        value = math.log(count) / 9
        assert lower <= value <= upper

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            delta_class_cardinality_bounds(EdgeType((2, 0), (2, 0)), 0.1, 1)

    def test_above_limit_raises(self):
        # the counting gap is measured, never taken as 0, so n > limit refuses
        t = EdgeType((1,) * 7, (1,) * 7)
        with pytest.raises(EnumerationLimitError):
            delta_class_cardinality_bounds(t, 0.2, 1)

    def test_upper_monotone_in_delta(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        ups = [delta_class_cardinality_bounds(t, d, 1)[1] for d in (0.0, 0.25, 0.5)]
        assert ups == sorted(ups)


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
    h = entropy(t, tol)
    gap = max(0.0, counting_gap(h, count_class(t, limit=limit), n))
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


class TestHighProbSetLower:
    def test_vacuous_flag_when_hoeffding_fails(self):
        t = EdgeType((1, 1), (1, 1))
        _, vacuous = high_prob_set_lower(t, 1.0, 0.5, 1)
        assert vacuous  # 8 e^{-1} > 1/4

    def test_not_vacuous_for_large_deviation(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        _, vacuous = high_prob_set_lower(t, 3.0, 0.5, 3)
        assert not vacuous  # 12 e^{-54} << 1/4

    def test_bound_holds_on_delta_class(self):
        # the delta-hat-class has probability ~1 and must beat the bound
        t = EdgeType((1, 1, 1), (1, 1, 1))
        delta_hat, dens = 3.0, 1
        bound, _ = high_prob_set_lower(t, delta_hat, 0.5, dens)
        count = len(set(enumerate_delta_class(t, delta_hat, dens)))
        assert math.log(count) / 9 >= bound


class TestCoveringBound:
    def test_dominates_exact_rate(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        xi = Fraction(1, 3)
        bound_bits = rd_upper(t, xi, 0.0, dens=1).value_bits
        rate_bits, _ = exact_rn(list(enumerate_class(t)), xi)
        assert bound_bits >= rate_bits

    def test_lemma_size_at_least_one(self):
        t = EdgeType((1, 1), (1, 1))
        assert lemma_codebook_size(t, 0, 0.0, 1) >= 1.0

    @pytest.mark.parametrize("delta", [0.0, 0.25])
    @pytest.mark.parametrize("xi", [Fraction(0), Fraction(1, 3)])
    @pytest.mark.parametrize("t", seeded_types(2, 3) + seeded_types(3, 3))
    def test_lemma_size_keeps_the_lemma_summation_order(self, t, xi, delta):
        # cover's m_target is ceil of this value, so it must not move by an ulp
        n, dens = t.n, t.density()
        diff, gap, _, _ = ratedistortion._covering_scan(t, xi, ratedistortion._facts_reader(t.w, None, 6))
        lnn = math.log(n) if n > 1 else 0.0
        exponent = (
            diff * n**2
            + (2.0 * float(xi) * n + 2.0) * lnn
            + n**2 * binary_entropy(delta)
            + math.log(n * dens)
            + gap * n * lnn
            + n
        )
        assert lemma_codebook_size(t, xi, delta, dens) == math.exp(exponent)


class TestBuildCover:
    def test_saturating_target_returns_pool(self):
        t = EdgeType((1, 1), (1, 1))
        cb = build_cover_random(t, 0, 0.0, m=10**9, seed=0)
        assert cb.seed is None and len(cb.graphs) == 2
        assert cb.provenance.startswith("exhaustive pool")

    def test_seeded_draws_deterministic(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        a = build_cover_random(t, Fraction(1, 3), 0.0, m=20, seed=7)
        b = build_cover_random(t, Fraction(1, 3), 0.0, m=20, seed=7)
        assert a.graphs == b.graphs

    def test_lemma_size_covers(self):
        # default m comes from the covering-lemma size formula; it saturates
        # the pool at this scale, so coverage at threshold Xi is exhaustive
        t = EdgeType((1, 1, 1), (1, 1, 1))
        xi = Fraction(1, 3)
        cb = build_cover_random(t, xi, 0.0, seed=3)
        ok, _, worst = verify_cover(cb, t, xi)
        assert ok and worst <= Fraction(1, 3)

    def test_empty_pool_rejected(self):
        t = EdgeType((2, 0), (2, 0))
        with pytest.raises(ValueError):
            build_cover_random(t, 0, 0.0, m=5)


class TestVerifyCover:
    def test_empty_graph_covers_regular_pair_at_half(self):
        book = Codebook(
            graphs=(DiGraph.empty(2),), seed=None, m_target=None, provenance="manual"
        )
        t = EdgeType((1, 1), (1, 1))
        ok, worst_g, worst_v = verify_cover(book, t, Fraction(1, 2))
        assert ok and worst_v == Fraction(1, 2)
        assert worst_g in set(enumerate_class(t))

    def test_failure_reports_worst_member(self):
        book = Codebook(
            graphs=(DiGraph([[0, 1], [1, 0]]),),
            seed=None,
            m_target=None,
            provenance="manual",
        )
        t = EdgeType((1, 1), (1, 1))
        ok, worst_g, worst_v = verify_cover(book, t, Fraction(1, 2))
        assert not ok
        assert worst_g == DiGraph([[1, 0], [0, 1]]) and worst_v == Fraction(1, 1)

    def test_empty_codebook_rejected(self):
        book = Codebook(graphs=(), seed=None, m_target=0, provenance="manual")
        with pytest.raises(ValueError):
            verify_cover(book, EdgeType((1, 1), (1, 1)), 0)

    def test_dimension_mismatch_rejected(self):
        book = Codebook(graphs=(DiGraph.empty(3),), seed=None, m_target=None, provenance="manual")
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_cover(book, EdgeType((1, 1), (1, 1)), 0)

    @staticmethod
    def reference(book, t, thr):
        """Pairwise `graphs.distortion` over the DiGraph stream; the worst
        member is the first that reaches the largest min-distortion."""
        worst_g, worst_v, ok = None, Fraction(0), True
        for g in enumerate_class(t):
            best = min(distortion(g, h).as_fraction() for h in book.graphs)
            if worst_g is None or best > worst_v:
                worst_g, worst_v = g, best
            ok = ok and best <= thr
        return ok, worst_g, worst_v

    @pytest.mark.parametrize(
        "t",
        [EdgeType(*rc) for rc in partition_by_type(2)]
        + seeded_types(3, 6)
        + seeded_types(3, 6, w_density=0.7)
        + seeded_types(4, 4)
        + seeded_types(4, 4, w_density=0.75),
    )
    def test_matches_pairwise_distortions(self, t):
        rng = random.Random(f"verify:{t.r}:{t.c}:{t.w.to_bits()}")
        n = t.n
        members = [g.to_bits() for g in enumerate_class(t)]
        for size in (1, 2, 5, 17):
            # codewords drawn from all graphs, some from the class, so exact hits occur too
            codes = {rng.getrandbits(n * n) for _ in range(size)} | set(rng.sample(members, min(2, len(members))))
            book = Codebook(tuple(DiGraph.from_bits(n, b) for b in sorted(codes)), None, None, "seeded")
            for thr in (Fraction(0), Fraction(1, n), Fraction(2, n), Fraction(1, 2), Fraction(1)):
                ok, worst_g, worst_v = verify_cover(book, t, thr)
                assert (ok, worst_g, worst_v) == self.reference(book, t, thr)

    @pytest.mark.parametrize(
        "t, codes",
        [
            # every permutation matrix is at 1/3 of the empty graph: the first member is the worst
            (EdgeType((1, 1, 1), (1, 1, 1)), (0,)),
            # the first member is a codeword; the other five tie at 2/3, so the second is the worst
            (EdgeType((1, 1, 1), (1, 1, 1)), (0b001010100,)),
            (EdgeType((1, 1, 1), (1, 1, 1)), (0b100010001, 0b100001010)),
            (EdgeType((1, 1, 1), (1, 1, 1), DiGraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])), (0b010100001,)),
        ],
    )
    def test_ties_keep_the_first_worst_member(self, t, codes):
        book = Codebook(tuple(DiGraph.from_bits(t.n, b) for b in codes), None, None, "manual")
        got = verify_cover(book, t, Fraction(1, 3))
        assert got == self.reference(book, t, Fraction(1, 3))
        members = list(enumerate_class(t))
        mins = [min(distortion(g, h).as_fraction() for h in book.graphs) for g in members]
        assert mins.count(max(mins)) >= 2 and got[1] == members[mins.index(max(mins))]

    def test_empty_class_is_covered(self):
        book = Codebook(graphs=(DiGraph.empty(2),), seed=None, m_target=None, provenance="manual")
        assert verify_cover(book, EdgeType((2, 0), (1, 1), DiGraph([[1, 0], [0, 1]])), 0) == (True, None, Fraction(0))


class TestRDReports:
    def test_upper_report_shape(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        rep = rd_upper(t, Fraction(1, 3), 0.0)
        assert rep.kind == "upper"
        assert rep.value_bits == pytest.approx(rep.value_nats / math.log(2))
        assert "density_preserved" in rep.assumption_flags
        assert rep.value_nats == pytest.approx(
            sum(rep.slack_terms.values())
        )

    def test_lower_clamped_but_raw_kept(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        rep = rd_lower(t, Fraction(1, 3), 0.0, 0.2)
        assert rep.kind == "lower"
        assert rep.value_nats >= 0.0
        assert rep.raw_nats <= rep.value_nats
        assert "hoeffding_condition" in rep.assumption_flags

    def test_upper_dominates_lower(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        up = rd_upper(t, Fraction(1, 3), 0.0)
        lo = rd_lower(t, Fraction(1, 3), 0.0, 0.2)
        assert up.value_nats >= lo.value_nats

    def test_no_feasible_distortion_type_rejected(self):
        # restriction empties every distortion class
        w = DiGraph.empty(2)
        t = EdgeType((0, 0), (0, 0), w)
        rep = rd_lower(t, 0, 0.0, 0.2)  # zero type is feasible under empty W
        assert rep.kind == "lower"


class TestRDBoundsOnePass:
    TYPES = [
        (EdgeType((1, 1, 1), (1, 1, 1)), Fraction(1, 3)),
        (EdgeType((2, 1, 0), (1, 1, 1)), Fraction(2, 3)),
        (EdgeType((1, 1, 1), (1, 1, 1), DiGraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])), Fraction(1, 3)),
        (EdgeType((2, 1, 1, 0), (1, 1, 1, 1)), Fraction(1, 4)),
    ]

    @pytest.mark.parametrize("t,xi", TYPES)
    def test_upper_equals_rd_upper(self, t, xi):
        up, lo = rd_bounds(t, xi, 0.25, 0.2)
        assert up == rd_upper(t, xi, 0.25)
        assert lo.kind == "lower"

    @pytest.mark.parametrize("t,xi", TYPES)
    def test_lower_is_min_over_distortion_types(self, t, xi):
        # the converse's entropy term, recomputed one distortion type at a time
        h_t = entropy(t)
        dist_types = (EdgeType(d_r, d_c, t.w) for d_r, d_c in omega_iter(xi, t.n))
        diffs = [(h_t - entropy(d)) / t.n**2 for d in dist_types if class_nonempty(d)]
        assert rd_lower(t, xi, 0.25, 0.2).slack_terms["entropy_difference"] == min(diffs)

    @pytest.mark.parametrize("t,xi", TYPES)
    def test_each_type_solved_and_counted_once(self, t, xi, monkeypatch, cold_memo):
        seen = {"solve": [], "count": []}

        def recorded(name, fn):
            def wrapper(tt, *args, **kwargs):
                # with W complete a relabelled type is the same class
                key = (tuple(sorted(tt.r)), tuple(sorted(tt.c))) if tt.unrestricted else (tt.r, tt.c)
                seen[name].append(key)
                return fn(tt, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(ratedistortion, "solve_maxent", recorded("solve", ratedistortion.solve_maxent))
        monkeypatch.setattr(enumeration, "count_class", recorded("count", enumeration.count_class))
        first = rd_bounds(t, xi, 0.25, 0.2)
        for calls in seen.values():
            assert calls and len(calls) == len(set(calls))
            calls.clear()
        # the memo outlives the call: a repeat solves and counts nothing
        assert rd_bounds(t, xi, 0.25, 0.2) == first
        assert seen == {"solve": [], "count": []}

    @pytest.mark.parametrize("t,xi", TYPES)
    def test_one_edge_type_per_class(self, t, xi, monkeypatch, cold_memo):
        # the scan walks degree tuples and builds an EdgeType only for a class not met before
        def key(r, c):
            return (tuple(sorted(r)), tuple(sorted(c))) if t.unrestricted else (r, c)

        built = []

        def recorded(r, c, w=None):
            built.append(key(r, c))
            return EdgeType(r, c, w)

        monkeypatch.setattr(ratedistortion, "EdgeType", recorded)
        rd_bounds(t, xi, 0.25, 0.2)
        met = {key(r, c) for d in omega_iter(xi, t.n) for r, c in [d, *sign_variants(t, *d)]}
        assert built and len(built) == len(set(built)) and set(built) <= met
        built.clear()
        rd_bounds(t, xi, 0.25, 0.2)
        assert built == []


def scan_without_memo(t, xi):
    """The upper and lower entropy terms and the density flag, solving
    every type where the scan of Omega meets it."""
    n, h = t.n, entropy
    upper, h_dist_max, density_ok = -math.inf, -math.inf, True
    for d_r, d_c in omega_iter(xi, n):
        d = EdgeType(d_r, d_c, t.w)
        if not class_nonempty(d):
            continue
        h_dist_max = max(h_dist_max, h(d))
        for v in (EdgeType(r, c, t.w) for r, c in sign_variants(t, d_r, d_c)):
            if class_nonempty(v):
                density_ok &= v.density() == t.density()
                upper = max(upper, (h(v) - h(d)) / n**2)
    return upper, (h(t) - h_dist_max) / n**2, density_ok


def relabelled(t, seed):
    """t with its rows and its columns each put in a seeded random order."""
    rng = random.Random(seed)
    rows, cols = rng.sample(range(t.n), t.n), rng.sample(range(t.n), t.n)
    return EdgeType(tuple(t.r[i] for i in rows), tuple(t.c[j] for j in cols))


RELABEL_CASES = [
    (EdgeType((0, 2, 2), (0, 2, 2)), EdgeType((2, 2, 0), (2, 2, 0)), Fraction(1, 3)),
    (EdgeType((2, 3, 3, 3), (1, 2, 4, 4)), EdgeType((3, 3, 3, 2), (4, 4, 2, 1)), Fraction(0)),
    *((t, relabelled(t, k), xi) for k, t in enumerate(seeded_types(3, 4)) for xi in (0, Fraction(1, 3), Fraction(2, 3))),
    *((t, relabelled(t, k), xi) for k, t in enumerate(seeded_types(4, 3)) for xi in (0, Fraction(1, 4))),
]


class TestRelabelledTypes:
    """With W complete, the scan solves and counts one representative per
    class up to relabelling, so the bounds depend only on the class."""

    @pytest.mark.parametrize("t,u,xi", RELABEL_CASES)
    def test_bounds_equal_under_relabelling(self, t, u, xi):
        assert rd_bounds(t, xi, 0.25, 0.2) == rd_bounds(u, xi, 0.25, 0.2)

    @pytest.mark.parametrize(
        "t,xi",
        [(t, xi) for t, _, xi in RELABEL_CASES]
        + [TestRDBoundsOnePass.TYPES[2]]
        + [(t, xi) for t in seeded_types(3, 4, w_density=0.75) for xi in (Fraction(1, 3), Fraction(2, 3))],
    )
    def test_scan_matches_unmemoized_oracle(self, t, xi):
        up, lo = rd_bounds(t, xi, 0.25, 0.2)
        upper, lower, density_ok = scan_without_memo(t, xi)
        # a difference of equal entropies may cancel to an ulp: the absolute
        # part is the same 1e-12 taken against per-cell entropies, which are <= ln 2
        close = functools.partial(math.isclose, rel_tol=1e-12, abs_tol=1e-12)
        assert close(up.slack_terms["entropy_difference"], upper)
        assert close(lo.slack_terms["entropy_difference"], lower)
        assert up.assumption_flags["density_preserved"] == density_ok


def fresh_facts(r, c, w, tol=None, limit=6):
    """(H, gap floored at 0) of the type (r, c) under w, or None when its
    class is empty, computed without any memo."""
    t = EdgeType(r, c, w)
    if not class_nonempty(t, limit=limit):
        return None
    h = solve_maxent(t, tol=tol, limit=limit)[2].entropy_nats
    return h, max(0.0, counting_gap(h, count_class(t, limit=limit), t.n))


MEMO_TYPES = [t for n in (3, 4) for density in (1.0, 0.75) for t in seeded_types(n, 3, density)]
SAME_DEGREE_WS = (DiGraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), DiGraph([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))


class TestFactsMemo:
    """The process-wide memo of class facts read by the scan of Omega."""

    @pytest.mark.parametrize("t", MEMO_TYPES)
    def test_facts_equal_a_fresh_computation(self, t):
        # whatever the memo already holds, on t and on variants of it, some empty
        read = ratedistortion._facts_reader(t.w, None, 6)
        for r, c in [(t.r, t.c), *sign_variants(t, (1,) * t.n, (0,) * t.n)]:
            rep = ratedistortion._class_key(r, c, t.unrestricted)
            assert read(r, c) == fresh_facts(*rep, t.w)

    @pytest.mark.parametrize("t", [t for t in MEMO_TYPES if t.unrestricted])
    def test_relabellings_share_one_entry(self, t, cold_memo):
        read = ratedistortion._facts_reader(t.w, None, 6)
        facts = [read(u.r, u.c) for u in (t, *(relabelled(t, k) for k in range(3)))]
        assert facts == [facts[0]] * 4
        info = ratedistortion._class_facts.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 3)
        assert enumeration._class_count.cache_info().currsize == 1

    def test_restricted_ws_with_equal_degrees_do_not_share(self, cold_memo):
        # both W have every row and column degree 2
        facts = [ratedistortion._facts_reader(w, None, 6)((1, 1, 1), (1, 1, 1)) for w in SAME_DEGREE_WS]
        assert facts == [fresh_facts((1, 1, 1), (1, 1, 1), w) for w in SAME_DEGREE_WS]
        assert ratedistortion._class_facts.cache_info().currsize == 2
        assert enumeration._class_count.cache_info().currsize == 2

    def test_tol_and_limit_are_part_of_the_key(self, cold_memo):
        t = EdgeType((2, 1, 1, 0), (1, 2, 0, 1))
        settings = [(None, 6), (1e-6, 6), (None, 5)]
        facts = [ratedistortion._facts_reader(t.w, tol, limit)(t.r, t.c) for tol, limit in settings]
        assert facts == [fresh_facts((2, 1, 1, 0), (2, 1, 1, 0), t.w, tol, limit) for tol, limit in settings]
        assert ratedistortion._class_facts.cache_info().currsize == 3
        assert enumeration._class_count.cache_info().currsize == 2  # a count has no tolerance

    def test_refused_count_is_refused_again(self, cold_memo):
        t = EdgeType((3,) * 7, (3,) * 7)
        for _ in range(2):
            with pytest.raises(EnumerationLimitError):
                rd_bounds(t, 0, 0.2, 0.0)
        assert ratedistortion._class_facts.cache_info().currsize == 0
        up, _ = rd_bounds(t, 0, 0.2, 0.0, limit=7)
        assert up.slack_terms["counting_gap"] > 0

    def test_size_stays_within_the_bound(self, monkeypatch):
        assert ratedistortion._class_facts.cache_info().maxsize == enumeration.MEMO_SIZE
        assert enumeration._class_count.cache_info().maxsize == enumeration.MEMO_SIZE
        t, xi = TestRDBoundsOnePass.TYPES[3]
        expected = rd_bounds(t, xi, 0.25, 0.2)
        met = {ratedistortion._class_key(r, c, True) for d in omega_iter(xi, t.n) for r, c in [d, *sign_variants(t, *d)]}
        bound = 8
        assert len(met) > bound
        facts = functools.lru_cache(maxsize=bound)(ratedistortion._class_facts.__wrapped__)
        counts = functools.lru_cache(maxsize=bound)(enumeration._class_count.__wrapped__)
        monkeypatch.setattr(ratedistortion, "_class_facts", facts)
        monkeypatch.setattr(ratedistortion, "_class_count", counts)
        assert rd_bounds(t, xi, 0.25, 0.2) == expected
        assert facts.cache_info().misses >= len(met)
        assert facts.cache_info().currsize <= bound and counts.cache_info().currsize <= bound

    @pytest.mark.parametrize(
        "t",
        [
            TestRDBoundsOnePass.TYPES[2][0],
            # passes the necessary condition; the member search finds it empty
            EdgeType((1, 1, 1), (1, 1, 1), DiGraph([[1, 1, 0]] * 3)),
        ],
    )
    def test_scan_tests_t_once(self, t, monkeypatch, cold_memo):
        tested = []

        def recorded(tt, *args, **kwargs):
            tested.append((tt.r, tt.c))
            return class_nonempty(tt, *args, **kwargs)

        monkeypatch.setattr(ratedistortion, "class_nonempty", recorded)
        if class_nonempty(t):
            rd_bounds(t, Fraction(1, 3), 0.25, 0.2)
        else:
            with pytest.raises(ValueError, match="empty class"):
                rd_bounds(t, Fraction(1, 3), 0.25, 0.2)
        assert tested.count((t.r, t.c)) == 1


THRESHOLDS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(4, 3)]


@functools.lru_cache(maxsize=None)
def _pair_distortions(n: int) -> list[list[int]]:
    """k[h][g] with distortion(g, h) = k / n, from `graphs.distortion`."""
    graphs = [DiGraph.from_bits(n, b) for b in range(1 << (n * n))]
    return [[distortion(g, h).numerator for g in graphs] for h in graphs]


def reference_masks(source_bits, n, thr):
    """Brute force: every candidate's coverage mask from pairwise
    distortions, the smallest candidate per mask, dominated masks dropped."""
    within = [Fraction(k, n) <= thr for k in range(n + 1)]
    masks = {}
    for hb, row in enumerate(_pair_distortions(n)):
        m = sum(1 << k for k, gb in enumerate(source_bits) if within[row[gb]])
        if m and m not in masks:
            masks[m] = hb
    kept = []
    for m, hb in sorted(masks.items(), key=lambda kv: (-bin(kv[0]).count("1"), kv[1])):
        if not any(m | km == km for km, _ in kept):
            kept.append((m, hb))
    return kept


class TestCoverageTable:
    """`_coverage_masks` (one XOR-pattern table) against pairwise distortions."""

    @pytest.mark.parametrize("thr", THRESHOLDS)
    def test_every_source_set_n1(self, thr):
        for sources in ([0], [1], [0, 1]):
            assert ratedistortion._coverage_masks(sources, 1, thr) == reference_masks(sources, 1, thr)

    def test_every_source_set_n2(self):
        # each of the 2^16 - 1 source sets once, the thresholds taken in turn
        for subset in range(1, 1 << 16):
            sources = [b for b in range(16) if subset >> b & 1]
            thr = THRESHOLDS[subset % len(THRESHOLDS)]
            assert ratedistortion._coverage_masks(sources, 2, thr) == reference_masks(sources, 2, thr)

    @pytest.mark.parametrize("thr", THRESHOLDS)
    def test_seeded_source_sets_n3(self, thr):
        rng = random.Random(11)
        source_sets = [list(range(512))] + [
            sorted(rng.sample(range(512), rng.randint(1, 160))) for _ in range(19)
        ]
        for sources in source_sets:
            assert ratedistortion._coverage_masks(sources, 3, thr) == reference_masks(sources, 3, thr)

    def test_negative_threshold_covers_nothing(self):
        assert ratedistortion._coverage_masks([0, 5], 2, Fraction(-1, 2)) == []

    def test_one_read_only_table_per_n(self):
        ratedistortion._xor_weights.cache_clear()
        rng = random.Random(13)
        for n in (2, 3, 2, 3):
            sources = sorted(rng.sample(range(1 << (n * n)), 1 << (n * n - 2)))
            thr = Fraction(1, n)
            assert ratedistortion._coverage_masks(sources, n, thr) == reference_masks(sources, n, thr)
        info = ratedistortion._xor_weights.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 2)
        assert not ratedistortion._xor_weights(3).flags.writeable


def loop_mass(m, weights):
    """The covered weight summed left to right over the set bits of m."""
    total = 0.0
    while m:
        low = m & -m
        total += weights[low.bit_length() - 1]
        m ^= low
    return total


class TestBatchedMasses:
    """`_masses` sums each mask's weights in one fixed order: every sum
    equals (==) the left-to-right loop over its set bits."""

    @pytest.mark.parametrize("width", [1, 7, 37, 512, (1 << 15) + 3])
    def test_equal_to_the_loop(self, width):
        rng = random.Random(width)
        pool = [0.0, 5e-324, 2.5e-310, 1e-300, 1e-16, 0.1, 1.0, 3.0, 1e16]
        weights = [rng.choice(pool) if rng.random() < 0.5 else rng.random() for _ in range(width)]
        step = max(1, ratedistortion.MASS_CELLS // width)
        count = 3 * step + 5  # four chunks, the last one partial
        masks = [0, (1 << width) - 1] + [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(count)]
        packed = ratedistortion._pack(masks, (width + 7) // 8)
        got = ratedistortion._masses(packed, np.array(weights))
        assert got == [loop_mass(m, weights) for m in masks]

    def test_order_matters_and_is_kept(self):
        # 1e16 + 1 + 1 rounds away both ones; the loop's order must be the one kept
        weights = [1e16, 1.0, 1.0, -1e16]
        packed = ratedistortion._pack([0b1111, 0b0111, 0b1001], 1)
        got = ratedistortion._masses(packed, np.array(weights))
        assert got == [0.0, 1e16, 0.0] == [loop_mass(m, weights) for m in (0b1111, 0b0111, 0b1001)]


class TestExactRn:
    def test_two_member_class_at_zero(self):
        members = list(enumerate_class(EdgeType((1, 1), (1, 1))))
        rate, book = exact_rn(members, 0)
        assert rate == pytest.approx(0.25)  # log2(2) / 4
        assert set(book.graphs) == set(members)

    def test_half_threshold_needs_one(self):
        members = list(enumerate_class(EdgeType((1, 1), (1, 1))))
        rate, book = exact_rn(members, Fraction(1, 2))
        assert rate == 0.0 and len(book.graphs) == 1

    def test_monotone_in_distortion(self):
        members = list(enumerate_class(EdgeType((1, 1, 1), (1, 1, 1))))
        rates = [exact_rn(members, Fraction(k, 3))[0] for k in range(4)]
        assert rates == sorted(rates, reverse=True)
        assert rates[-1] == 0.0

    def test_cover_is_valid(self):
        members = list(enumerate_class(EdgeType((2, 1, 0), (1, 1, 1))))
        d = Fraction(1, 3)
        _, book = exact_rn(members, d)
        for g in members:
            assert min(distortion(g, h).as_fraction() for h in book.graphs) <= d

    def test_empty_source(self):
        rate, book = exact_rn([], 0)
        assert rate == 0.0 and book.graphs == ()

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            exact_rn([DiGraph.empty(4)], 0)

    def test_table_ceiling_enforced(self):
        # a raised limit cannot reach n = 5: the table would have 2^25 entries
        f = ProductRandomGraph(p=np.full((5, 5), 0.5), w=DiGraph.complete(5))
        with pytest.raises(ValueError, match="ceiling n=4"):
            exact_rn([DiGraph.empty(5)], 0, limit=5)
        with pytest.raises(ValueError, match="ceiling n=4"):
            exact_rn_prob(f, 0, 0.5, limit=5)


class TestExactRnProb:
    def uniform(self, n):
        return ProductRandomGraph(
            p=np.full((n, n), 0.5), w=DiGraph.complete(n)
        )

    def test_eps_one_is_free(self):
        rate, book = exact_rn_prob(self.uniform(2), 0, 1.0)
        assert rate == 0.0 and book.graphs == ()

    @pytest.mark.parametrize("eps", [-1e-9, math.nan])
    def test_negative_or_nan_eps_rejected(self, eps):
        # the need would exceed the whole mass, so no codebook could meet it
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            exact_rn_prob(self.uniform(3), Fraction(1, 3), eps)

    def test_uniform_half_mass(self):
        # each graph has mass 1/16 and d=0 covers exactly itself: 8 codewords
        rate, book = exact_rn_prob(self.uniform(2), 0, 0.5)
        assert len(book.graphs) == 8
        assert rate == pytest.approx(math.log2(8) / 4)

    def test_eps_zero_matches_combinatorial_on_support(self):
        f = ProductRandomGraph.deterministic(DiGraph([[1, 0], [0, 1]]))
        # support is a single graph
        rate, book = exact_rn_prob(f, 0, 0.0)
        assert rate == 0.0 and book.graphs == (DiGraph([[1, 0], [0, 1]]),)

    def test_weighted_prefers_heavy_mass(self):
        p = np.array([[0.9, 0.0], [0.0, 0.0]])
        f = ProductRandomGraph(p=p, w=DiGraph.complete(2))
        # masses: single-edge graph 0.9, empty graph 0.1; eps=0.2 drops the light one
        rate, book = exact_rn_prob(f, 0, 0.2)
        assert rate == 0.0
        assert book.graphs == (DiGraph([[1, 0], [0, 0]]),)

    def test_monotone_in_eps(self):
        f = self.uniform(2)
        sizes = [
            len(exact_rn_prob(f, 0, eps)[1].graphs) for eps in (0.0, 0.25, 0.5, 1.0)
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == 16


def reference_cover(cands, weights, need):
    """The unpruned search `exact_rn_prob` ran before the shared one: for
    k = 1, 2, ... the first k-subset of the candidates, ordered by covered
    weight (largest first) and then codeword bits, whose weight reaches need."""

    def mass(m):
        total = 0.0
        while m:
            low = m & -m
            total += weights[low.bit_length() - 1]
            m ^= low
        return total

    ordered = sorted(((mass(m), m, hb) for m, hb in cands), key=lambda x: (-x[0], x[2]))
    goal = need - 1e-12

    def dfs(start, left, covered, got, chosen):
        if got >= goal:
            return chosen
        if left == 0:
            return None
        for idx in range(start, len(ordered)):
            _, m, hb = ordered[idx]
            extra = mass(m & ~covered)
            if extra > 0:
                found = dfs(idx + 1, left - 1, covered | m, got + extra, chosen + [hb])
                if found is not None:
                    return found
        return None

    for k in range(1, len(weights) + 1):
        found = dfs(0, k, 0, 0.0, [])
        if found is not None:
            return sorted(found)
    raise ValueError("source not coverable")


def weighted_instance(f, d, eps):
    """The (candidates, weights, need) that `exact_rn_prob` hands the search."""
    n = f.n
    weights = [ratedistortion.graph_prob(f, DiGraph.from_bits(n, b)) for b in range(1 << (n * n))]
    support = [i for i, w in enumerate(weights) if w > 0]
    need = sum(weights[i] for i in support) - eps
    cands = ratedistortion._coverage_masks(support, n, Fraction(d))
    return cands, [weights[i] for i in support], need


def covered_weight(cands, weights, codewords):
    union = functools.reduce(int.__or__, (m for m, hb in cands if hb in codewords), 0)
    return math.fsum(w for i, w in enumerate(weights) if union >> i & 1)


def cover_weights(cands, weights, size):
    """Brute force: the weight each `size`-subset of the candidates covers."""
    covers = np.array([[m >> i & 1 for i in range(len(weights))] for m, _ in cands], dtype=bool)
    for rest in itertools.combinations(range(len(cands)), size - 1):
        yield from (covers[list(rest)].any(axis=0) | covers) @ np.array(weights)


def seeded_families():
    """Every support of a 2-vertex product graph (each p_ij 0, 1 or strictly
    between), then seeded logistic families on 3 vertices."""
    rng = random.Random(12)
    out = []
    for cells in product((0.0, 1.0, None), repeat=4):
        p = np.array([rng.uniform(0.05, 0.95) if v is None else v for v in cells]).reshape(2, 2)
        f = ProductRandomGraph(p=p, w=DiGraph.complete(2))
        out += [(f, Fraction(k, 2), rng.choice((0.0, 0.1, 0.25, 0.5))) for k in range(3)]
    for _ in range(8):
        a = [rng.uniform(-2, 2) for _ in range(3)]
        b = [rng.uniform(-2, 2) for _ in range(3)]
        f = family_d_graph(FamilyDParams(a=tuple(a), b=tuple(b), w=DiGraph.complete(3)))
        out += [(f, Fraction(1, 3), 0.75), (f, Fraction(2, 3), 0.1)]
        out.append((f, Fraction(1), rng.choice((0.0, 0.5))))
    return out


class TestSmallestCover:
    """One search behind both oracles: it returns the cover the unpruned
    search returns, and no smaller set of candidates reaches the need."""

    @pytest.mark.parametrize("f, d, eps", seeded_families())
    def test_weighted_matches_unpruned_reference(self, f, d, eps):
        cands, weights, need = weighted_instance(f, d, eps)
        got = ratedistortion._smallest_cover(cands, weights, need)
        assert got == reference_cover(cands, weights, need)
        assert [g.to_bits() for g in exact_rn_prob(f, d, eps)[1].graphs] == got
        assert covered_weight(cands, weights, got) >= need - 1e-9
        if len(got) > 1:
            assert max(cover_weights(cands, weights, len(got) - 1)) < need - 1e-12

    @pytest.mark.parametrize("t", [EdgeType(*rc) for rc in partition_by_type(2)] + seeded_types(3, 6))
    def test_unit_weights_match_unpruned_reference(self, t):
        source = sorted(g.to_bits() for g in enumerate_class(t))
        for k in range(t.n + 1):
            cands = ratedistortion._coverage_masks(source, t.n, Fraction(k, t.n))
            if not cands:
                continue
            got = ratedistortion._smallest_cover(cands, [1.0] * len(source), len(source))
            assert got == reference_cover(cands, [1.0] * len(source), len(source))
            _, book = exact_rn([DiGraph.from_bits(t.n, b) for b in source], Fraction(k, t.n))
            assert [g.to_bits() for g in book.graphs] == got

    def test_weight_short_of_need_is_refused(self):
        with pytest.raises(ValueError, match="not coverable"):
            ratedistortion._smallest_cover([(0b01, 5)], [0.5, 0.5], 0.75)
