import math
import random
from itertools import product

import numpy as np
import pytest

from edgetype import enumeration, probability
from edgetype.enumeration import (
    DEFAULT_LIMIT,
    enumerate_class,
    enumerate_delta_class,
    partition_by_type,
)
from edgetype.graphs import DiGraph, _unpack
from edgetype.maxent import ProductRandomGraph, solve_maxent
from edgetype.probability import (
    FamilyDParams,
    MixtureDecomposition,
    decompose_single_edge,
    delta_class_prob_lower,
    family_d_graph,
    graph_prob,
    kl_bernoulli,
    kl_sum,
    log_graph_prob,
    mixture_lower_bound,
    sanov_bounds,
    typeclass_point_prob,
    typeclass_prob,
    typeclass_prob_bounds,
    verify_mixture,
)
from edgetype.typealg import EdgeType

INF = math.inf


def random_params(rng, n, lo=-2.0, hi=2.0, w=None):
    return FamilyDParams(
        a=tuple(rng.uniform(lo, hi) for _ in range(n)),
        b=tuple(rng.uniform(lo, hi) for _ in range(n)),
        w=w or DiGraph.complete(n),
    )


def all_graphs(n):
    return [DiGraph.from_bits(n, b) for b in range(1 << (n * n))]


def loop_log_graph_prob(f, g):
    """ln Pr(F = g) cell by cell in row-major order from 0.0, returning -inf
    at the first set p = 0 or unset p = 1 cell: the reference for the kernel."""
    total = 0.0
    for i in range(f.n):
        for j in range(f.n):
            p = float(f.p[i, j])
            if g.adj[i, j]:
                if p == 0.0:
                    return -math.inf
                total += math.log(p)
            else:
                if p == 1.0:
                    return -math.inf
                total += math.log1p(-p)
    return total


def same_floats(got, want):
    """Equal as float64 bytes, -0.0 differing from 0.0, except that NaN
    equals NaN whatever its sign bit: IEEE 754 leaves a NaN result's sign
    unspecified, and numpy's vector and scalar add loops keep different
    operands' NaNs."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def kernel_families(n, rng):
    """Logistic families on n vertices with p = 0 cells (a = +inf, or off W),
    p = 1 cells (a = -inf), NaN cells (a = nan, as `"a": ["nan", ...]` parses)
    and interior cells, plus the all-zero family."""
    out = [family_d_graph(FamilyDParams((INF,) * n, (0.0,) * n, DiGraph.complete(n)))]
    for k in range(7):
        a = [rng.choice((INF, -INF, math.nan)) if rng.random() < 0.4 else rng.uniform(-3, 3) for _ in range(n)]
        b = [rng.choice((INF, -INF)) if rng.random() < 0.15 else rng.uniform(-3, 3) for _ in range(n)]
        if k in (1, 2):  # a NaN cell, then a p = 1 cell, on complete W
            a[0], b[0] = (math.nan, -INF)[k - 1], 0.0
        w = DiGraph.from_bits(n, rng.getrandbits(n * n)) if k % 3 == 0 else DiGraph.complete(n)
        out.append(family_d_graph(FamilyDParams(tuple(a), tuple(b), w)))
    return out


class TestFamilyDGraph:
    def test_zero_params_give_half(self):
        f = family_d_graph(FamilyDParams((0.0, 0.0), (0.0, 0.0), DiGraph.complete(2)))
        assert np.allclose(f.p, 0.5)

    def test_single_cell_support(self):
        f = family_d_graph(
            FamilyDParams((-INF, INF), (0.0, INF), DiGraph.complete(2))
        )
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert np.array_equal(f.p, expected)

    def test_all_ones(self):
        f = family_d_graph(FamilyDParams((-INF, -INF), (0.0, 0.0), DiGraph.complete(2)))
        assert np.all(f.p == 1.0)

    def test_restriction_forces_zero(self):
        w = DiGraph([[0, 1], [1, 1]])
        f = family_d_graph(FamilyDParams((0.0, 0.0), (0.0, 0.0), w))
        assert f.p[0, 0] == 0.0 and f.p[0, 1] == 0.5

    def test_plus_inf_dominates_minus_inf(self):
        f = family_d_graph(FamilyDParams((-INF,), (INF,), DiGraph.complete(1)))
        assert f.p[0, 0] == 0.0


class TestGraphProb:
    def test_uniform_half(self):
        f = family_d_graph(FamilyDParams((0.0, 0.0), (0.0, 0.0), DiGraph.complete(2)))
        for g in all_graphs(2):
            assert graph_prob(f, g) == pytest.approx(1 / 16)

    def test_sums_to_one(self):
        rng = random.Random(5)
        f = family_d_graph(random_params(rng, 2))
        assert sum(graph_prob(f, g) for g in all_graphs(2)) == pytest.approx(1.0)

    def test_outside_support(self):
        f = ProductRandomGraph.deterministic(DiGraph([[1, 0], [0, 1]]))
        assert log_graph_prob(f, DiGraph.empty(2)) == -INF
        assert graph_prob(f, DiGraph([[1, 0], [0, 1]])) == 1.0


class TestLogProbsKernel:
    """`probability._log_probs` equals (==) the per-cell loop on every row,
    NaN and the sign of zero included, whatever rows share its batch."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_graph(self, n):
        rng = random.Random(40 + n)
        bits = range(1 << (n * n))
        seen = []
        for f in kernel_families(n, rng):
            want = [loop_log_graph_prob(f, DiGraph.from_bits(n, b)) for b in bits]
            assert same_floats(probability._log_probs(f, _unpack(n, bits)), want)
            assert same_floats([log_graph_prob(f, DiGraph.from_bits(n, b)) for b in bits], want)
            seen += want
        # the families reach every kind of value the loop gives; log1p(-0.0) is -0.0,
        # so the all-zero family's empty graph weighs +0.0 only because the sum starts from 0.0
        assert any(math.isnan(x) for x in seen) and -INF in seen
        assert same_floats([x for x in seen if x == 0.0][:1], [0.0])
        assert any(math.isfinite(x) and x != 0.0 for x in seen)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_seeded_graphs(self, n):
        rng = random.Random(50 + n)
        for f in kernel_families(n, rng):
            # rows of random density, so that rows outside the support and rows inside it both occur
            bits = [rng.getrandbits(n * n) & rng.getrandbits(n * n) for _ in range(60)]
            bits += [b | rng.getrandbits(n * n) for b in bits[:30]] + [0, (1 << n * n) - 1]
            want = [loop_log_graph_prob(f, DiGraph.from_bits(n, b)) for b in bits]
            assert same_floats(probability._log_probs(f, _unpack(n, bits)), want)
            assert same_floats([log_graph_prob(f, DiGraph.from_bits(n, b)) for b in bits], want)

    def test_dead_cell_beats_nan(self):
        p = np.array([[math.nan, 0.0], [0.5, 1.0]])
        f = ProductRandomGraph(p=p, w=DiGraph.complete(2))
        bits = [0b1000, 0b1010, 0b0001]  # NaN alone, then beside a set p = 0 and an unset p = 1 cell
        got = probability._log_probs(f, _unpack(2, bits))
        assert math.isnan(got[0]) and got[1:].tolist() == [-INF, -INF]
        assert same_floats(got, [loop_log_graph_prob(f, DiGraph.from_bits(2, b)) for b in bits])


def loop_class_mass(f, t, exact=0.0):
    """`_class_mass` as a loop over `enumerate_class` with the reference kernel."""
    count = 0
    for g in enumerate_class(t):
        exact += math.exp(loop_log_graph_prob(f, g))
        count += 1
    return count, exact


def class_mass_cases():
    """(family, type, carried exact): every feasible type at n = 3, seeded
    graph types at n = 4 and 5 (one under a restricted W), each against
    kernel families and a nonzero carried sum."""
    rng = random.Random(61)
    types = [EdgeType(r, c) for (r, c), bits in sorted(partition_by_type(3).items()) if bits]
    for n in (4, 5):
        for k in range(3):
            w = DiGraph.from_bits(n, rng.getrandbits(n * n) | rng.getrandbits(n * n)) if k == 2 else None
            g = DiGraph.from_bits(n, rng.getrandbits(n * n) & (w.to_bits() if w else -1))
            types.append(EdgeType.of_graph(g, w or DiGraph.complete(n)))
    families = {n: kernel_families(n, rng) for n in (3, 4, 5)}
    return [(f, t, start) for t in types for f in families[t.n][:: 2 if t.n == 3 else 1] for start in (0.0, 0.1)]


def whole_class_mass(f, t, exact=0.0):
    """`_class_mass` with the whole class decoded in one batch."""
    weights = probability._log_probs(f, _unpack(t.n, list(enumeration._members(t, DEFAULT_LIMIT)))).tolist()
    for x in weights:
        exact += math.exp(x)
    return len(weights), exact


class TestClassMass:
    def test_slices_equal_whole_class(self):
        # the 2-regular class at n = 6 (67 950 members) spans five slices
        t = EdgeType((2,) * 6, (2,) * 6)
        f = family_d_graph(random_params(random.Random(63), 6))
        want = whole_class_mass(f, t, 0.1)
        assert want[0] > 4 * probability.CLASS_SLICE
        assert probability._class_mass(f, t, DEFAULT_LIMIT, 0.1) == want

    @pytest.mark.parametrize("size", [1, 151, 452, 453, 454], ids=lambda k: f"slice{k}")
    def test_slice_edges(self, monkeypatch, size):
        # 453 members: one per slice, three whole slices, one slice and one
        # member, exactly one slice, and one slice with room to spare
        t = EdgeType((2, 2, 1, 1, 2), (1, 2, 2, 2, 1))
        f = family_d_graph(random_params(random.Random(64), 5))
        want = whole_class_mass(f, t, 0.25)
        assert want[0] == 453
        monkeypatch.setattr(probability, "CLASS_SLICE", size)
        assert probability._class_mass(f, t, DEFAULT_LIMIT, 0.25) == want

    def test_equals_per_member_sum(self):
        cases = class_mass_cases()
        for f, t, start in cases:
            got = probability._class_mass(f, t, DEFAULT_LIMIT, start)
            count, exact = loop_class_mass(f, t, start)
            assert got[0] == count and same_floats([got[1]], [exact]), (t, start)
        assert any(t.n == 5 and not t.unrestricted for _, t, _ in cases)

    def test_builds_no_digraph_per_member(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called per member")

        rng = random.Random(62)
        t = EdgeType((2, 2, 1, 1, 2), (1, 2, 2, 2, 1))
        f = family_d_graph(random_params(rng, 5))
        want = loop_class_mass(f, t, 0.25)
        monkeypatch.setattr(enumeration, "enumerate_class", refuse)
        monkeypatch.setattr(probability, "graph_prob", refuse)
        got = probability._class_mass(f, t, DEFAULT_LIMIT, 0.25)
        assert got[0] == want[0] and same_floats([got[1]], [want[1]])


class TestKL:
    def test_examples(self):
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2))
        assert kl_bernoulli(0.25, 0.25) == 0.0
        assert kl_bernoulli(0.0, 0.3) == pytest.approx(-math.log(0.7))

    def test_continuity_violation(self):
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 0.0)
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 1.0)

    def test_nonnegative(self):
        rng = random.Random(1)
        for _ in range(100):
            p, q = rng.random(), min(max(rng.random(), 1e-9), 1 - 1e-9)
            assert kl_bernoulli(p, q) >= -1e-15

    def test_kl_sum_matching_invariants_is_finite(self):
        t = EdgeType((2, 2), (2, 2))
        ft, _, _ = solve_maxent(t)
        f = family_d_graph(
            FamilyDParams((-INF, -INF), (0.0, 0.0), DiGraph.complete(2))
        )
        assert kl_sum(ft, f) == 0.0

    def test_kl_sum_infinite_on_mismatch(self):
        t = EdgeType((1, 1), (1, 1))
        ft, _, _ = solve_maxent(t)
        f = ProductRandomGraph.deterministic(DiGraph([[1, 0], [0, 1]]))
        assert kl_sum(ft, f) == INF


class TestPointProb:
    def test_uniform_family_on_regular_class(self):
        params = FamilyDParams((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), DiGraph.complete(3))
        t = EdgeType((1, 1, 1), (1, 1, 1))
        assert typeclass_point_prob(params, t) == pytest.approx(2.0**-9, rel=1e-10)

    def test_matches_member_probability_randomized(self):
        rng = random.Random(23)
        buckets = partition_by_type(3)
        feasible = [(r, c) for (r, c), bits in sorted(buckets.items()) if bits]
        for _ in range(20):
            params = random_params(rng, 3)
            f = family_d_graph(params)
            r, c = feasible[rng.randrange(len(feasible))]
            t = EdgeType(r, c)
            value = typeclass_point_prob(params, t)
            for g in enumerate_class(t):
                assert graph_prob(f, g) == pytest.approx(value, rel=1e-8)

    def test_continuity_failure_raises(self):
        params = FamilyDParams((INF, INF), (0.0, 0.0), DiGraph.complete(2))
        with pytest.raises(ValueError):
            typeclass_point_prob(params, EdgeType((1, 1), (1, 1)))

    def test_limit_reaches_the_restricted_solve(self):
        no_loops = DiGraph(1 - np.eye(7, dtype=np.uint8))
        t = EdgeType((1,) * 7, (1,) * 7, no_loops)
        params = FamilyDParams((0.0,) * 7, (0.0,) * 7, no_loops)
        mix = MixtureDecomposition(weights=(1.0,), atoms=(params,))
        # the solve reads the invariant cells off a flow, so neither call
        # takes a limit (both once raised EnumerationLimitError here)
        point = typeclass_point_prob(params, t)
        assert point == typeclass_prob(params, t, limit=7)[0]
        assert mixture_lower_bound(mix, t) == pytest.approx(point, rel=1e-12)
        # every member of the class has probability point under the uniform family
        assert point == pytest.approx(2.0**-42, rel=1e-12)


class TestProbBounds:
    def test_contains_exact_randomized(self):
        rng = random.Random(29)
        buckets = partition_by_type(3)
        feasible = [(r, c) for (r, c), bits in sorted(buckets.items()) if bits]
        for _ in range(50):
            params = random_params(rng, 3)
            r, c = feasible[rng.randrange(len(feasible))]
            lower, upper, exact = typeclass_prob_bounds(params, EdgeType(r, c))
            assert lower is not None and exact is not None
            assert lower <= exact * (1 + 1e-9)
            assert exact <= upper * (1 + 1e-9)

    def test_shared_solve_matches_separate_calls(self):
        rng = random.Random(41)
        buckets = partition_by_type(3)
        feasible = [(r, c) for (r, c), bits in sorted(buckets.items()) if bits]
        for _ in range(20):
            params = random_params(rng, 3)
            t = EdgeType(*feasible[rng.randrange(len(feasible))])
            separate = (typeclass_point_prob(params, t), *typeclass_prob_bounds(params, t))
            assert typeclass_prob(params, t) == separate
            assert typeclass_prob(params, t, limit=2) == (separate[0], None, separate[2], None)

    def test_uniform_family_exact(self):
        params = FamilyDParams((0.0, 0.0), (0.0, 0.0), DiGraph.complete(2))
        lower, upper, exact = typeclass_prob_bounds(params, EdgeType((1, 1), (1, 1)))
        assert exact == pytest.approx(2 / 16)
        assert lower == pytest.approx(2 / 16)  # count/alpha * upper is tight here
        assert upper == pytest.approx(1.0)


class TestSanov:
    def test_single_type_matches_class_bounds(self):
        rng = random.Random(31)
        params = random_params(rng, 3)
        t = EdgeType((1, 1, 1), (1, 1, 1))
        lower, upper, exact = sanov_bounds(params, [t])
        _, _, exact2 = typeclass_prob_bounds(params, t)
        assert exact == pytest.approx(exact2)
        assert lower <= exact <= upper

    def test_partition_of_space_sums_to_one(self):
        rng = random.Random(37)
        params = random_params(rng, 2)
        types = [
            EdgeType(r, c)
            for r in product(range(3), repeat=2)
            for c in product(range(3), repeat=2)
            if sum(r) == sum(c) and list(enumerate_class(EdgeType(r, c)))
        ]
        _, upper, exact = sanov_bounds(params, types)
        assert exact == pytest.approx(1.0)
        assert upper >= 1.0

    def test_duplicates_ignored(self):
        rng = random.Random(41)
        params = random_params(rng, 2)
        t = EdgeType((1, 1), (1, 1))
        a = sanov_bounds(params, [t])
        b = sanov_bounds(params, [t, t, t])
        assert a == b

    def test_sandwich_randomized(self):
        rng = random.Random(43)
        buckets = partition_by_type(3)
        feasible = [(r, c) for (r, c), bits in sorted(buckets.items()) if bits]
        for _ in range(25):
            params = random_params(rng, 3)
            picks = rng.sample(feasible, rng.randrange(1, 5))
            types = [EdgeType(r, c) for r, c in picks]
            lower, upper, exact = sanov_bounds(params, types)
            assert lower <= exact * (1 + 1e-9)
            assert exact <= upper * (1 + 1e-9)

    def test_mixed_n_rejected(self):
        rng = random.Random(47)
        with pytest.raises(ValueError):
            sanov_bounds(
                random_params(rng, 2),
                [EdgeType((1, 1), (1, 1)), EdgeType((1, 1, 1), (1, 1, 1))],
            )


def restricted_types(rng, n, count):
    """Seeded types of random graphs inside a random W with a forbidden cell."""
    types = []
    while len(types) < count:
        w = np.array([[rng.random() < 0.7 for _ in range(n)] for _ in range(n)])
        if not w.all():
            g = w & np.array([[rng.random() < rng.uniform(0.2, 0.8) for _ in range(n)] for _ in range(n)])
            types.append(EdgeType.of_graph(DiGraph(g), DiGraph(w)))
    return types


def restricted_cases():
    """Restricted types at n <= 3, no-loop permutations among them, each with
    a family on the complete W and one on t's own W."""
    rng = random.Random(53)
    no_loops = EdgeType((1, 1, 1), (1, 1, 1), DiGraph(1 - np.eye(3, dtype=np.uint8)))
    types = [no_loops, *restricted_types(rng, 2, 6), *restricted_types(rng, 3, 12)]
    return [(t, random_params(rng, t.n, w=w)) for t in types for w in (DiGraph.complete(t.n), t.w)]


class TestRestrictedW:
    """Where the family gives mass to a cell t's W forbids, every member
    pays ln(1 - p) there; the KL sum charges it too.  A tight solve keeps
    H's rounding below the 1e-12 these tests allow."""

    TOL = 1e-12

    @pytest.mark.parametrize("t, params", restricted_cases())
    def test_point_prob_is_each_members_prob(self, t, params):
        f = family_d_graph(params)
        point, lower, upper, exact = typeclass_prob(params, t, tol=self.TOL)
        for g in enumerate_class(t):
            assert graph_prob(f, g) == pytest.approx(point, rel=1e-12)
        assert lower <= exact * (1 + 1e-12) and exact <= upper * (1 + 1e-12)

    def test_forbidden_cells_without_mass_add_nothing(self):
        # D(0 || 0) is +0.0: a family on t's own W gets the sum the allowed cells alone give
        for t, params in restricted_cases()[1::2]:
            ft, _, _ = solve_maxent(t)
            f = family_d_graph(params)
            allowed = [(float(ft.p[i, j]), float(f.p[i, j])) for i, j in zip(*np.nonzero(t.w.adj))]
            assert kl_sum(ft, f) == sum(kl_bernoulli(p, q) for p, q in allowed)

    def test_sanov_sandwich(self):
        rng = random.Random(59)
        for _ in range(25):
            n = rng.choice((2, 3))
            types = restricted_types(rng, n, rng.randrange(1, 4))
            lower, upper, exact = sanov_bounds(random_params(rng, n), types, tol=self.TOL)
            assert lower <= exact * (1 + 1e-12) and exact <= upper * (1 + 1e-12)


class TestDeltaClassProbLower:
    def test_vacuous_small_delta(self):
        assert delta_class_prob_lower(EdgeType((1, 1), (1, 1)), 0.1, 1) == 0.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            delta_class_prob_lower(EdgeType((1, 1), (1, 1)), -1.0, 1)

    def test_formula_value(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        got = delta_class_prob_lower(t, 2.0, 3)
        assert got == pytest.approx(1.0 - 12.0 * math.exp(-24.0))

    def test_bound_holds_exactly_n2(self):
        # when positive, the bound must not exceed the true probability
        t = EdgeType((1, 1), (1, 1))
        ft, _, _ = solve_maxent(t)
        for delta, dens in [(2.0, 2), (3.0, 1), (5.0, 2)]:
            bound = delta_class_prob_lower(t, delta, dens)
            if bound == 0.0:
                continue
            members = set(enumerate_delta_class(t, delta, dens))
            exact = sum(graph_prob(ft, g) for g in members)
            assert exact >= bound - 1e-12


class TestMixture:
    def test_verify_true_decomposition(self):
        p = ProductRandomGraph(
            p=np.array([[0.25, 0.25], [0.25, 0.0]]), w=DiGraph.complete(2)
        )
        mix = decompose_single_edge(p)
        assert verify_mixture(p, mix, tol=1e-12)
        assert sum(mix.weights) == pytest.approx(1.0)
        # three single-edge atoms plus the zero-graph atom
        assert len(mix.atoms) == 4

    def test_mass_one_no_zero_atom(self):
        p = ProductRandomGraph(
            p=np.array([[0.5, 0.5], [0.0, 0.0]]), w=DiGraph.complete(2)
        )
        mix = decompose_single_edge(p)
        assert len(mix.atoms) == 2
        assert verify_mixture(p, mix, tol=1e-12)

    def test_excess_mass_rejected(self):
        p = ProductRandomGraph(p=np.full((2, 2), 0.5), w=DiGraph.complete(2))
        with pytest.raises(ValueError):
            decompose_single_edge(p)

    def test_verify_rejects_wrong_mixture(self):
        p = ProductRandomGraph(
            p=np.array([[0.25, 0.25], [0.25, 0.0]]), w=DiGraph.complete(2)
        )
        other = ProductRandomGraph(
            p=np.array([[0.5, 0.25], [0.0, 0.0]]), w=DiGraph.complete(2)
        )
        assert not verify_mixture(p, decompose_single_edge(other))

    def test_weight_validation(self):
        atom = FamilyDParams((0.0,), (0.0,), DiGraph.complete(1))
        with pytest.raises(ValueError):
            MixtureDecomposition(weights=(0.5, 0.6), atoms=(atom, atom))
        with pytest.raises(ValueError):
            MixtureDecomposition(weights=(), atoms=())


class TestMixtureLowerBound:
    def test_pure_maxent_atom_is_tight(self):
        # an atom equal to F_T itself gives exactly e^{-H}
        t = EdgeType((1, 1), (1, 1))
        atom = FamilyDParams((0.0, 0.0), (0.0, 0.0), DiGraph.complete(2))
        mix = MixtureDecomposition(weights=(1.0,), atoms=(atom,))
        _, _, report = solve_maxent(t)
        assert mixture_lower_bound(mix, t) == pytest.approx(
            math.exp(-report.entropy_nats)
        )

    def test_lower_bounds_members_exhaustive_n2(self):
        p = ProductRandomGraph(
            p=np.array([[0.3, 0.2], [0.1, 0.2]]), w=DiGraph.complete(2)
        )
        mix = decompose_single_edge(p)
        assert verify_mixture(p, mix, tol=1e-12)
        for r in product(range(3), repeat=2):
            for c in product(range(3), repeat=2):
                t = EdgeType(r, c)
                members = list(enumerate_class(t)) if sum(r) == sum(c) else []
                if not members:
                    continue
                bound = mixture_lower_bound(mix, t)
                for g in members:
                    assert graph_prob(p, g) >= bound - 1e-12, (r, c)

    def test_lower_bounds_members_sampled_n3(self):
        rng = random.Random(53)
        vals = np.array(
            [[0.10, 0.05, 0.08], [0.04, 0.12, 0.06], [0.07, 0.03, 0.09]]
        )
        p = ProductRandomGraph(p=vals, w=DiGraph.complete(3))
        mix = decompose_single_edge(p)
        assert verify_mixture(p, mix, tol=1e-12)
        buckets = partition_by_type(3)
        feasible = [(r, c) for (r, c), bits in sorted(buckets.items()) if bits]
        for r, c in rng.sample(feasible, 15):
            t = EdgeType(r, c)
            bound = mixture_lower_bound(mix, t)
            for g in enumerate_class(t):
                assert graph_prob(p, g) >= bound - 1e-12, (r, c)

    def test_continuity_failure_gives_zero(self):
        t = EdgeType((1, 1), (1, 1))
        atom = FamilyDParams((INF, INF), (0.0, 0.0), DiGraph.complete(2))
        mix = MixtureDecomposition(weights=(1.0,), atoms=(atom,))
        assert mixture_lower_bound(mix, t) == 0.0
