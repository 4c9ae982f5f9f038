import math
import random

import numpy as np
import pytest

from edgetype.enumeration import count_class, enumerate_class, partition_by_type
from edgetype.graphs import DiGraph
from edgetype.maxent import (
    DualVars,
    ProductRandomGraph,
    barvinok_bounds,
    binary_entropy,
    dual_gradient,
    dual_objective,
    entropy,
    polytope_membership,
    solve_maxent,
)
from edgetype.typealg import EdgeType


class TestDualObjective:
    def test_at_zero(self):
        t = EdgeType((1, 1), (1, 1))
        v = DualVars((0.0, 0.0), (0.0, 0.0))
        assert dual_objective(t, v) == pytest.approx(4 * math.log(2))

    def test_empty_reduced_type(self):
        t = EdgeType((0, 0), (0, 0), DiGraph.empty(2))
        for probe in [(0.0, 0.0), (3.0, -1.0)]:
            assert dual_objective(t, DualVars(probe, probe)) == 0.0

    def test_convexity_probes(self):
        rng = random.Random(7)
        t = EdgeType((2, 1, 1), (1, 2, 1))
        for _ in range(30):
            x = DualVars(
                tuple(rng.uniform(-2, 2) for _ in range(3)),
                tuple(rng.uniform(-2, 2) for _ in range(3)),
            )
            y = DualVars(
                tuple(rng.uniform(-2, 2) for _ in range(3)),
                tuple(rng.uniform(-2, 2) for _ in range(3)),
            )
            mid = DualVars(
                tuple((a + b) / 2 for a, b in zip(x.s, y.s)),
                tuple((a + b) / 2 for a, b in zip(x.t, y.t)),
            )
            assert dual_objective(t, mid) <= (
                dual_objective(t, x) + dual_objective(t, y)
            ) / 2 + 1e-12


class TestGradient:
    def test_matches_finite_differences(self):
        rng = random.Random(11)
        t = EdgeType((2, 1, 1), (1, 2, 1))
        eps = 1e-6
        for _ in range(50):
            s = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            tt = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            gs, gt = dual_gradient(t, DualVars(tuple(s), tuple(tt)))
            for i in range(3):
                sp, sm = list(s), list(s)
                sp[i] += eps
                sm[i] -= eps
                fd = (
                    dual_objective(t, DualVars(tuple(sp), tuple(tt)))
                    - dual_objective(t, DualVars(tuple(sm), tuple(tt)))
                ) / (2 * eps)
                assert gs[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestSolveMaxent:
    def test_uniform_half(self):
        t = EdgeType((1, 1), (1, 1))
        f, _, report = solve_maxent(t)
        assert np.allclose(f.p, 0.5)
        assert report.entropy_nats == pytest.approx(4 * math.log(2))
        assert report.alpha == pytest.approx(16.0)

    def test_forced_complete(self):
        t = EdgeType((2, 2), (2, 2))
        f, _, report = solve_maxent(t)
        assert np.allclose(f.p, 1.0)
        assert report.entropy_nats == 0.0 and report.alpha == 1.0

    def test_third_regular(self):
        t = EdgeType((1, 1, 1), (1, 1, 1))
        f, _, report = solve_maxent(t)
        assert np.allclose(f.p, 1 / 3)
        assert report.entropy_nats == pytest.approx(9 * binary_entropy(1 / 3))
        assert count_class(t) <= report.alpha

    def test_margins_within_tol(self):
        t = EdgeType((2, 1, 0), (1, 1, 1))
        tol = 1e-10 * 3
        f, _, _ = solve_maxent(t, tol=tol)
        assert polytope_membership(f, t, tol=tol * 10)

    def test_restricted_type(self):
        w = DiGraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        t = EdgeType((1, 1, 1), (1, 1, 1), w)
        f, _, report = solve_maxent(t)
        assert polytope_membership(f, t, tol=1e-8)
        assert count_class(t) <= report.alpha * (1 + 1e-9)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            solve_maxent(EdgeType((2, 0), (2, 0)))

    def test_restart_uniqueness(self):
        rng = random.Random(3)
        t = EdgeType((2, 1, 1), (1, 2, 1))
        hs = []
        for _ in range(10):
            init = DualVars(
                tuple(rng.uniform(-3, 3) for _ in range(3)),
                tuple(rng.uniform(-3, 3) for _ in range(3)),
            )
            hs.append(solve_maxent(t, init=init)[2].entropy_nats)
        assert max(hs) - min(hs) < 1e-8


class TestEntropy:
    def test_half_grid(self):
        f = ProductRandomGraph(p=np.full((2, 2), 0.5), w=DiGraph.complete(2))
        assert entropy(f) == pytest.approx(4 * math.log(2))

    def test_deterministic_zero(self):
        f = ProductRandomGraph.deterministic(DiGraph([[1, 0], [0, 1]]))
        assert entropy(f) == 0.0

    def test_third_grid(self):
        f = ProductRandomGraph(p=np.full((3, 3), 1 / 3), w=DiGraph.complete(3))
        assert entropy(f) == pytest.approx(9 * binary_entropy(1 / 3))


class TestBarvinokBounds:
    def test_gap_example(self):
        alpha, gap, count = barvinok_bounds(EdgeType((1, 1), (1, 1)))
        assert alpha == pytest.approx(16.0) and count == 2
        assert gap == pytest.approx(math.log(8) / (2 * math.log(2)))

    def test_singleton(self):
        alpha, gap, count = barvinok_bounds(EdgeType((2, 2), (2, 2)))
        assert alpha == pytest.approx(1.0) and gap == pytest.approx(0.0) and count == 1

    def test_above_limit_gives_alpha_only(self):
        alpha, gap, count = barvinok_bounds(EdgeType((1, 1, 1), (1, 1, 1)), limit=2)
        assert alpha > 6 and gap is None and count is None

    def test_upper_bound_all_types_n3(self):
        buckets = partition_by_type(3)
        for (r, c), bits in sorted(buckets.items()):
            if not bits:
                continue
            _, _, report = solve_maxent(EdgeType(r, c))
            assert len(bits) <= report.alpha * (1 + 1e-6), (r, c)


class TestPolytopeMembership:
    def test_mismatch(self):
        f = ProductRandomGraph(p=np.full((2, 2), 0.5), w=DiGraph.complete(2))
        assert not polytope_membership(f, EdgeType((2, 2), (2, 2)))
        assert polytope_membership(f, EdgeType((1, 1), (1, 1)))

    def test_forbidden_cell(self):
        w = DiGraph([[0, 1], [1, 1]])
        f = ProductRandomGraph(p=np.array([[0.0, 1.0], [1.0, 0.0]]), w=w)
        assert polytope_membership(f, EdgeType((1, 1), (1, 1), w))


class TestUniformity:
    def test_constant_over_class_n3_sample(self):
        from edgetype.probability import graph_prob

        for r, c in [((1, 1, 1), (1, 1, 1)), ((2, 1, 0), (1, 1, 1)), ((2, 2, 1), (2, 2, 1))]:
            t = EdgeType(r, c)
            f, _, report = solve_maxent(t)
            target = math.exp(-report.entropy_nats)
            for g in enumerate_class(t):
                assert graph_prob(f, g) == pytest.approx(target, rel=1e-8)
