import itertools
import math
import random

import numpy as np
import pytest

from edgetype import maxent, probability, ratedistortion, typealg
from edgetype.enumeration import (
    EnumerationLimitError,
    class_invariants,
    count_class,
    enumerate_class,
    partition_by_type,
)
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
from edgetype.typealg import (
    EdgeType,
    gale_ryser_feasible,
    invariant_positions,
    reduce_by_invariants,
)

# Types on which a line search that compares objective values only stalls
# at the default tolerance: every step's decrease is below one ulp of the
# objective.  The regular ones are (n, d) with r = c = (d,) * n.
STALL_TYPES = [
    *(((d,) * n, (d,) * n) for n, d in ((30, 20), (60, 20), (60, 40), (160, 106))),
    ((3, 2, 2, 2), (1, 3, 3, 2)),
    ((3, 3, 2, 2), (3, 3, 2, 2)),
]


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def dense_newton(r, c, w, tol):
    """Reference solver: damped ridge-regularized Newton on the full
    2n-variable dual with the dense 2n x 2n Hessian, no symmetry used.
    Its line search takes the library's rule: Armijo on the objective, and
    a lower residual once the predicted decrease is below the objective's
    float resolution.  Returns (s, t)."""
    n = len(r)
    x = np.zeros(2 * n)

    def fval(x):
        soft = (np.logaddexp(0.0, x[:n, None] + x[None, n:]) * w).sum()
        lin = r @ x[:n] + c @ x[n:]
        return soft - lin, soft + abs(lin)

    def grad(x):
        p = _sigmoid(x[:n, None] + x[None, n:]) * w
        return np.concatenate([p.sum(axis=1) - r, p.sum(axis=0) - c])

    def residual(g):
        return np.abs(g).max(initial=0.0)

    (f, scale), g = fval(x), grad(x)
    for _ in range(500):
        if residual(g) <= tol:
            return x[:n], x[n:]
        p = _sigmoid(x[:n, None] + x[None, n:]) * w
        q = p * (1.0 - p)
        h = np.zeros((2 * n, 2 * n))
        h[:n, :n] = np.diag(q.sum(axis=1))
        h[n:, n:] = np.diag(q.sum(axis=0))
        h[:n, n:] = q
        h[n:, :n] = q.T
        ridge = 1e-12 * max(1.0, float(np.trace(h)))
        step = np.linalg.solve(h + ridge * np.eye(2 * n), -g)
        if g @ step >= 0:
            step = -g
        alpha = 1.0
        for _ in range(60):
            xn = x + alpha * step
            fn, sn = fval(xn)
            if fn <= f + 1e-4 * alpha * (g @ step):
                x, f, scale, g = xn, fn, sn, grad(xn)
                break
            if -alpha * (g @ step) <= 64 * np.finfo(float).eps * scale:
                gn = grad(xn)
                if residual(gn) < residual(g):
                    x, f, scale, g = xn, fn, sn, gn
                    break
            alpha *= 0.5
        else:
            raise AssertionError("reference line search failed")
    raise AssertionError("reference solver did not converge")


def assert_matches_dense(t):
    """solve_maxent at the default tolerance against the dense reference."""
    tol = 1e-10 * max(t.n, 1)
    f, v, report = solve_maxent(t)
    masks = class_invariants(t)
    reduced = reduce_by_invariants(t, masks)
    w = reduced.w.adj.astype(float)
    s, tt = dense_newton(np.asarray(reduced.r, float), np.asarray(reduced.c, float), w, tol)
    p_ref = _sigmoid(s[:, None] + tt[None, :]) * w + masks.inv1.adj
    assert np.abs(f.p - p_ref).max() <= 1e-9, (t.r, t.c)
    h_ref = entropy(ProductRandomGraph(p=p_ref, w=t.w))
    assert abs(report.entropy_nats - h_ref) <= 1e-9, (t.r, t.c)
    # s and t may differ from the reference by a gauge shift, but they
    # must reproduce p on the free cells
    sv, tv = np.asarray(v.s), np.asarray(v.t)
    sig = _sigmoid(sv[:, None] + tv[None, :])
    assert np.abs(f.p - sig)[w == 1].max(initial=0.0) <= 1e-12, (t.r, t.c)


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


class TestOrbitReducedSolver:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_all_unrestricted(self, n):
        degrees = list(itertools.product(range(n + 1), repeat=n))
        for r in degrees:
            for c in degrees:
                if sum(r) == sum(c) and gale_ryser_feasible(r, c):
                    assert_matches_dense(EdgeType(r, c))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_restricted(self, n):
        """12 seeded W per n; every feasible type of each W at n <= 3, and 60
        of them, drawn with the same seed, at n = 4 (about 1 500 per W)."""
        rng = random.Random(f"maxent-w:{n}")
        m = n * n
        subsets = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        for _ in range(12):
            w = np.array([rng.random() < 0.75 for _ in range(m)], dtype=np.uint8)
            graphs = (subsets[(subsets & (1 - w)).sum(axis=1) == 0]).reshape(-1, n, n)
            pairs = {
                (tuple(r), tuple(c))
                for r, c in zip(graphs.sum(axis=2).tolist(), graphs.sum(axis=1).tolist())
            }
            wg = DiGraph(w.reshape(n, n))
            pairs = sorted(pairs)
            for r, c in rng.sample(pairs, min(len(pairs), 60)) if n == 4 else pairs:
                assert_matches_dense(EdgeType(r, c, wg))

    @pytest.mark.parametrize(
        "r,c", STALL_TYPES, ids=[f"n{len(r)}-r{r[0]}-c{c[0]}" for r, c in STALL_TYPES]
    )
    def test_stall_types_converge_at_default_tol(self, r, c):
        t = EdgeType(r, c)
        tol = 1e-10 * t.n
        f, _, report = solve_maxent(t)
        assert report.converged and report.grad_norm <= tol
        assert polytope_membership(f, t, tol=tol)
        assert_matches_dense(t)

    def test_alpha_infinite_beyond_float_range(self):
        rng = random.Random(60)
        g = DiGraph([[int(rng.random() < 0.5) for _ in range(60)] for _ in range(60)])
        _, _, report = solve_maxent(EdgeType.of_graph(g))
        assert report.entropy_nats > math.log(np.finfo(float).max)
        assert report.alpha == math.inf and math.isfinite(report.entropy_nats)

    def test_init_averaged_over_groups(self):
        t = EdgeType((2, 2, 1), (1, 2, 2))
        _, v, report = solve_maxent(t)
        # a gauge shift of the optimum, spread unevenly within the row group
        init = DualVars((v.s[0] + 1.5, v.s[1] + 0.5, v.s[2] + 1.0), tuple(x - 1.0 for x in v.t))
        _, _, again = solve_maxent(t, init=init)
        assert again.iterations == 0
        assert again.entropy_nats == pytest.approx(report.entropy_nats, abs=1e-12)


def masks_and_orbits_solve(t, tol=None, init=None):
    """Reference unrestricted solve from the n x n invariant masks: the
    reduced type and its W, groups by `_orbits` over the rows of that W,
    and p as sig * W + inv1.  Returns (p, s, t, report)."""
    tol = 1e-10 * max(t.n, 1) if tol is None else tol
    masks = invariant_positions(t)
    reduced = reduce_by_invariants(t, masks)
    w = reduced.w.adj
    row_of, row_rep = maxent._orbits(reduced.r, w)
    col_of, col_rep = maxent._orbits(reduced.c, w.T)
    mr, mc = np.bincount(row_of), np.bincount(col_of)
    cells = (w[row_rep][:, col_rep] * np.outer(mr, mc)).astype(float)
    r = np.asarray(reduced.r, dtype=float)[row_rep]
    c = np.asarray(reduced.c, dtype=float)[col_rep]
    x0 = None
    if init is not None:
        x0 = np.concatenate(
            [np.bincount(row_of, weights=init.s) / mr, np.bincount(col_of, weights=init.t) / mc]
        )
    x, iters, gnorm, obj, converged = maxent._newton_solve(r, c, mr, mc, cells, tol, x0=x0)
    assert converged
    a, b = x[: len(mr)], x[len(mr) :]
    sig = maxent._sigmoid(a[:, None] + b[None, :])
    p = sig[row_of][:, col_of] * w + masks.inv1.adj
    inside = (cells > 0) & (sig > 0) & (sig < 1)
    h = float((cells[inside] * maxent._binary_entropies(sig[inside])).sum())
    report = maxent.SolveReport(
        True, iters, gnorm, obj, h, math.inf if h > maxent.LN_FLOAT_MAX else math.exp(h)
    )
    f = ProductRandomGraph(p=p, w=t.w)
    return f.p, tuple(a[row_of].tolist()), tuple(b[col_of].tolist()), report


def degree_sequence_types():
    """Seeded unrestricted types on n = 1..100, labels shuffled: random
    graphs of random density, threshold (Ferrers) graphs with tied row
    lengths, near-empty and near-full graphs, graphs with an all-ones
    top-left and an all-zeros bottom-right block, and d-regular types."""
    rng = np.random.default_rng(33)
    for n in [*range(1, 41), *range(45, 101, 5)]:
        rows, cols = np.arange(n)[:, None], np.arange(n)
        k, m = rng.integers(0, n + 1, 2)
        blocked = (rows < k) & (cols < m) | (rng.random((n, n)) < rng.choice([0.0, 0.4, 1.0]))
        blocked &= (rows < k) | (cols < m)
        shapes = {
            "random": rng.random((n, n)) < rng.random(),
            "ferrers": cols < rng.choice(rng.integers(0, n + 1, 3), n)[:, None],
            "near-empty": rng.random((n, n)) < 1.5 / n**2,
            "near-full": rng.random((n, n)) >= 1.5 / n**2,
            "blocked": blocked,
            "regular": (rows + cols) % n < rng.integers(0, n + 1),
        }
        for name, g in shapes.items():
            g = g[rng.permutation(n)][:, rng.permutation(n)]
            yield name, EdgeType.of_graph(DiGraph(g.astype(np.uint8)))


class TestDegreeSequenceSolve:
    """With W complete the solve groups vertices by (reduced degree, free
    run of sorted positions) and never builds the structure matrix or the
    masks; it must give what the masks-and-orbits path gives, bit for bit."""

    def test_bytes_equal_masks_and_orbits_path(self):
        rng = random.Random(4)
        for name, t in degree_sequence_types():
            init = DualVars(
                tuple(rng.uniform(-2, 2) for _ in range(t.n)),
                tuple(rng.uniform(-2, 2) for _ in range(t.n)),
            )
            for tol, start in ((None, None), (1e-6, None), (None, init)):
                f, v, report = solve_maxent(t, tol=tol, init=start)
                p, s, tt, ref = masks_and_orbits_solve(t, tol, start)
                assert f.p.tobytes() == p.tobytes(), (name, t.r, t.c)
                assert (v.s, v.t, report) == (s, tt, ref), (name, t.r, t.c)
            assert barvinok_bounds(t, limit=0)[0] == solve_maxent(t)[2].alpha

    def test_class_facts_entropy_is_the_solve_entropy(self):
        full = {n: (1 << n * n) - 1 for n in range(1, 7)}
        for name, t in degree_sequence_types():
            if t.n > 6:
                break
            h = ratedistortion._class_facts(t.r, t.c, full[t.n], None)[0]
            assert h == solve_maxent(t)[2].entropy_nats, (name, t.r, t.c)

    def test_groups_are_the_orbits_of_the_reduced_type(self):
        for name, t in degree_sequence_types():
            if t.n > 30:
                break
            reduced = reduce_by_invariants(t, invariant_positions(t))
            row_of, _ = maxent._orbits(reduced.r, reduced.w.adj)
            col_of, _ = maxent._orbits(reduced.c, reduced.w.adj.T)
            groups = maxent._unrestricted_groups(t)
            assert groups.row_of.tolist() == row_of.tolist(), (name, t.r, t.c)
            assert groups.col_of.tolist() == col_of.tolist(), (name, t.r, t.c)

    def test_p_labels_tell_rows_apart_by_group_and_invariant_cells(self):
        # rows sharing a p-label share their group, free cells and invariant-1 cells, so
        # their rows of p agree; a label of the group key alone merges degree-0 and degree-n rows
        split = 0
        for name, t in degree_sequence_types():
            if t.n > 30:
                break
            masks = invariant_positions(t)
            g = maxent._unrestricted_groups(t)
            for lab, of, free, inv1 in (
                (g.labels.row, g.row_of, masks.free.adj, masks.inv1.adj),
                (g.labels.col, g.col_of, masks.free.adj.T, masks.inv1.adj.T),
            ):
                keys = {}
                for k, key in zip(lab.tolist(), zip(of.tolist(), map(bytes, free), map(bytes, inv1))):
                    assert keys.setdefault(k, key) == key, (name, t.r, t.c)
                assert len(set(keys.values())) == len(keys), (name, t.r, t.c)
            split += len(set(g.labels.row.tolist())) > len(g.mr)
        assert split > 0

    def test_no_structure_matrix_and_no_orbits(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("called with W complete")

        monkeypatch.setattr(typealg, "structure_matrix", refused)
        monkeypatch.setattr(maxent, "_orbits", refused)
        for name, t in degree_sequence_types():
            if t.n > 12:
                break
            solve_maxent(t)
            barvinok_bounds(t, limit=4)
        with pytest.raises(AssertionError, match="W complete"):
            solve_maxent(EdgeType((1, 1), (1, 1), DiGraph([[0, 1], [1, 1]])))


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


# r = c = (1,) * 7 with W = no loops: the 1854 derangements of 7 vertices
DERANGEMENTS_7 = EdgeType((1,) * 7, (1,) * 7, DiGraph([[int(i != j) for j in range(7)] for i in range(7)]))
UNIFORM_7 = probability.FamilyDParams(a=(0.0,) * 7, b=(0.0,) * 7, w=DERANGEMENTS_7.w)
# Each call's answer with the counted parts that n > limit leaves out marked None.
LIMITED_CALLS = {
    "solve_maxent": lambda t, **kw: (solve_maxent(t)[2].alpha,),
    "barvinok_bounds": barvinok_bounds,
    "typeclass_prob": lambda t, **kw: probability.typeclass_prob(UNIFORM_7, t, **kw),
    "typeclass_prob_bounds": lambda t, **kw: probability.typeclass_prob_bounds(UNIFORM_7, t, **kw),
    "sanov_bounds": lambda t, **kw: probability.sanov_bounds(UNIFORM_7, [t], **kw),
    "delta_class_cardinality_bounds": lambda t, **kw: ratedistortion.delta_class_cardinality_bounds(t, 0.5, 1),
    "rd_bounds": lambda t, **kw: ratedistortion.rd_bounds(t, 0, 0.0, 0.2, **kw),
}
# The calls that take no limit and answer in full: counting takes no size option.
UNLIMITED = {"solve_maxent", "delta_class_cardinality_bounds"}
# The call that scans Omega, so refuses n above the limit.
REFUSED = {"rd_bounds"}


class TestRestrictedSolveLimit:
    """With W restricted the solve reads the invariant cells off one 0/1
    flow, so it answers above `limit` (`solve_maxent` takes none); a
    caller's `limit` still gates the count in `barvinok_bounds`, the
    enumerations of the probability bounds and the Omega scan."""

    @pytest.mark.parametrize("name", LIMITED_CALLS)
    def test_limit_reaches_the_solve(self, name):
        call = LIMITED_CALLS[name]
        if name in REFUSED:
            with pytest.raises(EnumerationLimitError, match="^n=7 exceeds Omega scan limit 6$"):
                call(DERANGEMENTS_7)
        else:
            assert (None in call(DERANGEMENTS_7)) == (name not in UNLIMITED)
        assert None not in call(DERANGEMENTS_7, limit=7)
        if name == "solve_maxent":
            f, _, _ = solve_maxent(DERANGEMENTS_7)
            assert np.allclose(f.p, (1 - np.eye(7)) / 6, rtol=0, atol=1e-12)

    def test_count_within_raised_limit(self):
        _, gap, count = barvinok_bounds(DERANGEMENTS_7, limit=7)
        assert count == 1854 and gap > 0


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
