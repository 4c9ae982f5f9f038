"""Acceptance suite: one test per criterion, each recording a single
pass/fail verdict line printed in the terminal summary.
"""

import functools
import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

import _acceptance_report

from edgetype.enumeration import (
    components_by_enumeration,
    count_class,
    enumerate_class,
    enumerate_delta_class,
    interchange_connected,
    invariants_by_enumeration,
    partition_by_type,
)
from edgetype.graphs import DiGraph
from edgetype.maxent import (
    DualVars,
    dual_gradient,
    dual_objective,
    polytope_membership,
    solve_maxent,
)
from edgetype.probability import (
    FamilyDParams,
    decompose_single_edge,
    delta_class_prob_lower,
    family_d_graph,
    graph_prob,
    mixture_lower_bound,
    sanov_bounds,
    typeclass_point_prob,
    typeclass_prob_bounds,
    verify_mixture,
)
from edgetype.maxent import ProductRandomGraph
from edgetype.ratedistortion import (
    build_cover_random,
    delta_class_cardinality_bounds,
    exact_rn,
    rd_lower,
    rd_upper,
    verify_cover,
)
from edgetype.typealg import (
    EdgeType,
    components_from_structure,
    gale_ryser_feasible,
    invariant_positions,
    structure_matrix,
)

GOLDEN_R = (10, 10, 9, 7, 6, 6, 5, 5, 2, 2, 1)
GOLDEN_C = (11, 9, 9, 8, 8, 5, 5, 3, 3, 1, 1)
GOLDEN_T = [
    [63, 52, 43, 34, 26, 18, 13, 8, 5, 2, 1, 0],
    [53, 43, 35, 27, 20, 13, 9, 5, 3, 1, 1, 1],
    [43, 34, 27, 20, 14, 8, 5, 2, 1, 0, 1, 2],
    [34, 26, 20, 14, 9, 4, 2, 0, 0, 0, 2, 4],
    [27, 20, 15, 10, 6, 2, 1, 0, 1, 2, 5, 8],
    [21, 15, 11, 7, 4, 1, 1, 1, 3, 5, 9, 13],
    [15, 10, 7, 4, 2, 0, 1, 2, 5, 8, 13, 18],
    [10, 6, 4, 2, 1, 0, 2, 4, 8, 12, 18, 24],
    [5, 2, 1, 0, 0, 0, 3, 6, 11, 16, 23, 30],
    [3, 1, 1, 1, 2, 3, 7, 11, 17, 23, 31, 39],
    [1, 0, 1, 2, 4, 6, 11, 16, 23, 30, 39, 48],
    [0, 0, 2, 4, 7, 10, 16, 22, 30, 38, 48, 58],
]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                _acceptance_report.record(f"criterion {num:02d}: FAIL - {desc}")
                raise
            line = f"criterion {num:02d}: PASS - {desc}"
            if detail:
                line += f" [{detail}]"
            _acceptance_report.record(line)

        return wrapper

    return deco


@pytest.fixture(scope="module")
def buckets3():
    return partition_by_type(3)


@pytest.fixture(scope="module")
def feasible3(buckets3):
    return sorted((r, c) for (r, c), bits in buckets3.items() if bits)


@pytest.fixture(scope="module")
def buckets4():
    return partition_by_type(4, limit=4)


def random_params(rng, n):
    return FamilyDParams(
        a=tuple(rng.uniform(-2, 2) for _ in range(n)),
        b=tuple(rng.uniform(-2, 2) for _ in range(n)),
        w=DiGraph.complete(n),
    )


@criterion(1, "golden 12x12 structure matrix and non-trivial components")
def test_criterion_01_golden_example():
    start = time.monotonic()
    sm = structure_matrix(GOLDEN_R, GOLDEN_C)
    assert sm.tolist() == GOLDEN_T
    comp = components_from_structure(EdgeType(GOLDEN_R, GOLDEN_C))
    nontrivial = {(rows, cols) for rows, cols in comp.nontrivial()}
    assert nontrivial == {
        ((0, 1), (9, 10)),
        ((4, 5), (5, 6)),
        ((8, 9), (1, 2)),
    }
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    return f"{elapsed * 1000:.1f} ms"


@criterion(2, "class counts partition graph space and match feasibility at n=3 and n=4")
def test_criterion_02_partition(buckets3, buckets4):
    start = time.monotonic()
    for n, buckets in ((3, buckets3), (4, buckets4)):
        total = 0
        for (r, c), bits in buckets.items():
            assert count_class(EdgeType(r, c)) == len(bits), (r, c)
            total += len(bits)
        assert total == 1 << (n * n)
        for r in product(range(n + 1), repeat=n):
            for c in product(range(n + 1), repeat=n):
                expected = len(buckets.get((r, c), ())) > 0
                assert gale_ryser_feasible(r, c) == expected, (r, c)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    return f"n=3 and n=4 complete in {elapsed:.1f} s"


@criterion(3, "Barvinok upper bound with finite measured gap on every feasible n=3 type")
def test_criterion_03_barvinok_upper(feasible3, buckets3):
    start = time.monotonic()
    max_gap = 0.0
    for r, c in feasible3:
        t = EdgeType(r, c)
        count = len(buckets3[(r, c)])
        _, _, report = solve_maxent(t)
        assert count <= report.alpha * (1 + 1e-6), (r, c)
        gap = (report.entropy_nats - math.log(count)) / (3 * math.log(3))
        assert math.isfinite(gap)
        max_gap = max(max_gap, gap)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    return f"{len(feasible3)} types, max measured gap {max_gap:.4f}, {elapsed:.1f} s"


@criterion(4, "uniformity: each member probability equals e^{-H(F_T)} within rel 1e-8")
def test_criterion_04_uniformity(feasible3):
    for r, c in feasible3:
        t = EdgeType(r, c)
        f, _, report = solve_maxent(t)
        target = math.exp(-report.entropy_nats)
        for g in enumerate_class(t):
            p = graph_prob(f, g)
            assert abs(p - target) <= 1e-8 * target, (r, c)
    return f"{len(feasible3)} types"


@criterion(5, "point probability e^{-H-KL} matches members and exact lies in bounds, 100 random families")
def test_criterion_05_point_probability(feasible3):
    rng = random.Random(2024)
    checked = 0
    for trial in range(100):
        params = random_params(rng, 3)
        f = family_d_graph(params)
        # finite parameters keep every cell probability in (0, 1), so
        # absolute continuity holds for every class
        for r, c in feasible3:
            t = EdgeType(r, c)
            point = typeclass_point_prob(params, t)
            for g in enumerate_class(t):
                p = graph_prob(f, g)
                assert abs(p - point) <= 1e-8 * point, (trial, r, c)
            lower, upper, exact = typeclass_prob_bounds(params, t)
            # the lower bound is analytically tight here, so allow the
            # same relative float slack as the member check
            assert lower <= exact * (1 + 1e-8), (trial, r, c)
            assert exact <= upper * (1 + 1e-8), (trial, r, c)
            checked += 1
    return f"{checked} (family, type) pairs"


@criterion(6, "structure-matrix invariants and components agree with enumeration oracles, n<=4")
def test_criterion_06_oracle_agreement(buckets3, buckets4):
    checked = 0
    for n, buckets in ((2, None), (3, buckets3), (4, buckets4)):
        if buckets is None:
            buckets = partition_by_type(2)
        for (r, c), bits in sorted(buckets.items()):
            if not bits:
                continue
            if tuple(sorted(r, reverse=True)) != r or tuple(sorted(c, reverse=True)) != c:
                continue
            t = EdgeType(r, c)
            ms = invariant_positions(t)
            me = invariants_by_enumeration(t, limit=n)
            assert ms.inv1 == me.inv1 and ms.inv0 == me.inv0, (r, c)
            cs = components_from_structure(t)
            ce = components_by_enumeration(t, limit=n)
            assert cs.row_blocks == ce.row_blocks, (r, c)
            assert cs.col_blocks == ce.col_blocks, (r, c)
            assert cs.blocks == ce.blocks, (r, c)
            checked += 1
    return f"{checked} normalized feasible types"


@criterion(7, "interchange walks reach every class member, all feasible types n<=4")
def test_criterion_07_interchange(buckets3, buckets4):
    checked = 0
    for n, buckets in ((2, partition_by_type(2)), (3, buckets3), (4, buckets4)):
        for (r, c), bits in sorted(buckets.items()):
            if not bits:
                continue
            assert interchange_connected(EdgeType(r, c), limit=n), (r, c)
            checked += 1
    return f"{checked} feasible types"


@criterion(8, "dual solver: gradient probes, margin residuals, restart agreement")
def test_criterion_08_dual_solver(feasible3):
    rng = random.Random(88)
    t = EdgeType((2, 1, 1), (1, 2, 1))
    eps = 1e-6
    for _ in range(50):
        s = [rng.uniform(-1.5, 1.5) for _ in range(3)]
        tt = [rng.uniform(-1.5, 1.5) for _ in range(3)]
        gs, gt = dual_gradient(t, DualVars(tuple(s), tuple(tt)))
        for i in range(3):
            for vec, g_ana in ((s, gs), (tt, gt)):
                hi, lo = list(s), list(s)
                hi2, lo2 = list(tt), list(tt)
                if vec is s:
                    hi[i] += eps
                    lo[i] -= eps
                else:
                    hi2[i] += eps
                    lo2[i] -= eps
                fd = (
                    dual_objective(t, DualVars(tuple(hi), tuple(hi2)))
                    - dual_objective(t, DualVars(tuple(lo), tuple(lo2)))
                ) / (2 * eps)
                assert abs(g_ana[i] - fd) <= 1e-5 * max(1e-2, abs(fd))
    # margin residuals within the solve tolerance on every feasible n=3 type
    tol = 1e-10 * 3
    for r, c in feasible3:
        f, _, report = solve_maxent(EdgeType(r, c), tol=tol)
        assert report.grad_norm <= tol
        assert polytope_membership(f, EdgeType(r, c), tol=tol * 10)
    # restart agreement
    for r, c in [((2, 1, 1), (1, 2, 1)), ((2, 2, 0), (2, 1, 1))]:
        hs = []
        for _ in range(10):
            init = DualVars(
                tuple(rng.uniform(-3, 3) for _ in range(3)),
                tuple(rng.uniform(-3, 3) for _ in range(3)),
            )
            hs.append(solve_maxent(EdgeType(r, c), init=init)[2].entropy_nats)
        assert max(hs) - min(hs) < 1e-8
    return "50 gradient probes, all n=3 margins, 10 restarts x 2 types"


@criterion(9, "delta-class cardinality and probability bounds on a (delta, dens) grid at n=3")
def test_criterion_09_delta_machinery():
    types = [
        EdgeType((1, 1, 1), (1, 1, 1)),  # density 1
        EdgeType((2, 1, 0), (1, 1, 1)),  # density 2
        EdgeType((2, 2, 2), (2, 2, 2)),  # density 2
        EdgeType((3, 0, 0), (1, 1, 1)),  # density 3
    ]
    positive_cases = 0
    for t in types:
        dens = t.density()
        ft, _, _ = solve_maxent(t)
        for delta in (0.1, 0.25, 0.4, 0.5):
            lower, upper = delta_class_cardinality_bounds(t, delta, dens)
            count = len(set(enumerate_delta_class(t, delta, dens)))
            value = math.log(count) / 9
            assert lower <= value + 1e-12, (t.r, t.c, delta)
            assert value < upper, (t.r, t.c, delta)  # strict upper inequality
        for delta in (0.5, 1.1, 2.0):
            bound = delta_class_prob_lower(t, delta, dens)
            if bound <= 0.0:
                continue
            positive_cases += 1
            exact = sum(
                graph_prob(ft, g) for g in set(enumerate_delta_class(t, delta, dens))
            )
            assert exact >= bound - 1e-12, (t.r, t.c, delta)
    assert positive_cases > 0  # the probability half must actually be exercised
    return f"4 types x 4 cardinality deltas; {positive_cases} positive Hoeffding cases"


@criterion(10, "random covers succeed and exact R_n(d) sits against the RD formulas")
def test_criterion_10_covering_rd():
    start = time.monotonic()
    t = EdgeType((1, 1, 1), (1, 1, 1))
    members = list(enumerate_class(t))
    notes = []
    for xi in (Fraction(0), Fraction(1, 3), Fraction(2, 3)):
        succeeded = False
        for seed in range(16):
            book = build_cover_random(t, xi, 0.0, seed=seed)  # lemma-sized M
            ok, _, _ = verify_cover(book, t, xi)
            if ok:
                succeeded = True
                break
        assert succeeded, f"no cover at Xi={xi} in 16 seeds"
        up = rd_upper(t, xi, 0.0)
        lo = rd_lower(t, xi, 0.0, 0.2)
        rate_bits, _ = exact_rn(members, xi)
        flags_clear = up.assumption_flags["density_preserved"] and lo.assumption_flags[
            "hoeffding_condition"
        ]
        holds = max(0.0, lo.value_bits) <= rate_bits <= up.value_bits
        if flags_clear:
            assert holds, f"sandwich violated at Xi={xi} with clear flags"
        notes.append(
            f"Xi={xi}: exact={rate_bits:.3f}b in [{max(0.0, lo.value_bits):.3f}, "
            f"{up.value_bits:.3f}] holds={holds} flags_clear={flags_clear}"
        )
    rates = [exact_rn(members, Fraction(k, 3))[0] for k in range(4)]
    assert rates == sorted(rates, reverse=True)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    return "; ".join(notes) + f"; monotone; {elapsed:.1f} s"


@criterion(11, "mixture lower bound under single-edge decompositions, exhaustive n=2 and sampled n=3")
def test_criterion_11_mixture_bound():
    import numpy as np

    p2 = ProductRandomGraph(
        p=np.array([[0.3, 0.2], [0.1, 0.2]]), w=DiGraph.complete(2)
    )
    mix2 = decompose_single_edge(p2)
    assert verify_mixture(p2, mix2, tol=1e-12)
    checked = 0
    for r in product(range(3), repeat=2):
        for c in product(range(3), repeat=2):
            t = EdgeType(r, c)
            members = list(enumerate_class(t)) if sum(r) == sum(c) else []
            if not members:
                continue
            bound = mixture_lower_bound(mix2, t)
            for g in members:
                assert graph_prob(p2, g) >= bound - 1e-12, (r, c)
            checked += 1
    p3 = ProductRandomGraph(
        p=np.array(
            [[0.10, 0.05, 0.08], [0.04, 0.12, 0.06], [0.07, 0.03, 0.09]]
        ),
        w=DiGraph.complete(3),
    )
    mix3 = decompose_single_edge(p3)
    assert verify_mixture(p3, mix3, tol=1e-12)
    rng = random.Random(111)
    feasible = sorted((r, c) for (r, c), b in partition_by_type(3).items() if b)
    sampled = rng.sample(feasible, 25)
    for r, c in sampled:
        t = EdgeType(r, c)
        bound = mixture_lower_bound(mix3, t)
        for g in enumerate_class(t):
            assert graph_prob(p3, g) >= bound - 1e-12, (r, c)
    return f"{checked} exhaustive n=2 types, {len(sampled)} sampled n=3 types"


@criterion(12, "Sanov sandwich on 50 random (family, type-collection) instances at n=3")
def test_criterion_12_sanov(feasible3):
    rng = random.Random(2025)
    for trial in range(50):
        params = random_params(rng, 3)
        picks = rng.sample(feasible3, rng.randrange(1, 7))
        types = [EdgeType(r, c) for r, c in picks]
        lower, upper, exact = sanov_bounds(params, types)
        assert lower <= exact * (1 + 1e-9), trial
        assert exact <= upper * (1 + 1e-9), trial
    return "50 instances"
