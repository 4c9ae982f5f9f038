import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import edgetype
from edgetype import enumeration, maxent, probability, ratedistortion
from edgetype.cli import _build_parser, _matrix_chunks, graph_json, main, parse_family_params, parse_type
from edgetype.enumeration import class_invariants
from edgetype.graphs import DiGraph
from edgetype.typealg import EdgeType, EmptyResult, gale_ryser_feasible, invariant_positions, reduce_by_invariants


@pytest.fixture
def write_json(tmp_path):
    counter = [0]

    def _write(obj):
        counter[0] += 1
        path = tmp_path / f"input{counter[0]}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


REGULAR_PAIR = {"r": [1, 1], "c": [1, 1]}
INFEASIBLE = {"r": [2, 0], "c": [2, 0]}
ZERO_VERTICES = {"r": [], "c": []}
PERMUTATIONS_3 = {"r": [1, 1, 1], "c": [1, 1, 1]}
NO_LOOPS_3 = {"n": 3, "adj": [[int(i != j) for j in range(3)] for i in range(3)]}
# the 1854 derangements of 7 vertices: W = no loops, n above the default --limit
DERANGEMENTS_7 = {"r": [1] * 7, "c": [1] * 7, "w": {"n": 7, "adj": [[int(i != j) for j in range(7)] for i in range(7)]}}


def gnp_type(seed, n, rho, w=None):
    """Degree pair of a seeded G(n, rho) graph, kept inside W when given."""
    g = np.random.default_rng(seed).random((n, n)) < rho
    if w is not None:
        g &= w.adj.astype(bool)
    return EdgeType(tuple(g.sum(axis=1).tolist()), tuple(g.sum(axis=0).tolist()), w)


def first_difference(got: str, want: str):
    """None when the texts are equal, else where they first differ (kept
    short, since pytest's own diff of two multi-megabyte strings is slow)."""
    if got == want:
        return None
    k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return k, got[max(k - 20, 0) : k + 20], want[max(k - 20, 0) : k + 20]


def matrix_text(p, row=None, col=None) -> str:
    """The text `_matrix_chunks` gives for the block p on the labels (row,
    col), identity labels by default, checked to be "[", one chunk per row
    label (every row after the first led by its ", "), then "]"."""
    row = np.arange(p.shape[0]) if row is None else row
    col = np.arange(p.shape[1]) if col is None else col
    chunks = _matrix_chunks(p, row, col)
    assert len(chunks) == len(row) + 2 and chunks[0] == "[" and chunks[-1] == "]"
    assert all(chunk.startswith(", [") for chunk in chunks[2:-1])
    return "".join(chunks)


def labelled_text(t) -> str:
    """The text `maxent` writes for p: the p block of the solve on its p-labels."""
    sol = maxent._solve(t)
    return matrix_text(sol.p_block(), sol.groups.labels.row, sol.groups.labels.col)


def restricted_type(seed):
    """A type on a seeded W at n = 5 or 6 (70 % of the cells allowed)."""
    n = 5 + seed % 2
    w = DiGraph((np.random.default_rng(1000 + seed).random((n, n)) < 0.7).astype(int))
    return gnp_type(seed, n, 0.5, w)


def type_spec(t) -> dict:
    return {"r": list(t.r), "c": list(t.c), "w": {"n": t.n, "adj": t.w.tolist()}}


def dense_maxent_text(t, tol=None) -> str:
    """The dense oracle for `maxent`'s stdout: sorted `json.dumps` of the
    p, s and t that `solve_maxent` expands to n x n and n."""
    f, v, report = maxent.solve_maxent(t, tol=tol)
    expected = {
        "p": f.p.tolist(),
        "s": list(v.s),
        "t": list(v.t),
        "alpha": report.alpha,
        "entropy_nats": report.entropy_nats,
        "entropy_bits": report.entropy_nats / math.log(2),
        "iterations": report.iterations,
        "margins_residual": report.grad_norm,
    }
    return json.dumps(expected, sort_keys=True) + "\n"


def ferrers_type(n):
    return EdgeType(tuple(range(n, 0, -1)), tuple(range(n, 0, -1)))


def full_and_empty_type(seed):
    """A seeded G(n, rho) type, n = 2..9, whose rows (for odd seeds its
    columns) are forced full or empty at random: degree-0 and degree-n
    vertices side by side."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 8
    g = rng.random((n, n)) < rng.random()
    forced = rng.integers(0, 3, n)  # 0: left as drawn, 1: full, 2: empty
    g[forced == 1], g[forced == 2] = True, False
    if seed % 2:
        g = g.T
    return EdgeType(tuple(g.sum(axis=1).tolist()), tuple(g.sum(axis=0).tolist()))


class TestFeasible:
    def test_feasible_type(self, capsys, write_json):
        code, out = run(capsys, "feasible", "--type", write_json(REGULAR_PAIR))
        assert code == 0
        assert json.loads(out) == {"feasible": True}

    def test_infeasible_exit_one(self, capsys, write_json):
        code, out = run(capsys, "feasible", "--type", write_json(INFEASIBLE))
        assert code == 1
        assert json.loads(out) == {"feasible": False}

    def test_restricted_feasibility(self, capsys, write_json):
        spec = {
            "r": [1, 1],
            "c": [1, 1],
            "w": {"n": 2, "adj": [[1, 0], [0, 1]]},
        }
        code, out = run(capsys, "feasible", "--type", write_json(spec))
        assert code == 0 and json.loads(out) == {"feasible": True}


class TestCount:
    def test_two_member_class(self, capsys, write_json):
        code, out = run(capsys, "count", "--type", write_json(REGULAR_PAIR))
        assert code == 0
        assert json.loads(out) == {"count": 2}

    def test_empty_class_exit_one(self, capsys, write_json):
        code, out = run(capsys, "count", "--type", write_json(INFEASIBLE))
        assert code == 1
        assert json.loads(out) == {"count": 0}

    def test_limit_exceeded_exit_four(self, capsys, write_json):
        # the 9-regular class at n = 30 runs out of the counting budget
        code = main(["count", "--type", write_json({"r": [9] * 30, "c": [9] * 30})])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == f"resource limit: counting exceeds its budget of {enumeration.COUNT_BUDGET} column-class visits\n"

    @pytest.mark.parametrize("k, n, size", [(2, 7, 3_110_940), (2, 8, 187_530_840), (3, 7, 68_938_800), (3, 8, 24_046_189_440)])
    def test_regular_classes_above_the_enumeration_limit(self, capsys, write_json, k, n, size):
        # OEIS A001499 (2-regular) and A001501 (3-regular); counting takes no size flag
        code, out = run(capsys, "count", "--type", write_json({"r": [k] * n, "c": [k] * n}))
        assert code == 0 and json.loads(out) == {"count": size}

    @pytest.mark.parametrize("n", [40, 1200, 1500])
    def test_large_classes_counted(self, capsys, write_json, n):
        # a permutation class of n! members (n = 1200 once overflowed the recursion), and the
        # 3-regular class at n = 40
        k = 3 if n == 40 else 1
        code, out = run(capsys, "count", "--type", write_json({"r": [k] * n, "c": [k] * n}))
        assert code == 0
        if k == 1:
            assert out == f'{{"count": {math.factorial(n)}}}\n'

    @pytest.mark.parametrize("argv", [["count"], ["bounds", "--limit", "1600"]], ids=lambda v: v[0])
    def test_count_past_the_digit_limit_exit_four(self, capsys, write_json, argv):
        # 1600! has 4 434 digits, more than Python writes as text
        code = main([argv[0], "--type", write_json({"r": [1] * 1600, "c": [1] * 1600}), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == f"resource limit: an integer in the output exceeds the limit of {sys.get_int_max_str_digits()} digits\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["count"], "counting exceeds its budget of 100 column-class visits"),
            (["delta", "--delta", "0.25"], "counting exceeds its budget of 100 column-class visits"),
            (["rd-bounds", "--xi", "0"], "n=7 exceeds Omega scan limit 6"),
            (["enumerate"], "n=7 exceeds enumeration limit 6 (estimated work 2^49)"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_refusal_names_what_was_refused(self, capsys, write_json, monkeypatch, argv, message):
        # counting is refused by its own work budget, whatever n is; the Omega scan and
        # enumeration by n
        monkeypatch.setattr(enumeration, "COUNT_BUDGET", 100)
        t = write_json({"r": [3] * 7, "c": [3] * 7})
        code = main([argv[0], "--type", t, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == f"resource limit: {message}\n"
        monkeypatch.undo()
        if argv[0] != "enumerate":
            assert main([argv[0], "--type", t, *argv[1:], *(["--limit", "7"] if argv[0] == "rd-bounds" else [])]) == 0
            capsys.readouterr()


class TestStructure:
    def test_regular_pair_matrix(self, capsys, write_json):
        code, out = run(capsys, "structure", "--type", write_json(REGULAR_PAIR))
        assert code == 0
        assert json.loads(out) == {"n": 2, "t": [[2, 1, 0], [1, 1, 1], [0, 1, 2]]}

    def test_restricted_rejected(self, capsys, write_json):
        spec = {"r": [1, 1], "c": [1, 1], "w": {"n": 2, "adj": [[0, 1], [1, 1]]}}
        code, _ = run(capsys, "structure", "--type", write_json(spec))
        assert code == 2


class TestNormalize:
    def test_sorts_and_reports_perms(self, capsys, write_json):
        spec = {"r": [1, 2], "c": [0, 2]}
        code, out = run(capsys, "normalize", "--type", write_json(spec))
        assert code == 0
        got = json.loads(out)
        assert got["r"] == [2, 1] and got["c"] == [2, 0]
        assert got["row_perm"] == [1, 0] and got["col_perm"] == [1, 0]


class TestInvariantsAndComponents:
    def test_invariants_complete_type(self, capsys, write_json):
        spec = {"r": [2, 2], "c": [2, 2]}
        code, out = run(capsys, "invariants", "--type", write_json(spec))
        assert code == 0
        got = json.loads(out)
        assert got["inv1"]["adj"] == [[1, 1], [1, 1]]
        assert got["free"]["adj"] == [[0, 0], [0, 0]]

    def test_invariants_restricted_uses_oracle(self, capsys, write_json):
        spec = {"r": [1, 1], "c": [1, 1], "w": {"n": 2, "adj": [[1, 0], [0, 1]]}}
        code, out = run(capsys, "invariants", "--type", write_json(spec))
        assert code == 0
        got = json.loads(out)
        assert got["inv1"]["adj"] == [[1, 0], [0, 1]]

    def test_components_regular_pair(self, capsys, write_json):
        code, out = run(capsys, "components", "--type", write_json(REGULAR_PAIR))
        assert code == 0
        got = json.loads(out)
        assert got["row_blocks"] == [[0, 1]] and got["col_blocks"] == [[0, 1]]
        assert got["blocks"] == [{"rows": [0, 1], "cols": [0, 1], "trivial": False}]

    def test_components_unsorted_unrestricted(self, capsys, write_json):
        spec = {"r": [2, 2, 3, 2, 2], "c": [3, 4, 0, 2, 2]}
        code, out = run(capsys, "components", "--type", write_json(spec))
        assert code == 0
        got = json.loads(out)
        assert got["row_blocks"] == [[0, 1, 2, 3, 4]]
        assert got["col_blocks"] == [[0, 1, 3, 4], [2]]
        assert got["blocks"] == [
            {"rows": [0, 1, 2, 3, 4], "cols": [0, 1, 3, 4], "trivial": False},
            {"rows": [0, 1, 2, 3, 4], "cols": [2], "trivial": True},
        ]


class TestEnumerate:
    def test_deterministic_member_stream(self, capsys, write_json):
        code, out = run(capsys, "enumerate", "--type", write_json(REGULAR_PAIR))
        assert code == 0
        lines = out.strip().split("\n")
        assert [json.loads(x)["adj"] for x in lines] == [
            [[0, 1], [1, 0]],
            [[1, 0], [0, 1]],
        ]

    def test_negative_delta_exit_two(self, capsys, write_json):
        code = main(["enumerate", "--type", write_json(REGULAR_PAIR), "--delta", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "delta must be nonnegative" in captured.err

    def test_delta_widens(self, capsys, write_json):
        path = write_json(REGULAR_PAIR)
        _, plain = run(capsys, "enumerate", "--type", path)
        _, widened = run(
            capsys, "enumerate", "--type", path, "--delta", "10", "--dens", "1"
        )
        assert len(widened.strip().split("\n")) == 16
        assert len(plain.strip().split("\n")) == 2


class TestMaxentAndBounds:
    def test_maxent_half(self, capsys, write_json):
        code, out = run(capsys, "maxent", "--type", write_json(REGULAR_PAIR))
        assert code == 0
        got = json.loads(out)
        assert got["p"] == [[0.5, 0.5], [0.5, 0.5]]
        assert got["alpha"] == pytest.approx(16.0)

    def test_bounds_include_count(self, capsys, write_json):
        code, out = run(capsys, "bounds", "--type", write_json(REGULAR_PAIR))
        assert code == 0
        got = json.loads(out)
        assert got["count"] == 2
        assert got["alpha"] >= got["count"]
        assert got["measured_gap"] >= 0

    @pytest.mark.parametrize("cmd", ["maxent", "bounds"])
    def test_alpha_beyond_float_range_is_infinity(self, capsys, write_json, cmd):
        # H(F_T) of this dense n = 60 type is far above ln(float max) = 709.78
        rng = random.Random(60)
        g = [[int(rng.random() < 0.5) for _ in range(60)] for _ in range(60)]
        spec = {"r": [sum(row) for row in g], "c": [sum(col) for col in zip(*g)]}
        code, out = run(capsys, cmd, "--type", write_json(spec))
        assert code == 0
        assert '"alpha": Infinity' in out
        got = json.loads(out)
        assert got["alpha"] == math.inf
        if cmd == "maxent":
            assert 709.78 < got["entropy_nats"] < math.inf
            assert len(got["p"]) == 60 and got["margins_residual"] <= 60e-10
        else:
            assert got["measured_gap"] is None

    def test_limit_reaches_restricted_solve(self, capsys, write_json):
        # the restricted solve needs no --limit; the count in `bounds` does
        t = write_json(DERANGEMENTS_7)
        code, out = run(capsys, "maxent", "--type", t)
        assert code == 0 and len(json.loads(out)["p"]) == 7
        code, out = run(capsys, "bounds", "--type", t, "--limit", "7")
        assert code == 0 and json.loads(out)["count"] == 1854

    @pytest.mark.parametrize("cmd", ["maxent", "bounds"])
    def test_restricted_solve_above_default_limit_exit_four(self, capsys, write_json, cmd):
        # the invariant cells come from a flow, so the solve answers above
        # --limit (it used to exit 4); only the count is left out of `bounds`
        t = parse_type(DERANGEMENTS_7)
        assert enumeration.count_class(t) > 0
        code, out = run(capsys, cmd, "--type", write_json(DERANGEMENTS_7))
        got = json.loads(out)
        assert code == 0
        alpha = maxent.solve_maxent(t)[2].alpha
        assert 1854 < alpha and got["alpha"] == alpha
        if cmd == "maxent":
            assert np.allclose(got["p"], (1 - np.eye(7)) / 6, rtol=0, atol=1e-12)
        else:
            assert got == {"alpha": alpha, "measured_gap": None}

    def test_nonconvergence_unreachable_on_feasible_small(self, capsys, write_json):
        # empty classes are reported as empty (exit 1), not as solver failures
        code, _ = run(capsys, "maxent", "--type", write_json(INFEASIBLE))
        assert code == 1


class TestMatrixJson:
    """The chunks of `_matrix_chunks` on the p-labels must join to the bytes of `json.dumps(p.tolist())`."""

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 200, 800])
    def test_gnp_types(self, n):
        t = gnp_type(n, n, 0.5)
        f, _, _ = maxent.solve_maxent(t)
        assert first_difference(labelled_text(t), json.dumps(f.p.tolist())) is None

    @pytest.mark.parametrize("n", [7, 30, 120])
    def test_unsorted_types(self, n):
        t = gnp_type(n, n, 0.35)
        order = np.random.default_rng(n).permutation(n)
        t = EdgeType(tuple(np.array(t.r)[order].tolist()), t.c[::-1])
        assert list(t.r) != sorted(t.r, reverse=True)
        f, _, _ = maxent.solve_maxent(t)
        assert first_difference(labelled_text(t), json.dumps(f.p.tolist())) is None

    def test_restricted_w_with_invariant_cells_inside_solver_groups(self):
        split = 0
        for seed in range(12):
            t = restricted_type(seed)
            f, _, _ = maxent.solve_maxent(t)
            assert first_difference(labelled_text(t), json.dumps(f.p.tolist())) is None
            # rows the solver shares one variable for, but whose p rows differ
            reduced = reduce_by_invariants(t, class_invariants(t))
            row_of, _ = maxent._orbits(reduced.r, reduced.w.adj)
            groups = {}
            for i, k in enumerate(row_of.tolist()):
                groups.setdefault(k, set()).add(f.p[i].tobytes())
            split += any(len(rows) > 1 for rows in groups.values())
        assert split > 0

    @pytest.mark.parametrize(
        "p",
        [
            [[0.0]],
            [[1.0]],
            [[0.0, 1.0], [1.0, 0.0]],
            [[0.5, 0.0, 0.5], [1.0, 1.0, 0.25], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 0.25]],
            [[0.1, 0.2, 0.1, 0.3], [0.3, 0.2, 0.3, 0.1], [0.1, 0.2, 0.1, 0.3]],
            [[-0.0, 0.0], [0.0, -0.0]],
            [[5e-324, 1e-17, 1 - 2**-53], [1e-17, 5e-324, 0.1 + 0.2]],
            [[float("nan"), float("inf")], [float("inf"), float("nan")]],
        ],
    )
    def test_hand_made_matrices(self, p):
        p = np.array(p)
        assert first_difference(matrix_text(p), json.dumps(p.tolist())) is None

    def test_labels_gather_the_block(self):
        block = np.array([[0.5, -0.0, 1.0], [float("nan"), 0.5, 5e-324]])
        row, col = np.array([1, 0, 0, 1]), np.array([2, 2, 0, 1, 0])
        want = json.dumps(block[np.ix_(row, col)].tolist())
        assert first_difference(matrix_text(block, row, col), want) is None

    @pytest.mark.parametrize("t", [gnp_type(40, 40, 0.5), restricted_type(0)], ids=["n40", "restricted"])
    def test_maxent_stdout_is_sorted_json_dumps(self, capsys, write_json, t):
        code, out = run(capsys, "maxent", "--type", write_json(type_spec(t)))
        assert code == 0
        assert first_difference(out, dense_maxent_text(t)) is None

    @pytest.mark.parametrize(
        "types",
        [
            pytest.param(
                lambda: [
                    EdgeType(r, c)
                    for n in (1, 2, 3)
                    for r, c in product(product(range(n + 1), repeat=n), repeat=2)
                    if gale_ryser_feasible(r, c)
                ],
                id="all-unrestricted-n-le-3",
            ),
            pytest.param(lambda: [ferrers_type(5), ferrers_type(40)], id="ferrers"),
            pytest.param(lambda: [full_and_empty_type(seed) for seed in range(40)], id="full-and-empty"),
            pytest.param(lambda: [restricted_type(seed) for seed in range(12)], id="restricted"),
        ],
    )
    def test_writer_bytes_equal_dense_oracle(self, capsys, write_json, types):
        # p, s and t are written from the p-labels and groups; the oracle expands them
        for t in types():
            code, out = run(capsys, "maxent", "--type", write_json(type_spec(t)))
            assert code == 0
            assert first_difference(out, dense_maxent_text(t)) is None, (t.r, t.c)

    def test_full_and_empty_rows_share_a_group_but_not_a_row_of_p(self):
        # degree-0 and degree-n rows are wholly invariant, so one solver group holds both
        t = next(t for t in map(full_and_empty_type, range(40)) if {0, t.n} <= set(t.r))
        g = maxent._solve(t).groups
        full, empty = t.r.index(t.n), t.r.index(0)
        assert g.row_of[full] == g.row_of[empty]
        assert g.labels.row[full] != g.labels.row[empty]

    @pytest.mark.parametrize(
        "t, extra, sha",
        [
            (ferrers_type(40), [], "31e8cd4ea6c6a10ff5c283d79e2354be70e61f7a09a0bf2a02de656089bc75da"),
            (gnp_type(200, 200, 0.5), [], "26ce50706678704c65bfb8c322a28c5450e16febf4c08e5e1c4e13f500cd49e7"),
            (restricted_type(0), [], "29b41a515b35aedd636a0bb09d0e39e55805ea4b38adf74e36ae602ad70ce3ba"),
            (EdgeType((20,) * 30, (20,) * 30), ["--tol", "1e-6"],
             "9768187f8b3f420f4d3d767885b7cc43ee60b9b8ed404b11d001fbe7674893c1"),
        ],
        ids=["ferrers40", "gnp200", "restricted0", "regular20x30-tol1e-6"],
    )
    def test_maxent_pinned_bytes(self, capsys, write_json, t, extra, sha):
        # the sha256 of each stdout, recorded from the dense writer that expanded p
        code = main(["maxent", "--type", write_json(type_spec(t)), *extra])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == sha

    @pytest.mark.parametrize("t", [gnp_type(200, 200, 0.5), restricted_type(0)], ids=["n200", "restricted"])
    def test_maxent_out_file_bytes_equal_stdout_bytes(self, capsysbinary, write_json, tmp_path, t):
        spec = write_json({"r": list(t.r), "c": list(t.c), "w": {"n": t.n, "adj": t.w.tolist()}})
        dest = tmp_path / "p.json"
        assert main(["maxent", "--type", spec, "--out", str(dest)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert main(["maxent", "--type", spec]) == 0
        stdout = capsysbinary.readouterr().out
        assert dest.read_bytes() == stdout and stdout.endswith(b"]}\n")

    def test_maxent_peak_memory_is_under_one_and_a_half_copies_of_p(self, write_json, tmp_path):
        # p (1.3 MB here) is never expanded to n x n, and its text (3.2 MB) is written row by row
        t = gnp_type(400, 400, 0.5)
        argv = ["maxent", "--type", write_json({"r": list(t.r), "c": list(t.c)}), "--out", str(tmp_path / "p.json")]
        assert main(argv) == 0  # first-call allocations stay out of the measure
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = maxent.solve_maxent(t)[0].p.nbytes
        assert peak < 1.5 * nbytes, (peak, nbytes)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--type", INFEASIBLE], 1),
            (["--type", PERMUTATIONS_3, "--tol", "-1"], 2),
        ],
        ids=["infeasible", "negative-tol"],
    )
    def test_failing_maxent_writes_no_file(self, capsys, write_json, tmp_path, argv, code):
        dest = tmp_path / "p.json"
        argv = ["maxent", *[write_json(a) if isinstance(a, dict) else a for a in argv], "--out", str(dest)]
        try:
            got = main(argv)
        except SystemExit as exc:  # a usage error
            got = exc.code
        assert got == code and capsys.readouterr().out == ""
        assert not dest.exists()


class TestProbability:
    def test_prob_uniform_family(self, capsys, write_json):
        params = {"a": [0, 0], "b": [0, 0]}
        code, out = run(
            capsys,
            "prob",
            "--type",
            write_json(REGULAR_PAIR),
            "--params",
            write_json(params),
        )
        assert code == 0
        got = json.loads(out)
        assert got["point_prob"] == pytest.approx(1 / 16)
        assert got["exact"] == pytest.approx(2 / 16)
        assert got["lower"] <= got["exact"] * (1 + 1e-12)
        assert got["exact"] <= got["upper"] * (1 + 1e-12)

    def test_prob_solves_dual_once(self, capsys, write_json, monkeypatch):
        calls = []
        solve = probability.solve_maxent

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(probability, "solve_maxent", counted)
        params = write_json({"a": [0.3, -0.2, 0.1], "b": [0.0, 0.5, -0.4]})
        t = write_json({"r": [2, 1, 0], "c": [1, 1, 1]})
        code, _ = run(capsys, "prob", "--type", t, "--params", params)
        assert code == 0
        assert len(calls) == 1

    def test_prob_continuity_failure_names_point_probability(self, capsys, write_json):
        params = write_json({"a": ["inf", "inf"], "b": [0, 0]})
        code = main(["prob", "--type", write_json(REGULAR_PAIR), "--params", params])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "forces a non-invariant cell" in captured.err

    def test_sanov(self, capsys, write_json):
        params = {"a": [0, 0], "b": [0, 0]}
        t1 = write_json(REGULAR_PAIR)
        t2 = write_json({"r": [2, 2], "c": [2, 2]})
        code, out = run(
            capsys, "sanov", "--params", write_json(params), "--types", t1, t2
        )
        assert code == 0
        got = json.loads(out)
        assert got["exact"] == pytest.approx(3 / 16)
        assert got["lower"] <= got["exact"] <= got["upper"]

    def test_sanov_upper_beyond_float_range_is_infinity(self, capsys, write_json):
        # e^{2n ln(n+1)} at n = 120 overflows a float; it is no failure to converge
        t = write_json({"r": [60] * 120, "c": [60] * 120})
        params = write_json({"a": [0] * 120, "b": [0] * 120})
        code = main(["sanov", "--params", params, "--types", t])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert '"upper": Infinity' in captured.out

    @pytest.mark.parametrize("nan", ["nan", math.nan], ids=["string", "json-literal"])
    @pytest.mark.parametrize("cmd", ["prob", "sanov", "rn-exact"])
    def test_nan_params_exit_two(self, capsys, write_json, cmd, nan):
        params = write_json({"a": [nan, 0, 0], "b": [0, 0, 0]} if nan == "nan" else {"a": [0, 0, 0], "b": [0, nan, 0]})
        t = write_json(PERMUTATIONS_3)
        argv = {
            "prob": ["prob", "--type", t, "--params", params],
            "sanov": ["sanov", "--params", params, "--types", t],
            "rn-exact": ["rn-exact", "--type", t, "--params", params, "--d", "1/3"],
        }[cmd]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "family parameters must not be NaN" in captured.err

    @pytest.mark.parametrize(
        "value, fragment",
        [
            (True, "family parameter True is not a number"),
            ("1e0", "family parameter '1e0' is not a number"),
            ("Infinity", "family parameter 'Infinity' is not a number"),
            (None, "family parameter None is not a number"),
            ([1], "family parameter [1] is not a number"),
            (10**400, "is out of float range"),
        ],
        ids=["bool", "numeric-string", "other-inf-string", "null", "list", "huge-integer"],
    )
    @pytest.mark.parametrize("cmd", ["prob", "sanov", "rn-exact"])
    def test_non_number_params_exit_two(self, capsys, write_json, cmd, value, fragment):
        # true and "1e0" were once read as 1.0, and a huge integer overflowed into exit 3
        params = write_json({"a": [value, 0, 0], "b": [0, 0, 0]})
        t = write_json(PERMUTATIONS_3)
        argv = {
            "prob": ["prob", "--type", t, "--params", params],
            "sanov": ["sanov", "--params", params, "--types", t],
            "rn-exact": ["rn-exact", "--type", t, "--params", params, "--d", "1/3"],
        }[cmd]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("invalid input: ") and fragment in captured.err

    def test_json_numbers_parsed(self):
        # integers, floats and the JSON literal Infinity are numbers; "inf" and "-inf" are the two strings
        params = parse_family_params(json.loads('{"a": [1, 1.5, Infinity], "b": ["-inf", "inf", -0.0]}'))
        assert params.a == (1.0, 1.5, math.inf) and params.b == (-math.inf, math.inf, 0.0)
        assert all(type(v) is float for v in params.a + params.b)

    def test_inf_params_parsed(self, capsys, write_json):
        params = {"a": ["-inf", "inf"], "b": [0, "inf"]}
        t = write_json({"r": [1, 0], "c": [1, 0]})
        code, out = run(capsys, "prob", "--type", t, "--params", write_json(params))
        assert code == 0
        assert json.loads(out)["point_prob"] == pytest.approx(1.0)


class TestDeltaAndConditional:
    def test_delta_summary(self, capsys, write_json):
        code, out = run(
            capsys,
            "delta",
            "--type",
            write_json(REGULAR_PAIR),
            "--delta",
            "0.5",
        )
        assert code == 0
        got = json.loads(out)
        assert got["count_delta"] == 2
        assert got["card_lower"] <= got["card_upper"]

    def test_delta_above_the_enumeration_limit(self, capsys, write_json):
        # the derangements of 7 vertices, a delta-class that is the class itself: the
        # measured counting gap makes the lower bound ln(count) / n^2
        code, out = run(capsys, "delta", "--type", write_json(DERANGEMENTS_7), "--delta", "0.5")
        got = json.loads(out)
        assert code == 0 and got["count_delta"] == 1854
        assert got["card_lower"] == pytest.approx(math.log(1854) / 49, rel=1e-12)
        assert got["card_lower"] < got["card_upper"]

    def test_dens_zero_counts_the_plain_class(self, capsys, write_json):
        # the delta-class admits degrees within delta * dens, so dens = 0 leaves the class itself
        t = write_json(PERMUTATIONS_3)
        code, out = run(capsys, "delta", "--type", t, "--delta", "10", "--dens", "0")
        assert code == 0
        got = json.loads(out)
        assert got["count_delta"] == 6
        assert got["card_lower"] <= math.log(6) / 9 <= got["card_upper"]
        _, wide = run(capsys, "delta", "--type", t, "--delta", "10", "--dens", "1")
        assert json.loads(wide)["count_delta"] == 512

    def test_delta_counts_each_class_once(self, capsys, write_json, monkeypatch, cold_memo):
        # the delta-class is counted in one pass over degree intervals; count_class runs
        # once, for the cardinality bounds on t's class
        counted = []

        def recorded(t, *args, **kwargs):
            counted.append((t.r, t.c))
            return count(t, *args, **kwargs)

        count = enumeration.count_class
        monkeypatch.setattr(enumeration, "count_class", recorded)
        monkeypatch.setattr(ratedistortion, "count_class", recorded)
        t = write_json({"r": [3, 3, 2, 1, 1, 0], "c": [2, 2, 2, 2, 1, 1]})
        code, _ = run(capsys, "delta", "--type", t, "--delta", "0.25")
        assert code == 0
        assert counted == [((3, 3, 2, 1, 1, 0), (2, 2, 2, 2, 1, 1))]

    @pytest.mark.parametrize(
        "spec, extra, sha",
        [
            ({"r": [3, 2, 3, 2], "c": [2, 3, 1, 4]}, ["--delta", "0.5"],
             "a48e1c5727e954f33b0bd1838f29be5a380d33e6282de5e8f335684f69b0d56c"),
            ({"r": [2, 2, 1, 1], "c": [1, 2, 2, 1], "w": {"n": 4, "adj": [[int(i != j) for j in range(4)] for i in range(4)]}},
             ["--delta", "0.5", "--dens", "3"], "84d2afaec85cfddb505632c1f3d938d6644a9c8b8df89bca075d56031b9ca356"),
            ({"r": [4, 2, 1, 0], "c": [2, 2, 2, 1]}, ["--delta", "0.5"],
             "ea04165bb86c2326e0773d96a2ea0a987d0c9a9704fcdf1afc4ccf7b195af729"),
            ({"r": [3, 3, 2, 1, 1, 0], "c": [2, 2, 2, 2, 1, 1]}, ["--delta", "1.0"],
             "ea401a2c88cc546a3892454848517afb9ef062b1640098fe90f8200e29217ffe"),
        ],
        ids=["unsorted-n4", "loopfree-n4-dens3", "fixed-n4", "n6-delta1"],
    )
    def test_delta_pinned_bytes(self, capsys, write_json, spec, extra, sha):
        # the sha256 of each stdout, recorded when the delta-class was counted degree pair by pair
        code = main(["delta", "--type", write_json(spec), *extra])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == sha

    def test_delta_bounds_read_the_class_representative(self, capsys, write_json, cold_memo):
        # H(F_T) is solved on the sorted representative: a relabelled t prints its bytes
        # and takes no second entry in the memo of class facts
        argv = ["delta", "--delta", "0.25", "--tol", "1e-6", "--type"]
        code, permuted = run(capsys, *argv, write_json({"r": [3, 2, 3, 2], "c": [2, 3, 1, 4]}))
        assert code == 0 and json.loads(permuted)["card_lower"] == 0.1299650963549897
        entries = ratedistortion._class_facts.cache_info().currsize
        code, sorted_out = run(capsys, *argv, write_json({"r": [3, 3, 2, 2], "c": [4, 3, 2, 1]}))
        assert code == 0 and sorted_out == permuted
        assert ratedistortion._class_facts.cache_info().currsize == entries == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--delta", "1"],
            ["delta", "--delta", "1"],
            ["conditional", "--graph", {"n": 3, "adj": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
            ["cover", "--xi", "1/3"],
            ["rd-bounds", "--xi", "1/3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_dens_exit_two(self, capsys, write_json, argv):
        argv = [write_json(a) if isinstance(a, dict) else a for a in argv]
        code = main([*argv, "--type", write_json(PERMUTATIONS_3), "--dens", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "dens must be nonnegative" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--delta", "-1"],
            ["delta", "--delta", "-1"],
            ["conditional", "--delta", "-1", "--graph", {"n": 3, "adj": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
            ["cover", "--delta", "-1", "--xi", "1/3"],
            ["rd-bounds", "--delta", "-1", "--xi", "1/3"],
            ["rd-bounds", "--delta-hat", "-1", "--xi", "1/3"],
        ],
        ids=lambda argv: "-".join(argv[:2]).replace("--", ""),
    )
    def test_negative_delta_exit_two(self, capsys, write_json, argv):
        argv = [write_json(a) if isinstance(a, dict) else a for a in argv]
        code = main([*argv, "--type", write_json(PERMUTATIONS_3)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "delta must be nonnegative" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("rd-bounds", "--xi", "0"),
            ("rd-bounds", "--xi", "1/3", "--delta", "0.5"),
            ("cover", "--xi", "0"),
            ("cover", "--xi", "1/3", "--delta", "0.5"),
        ],
    )
    def test_dens_zero_bounds_and_cover(self, capsys, write_json, argv):
        # ln max(n * dens, 1) keeps the log terms finite at dens = 0
        code, out = run(capsys, *argv, "--type", write_json(PERMUTATIONS_3), "--dens", "0")
        assert code == 0
        got = json.loads(out)
        if argv[0] == "rd-bounds":
            assert got["upper"]["slack_terms"]["delta_log_term"] == 0.0
            assert got["lower"]["slack_terms"]["density_log_terms"] == 0.0
        else:
            assert got["covers"]

    def test_conditional_remark_pair(self, capsys, write_json):
        t = write_json(REGULAR_PAIR)
        g = write_json({"n": 2, "adj": [[1, 1], [1, 0]]})
        code, out = run(capsys, "conditional", "--type", t, "--graph", g)
        assert code == 0
        adjs = [json.loads(x)["adj"] for x in out.strip().split("\n")]
        assert sorted(adjs) == sorted([[[0, 1], [1, 1]], [[1, 0], [0, 0]]])


class TestDistortion:
    def test_exact_fraction(self, capsys, write_json):
        g = write_json({"n": 2, "adj": [[1, 1], [1, 0]]})
        h = write_json({"n": 2, "adj": [[0, 1], [1, 1]]})
        code, out = run(capsys, "distortion", "--graph", g, "--graph2", h)
        assert code == 0
        got = json.loads(out)
        assert got["distortion"] == "1/2" and got["value"] == 0.5


# Commands that fill the memo of class facts with other types, relabellings
# of the pinned types, a restricted W and other tolerances.
MEMO_WARMERS = [
    ("rd-bounds", {"r": [2, 2, 1], "c": [1, 2, 2]}, "--xi", "2/3"),
    ("rd-bounds", {"r": [0, 1, 2], "c": [1, 1, 1]}, "--xi", "2/3", "--tol", "1e-6"),
    ("rd-bounds", {"r": [1, 0, 2], "c": [1, 1, 1]}, "--xi", "1/3"),
    ("rd-bounds", {"r": [0, 1, 1, 2], "c": [1, 1, 1, 1]}, "--xi", "1/4"),
    ("rd-bounds", {"r": [2, 1, 1], "c": [1, 2, 1], "w": NO_LOOPS_3}, "--xi", "1/3"),
    ("rd-bounds", {**PERMUTATIONS_3, "w": {"n": 3, "adj": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]}}, "--xi", "2/3"),
    ("cover", {"r": [1, 2, 0], "c": [1, 1, 1]}, "--xi", "1/3", "--delta", "0.25"),
    ("delta", {"r": [1, 2, 1, 0], "c": [1, 1, 1, 1]}, "--delta", "0.5"),
]


class TestCoverAndRD:
    def test_cover_reports_verification(self, capsys, write_json):
        code, out = run(
            capsys,
            "cover",
            "--type",
            write_json(REGULAR_PAIR),
            "--xi",
            "0",
            "--m",
            "50",
            "--seed",
            "1",
        )
        assert code == 0
        got = json.loads(out)
        assert got["covers"] is True and got["size"] == 2

    def test_rd_bounds_reports(self, capsys, write_json):
        t = write_json({"r": [1, 1, 1], "c": [1, 1, 1]})
        code, out = run(
            capsys,
            "rd-bounds",
            "--type",
            t,
            "--xi",
            "1/3",
            "--delta",
            "0",
            "--delta-hat",
            "0.2",
        )
        assert code == 0
        got = json.loads(out)
        assert got["upper"]["value_nats"] >= got["lower"]["value_nats"]
        assert "density_preserved" in got["upper"]["assumption_flags"]
        assert "hoeffding_condition" in got["lower"]["assumption_flags"]

    def test_rn_exact(self, capsys, write_json):
        code, out = run(
            capsys,
            "rn-exact",
            "--type",
            write_json(REGULAR_PAIR),
            "--d",
            "0",
        )
        assert code == 0
        got = json.loads(out)
        assert got["rate_bits"] == pytest.approx(0.25)
        assert got["codebook_size"] == 2

    def test_rn_exact_probabilistic(self, capsys, write_json):
        params = {"a": [0, 0], "b": [0, 0]}
        code, out = run(
            capsys,
            "rn-exact",
            "--type",
            write_json(REGULAR_PAIR),
            "--d",
            "0",
            "--eps",
            "1.0",
            "--params",
            write_json(params),
        )
        assert code == 0
        assert json.loads(out)["codebook_size"] == 0

    def test_rn_exact_above_table_budget_exit_four(self, capsys, write_json):
        # n = 5 needs 2^25 cells for one source graph; an n = 4 family with all 65 536 graphs 2^32
        family = ("--params", write_json({"a": [0] * 4, "b": [0] * 4}))
        for spec, extra in (({"r": [1] * 5, "c": [1] * 5}, ()), ({"r": [1] * 4, "c": [1] * 4}, family)):
            code = main(["rn-exact", "--type", write_json(spec), "--d", "0", *extra])
            captured = capsys.readouterr()
            assert code == 4 and captured.out == ""
            assert captured.err.startswith("resource limit: exact_rn")
            assert "candidate x source cells, over its budget of 8388608" in captured.err

    def test_rn_exact_n4_needs_no_flag(self, capsys, write_json):
        # the bytes the oracle printed at n = 4 when a flag had to admit it
        code = main(["rn-exact", "--type", write_json({"r": [2, 1, 1, 0], "c": [1, 2, 0, 1]}), "--d", "1/4"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "6bd7148aff14453fdd6f43bf8dda11b540dd182df3cfd88b6e7eb0f459f5f190"
        )

    def test_rn_exact_params_dimension_mismatch_exit_two(self, capsys, write_json):
        params = write_json({"a": [0, 0], "b": [0, 0]})
        argv = ["rn-exact", "--type", write_json(PERMUTATIONS_3), "--params", params, "--d", "1/3"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "dimension mismatch" in captured.err

    def test_rn_exact_params_pinned_bytes(self, capsys, write_json):
        # n = 3 parameters drawn once with random.Random(7); the exact oracle must print these bytes
        params = {"a": [-0.705, -1.397, 0.604], "b": [-1.71, 0.144, -0.537]}
        argv = ["rn-exact", "--type", write_json({"r": [1, 1, 1], "c": [1, 1, 1]})]
        argv += ["--params", write_json(params), "--d", "1/3", "--eps", "0.25"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out == (
            '{"codebook": [{"adj": [[1, 1, 1], [1, 1, 1], [1, 0, 0]], "n": 3}, '
            '{"adj": [[1, 0, 1], [1, 1, 1], [1, 1, 0]], "n": 3}, '
            '{"adj": [[1, 1, 1], [1, 1, 1], [1, 0, 1]], "n": 3}], '
            '"codebook_size": 3, "rate_bits": 0.1761069445245729}\n'
        )

    def test_rn_exact_params_weak_bound_instance_pinned_bytes(self, capsys, write_json):
        # a 4-word codebook that once took 10 s under a bound blind to covered mass
        params = {"a": [1.173, 1.288, -0.06], "b": [-0.954, -1.998, 0.651]}
        argv = ["rn-exact", "--type", write_json(PERMUTATIONS_3)]
        argv += ["--params", write_json(params), "--d", "1/3", "--eps", "0.25"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out == (
            '{"codebook": [{"adj": [[1, 1, 0], [0, 1, 0], [0, 1, 0]], "n": 3}, '
            '{"adj": [[0, 0, 0], [0, 0, 0], [1, 1, 0]], "n": 3}, '
            '{"adj": [[0, 1, 0], [1, 1, 0], [1, 1, 0]], "n": 3}, '
            '{"adj": [[1, 1, 0], [0, 1, 0], [1, 1, 1]], "n": 3}], '
            '"codebook_size": 4, "rate_bits": 0.2222222222222222}\n'
        )

    @pytest.mark.parametrize("flag", ["--rn-limit", "--limit"])
    def test_rn_exact_size_flags_are_usage_errors(self, capsys, write_json, flag):
        # the table's own size rule replaced both flags
        with pytest.raises(SystemExit) as exc:
            main(["rn-exact", "--type", write_json(PERMUTATIONS_3), "--d", "0", flag, "4"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {flag} 4" in captured.err

    def test_rn_exact_refuses_n_before_enumerating(self, capsys, write_json, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the class was enumerated")

        monkeypatch.setattr(enumeration, "_members", refuse)
        t = write_json({"r": [2] * 5, "c": [2] * 5})
        for extra in ((), ("--params", write_json({"a": [0] * 5, "b": [0] * 5}))):
            code = main(["rn-exact", "--type", t, "--d", "0", *extra])
            captured = capsys.readouterr()
            assert code == 4 and captured.out == ""
            assert "2^25 x 1 = 33554432 candidate x source cells" in captured.err

    def test_rn_exact_params_does_not_enumerate(self, capsys, write_json, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the class was enumerated")

        monkeypatch.setattr(enumeration, "enumerate_class", refuse)
        params = write_json({"a": [0, 0], "b": [0, 0]})
        t = write_json(REGULAR_PAIR)
        code, out = run(capsys, "rn-exact", "--type", t, "--params", params, "--d", "0")
        assert code == 0 and json.loads(out)["codebook_size"] == 16
        code = main(["rn-exact", "--type", write_json(INFEASIBLE), "--params", params, "--d", "0"])
        assert code == 1 and "empty class" in capsys.readouterr().err

    def test_rd_bounds_above_limit_exit_four(self, capsys, write_json):
        t = write_json({"r": [3] * 7, "c": [3] * 7})
        code = main(["rd-bounds", "--type", t, "--xi", "0", "--delta", "0.2"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "limit 6" in captured.err

    def test_rd_bounds_measures_gap_within_raised_limit(self, capsys, write_json):
        t = write_json({"r": [3] * 7, "c": [3] * 7})
        code, out = run(capsys, "rd-bounds", "--type", t, "--xi", "0", "--delta", "0.2", "--limit", "7")
        assert code == 0
        assert json.loads(out)["upper"]["slack_terms"]["counting_gap"] > 0

    @pytest.mark.parametrize(
        "spec, xi, rd_sha, cover_sha",
        [
            (PERMUTATIONS_3, "1/3", "9a350de5302ca3d2c02f12cc830ecbeacc6842882de7a0d3a347f918b4e8b9ad",
             "fcf95753498efb0770a83970ae2253bbae81eb07ad8e596d6951c34260960da4"),
            ({"r": [2, 1, 0], "c": [1, 1, 1]}, "2/3",
             "1fc1cbc839f0e4c07afef858b1348d6454dfc4c7324b9d1e700efb3533815761",
             "efc130682445f86619338f5a4be87caa6f3f9102288575f08202a759060a4f7d"),
            ({**PERMUTATIONS_3, "w": NO_LOOPS_3}, "1/3",
             "30c876769d90d5f31a2e54d097b04151ec0059e981c72ac6e81e104d2eab8765",
             "01d757a1eb8bab1a1def14e97cbabe0b428e0487fb97b33d4a92ac73a4ca8658"),
            ({"r": [2, 1, 1, 0], "c": [1, 1, 1, 1]}, "1/4",
             "206dcd6024e94c48a80eddbcc1212070ca481c1592caca321096c4f6521da937",
             "7df835d0b00dc1b88f663b0e0fe9ebe3e2af70d3d911ec2dbc7a94cb150b365a"),
        ],
    )
    def test_rd_bounds_and_cover_pinned_bytes(self, capsys, write_json, cold_memo, spec, xi, rd_sha, cover_sha):
        # the types of test_ratedistortion.TestRDBoundsOnePass; the sha256 of each stdout is pinned,
        # first with the memo of class facts empty, then with it warmed by other classes
        t = write_json(spec)
        for warm in (False, True):
            if warm:
                for argv in MEMO_WARMERS:
                    assert main([argv[0], "--type", write_json(argv[1]), *argv[2:]]) == 0
                capsys.readouterr()
            for argv, sha in (
                (["rd-bounds", "--type", t, "--xi", xi, "--delta", "0.25", "--delta-hat", "0.2"], rd_sha),
                (["cover", "--type", t, "--xi", xi, "--delta", "0.25"], cover_sha),
            ):
                code = main(argv)
                captured = capsys.readouterr()
                assert code == 0 and captured.err == ""
                assert hashlib.sha256(captured.out.encode()).hexdigest() == sha

    @pytest.mark.parametrize(
        "spec, shas",
        [
            (PERMUTATIONS_3, ("8e2be30893042bb0e6ee68f8f3b8b69f7bc19281e68e77c03d9cc01362b45cc4",
                              *["0808d385ba9335f76ccc03a510cb0b6f12f5b4eb05b516a9cf8ea9d1d7ed0561"] * 3)),
            ({"r": [2, 1, 0], "c": [1, 1, 1]},
             ("7eef8ce7f783b56e99ecc67bc532b99fbe6143aa2d65e99f9fbbc1908a3c0d50",
              "6c5979e81820759c0e0cb4d8d536b7efcfce28333049a6647ba6f742a5ab7176",
              *["0808d385ba9335f76ccc03a510cb0b6f12f5b4eb05b516a9cf8ea9d1d7ed0561"] * 2)),
            ({"r": [2, 1, 1], "c": [1, 2, 1]},
             ("fe8c6334b04297c053fe99682891a1375812d709eed8817e0efbcdb273def44b",
              "b8b031aafed82c51490f14ab4be4ed7a77dde5c97c3adee8d43f4f13c5b8470e",
              *["0808d385ba9335f76ccc03a510cb0b6f12f5b4eb05b516a9cf8ea9d1d7ed0561"] * 2)),
        ],
    )
    def test_rn_exact_pinned_bytes(self, capsys, write_json, spec, shas):
        # the sha256 of each stdout at d = 0, 1/3, 2/3, 1 (at d >= 2/3 one empty codeword covers all)
        t = write_json(spec)
        for d, sha in zip(("0", "1/3", "2/3", "1"), shas):
            code = main(["rn-exact", "--type", t, "--d", d])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            assert hashlib.sha256(captured.out.encode()).hexdigest() == sha

    @pytest.mark.parametrize(
        "a, b, eps, sha",
        [
            # families drawn as round(random.Random(seed).uniform(-2, 2), 3), a then b, at seeds 8 and 1
            ([-1.093, 1.849, -1.495], [0.819, -1.659, -1.01], "0.1",
             "593217404747894780a9bd338194d5bd15ac02a3d46e9b98e70e452904215ea1"),
            ([-1.463, 1.39, 1.055], [-0.98, -0.018, -0.202], "0.25",
             "2df2973d2cefe2ce6cb5f649278163a2a89c2c77bd07dfb058874c33ed267dc0"),
        ],
    )
    def test_rn_exact_params_seeded_pinned_bytes(self, capsys, write_json, a, b, eps, sha):
        # two 4-word weighted covers at d = 1/3
        argv = ["rn-exact", "--type", write_json(PERMUTATIONS_3), "--params", write_json({"a": a, "b": b})]
        code = main([*argv, "--d", "1/3", "--eps", eps])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == sha

    def test_xi_above_one_scans_the_budgets_of_xi_one(self, capsys, write_json):
        # no distortion exceeds 1: the budgets stop at n, the slack terms keep Xi
        t = write_json(PERMUTATIONS_3)
        reports = {}
        for xi in ("1", "5"):
            code, out = run(capsys, "rd-bounds", "--type", t, "--xi", xi)
            assert code == 0
            reports[xi] = json.loads(out)
        for kind in ("upper", "lower"):
            terms = [reports[xi][kind]["slack_terms"] for xi in ("1", "5")]
            assert terms[0]["entropy_difference"] == terms[1]["entropy_difference"]
            assert terms[0]["omega_count"] != terms[1]["omega_count"]
        code, out = run(capsys, "cover", "--type", t, "--xi", "5")
        assert code == 0 and json.loads(out)["covers"] is True

    @pytest.mark.parametrize(
        "spec",
        [
            INFEASIBLE,
            {"r": [1, 1], "c": [1, 0]},
            # passes the necessary condition; a member search finds the class empty
            {**PERMUTATIONS_3, "w": {"n": 3, "adj": [[1, 1, 0]] * 3}},
        ],
    )
    @pytest.mark.parametrize("xi", ["0", "1/2"])
    @pytest.mark.parametrize("argv", [("rd-bounds",), ("cover",), ("cover", "--m", "3")])
    def test_empty_class_exit_one(self, capsys, write_json, spec, xi, argv):
        code = main([argv[0], "--type", write_json(spec), "--xi", xi, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "empty class" in captured.err


class TestMemberLines:
    """`enumerate` and `conditional` write each member from its bitmask; the
    bytes must be the `graph_json` lines of the library's DiGraph stream."""

    @staticmethod
    def lines(graphs):
        return "".join(json.dumps(graph_json(g), sort_keys=True) + "\n" for g in graphs)

    @staticmethod
    def flags(delta, dens):
        return [*(["--delta", str(delta)] if delta else []), *(["--dens", str(dens)] if dens else [])]

    @pytest.mark.parametrize(
        "spec, delta, dens",
        [
            (PERMUTATIONS_3, 0.0, None),
            ({"r": [4, 2, 1, 0], "c": [2, 2, 2, 1]}, 0.5, None),
            ({"r": [1], "c": [1]}, 0.0, None),
            ({"r": [0], "c": [0]}, 1.5, 1),
            ({**PERMUTATIONS_3, "w": NO_LOOPS_3}, 0.0, None),
            ({"r": [2, 1, 1], "c": [1, 2, 1], "w": NO_LOOPS_3}, 0.6, None),
        ],
        ids=["plain", "delta", "n1", "n1-delta", "restricted", "restricted-delta"],
    )
    def test_enumerate(self, capsys, write_json, spec, delta, dens):
        t = parse_type(spec)
        code, out = run(capsys, "enumerate", "--type", write_json(spec), *self.flags(delta, dens))
        want = self.lines(enumeration.enumerate_delta_class(t, delta, dens or t.density()))
        assert code == 0 and out and first_difference(out, want) is None

    def test_enumerate_empty_class(self, capsys, write_json):
        code = main(["enumerate", "--type", write_json(INFEASIBLE)])
        captured = capsys.readouterr()
        assert code == 0 and captured.out == captured.err == ""

    @pytest.mark.parametrize(
        "spec, ref, delta",
        [
            (PERMUTATIONS_3, [[1, 1, 0], [0, 0, 1], [1, 0, 0]], 0.0),
            ({"r": [1, 0, 1], "c": [0, 1, 1]}, [[1, 1, 0], [0, 0, 1], [1, 0, 1]], 0.5),
            ({**PERMUTATIONS_3, "w": NO_LOOPS_3}, [[0, 1, 1], [0, 0, 1], [1, 0, 0]], 0.0),
        ],
        ids=["plain", "delta", "restricted"],
    )
    def test_conditional(self, capsys, write_json, spec, ref, delta):
        t, g = parse_type(spec), DiGraph(ref)
        argv = ["--type", write_json(spec), "--graph", write_json(graph_json(g)), *self.flags(delta, None)]
        code, out = run(capsys, "conditional", *argv)
        want = self.lines(enumeration.enumerate_conditional(t, g, delta, t.density()))
        assert code == 0 and out and first_difference(out, want) is None


class TestBadNumbers:
    """Numeric flags outside their domain exit 2 before any work is done."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cover", "--xi", "1/0"],
            ["rd-bounds", "--xi", "1/0"],
            ["rn-exact", "--d", "1/0"],
            ["maxent", "--tol", "-1"],
            ["maxent", "--tol", "nan"],
            ["bounds", "--tol", "-1"],
            ["delta", "--delta", "0", "--tol", "nan"],
            ["rd-bounds", "--xi", "1/3", "--tol", "-1"],
        ],
        ids=lambda argv: "_".join(argv).replace("--", ""),
    )
    def test_usage_error(self, capsys, write_json, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--type", write_json(PERMUTATIONS_3)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument {argv[-2]}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--delta", "nan"],
            ["delta", "--delta", "nan"],
            ["conditional", "--delta", "nan", "--graph", {"n": 3, "adj": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
            ["cover", "--delta", "nan", "--xi", "1/3"],
            ["rd-bounds", "--delta", "nan", "--xi", "1/3"],
            ["rd-bounds", "--delta-hat", "nan", "--xi", "1/3"],
        ],
        ids=lambda argv: "-".join(argv[:2]).replace("--", ""),
    )
    def test_nan_delta(self, capsys, write_json, argv):
        argv = [write_json(a) if isinstance(a, dict) else a for a in argv]
        code = main([*argv, "--type", write_json(PERMUTATIONS_3)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "delta must be nonnegative" in captured.err

    @pytest.mark.parametrize("eps", ["-0.1", "nan"])
    def test_rn_exact_bad_eps(self, capsys, write_json, eps):
        # eps < 0 makes the need exceed the whole mass: no codebook can meet it
        params = write_json({"a": [0, 0, 0], "b": [0, 0, 0]})
        argv = ["rn-exact", "--type", write_json(PERMUTATIONS_3), "--d", "1/3", "--params", params]
        code = main([*argv, "--eps", eps])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "eps must be nonnegative" in captured.err

    def test_negative_m_exit_two(self, capsys, write_json):
        code = main(["cover", "--type", write_json(PERMUTATIONS_3), "--xi", "0", "--m", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "invalid input: m must be nonnegative\n"

    def test_rn_exact_eps_needs_params(self, capsys, write_json):
        code = main(["rn-exact", "--type", write_json(REGULAR_PAIR), "--d", "0", "--eps", "0.5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--eps needs --params" in captured.err


class TestParserReuse:
    """main builds its parser once; no call may see the arguments of the one before."""

    @staticmethod
    def fresh(capsys, *argv):
        _build_parser.cache_clear()
        return run(capsys, *argv)

    def test_enumerate_delta_then_plain(self, capsys, write_json):
        t = write_json({"r": [3, 0, 0], "c": [1, 1, 1]})
        widened = run(capsys, "enumerate", "--type", t, "--delta", "0.5")
        plain = run(capsys, "enumerate", "--type", t)
        assert plain == self.fresh(capsys, "enumerate", "--type", t)
        assert widened == self.fresh(capsys, "enumerate", "--type", t, "--delta", "0.5")
        assert plain != widened

    def test_cover_m_then_default(self, capsys, write_json):
        t = write_json(REGULAR_PAIR)
        drawn = run(capsys, "cover", "--type", t, "--xi", "0", "--m", "3")
        lemma = run(capsys, "cover", "--type", t, "--xi", "0")
        assert lemma == self.fresh(capsys, "cover", "--type", t, "--xi", "0")
        assert drawn == self.fresh(capsys, "cover", "--type", t, "--xi", "0", "--m", "3")
        assert drawn != lemma

    def test_usage_error_then_valid_call(self, capsys, write_json):
        t = write_json(REGULAR_PAIR)
        run(capsys, "count", "--type", t)  # the parser is built
        with pytest.raises(SystemExit) as exc:
            main(["count", "--type", t, "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "count", "--type", t) == self.fresh(capsys, "count", "--type", t)

    def test_parser_built_once(self):
        main_parser = _build_parser()
        assert _build_parser() is main_parser


class TestErrorHandling:
    def test_malformed_json_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _ = run(capsys, "feasible", "--type", str(bad))
        assert code == 2

    def test_missing_file_exit_two(self, capsys):
        code, _ = run(capsys, "feasible", "--type", "/nonexistent.json")
        assert code == 2

    def test_wrong_schema_exit_two(self, capsys, write_json):
        code, _ = run(capsys, "feasible", "--type", write_json({"rows": [1]}))
        assert code == 2

    def test_n_field_mismatch_exit_two(self, capsys, write_json):
        g = write_json({"n": 3, "adj": [[1, 1], [1, 0]]})
        code, _ = run(capsys, "distortion", "--graph", g, "--graph2", g)
        assert code == 2

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ({"r": [1.7, 1, 1], "c": [1, 1, 1]}, "degree 1.7 is not an integer"),
            ({"r": [True, 1, 1], "c": [1, 1, 1]}, "degree True is not an integer"),
            ({**PERMUTATIONS_3, "w": {"n": 3, "adj": [[1, 1, 0.5], [1, 1, 1], [1, 1, 1]]}},
             "adjacency entry 0.5 is not 0 or 1"),
        ],
        ids=["fractional-degree", "boolean-degree", "fractional-w-entry"],
    )
    def test_inexact_input_exit_two(self, capsys, write_json, spec, fragment):
        # each was once read by truncation: count printed 6, 6 and 4 and exited 0
        code = main(["count", "--type", write_json(spec)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("invalid input: ") and fragment in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            (cmd, "--type", ZERO_VERTICES, *extra)
            for cmd, *extra in [
                ("feasible",),
                ("normalize",),
                ("structure",),
                ("invariants",),
                ("components",),
                ("count",),
                ("enumerate",),
                ("interchange-check",),
                ("maxent",),
                ("bounds",),
                ("prob", "--params", {"a": [], "b": []}),
                ("delta", "--delta", "0"),
                ("conditional", "--graph", {"n": 0, "adj": []}),
                ("cover", "--xi", "0"),
                ("rd-bounds", "--xi", "0"),
                ("rn-exact", "--d", "0"),
            ]
        ]
        + [("sanov", "--params", {"a": [], "b": []}, "--types", ZERO_VERTICES)],
    )
    def test_zero_vertices_exit_two(self, capsys, write_json, argv):
        code = main([write_json(a) if isinstance(a, dict) else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "n >= 1" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--type", {"r": ["empty", 1, 1], "c": [1, 1, 1]}),
            ("prob", "--type", PERMUTATIONS_3, "--params", {"a": ["empty", 0, 0], "b": [0, 0, 0]}),
        ],
        ids=["count", "prob"],
    )
    def test_bad_literal_saying_empty_exit_two(self, capsys, write_json, argv):
        # exit 1 follows the error's type, not its text
        code = main([write_json(a) if isinstance(a, dict) else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("invalid input: ") and "'empty'" in captured.err

    def test_empty_codebook_exit_one(self, capsys, write_json):
        code = main(["cover", "--type", write_json(PERMUTATIONS_3), "--xi", "0", "--m", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "empty result: empty codebook\n"

    @pytest.mark.parametrize(
        "call",
        [
            lambda t, _: invariant_positions(t),
            lambda _, t: enumeration.invariants_by_enumeration(t),
            lambda t, _: enumeration.interchange_reach(t),
            lambda _, t: ratedistortion.delta_class_cardinality_bounds(t, 0.0, 1),
            lambda _, t: ratedistortion.rd_bounds(t, 0, 0.0, 0.0),
            lambda _, t: ratedistortion.build_cover_random(t, 0, 0.0),
            lambda t, _: ratedistortion.verify_cover(ratedistortion.Codebook((), None, 0, "none"), t, 0),
        ],
        ids=["staircase", "invariants_by_enumeration", "interchange_reach", "delta_bounds",
             "covering_scan", "build_cover_random", "verify_cover"],
    )
    def test_empty_answers_raise_empty_result(self, call):
        unrestricted = parse_type(INFEASIBLE)
        restricted = parse_type({**PERMUTATIONS_3, "w": {"n": 3, "adj": [[1, 1, 0]] * 3}})
        with pytest.raises(EmptyResult, match="^empty "):
            call(unrestricted, restricted)

    @pytest.mark.parametrize(
        "flag",
        [
            ("count", "--format", "csv"),
            ("count", "--format", "json"),
            ("count", "--jobs", "2"),
            ("normalize", "--tol", "1"),
            ("count", "--tol", "1"),
            ("distortion", "--limit", "3"),
            ("count", "--limit", "7"),
        ],
    )
    def test_removed_flags_rejected(self, capsys, write_json, flag):
        cmd, *flag = flag
        g = write_json({"n": 2, "adj": [[1, 1], [1, 0]]})
        inputs = {"distortion": ["--graph", g, "--graph2", g]}
        with pytest.raises(SystemExit) as exc:
            main([cmd, *inputs.get(cmd, ["--type", write_json(REGULAR_PAIR)]), *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err


# The long options of each subcommand besides --out, which all of them take.
LONG_OPTIONS = {
    "feasible": {"type"},
    "normalize": {"type"},
    "structure": {"type"},
    "invariants": {"type"},
    "components": {"type"},
    "count": {"type"},
    "enumerate": {"type", "limit", "delta", "dens"},
    "interchange-check": {"type", "limit"},
    "maxent": {"type", "tol"},
    "bounds": {"type", "tol", "limit"},
    "prob": {"type", "params", "tol", "limit"},
    "sanov": {"params", "types", "tol", "limit"},
    "delta": {"type", "tol", "delta", "dens"},
    "conditional": {"type", "graph", "limit", "delta", "dens"},
    "distortion": {"graph", "graph2"},
    "cover": {"type", "tol", "limit", "xi", "delta", "dens", "m", "seed"},
    "rd-bounds": {"type", "tol", "limit", "xi", "delta", "delta-hat", "dens"},
    "rn-exact": {"type", "params", "d", "eps"},
}


class TestFlags:
    """Each subcommand takes exactly the flags it reads."""

    @staticmethod
    def subcommands():
        return next(a for a in _build_parser()._actions if a.dest == "command").choices

    @pytest.mark.parametrize("name", LONG_OPTIONS)
    def test_long_options(self, name):
        actions = self.subcommands()[name]._actions
        got = {s[2:] for a in actions for s in a.option_strings if s.startswith("--")}
        assert got == LONG_OPTIONS[name] | {"out", "help"}

    def test_every_subcommand_listed(self):
        assert set(self.subcommands()) == set(LONG_OPTIONS)

    def test_readme_synopsis_lists_each_flag(self):
        """Each `edgetype <cmd>` line of README's CLI synopsis names exactly
        the long options the parser gives that subcommand, besides --out."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        cli = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        block = cli.split("```sh\n", 1)[1].split("```", 1)[0]
        listed = {}
        for line in block.splitlines():
            if line.startswith("edgetype "):
                synopsis = line.split("#", 1)[0]
                listed[synopsis.split()[1]] = set(re.findall(r"--([a-z][a-z0-9-]*)", synopsis))
        assert set(listed) == set(self.subcommands())
        for name, sp in self.subcommands().items():
            got = {s[2:] for a in sp._actions for s in a.option_strings if s.startswith("--")}
            assert listed[name] == got - {"out", "help"}, name


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, write_json):
        t = write_json({"r": [2, 1, 0], "c": [1, 1, 1]})
        outs = set()
        for _ in range(3):
            code, out = run(capsys, "maxent", "--type", t)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_byte_identical_in_fresh_processes(self, write_json):
        # n = 400 is where p's last digits once looked run-dependent; BLAS threads are left unpinned
        t = gnp_type(400, 400, 0.5)
        path = write_json({"r": list(t.r), "c": list(t.c)})
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(edgetype.__file__))}
        argv = [sys.executable, "-m", "edgetype.cli", "maxent", "--type", path]
        runs = [subprocess.run(argv, env=env, capture_output=True, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout.startswith(b'{"alpha": ')

    def test_out_file_matches_stdout(self, capsys, write_json, tmp_path):
        t = write_json(REGULAR_PAIR)
        dest = tmp_path / "result.json"
        code, out = run(capsys, "count", "--type", t, "--out", str(dest))
        assert code == 0 and out == ""
        code2, stdout = run(capsys, "count", "--type", t)
        assert dest.read_text(encoding="utf-8") == stdout
