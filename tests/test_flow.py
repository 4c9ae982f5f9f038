"""The restricted-W analysis by one 0/1 flow (`typealg.flow_feasible`,
`typealg.flow_invariants`, `typealg.components_from_masks`) and the
counting DP, against the enumeration oracles; and the CLI bytes of the
restricted queries, pinned."""

import hashlib
import json
import random

import numpy as np
import pytest

from edgetype import enumeration
from edgetype.cli import main
from edgetype.enumeration import (
    class_nonempty,
    components_by_enumeration,
    count_class,
    invariants_by_enumeration,
    partition_by_type,
)
from edgetype.graphs import DiGraph
from edgetype.typealg import (
    EdgeType,
    EmptyResult,
    components_from_masks,
    components_from_structure,
    flow_feasible,
    flow_invariants,
    invariant_positions,
    normalize,
)


def mask_bytes(masks):
    return tuple(m.adj.tobytes() for m in (masks.inv1, masks.inv0, masks.free))


def realisable(n):
    """(W bitmask, {(r, c): members inside W}) for every W on n vertices,
    from one sweep of all 2^(n^2) graphs."""
    buckets = partition_by_type(n)
    for wbits in range(1 << n * n):
        inside = {}
        for rc, bits in buckets.items():
            members = [b for b in bits if b & ~wbits == 0]
            if members:
                inside[rc] = members
        yield wbits, inside


def member_masks(n, members):
    """The invariant-1, invariant-0 and free cells of a list of bitmask
    members, as row-major bitmasks."""
    inv1, union = -1, 0
    for bits in members:
        inv1 &= bits
        union |= bits
    full = (1 << n * n) - 1
    return inv1 & full, full & ~union, union & ~inv1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flow_equals_oracles_on_every_realisable_pair(n):
    """Every W, every pair realisable inside it: the flow's answers against
    the members found by sweeping all 2^(n^2) graphs; the library's
    enumeration oracles on every W at n <= 2 and a seeded eighth at n = 3."""
    rng = random.Random(f"realisable:{n}")
    checked = 0
    for wbits, inside in realisable(n):
        w = DiGraph.from_bits(n, wbits)
        oracles = n < 3 or rng.random() < 0.125
        for (r, c), members in inside.items():
            t = EdgeType(r, c, w)
            masks = flow_invariants(t)
            assert class_nonempty(t)
            got = (masks.inv1.to_bits(), masks.inv0.to_bits(), masks.free.to_bits())
            assert got == member_masks(n, members), (r, c, wbits)
            assert count_class(t) == len(members), (r, c, wbits)
            if oracles:
                assert mask_bytes(masks) == mask_bytes(invariants_by_enumeration(t))
                assert components_from_masks(masks) == components_by_enumeration(t)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unrealisable_pairs_are_empty_on_both_sides(n):
    rng = random.Random(f"unrealisable:{n}")
    sweep = list(realisable(n))
    for wbits, inside in sweep if n < 3 else rng.sample(sweep, 24):
        w = DiGraph.from_bits(n, wbits)
        for r in np.ndindex(*(n + 1,) * n):
            for c in np.ndindex(*(n + 1,) * n):
                if (r, c) in inside or sum(r) != sum(c):
                    continue
                t = EdgeType(r, c, w)
                assert not class_nonempty(t) and not flow_feasible(t)
                for analysis in (flow_invariants, invariants_by_enumeration):
                    with pytest.raises(EmptyResult):
                        analysis(t)
                assert count_class(t) == 0


def seeded_restricted(n, count):
    """Nonempty restricted classes at n: the type of a seeded random graph
    inside a seeded W with about three quarters of the cells."""
    rng = random.Random(f"flow-seeded:{n}")
    for _ in range(count):
        w = DiGraph.from_bits(n, rng.getrandbits(n * n) | rng.getrandbits(n * n))
        yield EdgeType.of_graph(DiGraph.from_bits(n, rng.getrandbits(n * n) & w.to_bits()), w)


@pytest.mark.parametrize("n, count", [(4, 40), (5, 25), (6, 8)])
def test_flow_equals_oracles_on_seeded_w(n, count):
    for t in seeded_restricted(n, count):
        masks = flow_invariants(t)
        assert mask_bytes(masks) == mask_bytes(invariants_by_enumeration(t)), (t.r, t.c)
        assert components_from_masks(masks) == components_by_enumeration(t)
        assert count_class(t) == sum(1 for _ in enumeration._members(t, enumeration.DEFAULT_LIMIT))


def test_flow_with_w_complete_is_the_staircase():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 31))
        t = EdgeType.of_graph(DiGraph(rng.random((n, n)) < rng.random()))
        assert mask_bytes(flow_invariants(t)) == mask_bytes(invariant_positions(t)), (t.r, t.c)
        # the corner rule reads positions, so the blocks agree on sorted degrees
        sorted_t = normalize(t)[0]
        assert components_from_masks(flow_invariants(sorted_t)) == components_from_structure(sorted_t)


def test_flow_answers_where_enumeration_cannot():
    # 3-regular with no loops at n = 40: the flow's masks leave every allowed cell free
    n = 40
    w = DiGraph(1 - np.eye(n, dtype=np.uint8))
    masks = flow_invariants(EdgeType((3,) * n, (3,) * n, w))
    assert masks.free == w and masks.inv0 == DiGraph(np.eye(n, dtype=np.uint8))
    # rows 0 and 1 need 4 ones from the 3 columns W leaves them, each of degree 1
    r, c = (2, 2) + (1,) * (n - 2), (2, 2) + (1,) * (n - 2)
    adj = np.ones((n, n), dtype=np.uint8)
    adj[:2, : n - 3] = 0
    assert flow_feasible(EdgeType(r, c)) and not flow_feasible(EdgeType(r, c, DiGraph(adj)))


class TestCountDP:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_rows_out_of_degree_order(self, n):
        rng = random.Random(f"dp-order:{n}")
        shuffled = 0
        for t in seeded_restricted(n, 12):
            order = list(range(n))
            rng.shuffle(order)
            rows = EdgeType(tuple(t.r[i] for i in order), t.c, DiGraph(t.w.adj[order]))
            shuffled += list(rows.r) != sorted(rows.r, reverse=True)
            members = sum(1 for _ in enumeration._members(rows, enumeration.DEFAULT_LIMIT))
            assert count_class(rows) == members, (rows.r, rows.c)
        assert shuffled > 0

    @pytest.mark.parametrize("n, size", [(4, 90), (5, 2040), (6, 67950)])
    def test_two_regular_is_a001499(self, n, size):
        assert count_class(EdgeType((2,) * n, (2,) * n)) == size

    def test_three_regular_n8(self):
        assert count_class(EdgeType((3,) * 8, (3,) * 8)) == 24046189440


def pin_types():
    """(name, type JSON) of the pinned restricted types: nine seeded types at
    n = 4-6, each the degree pair of a random graph inside a random W (rows
    in vertex order, seldom in degree order), a loop-free W, an empty class
    and rows in increasing degree order."""
    rng = random.Random("flow-pins")
    types = []
    for k in range(9):
        n = 4 + k % 3
        w = [[int(rng.random() < 0.75) for _ in range(n)] for _ in range(n)]
        g = [[int(w[i][j] and rng.random() < 0.5) for j in range(n)] for i in range(n)]
        rc = {"r": [sum(row) for row in g], "c": [sum(col) for col in zip(*g)]}
        types.append((f"seeded-{k}", {**rc, "w": {"n": n, "adj": w}}))
    no_loops = [[int(i != j) for j in range(5)] for i in range(5)]
    types.append(("loop-free", {"r": [2] * 5, "c": [2] * 5, "w": {"n": 5, "adj": no_loops}}))
    one_cell = [[1, 0, 0, 0]] + [[1] * 4] * 3
    types.append(("empty", {"r": [2, 1, 1, 0], "c": [1, 1, 1, 1], "w": {"n": 4, "adj": one_cell}}))
    holes = [[int((i + 2 * j) % 5 != 0) for j in range(6)] for i in range(6)]
    types.append(
        ("ascending-rows", {"r": [1, 1, 2, 2, 3, 3], "c": [3, 2, 2, 2, 2, 1], "w": {"n": 6, "adj": holes}})
    )
    return types


# (exit code, sha256 of stdout, stderr) of each of COMMANDS on each pinned
# type, recorded when the restricted queries still enumerated the class.
COMMANDS = ("feasible", "invariants", "components", "maxent", "count")
PINS = {
    "seeded-0": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "3fd56bf50361f7559d8ff128d324a920b243ee3aed4bd8ad7fe93538a47965a9", ""),
        (0, "191fb995ca8817c8bc6738b573c44670af081f74dbd5d0db4ae70b4242cec745", ""),
        (0, "9b00c705ecc08d246e8ffe99a1aa3712871f00b47225e526a1203ac892b81f78", ""),
        (0, "7ddc02625fc57a08ca6b137f68e9007867b76c75d2588e9e5c7dfa41b6f3d96e", ""),
    ],
    "seeded-1": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "71845d1e9e6c19bcc5a7955cc4704f3d5521eb9c4d97d716a19849a2ca430759", ""),
        (0, "f6e108c26bdcc1f9c3ee897cf5135cc95bf0aeba2c86fd6cab3789fc428fe0d0", ""),
        (0, "a975eee81ab9a2f69613f389e1b6e94bbbd5e4c754dbd6fa90a85a9926771352", ""),
        (0, "0f41da1d80063b759f31b109c5a59828d7b26bf96dd21b73efadf449985a32e3", ""),
    ],
    "seeded-2": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "90c17f628bf8d689f89b74b44b603fe7bf0e49841d34e6c14a79c039ce387ac4", ""),
        (0, "f15c97203c7a0c181701674f9049ab4b02105fb9959b296238f7c4e3af16c68f", ""),
        (0, "5afec8f2399ead75696fed125cdc162f91783a7a4a639ffb9f5fd9b76e29f9a6", ""),
        (0, "f93f744a2cbe5040b9fc9318a0b4bdb62526f914af21014b8826d706269a43a3", ""),
    ],
    "seeded-3": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "a2cb7e9e51ce30879694c022320b787b94665332c6629eea7cf94b65d74ecad7", ""),
        (0, "ccefd657ea9633a405a35724a9ee4da6d6882b9ae6df875ef3142c20c61fd6f6", ""),
        (0, "6c2d431a5a65d9e98723f8cbfc414da4ca310a32e70611af7a48c521c466002c", ""),
        (0, "d58c7d809bd892e0bc2e3a927407ebf87d8f46381061013bc3ad6446b94bd1fc", ""),
    ],
    "seeded-4": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "dd46af9cf0e5d43479a8abf1889a8edd7f4dfca2a700e79d95dc4eb1c5cf383a", ""),
        (0, "f6e108c26bdcc1f9c3ee897cf5135cc95bf0aeba2c86fd6cab3789fc428fe0d0", ""),
        (0, "3afe97fb361995cc556be9bc626125f7c105db45fec433e0ebfdd4ef81817875", ""),
        (0, "386a7dbdc927cbf76d42f11a7f376fddefbeeb3fe2cb473cf972ce54ae108642", ""),
    ],
    "seeded-5": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "e745e12fc304256483872aa662402867529b4980d3adf7212768dacdad405e21", ""),
        (0, "85a28d171732f7bb4bd17bf2723d484e1cddfe1a5efe58c25be6f17b615667bd", ""),
        (0, "de4bccf7ed66763c04df184d6b2db8c059fc71eb03b3e6edbb9825c2bab1c686", ""),
        (0, "687de47e209a8cf6010eb71bd7670a55a36f1777634938d10001ee67d295d7d9", ""),
    ],
    "seeded-6": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "9364cc366dac83d407b61ae4298eacb77a7d9adb96c82c69251eef76fe96755f", ""),
        (0, "8209848f047b88db63e178e0fc8b81a148128f2590e74cdf4f1c72ac214ee0c2", ""),
        (0, "a00eca38575a95fac2babf3ea0fbeed0e75675ac55b02df46adacfda72847d71", ""),
        (0, "d58c7d809bd892e0bc2e3a927407ebf87d8f46381061013bc3ad6446b94bd1fc", ""),
    ],
    "seeded-7": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "ca60a25c96037910438ebca65b223769697f8cca1337d5cec1f8e1f9d0176ef7", ""),
        (0, "f6e108c26bdcc1f9c3ee897cf5135cc95bf0aeba2c86fd6cab3789fc428fe0d0", ""),
        (0, "0bbf98d2f5b2d2800774bd7274def754b1294fe1d9d0a504a53bcd061e704bc8", ""),
        (0, "49ff8c45dbd97d15c7ea7b4334765ea5eb528cbcf0fe3d9fdb640b885c9d4d23", ""),
    ],
    "seeded-8": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "453d43706afed38e033bb5650e004d7c808a34b4adec12f041cc4c8498a6b3a3", ""),
        (0, "3584767e8f3b2b51759957fa2f21e60dddfa6e86526db95cb71f4468adab6c1a", ""),
        (0, "2e5f84effc496d79908aa23f2309ffacdfa7892a6c4c14b0925b77a80b3bd243", ""),
        (0, "7ddc02625fc57a08ca6b137f68e9007867b76c75d2588e9e5c7dfa41b6f3d96e", ""),
    ],
    "loop-free": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "469041a0813b8bb89db3ef3effb76de7f513791ab74e754f41795c908ec53869", ""),
        (0, "f6e108c26bdcc1f9c3ee897cf5135cc95bf0aeba2c86fd6cab3789fc428fe0d0", ""),
        (0, "2926e95ce427a6138e16fd602f2f9e8ab7640079299bc9248daaf94c5ee1eb4f", ""),
        (0, "6910b50245b19d09c683daba948499df127c3ed1062daa078b0d653bb98cc0c9", ""),
    ],
    "empty": [
        (1, "5951d9a506bdc75143496d5b75f7c3ded74c717557581ee6513751d727b0fc49", ""),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "empty result: empty class has no invariant positions\n"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "empty result: empty class has no invariant positions\n"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "empty result: empty class has no invariant positions\n"),
        (1, "4b54b113904ea77c14fb933d7d6db8278537e134ebabc8044ef749533689f2bb", ""),
    ],
    "ascending-rows": [
        (0, "def8f154966765607543ab38af1494cf38a197f4eea585b30bbcdf9fda473243", ""),
        (0, "c266d144def149373e4d47a84ab2c53a0e89c0be8cf1314ca6f5f5d8851e202a", ""),
        (0, "f15c97203c7a0c181701674f9049ab4b02105fb9959b296238f7c4e3af16c68f", ""),
        (0, "b7acb3bb5a043b8eb338dc4f32e6a029f2e1b917e2e878ba15deb6efb8ef9457", ""),
        (0, "819ca987243d531141ddf4f83f408b495ade28e36b0617635fce2c450bdc0bb8", ""),
    ],
}


def run_pinned(capsys, tmp_path, name, spec):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    got = []
    for cmd in COMMANDS:
        code = main([cmd, "--type", str(path)])
        captured = capsys.readouterr()
        got.append((code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err))
    return got


@pytest.mark.parametrize("name, spec", pin_types(), ids=[name for name, _ in pin_types()])
def test_restricted_outputs_pinned(capsys, tmp_path, name, spec):
    assert run_pinned(capsys, tmp_path, name, spec) == PINS[name]


def test_no_enumeration_behind_restricted_queries(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a restricted query enumerated the class")

    monkeypatch.setattr(enumeration, "_members", refuse)
    monkeypatch.setattr(enumeration, "_enumerate_bits", refuse)
    for name, spec in pin_types():
        got = run_pinned(capsys, tmp_path, name, spec)
        # `count` is the DP, which enumerates nothing either
        assert got == PINS[name], name
