"""Seeded operation lists for the three workloads.

An operation is one `edgetype` CLI call.  Its input JSON files are written
into the run's work directory; `spec` keeps what the reference checks need
to know about the input.  The seed changes every seeded instance; the
fixed instances (`fixed` in the name) are the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import oracle

# Faults that make an operation fail on every run today.  Each maps to the
# exit code and a fragment of the CLI's stderr message.
FAULTS = {
    # maxent.solve_maxent: alpha=math.exp(h) raises OverflowError once
    # H(F_T) > ~709 nats; the CLI reports it as non-convergence.
    "alpha-overflow": (3, "math range error"),
    # maxent._newton_solve: the Armijo test compares objective values that
    # no longer differ by one ulp near the optimum, so all 500 iterations run.
    "armijo-stall": (3, "failed to converge"),
}


@dataclass
class Op:
    name: str
    argv: list[str]
    kind: str
    spec: dict = field(default_factory=dict)
    fault: str | None = None


class Builder:
    """Writes input files and collects operations."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.ops: list[Op] = []
        self._files = 0

    def file(self, obj) -> str:
        self._files += 1
        path = self.dir / f"in{self._files}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def type_file(self, r, c, w=None) -> str:
        obj = {"r": list(r), "c": list(c)}
        if w is not None:
            obj["w"] = {"n": len(r), "adj": [list(map(int, row)) for row in w]}
        return self.file(obj)

    def add(self, name, argv, kind, fault=None, **spec):
        self.ops.append(Op(f"{len(self.ops):03d}:{name}", argv, kind, spec, fault))


def complete(n):
    return [[1] * n for _ in range(n)]


def random_graph_type(rng: random.Random, n: int, rho: float, w=None):
    """Degree pair of a random graph inside W, so the class is never empty."""
    w = w or complete(n)
    g = [[1 if w[i][j] and rng.random() < rho else 0 for j in range(n)] for i in range(n)]
    return [sum(row) for row in g], [sum(g[i][j] for i in range(n)) for j in range(n)]


@lru_cache(maxsize=None)
def _unrestricted_size(r, c) -> int:
    """Class size with W complete; it depends only on the sorted degrees."""
    return oracle.count_members(r, c, complete(len(r)))


def banded_type(rng: random.Random, n: int, lo: int, hi: int, restricted=False):
    """A random-graph type, inside a random W with at least one forbidden
    cell when `restricted`, whose class size lies in [lo, hi].  The band
    keeps the cost of one operation within a known range whatever the seed.
    Returns (r, c, size, w)."""
    w = complete(n)
    for _ in range(100_000):
        if restricted:
            w = [[1 if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(n)]
            if all(map(all, w)):
                continue
        r, c = random_graph_type(rng, n, rng.uniform(0.2, 0.8), w)
        size = (oracle.count_members(r, c, w) if restricted
                else _unrestricted_size(tuple(sorted(r)), tuple(sorted(c))))
        if lo <= size <= hi:
            return r, c, size, w
    raise RuntimeError(f"no type with {lo}..{hi} members at n={n}")


# Solver tolerance passed to every seeded operation that solves the dual.
# At the default (1e-10 * n) about 1 % of random types stall in the Armijo
# line search, which would make the failure count depend on the seed; the
# stall stays measured by the fixed regular type (30, 20).
TOL = "1e-6"

# n <= 31 keeps H(F_T) <= n^2 ln 2 < 709 nats, so alpha = e^H is a float.
MAXENT_SEEDED_N = (16, 18, 20, 22, 24, 26, 28, 30)
MAXENT_DENSITIES = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
# Every type drawn here has H(F_T) far above 709 nats.  The twenty n = 200
# operations cost about the same and hold the 90th latency percentile.
MAXENT_FIXED = (
    (40, 0.5), (60, 0.3), (60, 0.7), (100, 0.05), (100, 0.5), (100, 0.95),
    *((200, 0.3 + 0.05 * k) for k in range(9)), (200, 0.5), (400, 0.5), (800, 0.5),
)


def maxent_scale(b: Builder, rng: random.Random) -> None:
    for n in MAXENT_SEEDED_N:
        for rho in MAXENT_DENSITIES:
            r, c = random_graph_type(rng, n, rho)
            f = b.type_file(r, c)
            for cmd in ("maxent", "bounds"):
                b.add(f"{cmd}/n{n}-p{rho}", [cmd, "--type", f, "--tol", TOL], cmd,
                      r=r, c=c, tol=float(TOL))
    for k, (n, rho) in enumerate(MAXENT_FIXED):
        r, c = random_graph_type(random.Random(f"fixed:{k}"), n, rho)
        f = b.type_file(r, c)
        for cmd in ("maxent", "bounds"):
            b.add(f"{cmd}/fixed-n{n}-p{rho:.2f}-{k}", [cmd, "--type", f], cmd, "alpha-overflow",
                  r=r, c=c)
    r = c = [20] * 30
    b.add("maxent/fixed-regular-30-20", ["maxent", "--type", b.type_file(r, c)], "maxent",
          "armijo-stall", r=r, c=c)


# (command, n, class-size band, copies) of the seeded unrestricted operations.
# The bands keep each operation's cost within a known range whatever the
# seed, and below the cost of the fixed `count` operations that follow.
EXACT_SLOTS = (
    ("feasible", 4, (1, 90), 4), ("feasible", 5, (1, 10**4), 3), ("feasible", 6, (1, 10**6), 3),
    ("count", 4, (4, 40), 12), ("count", 5, (20, 120), 12), ("count", 6, (100, 400), 8),
    ("enumerate", 3, (2, 6), 8), ("enumerate", 4, (4, 40), 12), ("enumerate", 5, (20, 120), 8),
    ("bounds", 4, (4, 40), 12), ("bounds", 5, (20, 120), 8), ("bounds", 6, (100, 250), 4),
    ("interchange-check", 3, (2, 6), 8), ("interchange-check", 4, (4, 40), 12),
    ("interchange-check", 5, (20, 40), 4),
    ("delta", 4, (4, 40), 8),
)
# (n, band, copies) of the commands run on a random restriction graph W.
EXACT_RESTRICTED = ((5, (20, 120), 6), (6, (50, 300), 4))
# Fixed `count` operations on n = 6 types with 600-1400 members: they cost
# more than every seeded operation and hold the 90th latency percentile.
EXACT_PLATEAU = 24


def exact_count(b: Builder, rng: random.Random) -> None:
    def typed(cmd, n, band, restricted=False, extra=(), rng=rng, tag="", **spec):
        if cmd in ("bounds", "maxent", "delta"):
            extra = (*extra, "--tol", TOL)
            spec["tol"] = float(TOL)
        r, c, size, w = banded_type(rng, n, *band, restricted)
        f = b.type_file(r, c, w if restricted else None)
        b.add(f"{cmd}/{tag}{'w' if restricted else ''}n{n}", [cmd, "--type", f, *extra], cmd,
              r=r, c=c, w=w, size=size, **spec)

    for cmd, n, band, copies in EXACT_SLOTS:
        for _ in range(copies):
            if cmd == "delta":  # delta * dens <= 1 here, so the δ-class is the class
                typed(cmd, n, band, extra=("--delta", "0.25"), delta=0.25)
            else:
                typed(cmd, n, band)
    for n, band, copies in EXACT_RESTRICTED:
        for _ in range(copies):
            for cmd in ("feasible", "invariants", "components", "maxent", "count"):
                typed(cmd, n, band, restricted=True)
    fixed = random.Random("fixed")
    for _ in range(EXACT_PLATEAU):
        typed("count", 6, (600, 1400), rng=fixed, tag="fixed-")
    # Fixed: a δ-class of 2 336 graphs spread over many degree pairs; the
    # 2-regular class on 6 vertices (67 950 members, OEIS A001499); and its
    # loop-free restriction, where `feasible` counts every member.
    r, c = [4, 2, 1, 0], [2, 2, 2, 1]
    f = b.type_file(r, c)
    spec = dict(r=r, c=c, w=complete(4), delta=0.5)
    b.add("delta/fixed-n4-0.5", ["delta", "--type", f, "--delta", "0.5", "--tol", TOL], "delta",
          tol=float(TOL), **spec)
    b.add("enumerate/fixed-n4-delta0.5", ["enumerate", "--type", f, "--delta", "0.5"],
          "enumerate", **spec)
    two = [2] * 6
    b.add("count/fixed-2regular-6", ["count", "--type", b.type_file(two, two)], "count",
          r=two, c=two, w=complete(6), size=67950)
    nodiag = [[int(i != j) for j in range(6)] for i in range(6)]
    b.add("feasible/fixed-2regular-6-loopfree",
          ["feasible", "--type", b.type_file(two, two, nodiag)], "feasible",
          r=two, c=two, w=nodiag, size=oracle.count_members(two, two, nodiag))


RD_PLATEAU = 14


def rd_small(b: Builder, rng: random.Random) -> None:
    def params(n, rng=rng):
        a = [round(rng.uniform(-1.5, 1.5), 6) for _ in range(n)]
        bb = [round(rng.uniform(-1.5, 1.5), 6) for _ in range(n)]
        return {"a": a, "b": bb}, b.file({"a": a, "b": bb})

    def rd_ops(tag, r, c, xis, covers, rn=True):
        n = len(r)
        f = b.type_file(r, c)
        spec = dict(r=r, c=c, w=complete(n), group=tag)
        for xi in xis:
            b.add(f"rd-bounds/{tag}-xi{xi}", ["rd-bounds", "--type", f, "--xi", xi,
                  "--delta-hat", "0.2", "--tol", TOL], "rd-bounds", xi=xi, **spec)
        for xi in covers:
            b.add(f"cover/{tag}-xi{xi}", ["cover", "--type", f, "--xi", xi, "--tol", TOL],
                  "cover", xi=xi, delta=0.0, **spec)
        if rn:
            for d in ("0", "1/3", "2/3", "1"):
                b.add(f"rn-exact/{tag}-d{d}", ["rn-exact", "--type", f, "--d", d], "rn-exact",
                      d=d, **spec)
        return f, spec

    # Seeded: many cheap operations on random types with 2-6 members (n = 3)
    # or 4-40 members (n = 4).
    for k in range(8):
        r, c, _, _ = banded_type(rng, 3, 2, 6)
        f, spec = rd_ops(f"n3-t{k}", r, c, ("0",), ("0",))
        for _ in range(2):
            p, pf = params(3)
            b.add(f"prob/n3-t{k}", ["prob", "--type", f, "--params", pf], "prob",
                  params=p, **spec)
    for k in range(6):
        r, c, _, _ = banded_type(rng, 4, 4, 40)
        rd_ops(f"n4-t{k}", r, c, ("0",), ("0",), rn=False)
    for k in range(12):
        types = [banded_type(rng, 3, 2, 6)[:2] for _ in range(2 + k % 2)]
        p, pf = params(3)
        b.add(f"sanov/n3-{len(types)}types", ["sanov", "--params", pf, "--types",
              *(b.type_file(r, c) for r, c in types)], "sanov", params=p, types=types)
    # Fixed: the costly budgets (Xi > 0 scans hundreds of types; the Xi = 1/3
    # scans hold the 90th latency percentile) and the probabilistic exact
    # oracle, which weighs all 512 graphs on 3 vertices.
    f, _ = rd_ops("fixed-n3-perm", [1, 1, 1], [1, 1, 1], ("1/3", "2/3"), ("1/3",))
    fixed = random.Random("fixed")
    for k in range(RD_PLATEAU):
        r, c, _, _ = banded_type(fixed, 3, 2, 6)
        rd_ops(f"fixed-n3-{k}", r, c, ("1/3",), (), rn=k < 3)
    rd_ops("fixed-n4", [2, 1, 1, 0], [1, 2, 0, 1], ("1/4",), (), rn=False)
    p, pf = params(3, random.Random("fixed"))
    b.add("rn-exact/fixed-n3-params", ["rn-exact", "--type", f, "--d", "2/3", "--params", pf,
          "--eps", "0.25"], "rn-exact-params", params=p, d="2/3", eps=0.25)


WORKLOADS = {"maxent_scale": maxent_scale, "exact_count": exact_count, "rd_small": rd_small}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    b = Builder(workdir)
    WORKLOADS[workload](b, random.Random(f"{workload}:{seed}"))
    return b.ops
