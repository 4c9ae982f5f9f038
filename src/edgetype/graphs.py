"""Directed-graph values, boolean algebra, and the
per-vertex local-structure distortion measure.

Graphs live on the vertex set {1, ..., n} (stored 0-indexed), self-loops
allowed, represented by an n x n binary adjacency matrix.  All values are
immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DiGraph",
    "DistortionValue",
    "xor",
    "and_",
    "complement",
    "distortion",
    "respects_restriction",
    "density",
]


class DiGraph:
    """Immutable directed graph over [n] backed by a 0/1 adjacency matrix."""

    __slots__ = ("_adj", "_hash")

    def __init__(self, adj: Sequence[Sequence[int]] | np.ndarray):
        a = np.asarray(adj, dtype=np.uint8)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
        if (a > 1).any():
            raise ValueError("adjacency entries must be 0 or 1")
        a.setflags(write=False)
        self._adj = a
        self._hash = hash((a.shape[0], a.tobytes()))

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @property
    def adj(self) -> np.ndarray:
        return self._adj

    @classmethod
    def empty(cls, n: int) -> "DiGraph":
        return cls(np.zeros((n, n), dtype=np.uint8))

    @classmethod
    def complete(cls, n: int) -> "DiGraph":
        return cls(np.ones((n, n), dtype=np.uint8))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DiGraph":
        """Build from 0-indexed (i, j) pairs."""
        a = np.zeros((n, n), dtype=np.uint8)
        for i, j in edges:
            a[i, j] = 1
        return cls(a)

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "DiGraph":
        """Decode a row-major bitmask as `_unpack` reads it."""
        return cls(_unpack(n, [bits]).reshape(n, n))

    def to_bits(self) -> int:
        packed = np.packbits(self._adj, axis=None, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def edge_count(self) -> int:
        return int(self._adj.sum())

    def tolist(self) -> list[list[int]]:
        return self._adj.astype(int).tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.n == other.n and bool((self._adj == other._adj).all())

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"DiGraph({self.tolist()})"


def _pack(masks: Sequence[int], nbytes: int) -> np.ndarray:
    """The nonnegative masks as rows of nbytes little-endian bytes."""
    raw = b"".join([m.to_bytes(nbytes, "little") for m in masks])
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)


def _unpack(n: int, masks: Iterable[int]) -> np.ndarray:
    """The (m, n*n) uint8 cell rows of m row-major bitmasks on [n] (bit k is
    cell (k // n, k % n), as `DiGraph.to_bits` writes it); bits from n*n up
    are ignored, a negative int read in two's complement."""
    full = (1 << n * n) - 1
    packed = _pack([bits & full for bits in masks], (n * n + 7) // 8)
    return np.unpackbits(packed, axis=1, count=n * n, bitorder="little")


@dataclass(frozen=True, order=True)
class DistortionValue:
    """Exact rational distortion k/n, k in [0, n]."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError("distortion numerator must lie in [0, n]")

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.numerator / self.denominator


def _check_same_n(g: DiGraph, h: DiGraph) -> None:
    if g.n != h.n:
        raise ValueError(f"dimension mismatch: {g.n} vs {h.n}")


def xor(g: DiGraph, h: DiGraph) -> DiGraph:
    _check_same_n(g, h)
    return DiGraph(g.adj ^ h.adj)


def and_(g: DiGraph, h: DiGraph) -> DiGraph:
    _check_same_n(g, h)
    return DiGraph(g.adj & h.adj)


def complement(g: DiGraph) -> DiGraph:
    return DiGraph(1 - g.adj)


def distortion(g: DiGraph, h: DiGraph) -> DistortionValue:
    """Worst per-vertex fraction of edge disagreements between g and h.

    (1/n) * max(||r_{g xor h}||_inf, ||c_{g xor h}||_inf), returned exactly.
    """
    _check_same_n(g, h)
    d = g.adj ^ h.adj
    worst = max(int(d.sum(axis=1).max(initial=0)), int(d.sum(axis=0).max(initial=0)))
    return DistortionValue(worst, g.n)


def respects_restriction(g: DiGraph, w: DiGraph) -> bool:
    """True iff every edge of g is allowed by w (g == g AND w)."""
    _check_same_n(g, w)
    return bool(((g.adj & w.adj) == g.adj).all())


def density(r: Sequence[int], c: Sequence[int]) -> int:
    """Fixed-n degree-density of a type: the maximum degree, floored at 1.

    The floor keeps the slack terms that divide by the density finite for
    the all-zero type.
    """
    m = max(max(r, default=0), max(c, default=0))
    return max(1, int(m))
