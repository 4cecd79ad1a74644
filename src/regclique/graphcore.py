"""Immutable graph held as a packed bit matrix plus sorted CSR neighbour arrays.

Row u of the `(n, ceil(n/64))` uint64 matrix `bits` has bit v of word v // 64
set iff u ~ v, so common-neighbour counts over many pairs are one gather, one
AND and one popcount (`np.bitwise_count`) per bounded block of rows. The CSR
arrays (`indptr`, and `indices` with each row ascending) list the neighbours
themselves, for enumeration and for counting attachments to a vertex set.

Every kernel works on blocks of at most `BLOCK_BYTES` of gathered bit rows,
so its temporaries stay small whatever the size of the graph.
"""

import os
from bisect import bisect_right
from collections import Counter

import numpy as np

from .errors import EmptyGraph, GraphTooLarge, IndexOutOfRange, SameVertex

BLOCK_BYTES = 1 << 18  # bound on the bytes of bit rows a kernel gathers at once


def footprint_bytes(n: int, degree_sum: int) -> int:
    """Bytes held by a graph on n vertices: bit matrix, int32 CSR indices, int64 indptr."""
    return n * ((n + 63) // 64) * 8 + degree_sum * 4 + (n + 1) * 8


def memory_limit() -> int:
    """Half of this host's physical memory: the most bytes one graph or one field's tables may take."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def check_footprint(n: int, degree_sum: int) -> None:
    """Refuse a graph whose footprint exceeds half of this host's physical memory."""
    need = footprint_bytes(n, degree_sum)
    limit = memory_limit()
    if need > limit:
        raise GraphTooLarge(
            f"N = {n} vertices need about {need / 1e9:.1f} GB for the graph, "
            f"more than half of the {2 * limit / 1e9:.1f} GB of physical memory"
        )


def _pack(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """The packed bit matrix of CSR rows, set through bool rows a bounded block at a time."""
    words = (n + 63) // 64
    bits = np.empty((n, words), dtype=np.uint64)
    step = max(1, BLOCK_BYTES // (words * 64))
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        dense = np.zeros((r1 - r0, words * 64), dtype=bool)
        dense[np.repeat(np.arange(r1 - r0), np.diff(indptr[r0 : r1 + 1])), indices[indptr[r0] : indptr[r1]]] = True
        bits[r0:r1] = np.packbits(dense, axis=1, bitorder="little").view(np.uint64)
    return bits


class Graph:
    """Undirected graph on {0, ..., n-1}, immutable after construction."""

    __slots__ = ("n", "m", "bits", "indptr", "indices", "degrees", "block_rows")

    def __init__(self, indptr, indices, validate: bool = True):
        """Graph from CSR arrays: the neighbours of u are indices[indptr[u]:indptr[u + 1]], ascending."""
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        n = len(indptr) - 1
        if n < 1:
            raise EmptyGraph("graphs must have at least one vertex")
        degrees = np.diff(indptr)
        if validate:
            _validate_csr(n, indptr, indices, degrees)
        self.n = n
        self.m = int(indptr[-1]) // 2
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        self.bits = _pack(indptr, indices, n)
        self.block_rows = max(1, BLOCK_BYTES // (8 * self.bits.shape[1]))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        outside = (pairs < 0) | (pairs >= n)
        if outside.any():
            u, v = pairs[np.flatnonzero(outside.any(axis=1))[0]]
            raise IndexOutOfRange(f"edge ({u}, {v}) outside vertex range")
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise SameVertex(f"self-loop at vertex {pairs[np.flatnonzero(loops)[0], 0]}")
        codes = np.unique(np.concatenate((pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0])))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(codes // n, minlength=n))))
        return cls(indptr, codes % n, validate=False)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexOutOfRange(f"vertex {v} not in [0, {self.n})")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.degrees[v])

    def neighbours(self, v: int) -> tuple:
        self._check_vertex(v)
        return tuple(self.indices[self.indptr[v] : self.indptr[v + 1]].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(int(self.bits[u, v >> 6]) >> (v & 63) & 1)

    def edges(self):
        """All edges (u, v) with u < v, lexicographically ascending."""
        for u in range(self.n):
            nbrs = self.neighbours(u)
            for v in nbrs[bisect_right(nbrs, u) :]:
                yield (u, v)

    def is_regular(self):
        """The common degree, or None when degrees differ."""
        first = int(self.degrees[0])
        return first if (self.degrees == first).all() else None

    def irregularity_witness(self):
        """A pair of vertices with differing degrees, or None if regular."""
        differ = np.flatnonzero(self.degrees != self.degrees[0])
        return (0, int(differ[0])) if differ.size else None

    def common_neighbours(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SameVertex(f"common neighbours of {u} with itself")
        return int(np.bitwise_count(self.bits[u] & self.bits[v]).sum())

    def common_counts(self, u: int, vs) -> np.ndarray:
        """|N(u) & N(v)| for each v in the index array vs; callers bound len(vs) by block_rows."""
        rows = np.take(self.bits, vs, axis=0)  # a copy, so the AND can work in place
        rows &= self.bits[u]
        return np.bitwise_count(rows).sum(axis=-1, dtype=np.int32)

    def pair_counts(self, u: int, adjacent: bool):
        """Yield (vs, counts): the v > u that are (or are not) adjacent to u, ascending,
        in blocks of at most block_rows, with |N(u) & N(v)| for each."""
        row = np.unpackbits(self.bits[u].view(np.uint8), bitorder="little")[: self.n]
        others = np.flatnonzero(row[u + 1 :] == adjacent) + (u + 1)
        for start in range(0, len(others), self.block_rows):
            vs = others[start : start + self.block_rows]
            yield vs, self.common_counts(u, vs)

    def adjacent_counts(self, vertices) -> np.ndarray:
        """For every vertex w, how many of `vertices` (distinct) are adjacent to w."""
        nbrs = [self.indices[self.indptr[u] : self.indptr[u + 1]] for u in vertices]
        return np.bincount(np.concatenate(nbrs), minlength=self.n)

    def neighbourhood_degree_multiset(self, v: int) -> Counter:
        """Multiset of within-neighbourhood degrees of the neighbours of v."""
        nbrs = np.array(self.neighbours(v), dtype=np.int64)
        out = Counter()
        for start in range(0, len(nbrs), self.block_rows):
            out.update(self.common_counts(v, nbrs[start : start + self.block_rows]).tolist())
        return out

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _validate_csr(n: int, indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray) -> None:
    if indptr[0] != 0 or (degrees < 0).any() or indptr[-1] != len(indices):
        raise ValueError("indptr must rise from 0 to the number of indices")
    if len(indices) == 0:
        return
    rows = np.repeat(np.arange(n), degrees)
    outside = np.flatnonzero((indices < 0) | (indices >= n))
    if outside.size:
        raise IndexOutOfRange(f"row {rows[outside[0]]} names vertex {indices[outside[0]]}, beyond {n - 1}")
    loops = np.flatnonzero(rows == indices)
    if loops.size:
        raise SameVertex(f"self-loop at vertex {rows[loops[0]]}")
    if ((np.diff(indices) <= 0) & (rows[1:] == rows[:-1])).any():
        raise ValueError("neighbours must be strictly ascending within each row")
    codes = rows * n + indices
    mirrored = np.sort(indices.astype(np.int64) * n + rows)
    if not np.array_equal(codes, mirrored):
        bad = np.flatnonzero(codes != mirrored)[0]
        u, v = divmod(int(min(codes[bad], mirrored[bad])), n)  # listed one way only
        raise ValueError(f"adjacency not symmetric at ({u}, {v})")
