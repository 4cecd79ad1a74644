"""Immutable graph held as sorted CSR neighbour arrays.

The neighbours of u are `indices[indptr[u]:indptr[u + 1]]`, ascending
(`int32`). A regular graph of degree k also offers `row_table`, the same
indices viewed as an (n, k) array whose row u lists the neighbours of u.
Every common-neighbour count comes from one kernel, `adjacent_counts`: one
`np.bincount` over the neighbour rows of a vertex set, gathered from
`row_table` in one index on a regular graph and concatenated row by row on
an irregular one. Over the neighbours of u it gives |N(u) & N(w)| for every
w at once, from k^2 entries for a graph of degree k, so the graph takes
N·k·4 bytes plus a few arrays of N entries.
"""

from collections import Counter

import numpy as np

from .errors import EmptyGraph, IndexOutOfRange, SameVertex


class Graph:
    """Undirected graph on {0, ..., n-1}, immutable after construction."""

    __slots__ = ("n", "m", "indptr", "indices", "degrees", "row_table")

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
        # the (n, k) view of the indices when every degree is k, else None
        k = int(degrees[0])
        self.row_table = indices.reshape(n, k) if degrees.min() == degrees.max() else None

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

    def _row(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.degrees[v])

    def neighbours(self, v: int) -> tuple:
        self._check_vertex(v)
        return tuple(self._row(v).tolist())

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        row = self._row(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def is_regular(self):
        """The common degree, or None when degrees differ."""
        return None if self.row_table is None else self.row_table.shape[1]

    def irregularity_witness(self):
        """A pair of vertices with differing degrees, or None if regular."""
        differ = np.flatnonzero(self.degrees != self.degrees[0])
        return (0, int(differ[0])) if differ.size else None

    def common_neighbours(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SameVertex(f"common neighbours of {u} with itself")
        return int(self.adjacent_counts(self._row(u))[v])

    def adjacent_counts(self, vertices) -> np.ndarray:
        """For every vertex w, how many of `vertices` (distinct) are adjacent to w."""
        vertices = np.asarray(vertices, dtype=np.intp)
        outside = vertices.view(np.uintp) >= self.n  # a negative vertex wraps round to one above n
        if np.count_nonzero(outside):
            raise IndexOutOfRange(f"vertex {vertices[outside.argmax()]} not in [0, {self.n})")
        if self.row_table is not None:
            return np.bincount(self.row_table[vertices].ravel(), minlength=self.n)
        rows = [self._row(u) for u in vertices]
        return np.bincount(np.concatenate([np.empty(0, dtype=np.int32), *rows]), minlength=self.n)

    def neighbourhood_degree_multiset(self, v: int) -> Counter:
        """Multiset of within-neighbourhood degrees of the neighbours of v."""
        nbrs = np.array(self.neighbours(v), dtype=np.int64)
        return Counter(self.adjacent_counts(nbrs)[nbrs].tolist())

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
