import random
from collections import Counter

import numpy as np
import pytest

from regclique.errors import EmptyGraph, IndexOutOfRange, SameVertex
from regclique.graphcore import Graph

from reference import (
    circulant_edges,
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    edge_list,
    hypercube_edges,
    naive_common_neighbours,
    naive_edge_regular,
    random_edges,
    to_sets,
)


def test_complete_graph_queries():
    g = Graph.from_edges(*complete_edges(4))
    assert g.is_regular() == 3
    assert g.irregularity_witness() is None
    assert g.m == 6
    assert g.common_neighbours(0, 3) == 2
    assert g.neighbourhood_degree_multiset(1) == Counter({2: 3})


def test_path_is_not_regular():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.is_regular() is None
    u, v = g.irregularity_witness()
    assert g.degree(u) != g.degree(v)


def test_five_cycle():
    g = Graph.from_edges(*cycle_edges(5))
    assert g.is_regular() == 2
    assert g.neighbourhood_degree_multiset(0) == Counter({0: 2})


def test_degree_and_neighbours():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
    assert [g.degree(v) for v in range(4)] == [2, 1, 2, 1]
    assert g.neighbours(0) == (1, 2)
    assert g.neighbours(3) == (2,)
    assert edge_list(g) == [(0, 1), (0, 2), (2, 3)]
    with pytest.raises(IndexOutOfRange):
        g.degree(4)


def test_common_neighbours_errors():
    g = Graph.from_edges(*complete_edges(4))
    with pytest.raises(SameVertex):
        g.common_neighbours(2, 2)
    with pytest.raises(IndexOutOfRange):
        g.common_neighbours(0, 7)


def test_construction_rejects_bad_input():
    with pytest.raises(EmptyGraph):
        Graph([0], [])
    with pytest.raises(SameVertex):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(IndexOutOfRange):
        Graph.from_edges(3, [(0, 5)])
    # CSR input: the neighbours of u are indices[indptr[u]:indptr[u + 1]]
    with pytest.raises(SameVertex):
        Graph([0, 1, 1], [0])  # loop at vertex 0
    with pytest.raises(ValueError):
        Graph([0, 1, 1], [1])  # one-directional edge
    with pytest.raises(IndexOutOfRange):
        Graph([0, 1, 1], [2])  # neighbour beyond the vertex range
    with pytest.raises(ValueError):
        Graph([0, 2, 3, 4], [2, 1, 0, 0])  # row 0 not ascending


def test_kernel_matches_naive_on_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 65)
        g = Graph.from_edges(n, random_edges(n, rng.random(), rng))
        adj = to_sets(g)
        assert g.m == sum(len(s) for s in adj) // 2
        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                assert g.common_neighbours(u, v) == naive_common_neighbours(adj, u, v)
        degrees = {len(s) for s in adj}
        if len(degrees) == 1:
            assert g.is_regular() == degrees.pop()
        else:
            assert g.is_regular() is None
        naive = naive_edge_regular(adj)
        if naive is not None:
            assert g.is_regular() == naive[1]


def test_common_neighbours_symmetry():
    rng = random.Random(11)
    g = Graph.from_edges(20, random_edges(20, 0.4, rng))
    for _ in range(100):
        u, v = rng.randrange(20), rng.randrange(20)
        if u != v:
            assert g.common_neighbours(u, v) == g.common_neighbours(v, u)


def test_translation_invariance_of_count_profiles(x1):
    # Cayley structure: the multiset of pairwise counts seen from any vertex
    # matches the one seen from vertex 0
    _, _, _, g = x1
    base = sorted(g.common_neighbours(0, v) for v in range(1, g.n))
    step = max(1, g.n // 10)
    for u in range(step, g.n, step):
        profile = sorted(g.common_neighbours(u, v) for v in range(g.n) if v != u)
        assert profile == base


def _naive_counts(adj, vertices):
    return [sum(1 for x in vertices if x in adj[w]) for w in range(len(adj))]


def _graphs(x1):
    """Regular graphs (a Cayley graph, a circulant, a hypercube, an edgeless graph)
    and irregular ones (a path, a star, K_{2,3}, random graphs)."""
    rng = random.Random(5)
    yield x1[3]
    yield Graph.from_edges(*circulant_edges(17, [1, 4, 6]))
    yield Graph.from_edges(*hypercube_edges(4))
    yield Graph(np.zeros(6, dtype=np.int64), [])
    yield Graph.from_edges(3, [(0, 1), (1, 2)])
    yield Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    yield Graph.from_edges(*complete_bipartite_edges(2, 3))
    for n in (7, 20, 41):
        yield Graph.from_edges(n, random_edges(n, 0.3, rng))


def test_adjacent_counts_matches_naive_on_both_paths(x1):
    # a regular graph counts through its (n, k) row table, an irregular one row by row
    rng = random.Random(3)
    for g in _graphs(x1):
        assert (g.row_table is None) == (g.is_regular() is None)
        adj = to_sets(g)
        for size in (0, 1, 2, min(g.n, 9), g.n):
            vertices = rng.sample(range(g.n), size)
            want = _naive_counts(adj, vertices)
            for given in (vertices, tuple(vertices), np.array(vertices, dtype=np.int32)):
                assert g.adjacent_counts(given).tolist() == want
        assert g.adjacent_counts(()).tolist() == [0] * g.n


def test_adjacent_counts_rejects_vertices_outside_range(x1):
    for g in _graphs(x1):
        for bad in (-1, g.n):
            for vertices in ([bad], [0, bad], np.array([bad, 0], dtype=np.int32)):
                with pytest.raises(IndexOutOfRange, match=f"vertex {bad} not in"):
                    g.adjacent_counts(vertices)


def test_regularity_answers_match_naive(x1, petersen):
    rng = random.Random(7)
    graphs = [
        Graph.from_edges(*complete_edges(4)),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        Graph.from_edges(*cycle_edges(5)),
        Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)]),
        Graph.from_edges(20, random_edges(20, 0.4, rng)),
        petersen,
        *_graphs(x1),
    ]
    for _ in range(25):
        n = rng.randrange(2, 65)
        graphs.append(Graph.from_edges(n, random_edges(n, rng.random(), rng)))
    for g in graphs:
        degrees = [len(s) for s in to_sets(g)]
        differ = [v for v, d in enumerate(degrees) if d != degrees[0]]
        assert g.is_regular() == (None if differ else degrees[0])
        assert g.irregularity_witness() == ((0, differ[0]) if differ else None)
