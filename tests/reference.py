"""Naive reference implementations used as independent oracles in tests.

Everything here is deliberately written as plain loops (over adjacency sets,
or one scalar field multiplication at a time), with no shared code with the
package kernels.
"""

from collections import Counter
from itertools import combinations


def to_sets(graph):
    """Adjacency sets of a regclique Graph, extracted via the public API."""
    return [set(graph.neighbours(v)) for v in range(graph.n)]


def naive_exp_table(field, rho):
    """(exp, log) lists of GF(q) for rho: exp[j] = rho**j by q - 1 scalar multiplications,
    log[x] the exponent of x with log[0] = -1."""
    exp, x = [], 1
    for _ in range(field.q - 1):
        exp.append(x)
        x = field.mul(x, rho)
    log = [-1] * field.q
    for j, x in enumerate(exp):
        log[x] = j
    return exp, log


def naive_common_neighbours(adj, u, v):
    return sum(1 for w in adj[u] if w in adj[v])


def naive_edge_regular(adj):
    """(N, k, lam) if the graph is edge-regular, else None."""
    n = len(adj)
    degrees = {len(nbrs) for nbrs in adj}
    if len(degrees) != 1:
        return None
    k = degrees.pop()
    lams = set()
    for u in range(n):
        for v in adj[u]:
            if v > u:
                lams.add(naive_common_neighbours(adj, u, v))
    if len(lams) > 1:
        return None
    return (n, k, lams.pop() if lams else 0)


def naive_lambda_failure(adj):
    """(u, v, count) for the lexicographically first edge u < v whose common-neighbour
    count differs from that of the first edge, or None when all edges agree."""
    first = None
    for u in range(len(adj)):
        for v in sorted(adj[u]):
            if v > u:
                count = naive_common_neighbours(adj, u, v)
                if first is None:
                    first = count
                elif count != first:
                    return (u, v, count)
    return None


def naive_mu_witnesses(adj, sources=None):
    """{mu: (u, v)}: the lexicographically smallest non-adjacent pair u < v with
    each common-neighbour count, u ranging over `sources` (default: every vertex).

    The counts from u come from counting its paths of length two, one Counter per u.
    """
    n = len(adj)
    found = {}
    for u in range(n) if sources is None else sources:
        two_paths = Counter(x for w in adj[u] for x in adj[w])
        for v in range(u + 1, n):
            if v not in adj[u] and two_paths[v] not in found:
                found[two_paths[v]] = (u, v)
    return found


def naive_missing_edge(adj, vertices):
    """The first (u, v), u before v in ascending order of the set, that is not an edge, or None."""
    members = sorted(set(vertices))
    for u in members:
        for v in members:
            if v != u and v not in adj[u]:
                return (u, v)
    return None


def naive_attachments(adj, vertices):
    """[(w, number of the vertices adjacent to w)] for every w outside the set, ascending."""
    members = set(vertices)
    return [(w, sum(1 for x in adj[w] if x in members)) for w in range(len(adj)) if w not in members]


def naive_srg_verdict(adj):
    """("Complete", ()) | ("SRG", (mu,)) | ("NotSRG", mus) for an edge-regular graph."""
    n = len(adj)
    mus = set()
    for u, v in combinations(range(n), 2):
        if v not in adj[u]:
            mus.add(naive_common_neighbours(adj, u, v))
    if not mus:
        return ("Complete", ())
    if len(mus) == 1:
        return ("SRG", tuple(mus))
    return ("NotSRG", tuple(sorted(mus)))


def random_edges(n, prob, rng):
    return [(u, v) for u, v in combinations(range(n), 2) if rng.random() < prob]


def petersen_edges():
    """Kneser construction: 2-subsets of a 5-set, adjacent iff disjoint."""
    verts = list(combinations(range(5), 2))
    index = {s: i for i, s in enumerate(verts)}
    return 10, [
        (index[s], index[t])
        for s, t in combinations(verts, 2)
        if not set(s) & set(t)
    ]


def cycle_edges(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def circulant_edges(n, steps):
    """The circulant graph on Z_n: i ~ i + s for every s in steps (regular, rarely edge-regular)."""
    return n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps if s % n})


def complete_edges(n):
    return n, list(combinations(range(n), 2))


def complete_bipartite_edges(r, s):
    return r + s, [(i, r + j) for i in range(r) for j in range(s)]


def hypercube_edges(dim):
    n = 1 << dim
    return n, [(u, u ^ (1 << b)) for u in range(n) for b in range(dim) if u < u ^ (1 << b)]
