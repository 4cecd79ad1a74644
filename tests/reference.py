"""Naive reference implementations used as independent oracles in tests.

Everything here is deliberately written as plain loops (over adjacency sets,
or one scalar field multiplication at a time), with no shared code with the
package kernels. The scalar product of GF(p^a) lives here, not in the
package: `field_mul` multiplies coefficient tuples and reduces them by the
modulus, and `field_pow` squares and multiplies through it, where the
package multiplies by matrices over Z_p.

The exceptions are `translator`, which decodes every vertex into arrays and
adds through `Field.add_array`, the group's addition that the build and the
translation check use too, and `field_shift`, which adds one field element
to every field index through it; both are checked against `group_add` and
scalar `Field.add`. `naive_cayley_graph`, `naive_translation_failure` and
`naive_translation_witness` translate every vertex through it, not through
the block-by-block build or the block-by-block translation check.
"""

from collections import Counter
from itertools import combinations

import numpy as np

from regclique.construction import GroupElement, field_index_map, group_generators
from regclique.errors import IndexOutOfRange
from regclique.graphcore import Graph


def to_sets(graph):
    """Adjacency sets of a regclique Graph, extracted via the public API."""
    return [set(graph.neighbours(v)) for v in range(graph.n)]


def edge_list(graph):
    """All edges (u, v) of a regclique Graph with u < v, lexicographically ascending."""
    return [(u, v) for u in range(graph.n) for v in graph.neighbours(u) if u < v]


def _digits(field, x):
    """The a base-p digits of the code x, lowest first: its coefficients over Z_p."""
    return [x // field.p**i % field.p for i in range(field.a)]


def field_mul(field, x, y):
    """x * y in GF(q): for a > 1 the product of the coefficient tuples, reduced by the monic modulus."""
    p, a = field.p, field.a
    if a == 1:
        return x * y % p
    prod = [0] * (2 * a - 1)
    for i, u in enumerate(_digits(field, x)):
        for j, v in enumerate(_digits(field, y)):
            prod[i + j] += u * v
    for i in range(2 * a - 2, a - 1, -1):  # x**i = -(c_0 + ... + c_{a-1} x**(a-1)) * x**(i-a)
        c = prod[i] % p
        for j in range(a):
            prod[i - a + j] -= c * field.modulus[j]
    return sum(c % p * p**i for i, c in enumerate(prod[:a]))


def field_pow(field, x, k):
    """x**k in GF(q) for k >= 0, by square and multiply through `field_mul`."""
    r = 1
    while k:
        if k & 1:
            r = field_mul(field, r, x)
        x = field_mul(field, x, x)
        k >>= 1
    return r


def naive_exp_table(field, rho):
    """(exp, log) lists of GF(q) for rho: exp[j] = rho**j by q - 1 scalar multiplications,
    log[x] the exponent of x with log[0] = -1."""
    exp, x = [], 1
    for _ in range(field.q - 1):
        exp.append(x)
        x = field_mul(field, x, rho)
    log = [-1] * field.q
    for j, x in enumerate(exp):
        log[x] = j
    return exp, log


def field_inv(field, x):
    """The inverse of a nonzero x in GF(q), as x**(q - 2)."""
    if x == 0:
        raise ZeroDivisionError("inverse of zero")
    return field_pow(field, x, field.q - 2)


def cyclotomic_class(ctx, i):
    """All (q-1)/n elements rho**j with j = i mod n, by repeated multiplication by rho."""
    if not 0 <= i < ctx.n:
        raise IndexOutOfRange(f"class index {i} not in [0, {ctx.n})")
    members, x = set(), 1
    for j in range(ctx.field.q - 1):
        if j % ctx.n == i:
            members.add(x)
        x = field_mul(ctx.field, x, ctx.pd.rho)
    return frozenset(members)


def decode_vertex(gp, index):
    """The group element (z, v, f) with vertex index z*(2^m * q) + v*q + fidx(f),
    fidx(0) = 0 and fidx(rho**j) = j + 1."""
    if not 0 <= index < gp.n_vertices:
        raise IndexOutOfRange(f"vertex index {index} not in [0, {gp.n_vertices})")
    z, rest = divmod(index, (1 << gp.m) * gp.q)
    v, fidx = divmod(rest, gp.q)
    f = 0 if fidx == 0 else field_pow(gp.field, gp.pd.rho, fidx - 1)
    return GroupElement(z, v, f)


def group_add(gp, e1, e2):
    """The sum of two elements of Z_l + Z_2^m + F_q, coordinate by coordinate."""
    return GroupElement((e1.z + e2.z) % gp.l, e1.v ^ e2.v, gp.field.add(e1.f, e2.f))


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


def translator(gp):
    """The map e -> (index(u + e) for every vertex index u), as an int64 array.

    The vertices are decoded once, so each translation is a few array operations.
    """
    q = gp.q
    block = (1 << gp.m) * q
    idx = np.arange(gp.n_vertices, dtype=np.int64)
    zs = idx // block
    vs = idx % block // q
    fcodes = np.concatenate(([0], gp.pd.exp)).astype(np.int64)[idx % q]
    fidx_of_code = gp.pd.log + 1  # log[0] = -1, so fidx(0) = 0

    def translate(e):
        return ((zs + e.z) % gp.l) * block + (vs ^ e.v) * q + fidx_of_code[gp.field.add_array(fcodes, e.f)]

    return translate


def field_shift(gp):
    """The map f -> (fidx(x + f) for every field index of x), as an int32 array of q entries."""
    fcodes, fidx_of_code = field_index_map(gp)
    fcodes = fcodes.astype(np.intp)  # so the sums index fidx_of_code without a cast on every call

    def shift(f):
        return fidx_of_code[gp.field.add_array(fcodes, f)]

    return shift


def naive_cayley_graph(gp, s):
    """Cay(G, S) by translating every vertex by each element of the tuple s, then sorting each row."""
    translate = translator(gp)
    nbrs = np.empty((gp.n_vertices, len(s)), dtype=np.int32)
    for j, e in enumerate(s):
        nbrs[:, j] = translate(e)
    nbrs.sort(axis=1)
    return Graph(np.arange(0, nbrs.size + 1, len(s)), nbrs.ravel(), validate=False)


def naive_translation_failure(gp, graph):
    """(e, u) for the first e of `group_generators(gp)` and the smallest vertex u whose
    neighbours translation by e maps off those of its image, or None when every
    generator's translation is an automorphism of the regular graph.

    Every row is translated and sorted once per generator, all rows at once.
    """
    adj = np.array([graph.neighbours(u) for u in range(graph.n)], dtype=np.int64).reshape(graph.n, -1)
    translate = translator(gp)
    for e in group_generators(gp):
        perm = translate(e)
        bad = np.flatnonzero((np.sort(perm[adj], axis=1) != adj[perm]).any(axis=1))
        if bad.size:
            return e, int(bad[0])
    return None


def naive_translation_witness(gp, graph):
    """(e, u) for the smallest vertex u whose row is not the neighbours of 0 moved by
    e = decode_vertex(gp, u), sorted, or None when every row is.

    Each vertex is decoded and row 0 translated by it, one vertex at a time.
    """
    translate = translator(gp)
    row0 = list(graph.neighbours(0))
    for u in range(graph.n):
        e = decode_vertex(gp, u)
        if sorted(translate(e)[row0].tolist()) != list(graph.neighbours(u)):
            return e, u
    return None


def naive_primitive_elements(field):
    """Every code x >= 2 of GF(q), q > 2, ascending, with x**((q-1)/r) != 1 for each prime r dividing q - 1."""
    q = field.q
    primes = [r for r in range(2, q) if (q - 1) % r == 0 and all(r % d for d in range(2, r))]
    for x in range(2, q):
        if all(field_pow(field, x, (q - 1) // r) != 1 for r in primes):
            yield x
