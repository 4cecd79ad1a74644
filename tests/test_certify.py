import functools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regclique import certify
from regclique.certify import (
    ErgParams,
    Failure,
    _pair_profile,
    assemble_certificate,
    canonical_spread,
    check_edge_regular,
    check_strongly_regular,
    check_translations,
    clique_nexus,
    eigenvalues_2x2,
    predicted_local_valencies,
    predicted_mu_witness,
    quotient_matrix,
    slice_sum,
    srg_clique_parameters,
)
from regclique.cyclotomy import make_context
from regclique.errors import (
    HypothesisViolated,
    IndexOutOfRange,
    NoOutsideVertices,
    NotAClique,
    NotAPartition,
    NotEdgeRegular,
    WrongN,
)
from regclique.construction import GroupElement, group_generators, make_group, psi1_table, psi2_table
from regclique.fields import build_field, find_primitive_element
from regclique.graphcore import Graph
from regclique.numtheory import search_m2, search_m3

from conftest import cayley_instance
from reference import (
    circulant_edges,
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    decode_vertex,
    edge_list,
    field_shift,
    naive_attachments,
    naive_common_neighbours,
    naive_edge_regular,
    naive_lambda_failure,
    naive_missing_edge,
    naive_mu_witnesses,
    naive_translation_failure,
    naive_translation_witness,
    random_edges,
    to_sets,
    translator,
)


def test_edge_regular_x1(x1):
    _, _, _, g = x1
    assert check_edge_regular(g) == ErgParams(28, 9, 2)


def test_edge_regular_cycle_and_star():
    five_cycle = Graph.from_edges(*cycle_edges(5))
    assert check_edge_regular(five_cycle) == ErgParams(5, 2, 0)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    result = check_edge_regular(star)
    assert isinstance(result, Failure)
    u, v = result.witness
    assert star.degree(u) != star.degree(v)


def test_edge_regular_failure_carries_deviant_edge():
    # two triangles sharing a vertex made 2-regular: bowtie is irregular, use
    # instead a 4-cycle plus chord's complement... simplest: prism vs near-prism
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    # triangular prism: 3-regular, adjacent in triangle share 1, across share 0
    result = check_edge_regular(g)
    assert isinstance(result, Failure)
    u, v = result.witness
    assert g.has_edge(u, v)


def test_vertex_of_degree_zero():
    g = Graph.from_edges(5, [(1, 2)])
    assert g.adjacent_counts(()).tolist() == [0, 0, 0, 0, 0]
    assert _pair_profile(g, (0,), adjacent=False) == {0: (0, 1)}
    assert _pair_profile(g, (0,), adjacent=True) == {}
    assert check_edge_regular(g) == Failure(detail="degrees differ: deg(0)=0, deg(1)=1", witness=(0, 1))


def test_strongly_regular_petersen(petersen):
    scan = check_strongly_regular(petersen)
    assert scan.verdict == "SRG"
    params = scan.params
    assert (params.n, params.k, params.lam, params.mu) == (10, 3, 0, 1)
    assert {params.theta1, params.theta2} == {1.0, -2.0}


def test_strongly_regular_complete():
    g = Graph.from_edges(*complete_edges(5))
    assert check_strongly_regular(g).verdict == "Complete"


def test_strongly_regular_x1(x1):
    _, _, _, g = x1
    scan = check_strongly_regular(g)
    assert scan.verdict == "NotSRG"
    assert scan.mu_values == (2, 3, 4)
    assert scan.witnesses == ((0, 9, 2), (0, 1, 3), (0, 10, 4))
    for u, v, mu in scan.witnesses:
        assert not g.has_edge(u, v)
        assert g.common_neighbours(u, v) == mu


def test_strongly_regular_requires_edge_regular():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotEdgeRegular):
        check_strongly_regular(star)


@pytest.mark.parametrize("source", [-1, 28])
def test_scans_refuse_a_source_outside_the_graph(x1, source):
    _, _, _, g = x1
    erg = check_edge_regular(g, (0,))
    with pytest.raises(IndexOutOfRange, match=f"source {source} not in"):
        check_edge_regular(g, (source,))
    with pytest.raises(IndexOutOfRange, match=f"source {source} not in"):
        check_strongly_regular(g, None, (source,))
    with pytest.raises(IndexOutOfRange, match=f"source {source} not in"):
        check_strongly_regular(g, erg, (source,))


def test_scans_refuse_sources_that_reach_no_pair(x1):
    # vertex 27, the last of x1, has neither a higher neighbour nor a higher non-neighbour
    _, _, _, g = x1
    erg = check_edge_regular(g, (0,))
    for sources in ((27,), ()):
        with pytest.raises(ValueError, match="reach no edge"):
            check_edge_regular(g, sources)
        with pytest.raises(ValueError, match="reach no non-edge"):
            check_strongly_regular(g, erg, sources)


def test_complete_and_edgeless_verdicts_come_from_the_degree():
    # from the last vertex, which reaches no pair (u, v) with u < v
    k5 = Graph.from_edges(*complete_edges(5))
    assert check_strongly_regular(k5, check_edge_regular(k5), (4,)) == ("Complete", None, (), ())
    edgeless = Graph.from_edges(4, [])
    assert check_edge_regular(edgeless, (3,)) == ErgParams(4, 0, 0)


def test_strongly_regular_reuses_given_lambda_pass(petersen):
    erg = check_edge_regular(petersen)
    assert check_strongly_regular(petersen, erg=erg) == check_strongly_regular(petersen)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotEdgeRegular):
        check_strongly_regular(star, erg=check_edge_regular(star))


# (l, m, p, a, pi): every search hit with N <= 2000 (m=2: q <= 79, m=3: q <= 127),
# the failing instances l=2 q=7, GF(49) l=1, q=13 l=3, GF(25) l=2 and q=29 psi2,
# GF(25) at l=1, and GF(27) through m=1 (one class: every nonzero field element)
SMALL_CAYLEY = [
    (1, 2, 7, 1, (0, 1, 2)),
    (1, 2, 13, 1, (0, 1, 2)),
    (2, 2, 19, 1, (0, 1, 2)),
    (2, 2, 37, 1, (0, 1, 2)),
    (4, 2, 7, 2, (0, 1, 2)),
    (4, 2, 61, 1, (0, 1, 2)),
    (4, 2, 67, 1, (0, 1, 2)),
    (5, 2, 73, 1, (0, 1, 2)),
    (4, 2, 79, 1, (0, 1, 2)),
    (1, 3, 29, 1, psi1_table()),
    (1, 3, 43, 1, psi2_table()),
    (1, 3, 71, 1, psi2_table()),
    (1, 3, 127, 1, psi1_table()),
    (2, 2, 7, 1, (0, 1, 2)),
    (1, 2, 7, 2, (0, 1, 2)),
    (3, 2, 13, 1, (0, 1, 2)),
    (2, 2, 5, 2, (0, 1, 2)),
    (1, 3, 29, 1, psi2_table()),
    (1, 2, 5, 2, (0, 1, 2)),
    (1, 1, 3, 3, (0,)),
    (2, 1, 3, 3, (0,)),
]


@pytest.mark.parametrize("l,m,p,a,pi", SMALL_CAYLEY, ids=lambda x: str(x) if isinstance(x, int) else "pi")
def test_certificate_from_vertex_0_matches_exhaustive_oracles(l, m, p, a, pi):
    gp, pi, _, g = cayley_instance(l, m, p, a, pi)
    cert = assemble_certificate(gp, pi, None, g)
    assert cert.checks[0]["name"] == "vertex_transitive" and cert.checks[0]["pass"]
    adj = to_sets(g)
    first_edge = (0, min(adj[0]))
    lam = naive_common_neighbours(adj, *first_edge)
    failure = naive_lambda_failure(adj)
    edge_check = cert.checks[1]
    assert edge_check["name"] == "edge_regular"
    if failure is None:
        assert edge_check["pass"] and cert.lam == lam
    else:
        u, v, count = failure
        assert cert.lam is None
        assert edge_check["detail"] == f"edge {first_edge} has {lam} common neighbours, edge {(u, v)} has {count}"
    witnesses = naive_mu_witnesses(adj)
    assert cert.srg["mu_values"] == sorted(witnesses)
    assert cert.srg["witnesses"] == [[u, v, mu] for mu, (u, v) in sorted(witnesses.items())]


def _two_switch(g, vertices=None):
    """A degree-preserving 2-switch: edges ab, cd become ac, bd (the first such choice
    with a, b, c, d all in `vertices`, default every vertex)."""
    edges = [(a, b) for a, b in edge_list(g) if vertices is None or {a, b} <= vertices]
    for a, b in edges:
        for c, d in edges:
            if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
                return _switched(g, (a, b), (c, d))
    raise AssertionError("no 2-switch")


def _switched(g, ab, cd):
    (a, b), (c, d) = ab, cd
    removed = {tuple(sorted(e)) for e in (ab, cd)}
    added = {tuple(sorted(e)) for e in ((a, c), (b, d))}
    return Graph.from_edges(g.n, set(edge_list(g)) - removed | added)


def _block_elements(gp):
    """The nonzero block elements (z, v, 0), in ascending block index z * 2^m + v."""
    return [GroupElement(z, v, 0) for z in range(gp.l) for v in range(1 << gp.m) if (z, v) != (0, 0)]


def _field_generators(gp):
    return [e for e in group_generators(gp) if e.f]


def _violates(translate, g, e, u):
    perm = translate(e)
    return sorted(perm[list(g.neighbours(u))].tolist()) != list(g.neighbours(int(perm[u])))


def _assert_check_matches_oracle(gp, g):
    """check_translations fails exactly when the per-generator, all-rows oracle does,
    with the documented witness: (e, 0) for the smallest vertex u whose row is not
    row 0 moved by e, the element that moves 0 to u."""
    failure, naive = check_translations(gp, g), naive_translation_failure(gp, g)
    assert (failure is None) == (naive is None)
    witness = naive_translation_witness(gp, g)
    assert (witness is None) == (naive is None)
    if failure is None:
        return
    assert _violates(translator(gp), g, *naive)
    e, u = witness
    assert failure.witness == (e, 0)
    assert failure.detail == f"translation by {tuple(e)} maps the neighbours of 0 off those of {u}"


def test_two_switch_fails_vertex_transitivity(x1):
    gp, pi, _, g = x1
    switched = _two_switch(g)
    assert switched.is_regular() == g.is_regular()
    cert = assemble_certificate(gp, pi, None, switched)
    assert not cert.passed
    assert cert.first_failure() == "vertex_transitive"
    failure = check_translations(gp, switched)
    assert cert.checks[0]["detail"] == failure.detail
    e, u = failure.witness
    assert u == 0
    perm = translator(gp)(e)
    image = sorted(perm[list(switched.neighbours(u))].tolist())
    assert image != list(switched.neighbours(int(perm[u])))


_cayley = functools.cache(cayley_instance)


# the two larger benchmark instances (N = 8,756 and 6,304)
LARGE_CAYLEY = [(11, 2, 199, 1, (0, 1, 2)), (4, 3, 197, 1, psi1_table())]

# SMALL_CAYLEY (the benchmark's search hits with N <= 2000 among them), the two
# larger benchmark instances and non-default bijections
TRANSLATION_CASES = SMALL_CAYLEY + LARGE_CAYLEY + [
    (3, 2, 13, 1, (2, 0, 1)),
    (2, 3, 29, 1, (6, 5, 4, 3, 2, 1, 0)),
]


@pytest.mark.parametrize("l,m,p,a,pi", TRANSLATION_CASES, ids=lambda x: str(x) if isinstance(x, int) else "pi")
def test_translation_check_passes_with_oracle_on_built_graphs(l, m, p, a, pi):
    gp, _, _, g = _cayley(l, m, p, a, pi)
    assert check_translations(gp, g) is None
    assert naive_translation_failure(gp, g) is None


SWITCH_CASES = [
    (1, 2, 7, 1, (0, 1, 2)),
    (3, 2, 13, 1, (2, 0, 1)),
    (4, 2, 7, 2, (0, 1, 2)),
    (2, 1, 3, 2, (0,)),
    (1, 3, 29, 1, psi1_table()),
    (6, 2, 13, 1, (2, 0, 1)),  # most drawn 2-switches land in blocks (z, v), z >= 1, rotations of (0, v)
]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(SWITCH_CASES), outside_block_0=st.booleans(), data=st.data())
def test_translation_check_matches_oracle_on_drawn_two_switches(case, outside_block_0, data):
    gp, _, _, g = _cayley(*case)
    low = gp.q if outside_block_0 else 0
    a = data.draw(st.integers(low, g.n - 1))
    b = data.draw(st.sampled_from([w for w in g.neighbours(a) if w >= low]))
    c = data.draw(st.sampled_from([w for w in range(low, g.n) if w != a and not g.has_edge(a, w)]))
    ds = [w for w in g.neighbours(c) if w >= low and w not in (a, b) and not g.has_edge(b, w)]
    assume(ds)
    d = data.draw(st.sampled_from(ds))
    _assert_check_matches_oracle(gp, _switched(g, (a, b), (c, d)))


def test_translation_check_reads_blocks_beyond_the_generators():
    # a 2-switch among blocks that no group generator's translation reaches from block 0
    gp, _, _, g = _cayley(3, 2, 13, 1, (2, 0, 1))
    generator_blocks = {e.z * 4 + e.v for e in group_generators(gp)}
    vertices = {u for u in range(g.n) if u // gp.q not in generator_blocks | {0}}
    switched = _two_switch(g, vertices)
    assert check_translations(gp, switched) is not None
    _assert_check_matches_oracle(gp, switched)


def _with_rows(g, rows):
    """g with each row u of `rows` stored as listed, unvalidated, so a row may be out of order."""
    table = g.row_table.copy()
    for u, row in rows.items():
        table[u] = row
    return Graph(g.indptr, table.ravel(), validate=False)


def _swapped(row, i, j):
    row = list(row)
    row[i], row[j] = row[j], row[i]
    return row


@pytest.mark.parametrize("case", SWITCH_CASES, ids=str)
def test_translation_check_matches_oracle_on_block_0_switches(case):
    # a, c in block 0 trade neighbours b, d of two other blocks for each other,
    # so rows a and c no longer have the column blocks of row 0
    gp, _, _, g = _cayley(*case)
    q = gp.q
    a, b, c, d = next(
        (a, b, c, d)
        for a, c in combinations(range(1, q), 2)
        if not g.has_edge(a, c)
        for b in g.neighbours(a)
        for d in g.neighbours(c)
        if b // q not in (0, d // q) and d // q and not g.has_edge(b, d)
    )
    switched = _switched(g, (a, b), (c, d))
    blocks = [[w // q for w in switched.neighbours(u)] for u in (0, a, c)]
    assert blocks[1] != blocks[0] and blocks[2] != blocks[0]
    _assert_check_matches_oracle(gp, switched)


@pytest.mark.parametrize("case", SWITCH_CASES, ids=str)
@pytest.mark.parametrize("block", [0, 1])
@pytest.mark.parametrize("i,j", [(0, 1), (0, -1)], ids=["one_block", "two_blocks"])
def test_translation_check_matches_oracle_on_rows_stored_out_of_order(case, block, i, j):
    gp, _, _, g = _cayley(*case)
    u = block * gp.q  # row 0, or its translate by the first block element
    row = g.neighbours(u)
    assert (row[i] // gp.q == row[j] // gp.q) == (j == 1)
    stored = _with_rows(g, {u: _swapped(row, i, j)})
    # every row holds the right set, but row u is not sorted
    assert check_translations(gp, stored).witness == ((0, block, 0), 0)
    _assert_check_matches_oracle(gp, stored)


def _gathered_translates(gp, g, u, row):
    """g with row u stored as `row`, and each translate b * q + u of u by a block
    element stored as `row` gathered in row 0's column order: entry j moved by
    the offset of row 0's column block c_j, the entries stably ordered by their
    target blocks. That is the sorted image only for a strictly ascending row
    with the column blocks of row 0."""
    q = gp.q
    translate = translator(gp)
    cols = [w // q for w in g.neighbours(0)]
    rows = {u: row}
    for b, e in enumerate(_block_elements(gp), 1):
        moved = (translate(e)[::q] // q).tolist()  # the block each block moves to
        order = sorted(range(len(row)), key=lambda j: moved[cols[j]])
        rows[b * q + u] = [row[j] + (moved[cols[j]] - cols[j]) * q for j in order]
    return _with_rows(g, rows)


@pytest.mark.parametrize("case", SWITCH_CASES, ids=str)
@pytest.mark.parametrize("edit", ["out_of_order", "other_column_blocks"])
def test_translation_check_fails_on_gathered_translates(case, edit):
    # every translate of u holds the gather of u's row in row 0's column order,
    # which a check comparing each block with a column gather of block 0 passes
    gp, _, _, g = _cayley(*case)
    q = gp.q
    if edit == "out_of_order":
        u, row = 0, _swapped(g.neighbours(0), 0, 1)
    else:
        # a row u that no field generator reaches from a smaller row
        maps = [field_shift(gp)(e.f) for e in _field_generators(gp)]
        u = next(u for u in range(1, q) if all(np.flatnonzero(fmap == u)[0] > u for fmap in maps))
        row = list(g.neighbours(u))
        p = next(p for p in range(1, len(row)) if row[p] // q > row[p - 1] // q and (row[p - 1] + 1) % q)
        row[p] = row[p - 1] + 1  # entry p moves into the column block of entry p - 1
    stored = _gathered_translates(gp, g, u, row)
    assert check_translations(gp, stored).witness == (decode_vertex(gp, u), 0)
    _assert_check_matches_oracle(gp, stored)


@pytest.mark.parametrize("case", [(3, 2, 13, 1, (2, 0, 1)), (6, 2, 13, 1, (2, 0, 1)), (4, 3, 197, 1, psi1_table())])
@pytest.mark.parametrize("turn", [1, -1])
def test_translation_check_fails_on_blocks_rotated_one_column_too_far(case, turn):
    # every block (z, v), z >= 1, holds the rows of (0, v) rotated by t_z + turn
    # columns: each row keeps its set of neighbours, out of order
    gp, _, _, g = _cayley(*case)
    size = (1 << gp.m) * gp.q
    table = g.row_table.copy()
    table[size:] = np.roll(table[size:], turn, axis=1)
    stored = Graph(g.indptr, table.ravel(), validate=False)
    assert check_translations(gp, stored).witness == ((1, 0, 0), 0)
    _assert_check_matches_oracle(gp, stored)


@pytest.mark.parametrize("block_bytes", [None, 1 << 10])
def test_translation_check_names_a_block_0_row_before_a_rotated_one(monkeypatch, block_bytes):
    # the last row of block (0, 3) and the first of block (1, 3) both differ
    if block_bytes:
        monkeypatch.setattr(certify, "BLOCK_BYTES", block_bytes)
    gp, _, _, g = _cayley(6, 2, 13, 1, (2, 0, 1))
    q = gp.q
    u0, u1 = 4 * q - 1, 7 * q
    stored = _with_rows(g, {u: _swapped(g.neighbours(u), 0, 1) for u in (u0, u1)})
    assert check_translations(gp, stored).witness == (decode_vertex(gp, u0), 0)
    _assert_check_matches_oracle(gp, stored)
    assert check_translations(gp, _with_rows(g, {u1: _swapped(g.neighbours(u1), 0, 1)})).witness == ((1, 3, 0), 0)


def _block_invariant_two_switch(gp, g):
    """g with the first 2-switch ab, cd -> ac, bd, a < c in block 0, made at once in
    every block: the graph stays invariant under each block translation (z, v, 0)."""
    translate = translator(gp)
    moves = [translate(e) for e in [GroupElement(0, 0, 0)] + _block_elements(gp)]
    edges = set(edge_list(g))

    def orbit(x, y):
        return {tuple(sorted((int(t[x]), int(t[y])))) for t in moves}

    for a, c in combinations(range(gp.q), 2):
        for b in g.neighbours(a):
            for d in g.neighbours(c):
                removed, added = orbit(a, b) | orbit(c, d), orbit(a, c) | orbit(b, d)
                if len(removed) == len(added) == 2 * len(moves) and not added & edges:
                    return Graph.from_edges(g.n, edges - removed | added)
    raise AssertionError("no block-invariant 2-switch")


@pytest.mark.parametrize("case", [(1, 2, 7, 1, (0, 1, 2)), (3, 2, 13, 1, (2, 0, 1)), (2, 1, 3, 2, (0,))])
def test_block_invariant_graph_fails_on_a_field_generator(case):
    gp, _, _, g = _cayley(*case)
    switched = _block_invariant_two_switch(gp, g)
    assert switched.is_regular() == g.is_regular()
    e, _ = check_translations(gp, switched).witness
    assert (e.z, e.v) == (0, 0) and e.f  # the first row that differs is in block 0
    assert naive_translation_failure(gp, switched)[0] in _field_generators(gp)
    _assert_check_matches_oracle(gp, switched)


def test_translations_report_irregular_graph(x1):
    gp, pi, _, g = x1
    edges = edge_list(g)[1:]
    irregular = Graph.from_edges(g.n, edges)
    failure = check_translations(gp, irregular)
    assert failure.detail.startswith("degrees differ")
    cert = assemble_certificate(gp, pi, None, irregular)
    assert cert.first_failure() == "vertex_transitive"
    assert check_translations(gp, g) is None
    larger = check_translations(gp, Graph.from_edges(g.n + 1, edge_list(g)))
    assert larger.detail == "the graph has 29 vertices, the group 28"


def _peak(call):
    """Bytes of the tracemalloc peak over one call of `call`."""
    call()  # warm: one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _translation_check_peak(gp, g):
    """Bytes of the tracemalloc peak over one passing check_translations call."""
    assert check_translations(gp, g) is None
    return _peak(lambda: check_translations(gp, g))


@pytest.mark.parametrize("q,l_small,l_large", [(199, 1, 11), (7, 50, 250)])
def test_translation_check_allocates_no_per_vertex_array(monkeypatch, q, l_small, l_large):
    # one-row chunks leave arrays of l * 2^m entries, one row of k and q
    # entries per field generator. At q = 199 one int64 array of N entries
    # would grow the peak by 8 * 199 bytes per added block; at q = 7
    # (200 and 1,000 blocks) an int32 array of l * 2^m entries kept per
    # block element would grow it by 4 * l * 2^m bytes per added block
    monkeypatch.setattr(certify, "BLOCK_BYTES", 1 << 10)
    small, large = (cayley_instance(l, 2, q, 1, (0, 1, 2)) for l in (l_small, l_large))  # not cached: up to 28 MB
    growth = _translation_check_peak(large[0], large[3]) - _translation_check_peak(small[0], small[3])
    added_blocks = 4 * (l_large - l_small)
    assert growth < 256 * added_blocks


@pytest.mark.parametrize("case", LARGE_CAYLEY, ids=["m2-q199-l11", "m3-q197-l4-psi1"])
def test_translation_check_peaks_below_the_mu_scan(case):
    # the check runs before the scan from vertex 0 in a certificate, so it
    # must not set the peak
    gp, _, _, g = _cayley(*case)
    assert _translation_check_peak(gp, g) <= _peak(lambda: check_strongly_regular(g, None, (0,)))


def test_translations_pass_on_edgeless_graph(x1):
    # every translation maps an empty neighbour row onto an empty row
    gp = x1[0]
    assert check_translations(gp, Graph(np.zeros(29, dtype=np.int64), [])) is None


def test_canonical_spread_x1(x1):
    gp, _, _, g = x1
    spread = canonical_spread(gp)
    assert spread.shape == (7, 4)
    assert len(spread) == 7
    assert all(len(c) == 4 for c in spread)
    covered = sorted(v for clique in spread for v in clique)
    assert covered == list(range(28))
    for clique in spread:
        report = clique_nexus(g, clique)
        assert report.order == 4
        assert report.nexus == 1
        assert report.witnesses is None
        assert g.common_neighbours(clique[0], clique[1]) == 2  # adjacent pair: lambda


def test_clique_nexus_single_edge_not_regular(x1):
    gp, _, _, g = x1
    edge = canonical_spread(gp)[0][:2]
    report = clique_nexus(g, edge)
    assert report.nexus is None
    (v1, c1), (v2, c2) = report.witnesses
    assert c1 != c2
    assert sum(g.has_edge(v1, v) for v in edge) == c1


def test_clique_nexus_errors(x1):
    _, _, _, g = x1
    k4 = Graph.from_edges(*complete_edges(4))
    with pytest.raises(NoOutsideVertices):
        clique_nexus(k4, [0, 1, 2, 3])
    with pytest.raises(NotAClique):
        clique_nexus(g, [0, 1, 2])  # 0 and 1 differ by an element outside the connection set
    with pytest.raises(ValueError):
        clique_nexus(g, [0])
    for clique, first_outside in (([0, 29, 28], 28), ([30, 0, -1], -1)):
        with pytest.raises(IndexOutOfRange, match=f"vertex {first_outside} "):
            clique_nexus(g, clique)


def test_clique_nexus_reports_python_ints(x1):
    # a spread row is a numpy array; the report and the witness hold plain ints all the same
    gp, _, _, g = x1
    report = clique_nexus(g, canonical_spread(gp)[0])
    assert repr(report.clique) == "(0, 7, 14, 21)"
    with pytest.raises(NotAClique) as exc:
        clique_nexus(g, np.array([0, 1, 2, 3]))
    assert repr(exc.value.witness) == "(0, 1)"
    assert str(exc.value) == "vertices 0 and 1 are not adjacent"


def _assert_nexus_matches_oracle(g, clique, adj):
    attached = naive_attachments(adj, clique)
    differing = [pair for pair in attached if pair[1] != attached[0][1]]
    report = clique_nexus(g, clique)
    assert report.clique == tuple(sorted(clique))
    assert report.order == len(clique)
    assert report.nexus == (None if differing else attached[0][1])
    assert report.witnesses == ((attached[0], differing[0]) if differing else None)


def test_clique_nexus_matches_oracle(x1, m3_29):
    for gp, _, _, g in (x1, m3_29):
        adj = to_sets(g)
        for clique in canonical_spread(gp):  # row 0 holds vertex 0, every other row misses it
            _assert_nexus_matches_oracle(g, clique.tolist(), adj)
    # on the circulant with steps 1 .. s-1 every s consecutive vertices form a clique
    g = Graph.from_edges(*circulant_edges(23, [1, 2, 3, 5]))
    adj = to_sets(g)
    for clique in ([0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 3], [0, 2, 3], [1, 2, 3, 4], [5, 6, 7, 8], [20, 21, 22]):
        _assert_nexus_matches_oracle(g, clique, adj)
    # every edge of irregular graphs, which count row by row
    rng = random.Random(17)
    graphs = [Graph.from_edges(*complete_bipartite_edges(2, 3))]
    graphs += [Graph.from_edges(n, random_edges(n, 0.35, rng)) for n in (6, 11, 30)]
    for g in graphs:
        assert g.is_regular() is None
        adj = to_sets(g)
        for edge in edge_list(g):
            _assert_nexus_matches_oracle(g, list(edge), adj)


def test_predicted_local_valencies_x1(x1):
    gp, pi, ctx, g = x1
    predicted = predicted_local_valencies(gp, pi, ctx)
    assert predicted == Counter({2: 9})
    assert predicted == g.neighbourhood_degree_multiset(0)
    assert sum(predicted.values()) == 9  # the degree


def test_predicted_local_valencies_non_uniform_for_l2():
    gp, pi, ctx, g = cayley_instance(2, 2, 7, 1, (0, 1, 2))
    predicted = predicted_local_valencies(gp, pi, ctx)
    assert predicted == Counter({6: 7, 2: 6})
    assert predicted == g.neighbourhood_degree_multiset(0)


def test_predicted_mu_witness_m2(x1):
    gp, pi, ctx, g = x1
    # pi(g) = 0 at g = 1 gives the count 2 + 2*c(0,1) = 2
    assert predicted_mu_witness(gp, pi, ctx, 1) == 2
    assert predicted_mu_witness(gp, pi, ctx, 3) == 4
    with pytest.raises(HypothesisViolated):
        predicted_mu_witness(gp, pi, ctx, 2)  # pi(2) = 1: adjacent pair
    with pytest.raises(HypothesisViolated):
        predicted_mu_witness(gp, pi, ctx, 0)


def test_predicted_local_valencies_m3(m3_29):
    gp, pi, ctx, g = m3_29
    # slice valency is 6 * c(1,5) = 6, matching the within-s0 valency 8l - 2
    predicted = predicted_local_valencies(gp, pi, ctx)
    assert predicted == Counter({6: 35})
    assert predicted == g.neighbourhood_degree_multiset(0)


def test_predicted_mu_witness_m3(m3_29):
    gp, pi, ctx, g = m3_29
    from regclique.construction import GroupElement, encode_vertex

    expected = {1: 2, 2: 4, 3: 4, 5: 6, 6: 4, 7: 10}
    rho = int(gp.pd.exp[1])
    for gv, want in expected.items():
        assert predicted_mu_witness(gp, pi, ctx, gv) == want
        w = encode_vertex(gp, GroupElement(0, gv, rho))
        assert g.common_neighbours(0, w) == want
    assert pi[4 - 1] == 1
    with pytest.raises(HypothesisViolated):
        predicted_mu_witness(gp, pi, ctx, 4)


def _slice_sum_instances():
    """The search hits with N <= 2000 (m=2: q <= 79, m=3: q <= 127) and five instances whose certificates fail."""
    hits = [(r.l, 2, r.p, r.a, (0, 1, 2)) for r in search_m2(79)]
    hits += [(r.l, 3, r.p, r.a, psi1_table() if r.variant == "psi1" else psi2_table()) for r in search_m3(127)]
    assert len(hits) == 13
    failing = [
        (2, 2, 7, 1, (0, 1, 2)),
        (1, 2, 7, 3, (0, 1, 2)),
        (6, 2, 13, 1, (2, 0, 1)),
        (1, 3, 29, 1, psi2_table()),
        (3, 3, 43, 1, psi2_table()),
    ]
    return [
        pytest.param(l, m, p, a, pi, id=f"l{l}-m{m}-q{p**a}-pi{''.join(map(str, pi))}")
        for l, m, p, a, pi in hits + failing
    ]


@pytest.mark.parametrize("l, m, p, a, pi", _slice_sum_instances())
def test_common_neighbours_at_zero_are_slice_sums(l, m, p, a, pi):
    # |N(0) & N(w)| at w = (0, u, rho^i), every vector u and class i: T(u, pi(u)) when w is
    # in the slice of u, else 2 [u != pi^-1(i)] + T(u, i); lambda at (z, v, 0); 2 at (z, v, 1), z >= 1
    gp, pi, ctx, g = cayley_instance(l, m, p, a, pi)
    at_zero = g.adjacent_counts(np.array(g.neighbours(0), dtype=np.intp))
    n, q, vectors = ctx.n, gp.q, 1 << m
    for u in range(vectors):
        for i in range(n):
            w = u * q + i + 1
            if u and i == pi[u - 1]:
                assert g.has_edge(0, w)
                assert at_zero[w] == slice_sum(gp, pi, ctx, u, i)
            else:
                assert not g.has_edge(0, w)
                assert at_zero[w] == 2 * (u != pi.index(i) + 1) + slice_sum(gp, pi, ctx, u, i)
    blocks = np.arange(1, l * vectors) * q
    assert (at_zero[blocks] == vectors * l - 2).all()
    assert (at_zero[blocks[vectors - 1 :] + 1] == 2).all()


def test_predictions_refuse_a_context_of_another_n(x1):
    gp, pi, ctx3, _ = x1
    for n in (1, 2, 6):
        ctx = make_context(gp.field, gp.pd, n)
        message = f"context has n = {n}, group needs n = 3"
        with pytest.raises(WrongN, match=message):
            predicted_local_valencies(gp, pi, ctx)
        with pytest.raises(WrongN, match=message):
            predicted_mu_witness(gp, pi, ctx, 1)
        with pytest.raises(WrongN, match=message):
            slice_sum(gp, pi, ctx, 1, 0)
    for u in (-1, 4):  # not a vector of Z_2^2
        with pytest.raises(IndexOutOfRange, match=f"vector {u} not in"):
            slice_sum(gp, pi, ctx3, u, 0)


def test_quotient_matrix_x1(x1):
    gp, _, _, g = x1
    clique = canonical_spread(gp)[0]
    rest = [v for v in range(g.n) if v not in set(clique)]
    qm = quotient_matrix(g, [clique, rest])
    assert qm.equitable
    assert qm.entries == ((Fraction(3), Fraction(6)), (Fraction(1), Fraction(8)))
    hi, lo = eigenvalues_2x2(qm.entries)
    assert abs(hi - 9) < 1e-9
    assert abs(lo - 2) < 1e-9


def test_quotient_matrix_inequitable_partition():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    qm = quotient_matrix(path, [[0, 1], [2, 3]])
    assert not qm.equitable


def test_quotient_matrix_partition_validation(x1):
    _, _, _, g = x1
    with pytest.raises(NotAPartition):
        quotient_matrix(g, [list(range(10))])
    with pytest.raises(NotAPartition):
        quotient_matrix(g, [list(range(20)), list(range(15, 28))])
    with pytest.raises(NotAPartition):
        quotient_matrix(g, [list(range(28)), []])


def test_srg_clique_parameters():
    params = srg_clique_parameters(3, 2)
    assert (params.n, params.k, params.lam, params.mu) == (28, 9, 2, 3)
    assert (params.theta1, params.theta2) == (2, -3)
    assert (params.n - params.k - 1) * params.mu == 54 == params.k * (params.k - params.lam - 1)
    assert srg_clique_parameters(1, 1) == srg_clique_parameters(1, 1)
    assert (srg_clique_parameters(1, 1).n, srg_clique_parameters(1, 1).k) == (4, 2)
    with pytest.raises(ValueError):
        srg_clique_parameters(0, 1)


def test_certificate_x1_passes(x1):
    gp, pi, _, g = x1
    cert = assemble_certificate(gp, pi, None, g)
    assert cert.passed
    assert (cert.n_vertices, cert.k, cert.lam) == (28, 9, 2)
    assert cert.spread == {"count": 7, "order": 4, "nexus": 1}
    assert cert.srg["verdict"] == "NotSRG"
    assert cert.first_failure() is None
    # forced parameters would need mu = t + 1 = 3; the witnessed mu = 2 differs
    t, rem = divmod(gp.q - 1, 2 * 1 + 1)
    assert rem == 0
    assert 2 != t + 1


def test_certificate_counts_each_question_once(monkeypatch, m3_29):
    gp, pi, _, g = m3_29
    calls = []
    adjacent_counts = Graph.adjacent_counts

    def counted(graph, vertices):
        calls.append(len(vertices))
        return adjacent_counts(graph, vertices)

    monkeypatch.setattr(Graph, "adjacent_counts", counted)
    assert assemble_certificate(gp, pi, "psi1", g).passed
    # the q spread cliques, the lambda pass, the mu pass and one count of N(0) for every prediction
    assert len(calls) == gp.q + 3
    assert calls.count(g.degree(0)) == 3


@pytest.mark.parametrize("edit", ["drop_last", "repeat_first"])
def test_certificate_spread_must_partition_vertices(monkeypatch, x1, edit):
    gp, pi, _, g = x1
    spread = canonical_spread(gp)
    spread = spread[:-1] if edit == "drop_last" else np.vstack((spread[:-1], spread[:1]))
    monkeypatch.setattr(certify, "canonical_spread", lambda _: spread)
    cert = assemble_certificate(gp, pi, None, g)
    check = next(c for c in cert.checks if c["name"] == "clique_spread")
    assert check == {"name": "clique_spread", "pass": False, "detail": "cliques do not partition the vertex set"}


@pytest.mark.parametrize("n", [8, 27, 29])
def test_certificate_of_a_graph_with_another_vertex_count_fails(x1, n):
    gp, pi, _, g = x1
    other = Graph.from_edges(n, [(u, v) for u, v in edge_list(g) if v < n])
    cert = assemble_certificate(gp, pi, None, other)
    assert cert.first_failure() == "vertex_transitive"
    assert not cert.passed
    checks = {c["name"]: c for c in cert.checks}
    assert not checks["clique_spread"]["pass"]
    if n == 8:  # both mu witnesses, vertices 9 and 23, lie beyond the graph
        assert checks["mu_witnesses"]["detail"] == "mismatches [(1, 2, None), (3, 4, None)]"


def test_certificate_l2_fails_edge_regularity():
    gp, pi, _, g = cayley_instance(2, 2, 7, 1, (0, 1, 2))
    cert = assemble_certificate(gp, pi, None, g)
    assert not cert.passed
    assert cert.first_failure() == "edge_regular"
    assert cert.lam is None
    by_name = {c["name"]: c["pass"] for c in cert.checks}
    assert not by_name["edge_regular"]
    assert not by_name["parameters"]
    assert by_name["clique_spread"]
    assert by_name["local_valencies"]
    assert by_name["mu_witnesses"]
    assert by_name["not_strongly_regular"]


def test_certificate_without_a_cyclotomic_context():
    # q = 5: n = 3 does not divide q - 1, so neither prediction can be made
    field = build_field(5, 1)
    gp = make_group(1, 2, field, find_primitive_element(field))
    cert = assemble_certificate(gp, (0, 1, 2), None, Graph.from_edges(*cycle_edges(20)))
    checks = {c["name"]: c for c in cert.checks}
    detail = "no cyclotomic context: n = 3 does not divide q - 1 = 4"
    for name in ("local_valencies", "mu_witnesses"):
        assert checks[name] == {"name": name, "pass": False, "detail": detail}
    assert not cert.passed


def test_certificate_proves_only_a_cayley_graph_of_the_group():
    # the psi2 graph is a Cayley graph of the group, so the translation check
    # passes; the checks against the psi1 predictions are what tell it apart
    gp, _, _, g = _cayley(1, 3, 29, 1, psi2_table())
    cert = assemble_certificate(gp, psi1_table(), "psi1", g)
    by_name = {c["name"]: c["pass"] for c in cert.checks}
    assert by_name["vertex_transitive"]
    assert not any(by_name[name] for name in ("edge_regular", "parameters", "local_valencies", "mu_witnesses"))


def test_certificate_json_contract(x1):
    gp, pi, _, g = x1
    cert = assemble_certificate(gp, pi, None, g)
    data = json.loads(cert.to_json())
    assert list(data.keys()) == [
        "m", "l", "p", "a", "q", "modulus", "rho", "pi", "variant",
        "N", "k", "lambda", "edge_regular", "spread", "srg", "checks", "pass",
    ]
    assert list(data["spread"].keys()) == ["count", "order", "nexus"]
    assert list(data["srg"].keys()) == ["verdict", "mu_values", "witnesses"]
    assert data["checks"][0]["name"] == "vertex_transitive"
    assert data["modulus"] is None
    assert data["rho"] == 3
    assert data["pi"] == [0, 1, 2]
    assert data["lambda"] == 2
    assert all(set(c) == {"name", "pass", "detail"} for c in data["checks"])


def test_certificate_m3_with_larger_clique():
    # q = 197 has c(1,5) = 5, so l = 4: cliques of order 32
    gp, pi, _, g = cayley_instance(4, 3, 197, 1, psi1_table())
    cert = assemble_certificate(gp, pi, "psi1", g)
    assert cert.passed
    assert (cert.n_vertices, cert.k, cert.lam) == (6304, 227, 30)
    assert cert.spread == {"count": 197, "order": 32, "nexus": 1}
    assert cert.srg["verdict"] == "NotSRG"
    assert cert.checks[0] == {
        "name": "vertex_transitive",
        "pass": True,
        "detail": "5 generating translations are automorphisms",
    }


def test_certificate_records_modulus_for_extension_fields():
    # GF(49) has c(1, 2) = 7, so l = 4 is the passing choice
    gp, pi, _, g = cayley_instance(4, 2, 7, 2, (0, 1, 2))
    cert = assemble_certificate(gp, pi, None, g)
    assert cert.passed
    data = json.loads(cert.to_json())
    assert data["modulus"] == [1, 0, 1]
    assert data["p"] == 7 and data["a"] == 2 and data["q"] == 49
    assert (data["N"], data["k"], data["lambda"]) == (784, 63, 14)


# ---------------------------------------------------------------------------
# vectorised kernels against the naive references


def _kernel_cases(seed):
    """Random regular (circulant) and irregular graphs on 5 to 159 vertices."""
    rng = random.Random(seed)
    cases = []
    for _ in range(25):
        n = rng.randrange(5, 160)
        steps = rng.sample(range(1, n // 2 + 1), rng.randrange(1, max(2, n // 5)))
        cases.append(Graph.from_edges(*circulant_edges(n, steps)))
        cases.append(Graph.from_edges(n, random_edges(n, rng.choice([0.1, 0.4, 0.8]), rng)))
    return rng, cases


def test_lambda_kernel_matches_reference():
    _, cases = _kernel_cases(2024)
    failures = 0
    for g in cases:
        adj = to_sets(g)
        regular = len({len(s) for s in adj}) == 1
        failure = naive_lambda_failure(adj) if regular else None
        failures += failure is not None
        result = check_edge_regular(g)
        if not regular:
            u, v = result.witness
            assert u == 0 and len(adj[v]) != len(adj[0])
            assert all(len(adj[w]) == len(adj[0]) for w in range(v))
        elif failure is None:
            assert result == ErgParams(*naive_edge_regular(adj))
        else:
            assert isinstance(result, Failure)
            assert result.witness == failure[:2]
            assert result.detail.endswith(f"edge {failure[:2]} has {failure[2]}")
    assert failures >= 5  # the witness path is exercised


def test_mu_kernel_matches_reference():
    _, cases = _kernel_cases(4711)
    for g in cases:
        adj = to_sets(g)
        exhaustive = naive_mu_witnesses(adj)
        from_identity = naive_mu_witnesses(adj, sources=(0,))
        assert _pair_profile(g, None, adjacent=False) == exhaustive
        assert _pair_profile(g, (0,), adjacent=False) == from_identity


def test_nexus_kernel_matches_reference():
    rng, cases = _kernel_cases(1312)
    for g in cases:
        adj = to_sets(g)
        for _ in range(4):
            clique = [rng.randrange(g.n)]
            for v in rng.sample(range(g.n), g.n):
                if all(v in adj[c] for c in clique):
                    clique.append(v)
            if len(clique) < 2 or len(clique) == g.n:
                continue
            attached = naive_attachments(adj, clique)
            report = clique_nexus(g, clique)
            assert report.order == len(clique)
            differing = [pair for pair in attached if pair[1] != attached[0][1]]
            if differing:
                assert report.nexus is None
                assert report.witnesses == (attached[0], differing[0])
            else:
                assert report.nexus == attached[0][1]
                assert report.witnesses is None
        for _ in range(4):
            subset = rng.sample(range(g.n), min(g.n - 1, rng.randrange(3, 7)))
            missing = naive_missing_edge(adj, subset)
            if missing is None:
                continue
            with pytest.raises(NotAClique) as info:
                clique_nexus(g, subset)
            assert info.value.witness == missing
