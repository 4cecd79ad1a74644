import functools
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regclique import construction
from regclique.construction import (
    GroupElement,
    build_cayley_graph,
    default_pi,
    encode_vertex,
    generating_set,
    graph_size,
    group_generators,
    make_group,
    phi,
    psi1,
    psi1_table,
    psi2,
    psi2_table,
    sigma_minus,
    sigma_plus,
    symmetry_witness,
    validate_bijection,
    weight,
)
from regclique.certify import Failure, check_edge_regular
from regclique.cyclotomy import cyclotomic_table, make_context
from regclique.errors import AsymmetricGeneratingSet, IndexOutOfRange, ZeroVector
from regclique.fields import build_field, dlog, find_primitive_element
from regclique.numtheory import prime_powers

from reference import decode_vertex, field_shift, group_add, naive_cayley_graph, naive_exp_table, translator


@functools.cache
def group(l, m, p, a=1):
    field = build_field(p, a)
    return make_group(l, m, field, find_primitive_element(field))


def test_phi_values():
    assert phi(0b001) == 1  # tuple (0,0,1)
    assert phi(0b111) == 0  # tuple (1,1,1): 7 mod 7
    assert phi(0b100) == 4  # tuple (1,0,0)
    with pytest.raises(ZeroVector):
        phi(0)
    with pytest.raises(ZeroVector):
        phi(8)


def test_sigma_shifts():
    # sigma_plus sends the tuple (0,0,1) to (0,1,0)
    assert sigma_plus(0b001) == 0b010
    assert sigma_minus(0b110) == 0b011
    for v in range(8):
        assert sigma_minus(sigma_plus(v)) == v
        assert weight(sigma_plus(v)) == weight(v)


def test_psi1_values_and_table():
    assert psi1(0b001) == 2  # odd weight, shifted to (0,1,0)
    assert psi1(0b110) == 3  # even weight, shifted to (0,1,1)
    assert psi1_table() == (2, 4, 5, 1, 6, 3, 0)
    assert sorted(psi1_table()) == list(range(7))
    with pytest.raises(ZeroVector):
        psi1(0)


def test_psi2_values_and_table():
    assert psi2(0b001) == 3  # shift-xor gives (0,1,1)
    assert psi2(0b110) == 1  # complement gives (0,0,1)
    assert psi2(0b111) == 0  # shift-xor collapses to the zero vector
    assert psi2_table() == (3, 6, 4, 5, 2, 1, 0)
    assert sorted(psi2_table()) == list(range(7))
    with pytest.raises(ZeroVector):
        psi2(0)


def test_validate_bijection():
    assert validate_bijection(2, [0, 1, 2]) == (0, 1, 2)
    assert default_pi(3) == (0, 1, 2, 3, 4, 5, 6)
    for bad in ([0, 1], [0, 1, 1], [0, 1, 3], [0, 1, 2, 3]):
        with pytest.raises(ValueError):
            validate_bijection(2, bad)


def test_generating_set_sizes():
    gp = group(1, 2, 7)
    s = generating_set(gp, (0, 1, 2))
    assert len([e for e in s if e.f == 0]) == 3  # s0: 2^m * l - 1
    assert all(len([e for e in s if e.f and e.v == v]) == 2 for v in (1, 2, 3))  # (q-1)/3
    assert len(s) == 9  # 2^m * l - 2 + q
    assert GroupElement(0, 0, 0) not in s


def test_generating_set_order():
    gp = group(1, 2, 7)  # rho = 3: rho^j = 1, 3, 2, 6, 4, 5 for j = 0..5
    assert generating_set(gp, (0, 1, 2)) == (
        *((0, 1, 0), (0, 2, 0), (0, 3, 0)),  # s0
        *((0, 1, 1), (0, 1, 6)),  # slice v = 1: j = 0, 3
        *((0, 2, 3), (0, 2, 4)),  # slice v = 2: j = 1, 4
        *((0, 3, 2), (0, 3, 5)),  # slice v = 3: j = 2, 5
    )
    # with a cyclic factor, s0 is ascending in (z, v); each slice ascending in j
    gp, pi = group(3, 2, 13), (2, 0, 1)
    s = generating_set(gp, pi)
    s0, slices = s[:11], s[11:]
    assert s0 == tuple(GroupElement(z, v, 0) for z in range(3) for v in range(4) if (z, v) != (0, 0))
    assert [(e.z, e.v, dlog(gp.pd, e.f)) for e in slices] == [(0, v, j) for v in (1, 2, 3) for j in range(pi[v - 1], 12, 3)]


def test_generating_set_symmetric_for_q7():
    gp = group(1, 2, 7)
    s = generating_set(gp, (0, 1, 2))
    assert symmetry_witness(gp, s) is None


def test_generating_set_asymmetric_for_q5():
    gp = group(1, 2, 5)
    s = generating_set(gp, (0, 1, 2))
    witness = symmetry_witness(gp, s)
    # the first element, in the set's order, whose negative is missing; later ones miss theirs too
    assert witness == next(e for e in s if gp.neg(e) not in s) == GroupElement(0, 1, 1)
    assert gp.neg(witness) not in s
    assert sum(gp.neg(e) not in s for e in s) > 1
    with pytest.raises(AsymmetricGeneratingSet):
        build_cayley_graph(gp, s)


def test_vertex_encoding_round_trip():
    gp = group(1, 2, 7)
    assert encode_vertex(gp, GroupElement(0, 0, 0)) == 0
    # (z, v, f) = (0, (0,1), rho^2): rho = 3, rho^2 = 2, index 1*7 + 3
    assert encode_vertex(gp, GroupElement(0, 1, 2)) == 10
    for index in range(gp.n_vertices):
        assert encode_vertex(gp, decode_vertex(gp, index)) == index
    with pytest.raises(IndexOutOfRange):
        decode_vertex(gp, 28)
    with pytest.raises(IndexOutOfRange):
        encode_vertex(gp, GroupElement(1, 0, 0))


@settings(max_examples=200, deadline=None)
@given(l=st.integers(1, 6), m=st.integers(1, 4), pp=st.sampled_from(prime_powers(2000)), data=st.data())
def test_decode_inverts_encode_on_drawn_groups(l, m, pp, data):
    _, p, a = pp
    gp = group(l, m, p, a)
    e = GroupElement(
        data.draw(st.integers(0, l - 1)), data.draw(st.integers(0, (1 << m) - 1)), data.draw(st.integers(0, gp.q - 1))
    )
    assert decode_vertex(gp, encode_vertex(gp, e)) == e


def test_vertex_encoding_with_cyclic_factor():
    gp = group(3, 2, 7)
    assert gp.n_vertices == 84
    for index in (0, 1, 27, 28, 55, 83):
        assert encode_vertex(gp, decode_vertex(gp, index)) == index


def test_x1_graph_shape(x1):
    gp, pi, _, graph = x1
    assert graph.n == 28
    assert graph.is_regular() == 9
    assert graph.m == 126
    s = generating_set(gp, pi)
    expected = sorted(encode_vertex(gp, e) for e in s)
    assert list(graph.neighbours(0)) == expected


def test_graph_adjacency_matches_group_difference(x1):
    gp, pi, _, graph = x1
    s = generating_set(gp, pi)
    for u in (0, 5, 17, 27):
        eu = decode_vertex(gp, u)
        for w in range(graph.n):
            diff = group_add(gp, decode_vertex(gp, w), gp.neg(eu))
            assert graph.has_edge(u, w) == (diff in s)


@settings(max_examples=60, deadline=None)
@given(
    l=st.integers(2, 5),
    m=st.integers(1, 3),
    pa=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (2, 4)]),
    data=st.data(),
)
def test_translator_matches_group_addition(l, m, pa, data):
    gp = group(l, m, *pa)
    translate = translator(gp)
    vertex = st.integers(0, gp.n_vertices - 1)
    for _ in range(5):
        e = decode_vertex(gp, data.draw(vertex))
        u = data.draw(vertex)
        assert translate(e)[u] == encode_vertex(gp, group_add(gp, decode_vertex(gp, u), e))
    # the translations by the generators reach every vertex from 0
    reached = np.zeros(gp.n_vertices, dtype=bool)
    reached[0] = True
    perms = [translate(e) for e in group_generators(gp)]
    while True:
        grown = reached.copy()
        for perm in perms:
            grown[perm[reached]] = True
        if (grown == reached).all():
            break
        reached = grown
    assert reached.all()


FIELDS = prime_powers(5000)


@settings(max_examples=60, deadline=None)
@given(
    pp=st.sampled_from(FIELDS) | st.sampled_from([pp for pp in FIELDS if pp[2] > 1]),
    data=st.data(),
)
def test_field_shift_matches_scalar_addition(pp, data):
    _, p, a = pp
    gp = group(1, 1, p, a)
    shift = field_shift(gp)
    exp, _ = naive_exp_table(gp.field, gp.pd.rho)
    elements = [0] + exp  # the element of each field index
    f = data.draw(st.integers(0, gp.q - 1))
    sums = [gp.field.add(x, f) for x in elements]
    assert shift(f).tolist() == [0 if y == 0 else dlog(gp.pd, y) + 1 for y in sums]
    translate = translator(gp)
    for e in group_generators(gp):
        if e.f:
            assert shift(e.f).tolist() == translate(e)[: gp.q].tolist()


def test_group_generators_x1_and_gf49():
    assert group_generators(group(1, 2, 7)) == [(0, 1, 0), (0, 2, 0), (0, 0, 1)]
    assert group_generators(group(3, 1, 7, 2)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 7)]


def _assert_build_matches_naive(gp, s):
    g, naive = build_cayley_graph(gp, s), naive_cayley_graph(gp, s)
    assert np.array_equal(g.indptr, naive.indptr)
    assert np.array_equal(g.indices, naive.indices)


# (l, m, p, a, pi): every benchmark instance (the search hits with N <= 2000,
# m=2 q=199 l=11, m=3 q=197 l=4), plus non-default bijections
BUILD_CASES = [
    *[(l, 2, q, 1, (0, 1, 2)) for q, l in ((7, 1), (13, 1), (19, 2), (37, 2), (61, 4), (67, 4), (73, 5), (79, 4))],
    (11, 2, 199, 1, (0, 1, 2)),
    (4, 2, 7, 2, (0, 1, 2)),
    (1, 3, 29, 1, psi1_table()),
    (1, 3, 43, 1, psi2_table()),
    (1, 3, 71, 1, psi2_table()),
    (1, 3, 127, 1, psi1_table()),
    (4, 3, 197, 1, psi1_table()),
    (3, 2, 13, 1, (2, 0, 1)),
    (2, 3, 29, 1, (6, 5, 4, 3, 2, 1, 0)),
]


@pytest.mark.parametrize("l,m,p,a,pi", BUILD_CASES)
def test_build_matches_naive_on_benchmark_instances(l, m, p, a, pi):
    gp = group(l, m, p, a)
    _assert_build_matches_naive(gp, generating_set(gp, pi))


@pytest.mark.parametrize("l,m,p,a,pi", BUILD_CASES)
def test_graph_size_counts_the_connection_set(l, m, p, a, pi):
    gp = group(l, m, p, a)
    s = generating_set(gp, pi)
    n, k, lam = graph_size(l, m, gp.q)
    assert (n, k) == (gp.n_vertices, len(s))
    # a Cayley graph is vertex-transitive, so the edges at vertex 0 give its lambda
    erg = check_edge_regular(build_cayley_graph(gp, s), (0,))
    if (l, m, p, a, pi) in BUILD_CASES[-2:]:  # l is not the one the field's cyclotomic number gives
        assert isinstance(erg, Failure)
    else:
        assert erg.lam == lam


@pytest.mark.parametrize("l", [1, 11])
def test_build_allocates_nothing_but_the_graph_beyond_a_constant(monkeypatch, l):
    # block 0 is filled a few rows at a time and every other block written in
    # place: one more array of a block's q * k entries would add a quarter of
    # the graph at l = 1 (160 KB) and 192 KB at l = 11
    monkeypatch.setattr(construction, "BLOCK_BYTES", 1 << 12)
    gp = group(l, 2, 199)
    s = generating_set(gp, (0, 1, 2))
    build_cayley_graph(gp, s)  # warm: one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        g = build_cayley_graph(gp, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    graph_bytes = g.indices.nbytes + g.indptr.nbytes + g.degrees.nbytes
    assert g.indices.nbytes == gp.n_vertices * len(s) * 4
    assert peak <= graph_bytes + (64 << 10)


def test_build_refuses_elements_outside_the_group():
    gp = group(1, 2, 7)
    # 7 is no element code of GF(7), but neg sends it to 0, so the set looks symmetric
    s = (GroupElement(0, 1, 7), GroupElement(0, 1, 0))
    assert symmetry_witness(gp, s) is None
    with pytest.raises(IndexOutOfRange, match="7 is not an element code of GF"):
        build_cayley_graph(gp, s)
    for e in (GroupElement(1, 1, 0), GroupElement(-1, 1, 0), GroupElement(0, 4, 0), GroupElement(0, 1, -1)):
        with pytest.raises(IndexOutOfRange):
            build_cayley_graph(gp, (e,))


def test_build_refuses_a_repeated_element():
    gp = group(1, 2, 7)
    s = generating_set(gp, (0, 1, 2))
    with pytest.raises(ValueError, match="repeats an element"):
        build_cayley_graph(gp, s + s[-1:])


@settings(max_examples=40, deadline=None)
@given(
    l=st.integers(2, 5),
    m=st.integers(1, 3),
    pa=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (7, 2), (3, 3)]),
    data=st.data(),
)
def test_build_matches_naive_on_drawn_groups(l, m, pa, data):
    gp = group(l, m, *pa)
    s = generating_set(gp, data.draw(st.permutations(range((1 << m) - 1))))
    if symmetry_witness(gp, s) is not None:
        with pytest.raises(AsymmetricGeneratingSet):
            build_cayley_graph(gp, s)
        return
    _assert_build_matches_naive(gp, s)


@settings(max_examples=40, deadline=None)
@given(
    l=st.integers(1, 4),
    m=st.integers(1, 2),
    pa=st.sampled_from([(5, 1), (7, 1), (2, 3), (3, 2)]),
    data=st.data(),
)
def test_build_matches_naive_on_any_symmetric_set(l, m, pa, data):
    # a set closed under negation, with elements in any (z, v) part, (0, 0) included
    gp = group(l, m, *pa)
    picked = data.draw(st.sets(st.integers(1, gp.n_vertices - 1), min_size=1, max_size=20))
    elements = {decode_vertex(gp, i) for i in picked}
    elements |= {gp.neg(e) for e in elements}
    _assert_build_matches_naive(gp, tuple(sorted(elements)))


def test_m3_graph_shape(m3_29):
    gp, _, _, graph = m3_29
    assert graph.n == 232
    assert graph.is_regular() == 35  # 8l - 2 + q


def test_psi_index_pattern_collapses_to_single_number():
    # for both bijections, the double-index pattern over all ordered pairs
    # lands on one cyclotomic number: c(1,5) for psi1 and c(1,3) for psi2
    for q, p, a in prime_powers(300):
        if q % 14 != 1:
            continue
        field = build_field(p, a)
        ctx = make_context(field, find_primitive_element(field), 7)
        table = cyclotomic_table(ctx)
        for pi, target in ((psi1_table(), table[1][5]), (psi2_table(), table[1][3])):
            for g in range(1, 8):
                for h in range(1, 8):
                    if h == g:
                        continue
                    row = (pi[(h ^ g) - 1] - pi[g - 1]) % 7
                    col = (pi[h - 1] - pi[g - 1]) % 7
                    assert table[row][col] == target


def test_any_bijection_works_for_m2():
    # for m = 2 the index pattern gives c(1,2) for every bijection
    for q, p, a in prime_powers(200):
        if q % 6 != 1:
            continue
        field = build_field(p, a)
        ctx = make_context(field, find_primitive_element(field), 3)
        table = cyclotomic_table(ctx)
        for pi in permutations(range(3)):
            for g in range(1, 4):
                for h in range(1, 4):
                    if h == g:
                        continue
                    row = (pi[(h ^ g) - 1] - pi[g - 1]) % 3
                    col = (pi[h - 1] - pi[g - 1]) % 3
                    assert table[row][col] == table[1][2]
