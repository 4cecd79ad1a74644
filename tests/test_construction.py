from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regclique.construction import (
    GroupElement,
    build_cayley_graph,
    decode_vertex,
    default_pi,
    encode_vertex,
    generating_set,
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
    translator,
    validate_bijection,
    weight,
)
from regclique.cyclotomy import cyclotomic_table, make_context
from regclique.errors import AsymmetricGeneratingSet, IndexOutOfRange, ZeroVector
from regclique.fields import build_field, find_primitive_element
from regclique.numtheory import prime_powers


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
    assert len(s.s0) == 3  # 2^m * l - 1
    assert all(len(s.by_vector[v]) == 2 for v in (1, 2, 3))  # (q-1)/3
    assert s.size == 9  # 2^m * l - 2 + q
    assert GroupElement(0, 0, 0) not in s.elements


def test_generating_set_symmetric_for_q7():
    gp = group(1, 2, 7)
    s = generating_set(gp, (0, 1, 2))
    assert symmetry_witness(gp, s) is None


def test_generating_set_asymmetric_for_q5():
    gp = group(1, 2, 5)
    s = generating_set(gp, (0, 1, 2))
    witness = symmetry_witness(gp, s)
    assert witness is not None
    assert gp.neg(witness) not in s.elements
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
    expected = sorted(encode_vertex(gp, e) for e in s.ordered())
    assert list(graph.neighbours(0)) == expected


def test_graph_adjacency_matches_group_difference(x1):
    gp, pi, _, graph = x1
    s = generating_set(gp, pi)
    for u in (0, 5, 17, 27):
        eu = decode_vertex(gp, u)
        for w in range(graph.n):
            diff = gp.add(decode_vertex(gp, w), gp.neg(eu))
            assert graph.has_edge(u, w) == (diff in s.elements)


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
        assert translate(e)[u] == encode_vertex(gp, gp.add(decode_vertex(gp, u), e))
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


def test_group_generators_x1_and_gf49():
    assert group_generators(group(1, 2, 7)) == [(0, 1, 0), (0, 2, 0), (0, 0, 1)]
    assert group_generators(group(3, 1, 7, 2)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 7)]


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
