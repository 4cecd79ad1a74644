import numpy as np
import pytest

from regclique.cyclotomy import (
    c3_parity_even,
    class_index,
    cyclotomic_number,
    cyclotomic_table,
    make_context,
)
from regclique.errors import BadCongruence, IndexOutOfRange, WrongN, ZeroHasNoLog
from regclique.fields import PrimitiveData, build_field, find_primitive_element
from regclique.numtheory import prime_powers

from reference import cyclotomic_class, naive_primitive_elements


def context(p, a, n):
    field = build_field(p, a)
    return make_context(field, find_primitive_element(field), n)


@pytest.fixture(scope="module")
def gf7_n3():
    return context(7, 1, 3)


def test_context_rejects_non_divisor():
    field = build_field(7, 1)
    pd = find_primitive_element(field)
    with pytest.raises(BadCongruence):
        make_context(field, pd, 4)


def test_class_index(gf7_n3):
    assert class_index(gf7_n3, 3) == 1  # rho itself
    assert class_index(gf7_n3, 6) == 0  # dlog 3, and 3 = 0 mod 3
    assert class_index(gf7_n3, 1) == 0
    with pytest.raises(ZeroHasNoLog):
        class_index(gf7_n3, 0)


def test_cyclotomic_class(gf7_n3):
    assert cyclotomic_class(gf7_n3, 0) == frozenset({1, 6})
    for i in range(3):
        assert len(cyclotomic_class(gf7_n3, i)) == 2
    with pytest.raises(IndexOutOfRange):
        cyclotomic_class(gf7_n3, 3)


@pytest.mark.parametrize(
    "p,a,n", [(7, 1, 3), (13, 1, 3), (5, 2, 3), (7, 2, 3), (7, 3, 3), (29, 1, 7), (43, 1, 7), (3, 6, 7)]
)
def test_cosets_and_cyclotomic_numbers_match_naive_sets(p, a, n):
    ctx = context(p, a, n)
    classes = [cyclotomic_class(ctx, i) for i in range(n)]
    for i in range(n):
        coset = ctx.coset(i).tolist()
        assert len(coset) == len(classes[i]) and set(coset) == classes[i]
        assert coset == ctx.pd.exp[i::n].tolist()  # rho**(i + n*k) in the order of k
    table = cyclotomic_table(ctx)
    for i in range(n):
        shifted = {ctx.field.add(x, 1) for x in classes[i]}
        for j in range(n):
            expected = len(shifted & classes[j])
            assert cyclotomic_number(ctx, i, j) == expected
            assert table[i][j] == expected


def test_class_zero_counts_match_naive_sets_up_to_500():
    # every prime power q <= 500 (GF(2) with n = 1 and GF(4) with n = 3 included)
    # and every n <= 8 dividing q - 1
    cases = [(p, a, n) for q, p, a in prime_powers(500) for n in range(1, 9) if (q - 1) % n == 0]
    assert {(2, 1, 1), (2, 2, 3), (3, 5, 2), (2, 8, 5)} <= set(cases)
    for p, a, n in cases:
        ctx = context(p, a, n)
        classes = [cyclotomic_class(ctx, i) for i in range(n)]
        for i in range(n):
            shifted = {ctx.field.add(x, 1) for x in classes[i]}
            for j in range(n):
                assert cyclotomic_number(ctx, i, j) == len(shifted & classes[j]), (p, a, n, i, j)


@pytest.mark.parametrize("p,a,n", [(29, 1, 7), (7, 2, 3), (2, 2, 3)])
def test_memoised_numbers_match_a_fresh_context(p, a, n):
    ctx = context(p, a, n)
    first = [[cyclotomic_number(ctx, i, j) for j in range(n)] for i in range(n)]
    again = [[cyclotomic_number(ctx, i, j) for j in range(n)] for i in range(n)]
    fresh = [[cyclotomic_number(context(p, a, n), i, j) for j in range(n)] for i in range(n)]
    assert first == again == fresh == cyclotomic_table(ctx).tolist()


def test_coset_index_checked(gf7_n3):
    for i in (-1, 3):
        with pytest.raises(IndexOutOfRange):
            gf7_n3.coset(i)


def test_cyclotomic_numbers_gf7(gf7_n3):
    assert cyclotomic_number(gf7_n3, 1, 2) == 1
    assert cyclotomic_number(gf7_n3, 0, 0) == 0
    assert cyclotomic_number(gf7_n3, 2, 1) == 1
    assert cyclotomic_number(gf7_n3, 0, 1) == 0
    with pytest.raises(IndexOutOfRange):
        cyclotomic_number(gf7_n3, 3, 0)


def test_cyclotomic_numbers_gf13():
    ctx = context(13, 1, 3)
    assert cyclotomic_number(ctx, 1, 2) == 1


@pytest.mark.parametrize("p,a,n", [(7, 1, 3), (13, 1, 3), (29, 1, 7), (7, 2, 3), (43, 1, 7)])
def test_table_matches_per_entry_counts(p, a, n):
    ctx = context(p, a, n)
    table = cyclotomic_table(ctx)
    for i in range(n):
        for j in range(n):
            assert table[i][j] == cyclotomic_number(ctx, i, j)


def test_row_sums_up_to_2000():
    # for q = 1 mod 2n: row a sums to (q-1)/n minus one exactly when a = 0
    for n in (3, 7):
        for q, p, a in prime_powers(2000):
            if q % (2 * n) != 1:
                continue
            ctx = context(p, a, n)
            table = cyclotomic_table(ctx)
            for row in range(n):
                assert table[row].sum() == (q - 1) // n - (1 if row == 0 else 0)


def test_c3_parity_even():
    assert c3_parity_even(context(7, 1, 3)) is False  # 2 = rho^2 has class 2
    assert c3_parity_even(context(13, 1, 3)) is False  # rho = 2 has class 1
    assert c3_parity_even(context(31, 1, 3)) is True  # 2^10 = 1 mod 31: 2 is a cube
    assert pow(2, 10, 31) == 1


def test_c3_parity_matches_direct_count_up_to_300():
    for q, p, a in prime_powers(300):
        if q % 6 != 1:
            continue
        ctx = context(p, a, 3)
        assert c3_parity_even(ctx) == (cyclotomic_number(ctx, 1, 2) % 2 == 0)


def test_c3_parity_argument_checks():
    with pytest.raises(WrongN):
        c3_parity_even(context(29, 1, 7))
    with pytest.raises(BadCongruence):
        c3_parity_even(context(2, 2, 3))  # GF(4) has q = 4 mod 6


@pytest.mark.parametrize("p,a", [(13, 1), (19, 1), (5, 2)])
def test_c12_invariant_under_primitive_element_change(p, a):
    field = build_field(p, a)
    values = set()
    for rho in naive_primitive_elements(field):
        ctx = make_context(field, PrimitiveData(rho, field), 3)
        values.add(cyclotomic_number(ctx, 1, 2))
    assert len(values) == 1


def test_third_identity_small_range():
    # c(1,2) = c(2,1) = c(0,0) + 1 whenever q = 1 mod 6
    for q, p, a in prime_powers(300):
        if q % 6 != 1:
            continue
        ctx = context(p, a, 3)
        c12 = cyclotomic_number(ctx, 1, 2)
        assert c12 == cyclotomic_number(ctx, 2, 1)
        assert c12 == cyclotomic_number(ctx, 0, 0) + 1


def test_seventh_identities_small_range():
    for q, p, a in prime_powers(300):
        if q % 14 != 1:
            continue
        t = cyclotomic_table(context(p, a, 7))
        assert t[1][3] == t[6][2] == t[5][4]
        assert t[1][5] == t[6][4] == t[3][2]
        assert np.array_equal(t, t.T)
