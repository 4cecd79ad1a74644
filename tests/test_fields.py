import random
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import field_inv, field_mul, field_pow, naive_exp_table, naive_primitive_elements
from regclique import errors, fields
from regclique.errors import ExponentZero, FieldTooLarge, IndexOutOfRange, NotPrime, ZeroHasNoLog
from regclique.fields import PrimitiveData, build_field, dlog, find_primitive_element, is_prime
from regclique.numtheory import prime_powers


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_is_prime_runs_only_the_bases_it_needs(monkeypatch):
    # one modular exponentiation per base: a sieve's primes need one or two, not 13
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(fields, "pow", counting_pow, raising=False)
    for n, bases in [(2039, 1), (2053, 2), (1_373_639, 2), (1_373_677, 3), (10**12 + 39, 5)]:
        calls.clear()
        assert is_prime(n)
        assert len(calls) == bases, n


def test_build_prime_field():
    f = build_field(7, 1)
    assert (f.p, f.a, f.q) == (7, 1, 7)
    assert f.modulus is None
    assert f.add(5, 4) == 2
    assert f.mul_add_array(np.array([3, 5]), 5, 0).tolist() == [1, 4]
    assert f.neg(3) == 4


def test_build_gf49():
    f = build_field(7, 2)
    assert f.q == 49
    c0, c1, c2 = f.modulus
    assert c2 == 1 and len(f.modulus) == 3
    # irreducibility confirmed independently: no root among the 7 residues
    for r in range(7):
        assert (c0 + c1 * r + r * r) % 7 != 0
    # deterministic smallest choice: x^2 + 1
    assert f.modulus == (1, 0, 1)


def test_build_gf25_modulus_has_no_roots():
    f = build_field(5, 2)
    c0, c1, _ = f.modulus
    for r in range(5):
        assert (c0 + c1 * r + r * r) % 5 != 0


def test_build_field_rejects_composite_and_zero_exponent():
    with pytest.raises(NotPrime):
        build_field(6, 1)
    with pytest.raises(NotPrime):
        build_field(1, 3)
    with pytest.raises(ExponentZero):
        build_field(7, 0)


def test_primitive_element_gf7():
    f = build_field(7, 1)
    pd = find_primitive_element(f)
    assert pd.rho == 3  # 2 fails: 2^3 = 1 mod 7
    assert pow(2, 3, 7) == 1
    powers = {f.pow(3, k) for k in range(6)}
    assert powers == {1, 2, 3, 4, 5, 6}


def test_primitive_element_gf2():
    f = build_field(2, 1)
    pd = find_primitive_element(f)
    assert pd.rho == 1
    assert list(pd.exp) == [1]


def test_primitive_element_gf13():
    f = build_field(13, 1)
    pd = find_primitive_element(f)
    assert pd.rho == 2
    assert sorted(f.pow(2, k) for k in range(12)) == list(range(1, 13))


def test_primitive_element_gf49_regression():
    f = build_field(7, 2)
    pd = find_primitive_element(f)
    assert pd.rho == 9  # coefficients (2, 1): first full-order code in ascending order
    seen = {int(x) for x in pd.exp}
    assert len(seen) == 48


def test_primitive_element_refuses_tables_beyond_memory_before_building_them(monkeypatch):
    monkeypatch.setattr(errors, "memory_limit", lambda: 16 * 13)
    assert find_primitive_element(build_field(13, 1)).rho == 2
    with pytest.raises(FieldTooLarge, match=r"GF\(17\) needs about 0.0 GB for its exp/log tables"):
        find_primitive_element(build_field(17, 1))


def test_tables_are_built_on_first_read():
    pd = find_primitive_element(build_field(13, 1))
    assert "exp" not in vars(pd) and "log" not in vars(pd)
    assert pd.log[pd.exp[5]] == 5
    assert pd.exp is pd.exp and pd.log is pd.log


def test_dlog_examples():
    f = build_field(7, 1)
    pd = find_primitive_element(f)
    assert dlog(pd, 6) == 3  # 3^3 = 27 = 6 mod 7
    assert dlog(pd, 1) == 0
    with pytest.raises(ZeroHasNoLog):
        dlog(pd, 0)
    with pytest.raises(IndexOutOfRange):
        dlog(pd, 7)


@pytest.mark.parametrize("p,a", [(7, 1), (13, 1), (2, 1), (3, 1), (7, 2), (5, 2), (3, 4)])
def test_exp_log_mutually_inverse(p, a):
    f = build_field(p, a)
    pd = find_primitive_element(f)
    assert len(pd.exp) == f.q - 1
    for j, x in enumerate(pd.exp):
        assert pd.log[x] == j
    assert pd.log[0] == -1
    nonzero = sorted(int(x) for x in pd.exp)
    assert nonzero == list(range(1, f.q))


def _mul(f, x, y):
    """x * y by the package: one code times y through `Field.mul_add_array`, checked against the tuple product."""
    product = int(f.mul_add_array(np.array([x], dtype=np.int64), y, 0)[0])
    assert product == field_mul(f, x, y), (f.q, x, y)
    return product


@pytest.mark.parametrize("p,a", [(7, 1), (11, 1), (101, 1), (7, 2), (5, 2), (3, 3), (13, 2)])
def test_field_axioms_on_random_triples(p, a):
    f = build_field(p, a)
    rng = random.Random(20240 + f.q)
    for _ in range(1000):
        x, y, z = (rng.randrange(f.q) for _ in range(3))
        assert f.add(x, y) == f.add(y, x)
        assert _mul(f, x, y) == _mul(f, y, x)
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert _mul(f, _mul(f, x, y), z) == _mul(f, x, _mul(f, y, z))
        assert _mul(f, x, f.add(y, z)) == f.add(_mul(f, x, y), _mul(f, x, z))
    for x in range(1, f.q):
        assert _mul(f, x, field_inv(f, x)) == 1


@pytest.mark.parametrize("p,a", [(7, 1), (13, 1), (29, 1), (7, 2), (5, 2)])
def test_half_power_of_rho_is_minus_one(p, a):
    f = build_field(p, a)
    pd = find_primitive_element(f)
    assert f.pow(pd.rho, (f.q - 1) // 2) == f.neg(1)


def test_primitive_element_matches_naive_scan_on_extension_fields():
    # the search skips the prime subfield (codes below p) when a > 1
    extensions = [build_field(p, a) for _, p, a in prime_powers(20000) if a > 1]
    assert {(f.p, f.a) for f in extensions} >= {(2, 14), (3, 9), (139, 2)}
    for f in extensions:
        assert find_primitive_element(f).rho == next(naive_primitive_elements(f))


@pytest.mark.parametrize("size", [1, 3])
def test_primitive_element_matches_naive_scan_across_batches(monkeypatch, size):
    monkeypatch.setattr(fields, "PRIMITIVE_BATCH", size)
    monkeypatch.setattr(fields, "TABLE_BLOCK", size)
    for _, p, a in prime_powers(20000):
        if a > 1:
            f = build_field(p, a)
            assert find_primitive_element(f).rho == next(naive_primitive_elements(f)), (p, a)


def test_add_array_matches_scalar_add():
    import numpy as np

    for p, a in [(7, 1), (7, 2), (5, 3)]:
        f = build_field(p, a)
        codes = np.arange(f.q, dtype=np.int64)
        for s in (0, 1, f.q - 1, f.q // 2):
            out = f.add_array(codes, s)
            assert [f.add(int(x), s) for x in codes] == list(out)
        # int32 codes in every row plus one element per row, as the translation
        # check adds them
        rows = codes.astype(np.int32)
        table = f.add_array(np.broadcast_to(rows, (f.q, f.q)), rows[:, None])
        assert table.dtype == np.int32
        assert table.tolist() == [[f.add(x, s) for x in range(f.q)] for s in range(f.q)]


def _assert_tables_match_naive(field, pd):
    exp, log = naive_exp_table(field, pd.rho)
    assert pd.exp.tolist() == exp
    assert pd.log.tolist() == log


def test_tables_match_naive_on_every_field_up_to_2000():
    every_field = [build_field(p, a) for _, p, a in prime_powers(2000)]
    assert {(f.p, f.a) for f in every_field} >= {(2, 10), (3, 6)}
    for f in every_field:
        _assert_tables_match_naive(f, find_primitive_element(f))


@pytest.mark.parametrize("p,a", [(13, 1), (7, 2), (3, 3)])
def test_tables_match_naive_for_every_primitive_element(p, a):
    f = build_field(p, a)
    for rho in naive_primitive_elements(f):
        _assert_tables_match_naive(f, PrimitiveData(rho, f))


@pytest.mark.parametrize("p,a", [(1009, 1), (7, 2), (3, 5)])
def test_tables_match_naive_when_split_into_blocks(monkeypatch, p, a):
    monkeypatch.setattr(fields, "TABLE_BLOCK", 5)
    f = build_field(p, a)
    pd = find_primitive_element(f)
    _assert_tables_match_naive(f, pd)
    assert f.mul_add_array(pd.exp, pd.rho, 0).tolist() == np.roll(pd.exp, -1).tolist()  # one product over many blocks


@settings(max_examples=300, deadline=None)
@given(pp=st.sampled_from(prime_powers(5000)), data=st.data())
def test_array_arithmetic_matches_scalar(pp, data):
    _, p, a = pp
    f = build_field(p, a)
    element = st.integers(0, f.q - 1)
    codes = data.draw(st.lists(element, min_size=1, max_size=50))
    y, s = data.draw(element), data.draw(element)
    array = np.array(codes, dtype=np.int64)
    assert f.add_array(array, y).tolist() == [f.add(x, y) for x in codes]
    assert f.mul_add_array(array, y, s).tolist() == [f.add(field_mul(f, x, y), s) for x in codes]


def test_mul_add_array_at_the_largest_prime_codes():
    # (p-1) * (p-1) + p - 1 is the largest sum a = 1 reduces at once
    for p in (7, 10007, 2**31 - 1):
        f = build_field(p, 1)
        codes = np.array([0, 1, p - 1], dtype=np.int64)
        assert f.mul_add_array(codes, p - 1, p - 1).tolist() == [p - 1, p - 2, 0]


@pytest.mark.parametrize("table_block", [fields.TABLE_BLOCK, 5])
@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (7, 1), (10007, 1), (5, 2), (3, 3)])
def test_powers_match_scalar_pow(monkeypatch, p, a, table_block):
    # b * b - 1, b * b and b * b + 1 entries end the baby-step/giant-step
    # table one short of, on and one past a full square
    monkeypatch.setattr(fields, "TABLE_BLOCK", table_block)
    f = build_field(p, a)
    b = isqrt(f.q - 1)
    counts = sorted({0, 1, 2, 3, b * b - 1, b * b, b * b + 1, f.q - 1})
    for g in sorted({0, 1, find_primitive_element(f).rho, f.q - 1}):
        expected = [field_pow(f, g, j) for j in range(counts[-1])]
        for count in counts:
            assert fields.powers(f, g, count).tolist() == expected[:count]


@pytest.mark.parametrize("p,a", [(2, 2), (3, 2), (5, 2), (3, 3), (2, 4)])
def test_matrix_of_y_times_digits_of_x_is_their_product(p, a):
    f = build_field(p, a)
    # x**0 is the identity and x**1 the companion matrix: ones below the diagonal, -c_i in the last column
    companion = [[int(i == j + 1) for j in range(a - 1)] + [-f.modulus[i] % p] for i in range(a)]
    assert f.x_matrices[0].tolist() == np.eye(a, dtype=int).tolist()
    assert f.x_matrices[1].tolist() == companion
    place = p ** np.arange(a, dtype=np.int64)
    digits = np.arange(f.q, dtype=np.int64) // place[:, None] % p  # column x: the digits of x
    for y in range(f.q):
        product = place @ (f.matrix(y) @ digits % p)
        assert product.tolist() == [field_mul(f, x, y) for x in range(f.q)]
    # an array of codes gives the stack of their matrices, in any shape
    codes = np.arange(f.q, dtype=np.int64)
    stack = np.stack([f.matrix(y) for y in range(f.q)])
    assert f.matrix(codes).tolist() == stack.tolist()
    assert f.matrix(codes[::-1].reshape(-1, 1)).tolist() == stack[::-1, None].tolist()


@pytest.mark.parametrize("p,a", [(1000003, 1), (101, 3)])
def test_powers_makes_no_table_sized_temporary(p, a):
    # the list itself takes 8 * (q - 1) bytes; the outer product's b - 1
    # spare entries, the blocked reduction and the a-row digit blocks of the
    # matrix steps must stay within the slack
    f = build_field(p, a)
    rho = find_primitive_element(f).rho
    b = isqrt(f.q - 2) + 1
    tracemalloc.start()
    try:
        fields.powers(f, rho, f.q - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (f.q - 1) + 8 * (b + 4 * a * fields.TABLE_BLOCK) + 64 * 1024


@pytest.mark.parametrize("p,a", [(7, 1), (5, 2), (3, 3), (2, 4), (13, 2)])
def test_pow_with_negative_exponent_inverts(p, a):
    f = build_field(p, a)
    for x in range(f.q):
        assert [f.pow(x, k) for k in (0, 1, f.q - 2, f.q - 1, f.q)] == [
            field_pow(f, x, k) for k in (0, 1, f.q - 2, f.q - 1, f.q)
        ]
    for x in range(1, f.q):
        assert field_mul(f, x, f.pow(x, -1)) == 1
        assert field_mul(f, field_pow(f, x, f.q + 3), f.pow(x, -(f.q + 3))) == 1
        assert f.pow(x, -1) == field_inv(f, x)
        for k in (2, 5, f.q - 1, f.q + 3):
            assert f.pow(x, -k) == f.pow(f.pow(x, -1), k)
    with pytest.raises(ValueError):
        f.pow(0, -1)
    assert f.pow(0, 0) == 1 and f.pow(0, 3) == 0


@settings(max_examples=300, deadline=None)
@given(pp=st.sampled_from(prime_powers(5000)), data=st.data())
def test_field_axioms_on_drawn_fields(pp, data):
    _, p, a = pp
    f = build_field(p, a)
    x, y, z = (data.draw(st.integers(0, f.q - 1)) for _ in range(3))
    assert f.add(x, y) == f.add(y, x)
    assert _mul(f, x, y) == _mul(f, y, x)
    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
    assert _mul(f, _mul(f, x, y), z) == _mul(f, x, _mul(f, y, z))
    assert _mul(f, x, f.add(y, z)) == f.add(_mul(f, x, y), _mul(f, x, z))
    assert f.add(x, 0) == x and _mul(f, x, 1) == x
    assert f.add(x, f.neg(x)) == 0
    if x:
        assert _mul(f, x, field_inv(f, x)) == 1
