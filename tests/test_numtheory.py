import os
from math import gcd

import pytest

from regclique import errors, numtheory
from regclique.errors import NotCoprime, SearchTooLarge
from regclique.numtheory import (
    is_prime,
    multiplicative_order,
    order_profile,
    prime_power_decompose,
    prime_powers,
    primes_up_to,
    search_m2,
    search_m3,
    sieve_bytes,
)


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert len(primes_up_to(10**5)) == 9592


def test_prime_power_decompose():
    assert prime_power_decompose(49) == (7, 2)
    assert prime_power_decompose(13) == (13, 1)
    assert prime_power_decompose(2401) == (7, 4)
    assert prime_power_decompose(12) is None
    assert prime_power_decompose(1) is None


def test_prime_powers_enumeration():
    qs = [q for q, _, _ in prime_powers(30)]
    assert qs == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    assert all(p**a == q and is_prime(p) for q, p, a in prime_powers(100))


def test_prime_powers_match_per_integer_decomposition():
    for limit in (0, 1, 2, 3, 4, 5000):
        expected = [(q, *prime_power_decompose(q)) for q in range(2, limit + 1) if prime_power_decompose(q)]
        assert prime_powers(limit) == expected


def test_sieve_bytes_bounds_the_prime_list():
    for limit in (2, 3, 30, 10**5):
        assert sieve_bytes(limit) >= limit + 1 + numtheory.PRIME_BYTES * len(primes_up_to(limit))


def test_prime_powers_refuse_a_sieve_beyond_memory(monkeypatch):
    monkeypatch.setattr(errors, "memory_limit", lambda: sieve_bytes(1000))
    assert prime_powers(1000)[-1] == (997, 997, 1)
    with pytest.raises(SearchTooLarge, match="listing the prime powers up to 1001 needs about 0.0 GB"):
        prime_powers(1001)


def test_search_reads_physical_memory_once(monkeypatch):
    # every field's table guard and the sieve guard share one limit, read once per process
    calls = []
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: calls.append(name) or sysconf(name))
    errors.memory_limit.cache_clear()
    search_m2(2000)
    assert len(calls) <= 2


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    for modulus in (2, 5, 9, 100):
        assert multiplicative_order(1, modulus) == 1
    with pytest.raises(NotCoprime):
        multiplicative_order(2, 4)
    with pytest.raises(ValueError):
        multiplicative_order(2, 1)


def test_multiplicative_order_is_minimal():
    for modulus in (7, 9, 11, 15, 100, 101):
        for x in range(2, modulus):
            if gcd(x, modulus) == 1:
                k = multiplicative_order(x, modulus)
                assert pow(x, k, modulus) == 1
                assert all(pow(x, d, modulus) != 1 for d in range(1, k))


def test_order_profile():
    assert order_profile(7) == (3, 3)
    assert order_profile(31) == (5, 1)
    assert order_profile(5) == (4, 2)
    with pytest.raises(NotCoprime):
        order_profile(3)


def test_cube_residue_follows_from_congruence():
    # p = 1 mod 3n forces 2 to be a cube mod p
    for p in primes_up_to(10_000):
        if p < 5 or p % 3 != 1:
            continue
        n, _ = order_profile(p)
        if p % (3 * n) == 1:
            assert pow(2, (p - 1) // 3, p) == 1


def test_e_equals_two_for_p_5_mod_6_small():
    for p in primes_up_to(2000):
        if p % 6 == 5 and p > 3:
            assert order_profile(p)[1] == 2


def test_search_m2_first_record():
    records = search_m2(7)
    assert len(records) == 1
    r = records[0]
    assert (r.p, r.a, r.q, r.c, r.l) == (7, 1, 7, 1, 1)
    assert (r.n_vertices, r.k, r.lam) == (28, 9, 2)
    assert r.odd_guaranteed  # e = 3 > 1 and a = 1 is not 0 mod 3
    assert r.summary() == "m=2 p=7 a=1 q=7 c=1 l=1 N=28 k=9 lambda=2"


def test_search_m2_below_first_hit_is_empty():
    assert search_m2(6) == []


def test_search_m2_up_to_31():
    records = search_m2(31)
    assert [(r.q, r.c) for r in records] == [(7, 1), (13, 1), (19, 3)]
    # q = 25 and q = 31 have even c and are excluded
    assert all(r.c % 2 == 1 for r in records)


def test_search_m2_record_invariants():
    for r in search_m2(100):
        assert r.q % 6 == 1
        assert r.lam == 2 * r.c
        assert r.l == (r.c + 1) // 2
        assert r.n_vertices == 4 * r.l * r.q
        assert r.k == 4 * r.l - 2 + r.q
    qs = [r.q for r in search_m2(100)]
    assert qs == sorted(qs)
    assert search_m2(100) == search_m2(100)


def test_search_m3_first_record():
    records = search_m3(29)
    assert len(records) == 1
    r = records[0]
    assert (r.q, r.variant, r.c15, r.c13, r.c, r.l) == (29, "psi1", 1, 0, 1, 1)
    assert (r.n_vertices, r.k, r.lam) == (232, 35, 6)
    assert r.rho == 2
    assert r.summary() == "m=3 p=29 a=1 q=29 variant=psi1 c=1 l=1 N=232 k=35 lambda=6"


def test_search_m3_up_to_71():
    records = search_m3(71)
    assert [(r.q, r.variant, r.c) for r in records] == [
        (29, "psi1", 1),
        (43, "psi2", 1),
        (71, "psi2", 1),
    ]
    for r in records:
        assert r.q % 14 == 1
        assert r.c % 4 == 1
        assert r.l == (3 * r.c + 1) // 4
        assert r.lam == 8 * r.l - 2 == 6 * r.c

