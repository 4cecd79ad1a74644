"""Number-theoretic predicates and the parameter searches for both graph families.

All primality and order computations are deterministic: a sieve lists the
primes a search scans, `is_prime` is Miller-Rabin on fixed bases, and orders
are reduced over the prime factors that `factorize` finds by trial division.
So search output is reproducible bit for bit.
"""

from math import gcd, isqrt, log, log2
from typing import NamedTuple

from .construction import graph_size
from .cyclotomy import make_context, cyclotomic_number
from .errors import NotCoprime, SearchTooLarge, require_memory
from .fields import build_field, factorize, find_primitive_element, is_prime

__all__ = [
    "is_prime",
    "primes_up_to",
    "prime_power_decompose",
    "prime_powers",
    "sieve_bytes",
    "multiplicative_order",
    "order_profile",
    "SearchRecordM2",
    "SearchRecordM3",
    "search_m2",
    "search_m3",
]


def primes_up_to(n: int) -> list:
    """All primes <= n, by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def _integer_root(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1, by Newton's method on integers from above.

    Newton's steps shrink x by only about 1/k while x is far above the root, so
    a root that fits a float starts from a float estimate, raised by a factor
    2**1e-9 that is far beyond its rounding error.
    """
    x = 1 << -(-q.bit_length() // k)  # q < 2**bit_length, so x is at least the root
    if x.bit_length() < 1000:
        x = min(x, int(2 ** (log2(q) / k + 1e-9)) + 1)
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_decompose(q: int):
    """(p, a) with q = p**a and p prime, or None when q is not a prime power.

    q is not factored: for a = log2(q) down to 1, only an integer a-th root
    whose a-th power is q goes to is_prime, which refuses roots beyond its
    exact range.
    """
    if q < 2:
        return None
    for a in range(q.bit_length() - 1, 0, -1):
        p = _integer_root(q, a)
        if p**a == q and is_prime(p):
            return p, a
    return None


# Bytes per prime up to the limit: a Python int and its list slot in the
# prime list, and a (q, p, a) tuple and its slot in prime_powers' list
PRIME_BYTES = 112


def sieve_bytes(limit: int) -> int:
    """Bytes prime_powers(limit) takes: a one-byte sieve entry per integer plus
    PRIME_BYTES per prime, counted by Rosser and Schoenfeld's bound pi(x) < 1.25506 x / ln x."""
    primes = 1.25506 * limit / log(limit) if limit > 1 else 0
    return limit + 1 + int(PRIME_BYTES * primes)


def prime_powers(limit: int):
    """All (q, p, a) with q = p**a <= limit, ascending in q.

    Refuses (SearchTooLarge) a limit whose sieve and prime list would exceed
    the memory budget (`errors.memory_limit`).
    """
    require_memory(sieve_bytes(limit), SearchTooLarge, f"listing the prime powers up to {limit} needs")
    out = []
    for p in primes_up_to(limit):
        q, a = p, 1
        while q <= limit:
            out.append((q, p, a))
            q, a = q * p, a + 1
    out.sort()
    return out


def multiplicative_order(x: int, modulus: int) -> int:
    """Smallest k >= 1 with x**k = 1 mod modulus."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    x %= modulus
    if gcd(x, modulus) != 1:
        raise NotCoprime(f"{x} and {modulus} are not coprime")
    # group order: Euler phi from the factorization of the modulus
    t = 1
    for p, e in factorize(modulus).items():
        t *= (p - 1) * p ** (e - 1)
    for p in factorize(t):
        while t % p == 0 and pow(x, t // p, modulus) == 1:
            t //= p
    return t


def order_profile(p: int) -> tuple:
    """(n, e): n the order of 2 mod p, e the order of p mod 3n.

    e > 1 together with a !≡ 0 mod e guarantees that the third cyclotomic
    number c(1, 2) of GF(p**a) is odd (given p**a = 1 mod 6).
    """
    n = multiplicative_order(2, p)
    e = multiplicative_order(p, 3 * n)
    return (n, e)


class SearchRecordM2(NamedTuple):
    """An m = 2 family member: q with odd c = c(1, 2) and its graph parameters."""

    p: int
    a: int
    q: int
    ord2_n: int
    exp_order_e: int
    c: int
    l: int
    n_vertices: int
    k: int
    lam: int
    odd_guaranteed: bool  # the sufficient condition (e > 1, a !≡ 0 mod e) held

    def summary(self) -> str:
        return (
            f"m=2 p={self.p} a={self.a} q={self.q} c={self.c} l={self.l} "
            f"N={self.n_vertices} k={self.k} lambda={self.lam}"
        )


class SearchRecordM3(NamedTuple):
    """An m = 3 candidate: q = 1 mod 14 whose variant has c = 1 mod 4."""

    p: int
    a: int
    q: int
    rho: int
    c15: int
    c13: int
    variant: str  # "psi1" (c = c(1,5)) or "psi2" (c = c(1,3))
    c: int
    l: int
    n_vertices: int
    k: int
    lam: int

    def summary(self) -> str:
        return (
            f"m=3 p={self.p} a={self.a} q={self.q} variant={self.variant} "
            f"c={self.c} l={self.l} N={self.n_vertices} k={self.k} lambda={self.lam}"
        )


def _fields(q_max: int, n: int):
    """(p, a, q, pd, ctx) per field GF(q), q <= q_max, q = 1 mod 2n: its pinned primitive element and n classes."""
    for q, p, a in prime_powers(q_max):
        if q % (2 * n) == 1:
            field = build_field(p, a)
            pd = find_primitive_element(field)
            yield p, a, q, pd, make_context(field, pd, n)


def search_m2(q_max: int) -> list:
    """All prime powers q <= q_max, q = 1 mod 6, whose c(1, 2) is odd.

    c is always computed directly; the sufficient parity condition is only
    cross-checked (it implies oddness but is not necessary for it).
    """
    records = []
    for p, a, q, _, ctx in _fields(q_max, 3):
        c = cyclotomic_number(ctx, 1, 2)
        n, e = order_profile(p)
        guaranteed = e > 1 and a % e != 0
        if guaranteed and c % 2 == 0:
            raise AssertionError(f"parity condition violated at q={q}: c={c}")
        if c % 2 == 1:
            l = (c + 1) // 2
            records.append(SearchRecordM2(p, a, q, n, e, c, l, *graph_size(l, 2, q), odd_guaranteed=guaranteed))
    return records


def search_m3(q_max: int) -> list:
    """Prime powers q <= q_max, q = 1 mod 14, with a variant whose c = 1 mod 4.

    The seventh cyclotomic numbers c(1,5) and c(1,3) are those of the pinned
    primitive element of each field.
    """
    records = []
    for p, a, q, pd, ctx in _fields(q_max, 7):
        c15 = cyclotomic_number(ctx, 1, 5)
        c13 = cyclotomic_number(ctx, 1, 3)
        for variant, c in (("psi1", c15), ("psi2", c13)):
            if c % 4 == 1:
                l = (3 * c + 1) // 4
                records.append(SearchRecordM3(p, a, q, pd.rho, c15, c13, variant, c, l, *graph_size(l, 3, q)))
    return records
