"""Number-theoretic predicates and the parameter searches for both graph families.

All primality and order computations are deterministic (trial division and
factored-order reduction), so search output is reproducible bit for bit.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .cyclotomy import make_context, cyclotomic_number
from .errors import BadCongruence, NotCoprime
from .fields import all_primitive_elements, build_field, factorize, find_primitive_element, is_prime, primitive_data

__all__ = [
    "is_prime",
    "primes_up_to",
    "prime_power_decompose",
    "prime_powers",
    "multiplicative_order",
    "is_2_cubic_nonresidue",
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


def prime_power_decompose(q: int):
    """(p, a) with q = p**a and p prime, or None when q is not a prime power."""
    factors = factorize(q)
    return next(iter(factors.items())) if len(factors) == 1 else None


def prime_powers(limit: int):
    """All (q, p, a) with q = p**a <= limit, ascending in q."""
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


def is_2_cubic_nonresidue(p: int) -> bool:
    """Whether 2**((p-1)/3) != 1 mod p, i.e. 2 is not a cube mod p."""
    if p % 3 != 1:
        raise BadCongruence(f"p = {p} is not 1 mod 3")
    return pow(2, (p - 1) // 3, p) != 1


def order_profile(p: int) -> tuple:
    """(n, e): n the order of 2 mod p, e the order of p mod 3n.

    e > 1 together with a !≡ 0 mod e guarantees that the third cyclotomic
    number c(1, 2) of GF(p**a) is odd (given p**a = 1 mod 6).
    """
    n = multiplicative_order(2, p)
    e = multiplicative_order(p, 3 * n)
    return (n, e)


@dataclass(frozen=True)
class SearchRecordM2:
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


@dataclass(frozen=True)
class SearchRecordM3:
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


def search_m2(q_max: int) -> list:
    """All prime powers q <= q_max, q = 1 mod 6, whose c(1, 2) is odd.

    c is always computed directly; the sufficient parity condition is only
    cross-checked (it implies oddness but is not necessary for it).
    """
    records = []
    for q, p, a in prime_powers(q_max):
        if q % 6 != 1:
            continue
        field = build_field(p, a)
        pd = find_primitive_element(field)
        ctx = make_context(field, pd, 3)
        c = cyclotomic_number(ctx, 1, 2)
        n, e = order_profile(p)
        guaranteed = e > 1 and a % e != 0
        if guaranteed and c % 2 == 0:
            raise AssertionError(f"parity condition violated at q={q}: c={c}")
        if c % 2 == 1:
            l = (c + 1) // 2
            records.append(
                SearchRecordM2(
                    p=p,
                    a=a,
                    q=q,
                    ord2_n=n,
                    exp_order_e=e,
                    c=c,
                    l=l,
                    n_vertices=4 * l * q,
                    k=4 * l - 2 + q,
                    lam=4 * l - 2,
                    odd_guaranteed=guaranteed,
                )
            )
    return records


def search_m3(q_max: int, all_rho: bool = False) -> list:
    """Prime powers q <= q_max, q = 1 mod 14, with a variant whose c = 1 mod 4.

    By default only the pinned primitive element of each field is scanned;
    with all_rho every primitive element is tried (the seventh cyclotomic
    numbers c(1,5) and c(1,3) may depend on that choice).
    """
    records = []
    for q, p, a in prime_powers(q_max):
        if q % 14 != 1:
            continue
        field = build_field(p, a)
        pinned = find_primitive_element(field)
        if all_rho:
            datas = [primitive_data(field, r) for r in all_primitive_elements(field)]
        else:
            datas = [pinned]
        for pd in datas:
            ctx = make_context(field, pd, 7)
            c15 = cyclotomic_number(ctx, 1, 5)
            c13 = cyclotomic_number(ctx, 1, 3)
            for variant, c in (("psi1", c15), ("psi2", c13)):
                if c % 4 != 1:
                    continue
                l = (3 * c + 1) // 4
                records.append(
                    SearchRecordM3(
                        p=p,
                        a=a,
                        q=q,
                        rho=pd.rho,
                        c15=c15,
                        c13=c13,
                        variant=variant,
                        c=c,
                        l=l,
                        n_vertices=8 * l * q,
                        k=8 * l - 2 + q,
                        lam=8 * l - 2,
                    )
                )
    return records
