"""Exact arithmetic in GF(p^a): field construction, primitive elements, discrete logs.

Elements are canonical integer codes in {0, ..., q-1}: the code of an element
with coefficient vector (c_0, ..., c_{a-1}) over Z_p is sum(c_i * p**i), so the
prime-field case (a = 1) is plain residue arithmetic. All choices made during
construction (modulus, primitive element) are deterministic so that repeated
runs produce identical fields.

The discrete-log tables of a primitive element rho are built by doubling:
with exp[:n] = rho**0 .. rho**(n-1) known, exp[n:2n] is exp[:n] times rho**n,
one vectorised multiplication by a single element, so a table takes about
log2(q) numpy steps. Multiplying codes by y is multiplication by a fixed
matrix over Z_p on their base-p digits (for a = 1, codes * y % p).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ExponentZero, FieldTooLarge, IndexOutOfRange, NotPrime, ZeroHasNoLog
from .graphcore import memory_limit

TABLE_BLOCK = 1 << 12  # most codes one vectorised multiplication takes, bounding its temporaries


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division (scope: n < 10**12)."""
    return factorize(n) == {n: 1}


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p, little-endian coefficient tuples


def _poly_mul_mod(u, v, modulus, p):
    """(u * v) mod modulus, with monic modulus of degree a; result length a."""
    a = len(modulus) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] = (prod[i + j] + ui * vj) % p
    for i in range(len(prod) - 1, a - 1, -1):
        c = prod[i]
        if c:
            for j in range(a + 1):
                prod[i - a + j] = (prod[i - a + j] - c * modulus[j]) % p
    return tuple(prod[:a])


def _poly_divides(g, f, p):
    """Whether monic g divides monic f over Z_p (remainder is zero)."""
    r = list(f)
    dg = len(g) - 1
    while len(r) >= len(g):
        c = r[-1]
        if c:
            shift = len(r) - len(g)
            for j in range(len(g)):
                r[shift + j] = (r[shift + j] - c * g[j]) % p
        r.pop()
    return not any(r)


def _is_irreducible(f, p):
    """Exhaustive trial division by all monic polynomials of degree <= deg(f)/2."""
    a = len(f) - 1
    if f[0] == 0:  # divisible by x
        return a == 1
    for d in range(1, a // 2 + 1):
        for code in range(p**d):
            g, c = [], code
            for _ in range(d):
                g.append(c % p)
                c //= p
            g.append(1)
            if _poly_divides(g, f, p):
                return False
    return True


def _find_modulus(p, a):
    """Smallest monic irreducible of degree a, by ascending code of (c_0..c_{a-1})."""
    for code in range(p**a):
        coeffs, c = [], code
        for _ in range(a):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {a} over GF({p})")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """GF(p^a) with a fixed reduction modulus (None for the prime-field case)."""

    p: int
    a: int
    q: int
    modulus: tuple | None

    def coeffs(self, x: int) -> tuple:
        out = []
        for _ in range(self.a):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def code(self, coeffs) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c % self.p
        return v

    def check_element(self, x: int) -> None:
        if not 0 <= x < self.q:
            raise IndexOutOfRange(f"{x} is not an element code of GF({self.q})")

    def add(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x + y) % self.p
        return self.code([u + v for u, v in zip(self.coeffs(x), self.coeffs(y))])

    def neg(self, x: int) -> int:
        if self.a == 1:
            return -x % self.p
        return self.code([-u for u in self.coeffs(x)])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.a == 1:
            return x * y % self.p
        return self.code(_poly_mul_mod(self.coeffs(x), self.coeffs(y), self.modulus, self.p))

    def pow(self, x: int, k: int) -> int:
        if self.a == 1:
            return pow(x, k, self.p)
        r, b = 1, x
        while k:
            if k & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            k >>= 1
        return r

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(x, self.q - 2)

    def add_array(self, codes: np.ndarray, s: int) -> np.ndarray:
        """Vectorized addition of a single element s to an array of codes."""
        if self.a == 1:
            return (codes + s) % self.p
        out = np.zeros_like(codes)
        pi = 1
        for _ in range(self.a):
            out += (codes // pi % self.p + s // pi % self.p) % self.p * pi
            pi *= self.p
        return out


def build_field(p: int, a: int) -> Field:
    """Validated GF(p^a); for a > 1 the reduction modulus is found deterministically."""
    if a < 1:
        raise ExponentZero(f"exponent must be positive, got {a}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    modulus = None if a == 1 else _find_modulus(p, a)
    return Field(p=p, a=a, q=p**a, modulus=modulus)


@dataclass(frozen=True)
class PrimitiveData:
    """A primitive element rho with full discrete-log tables.

    exp[j] = rho**j for j in {0, ..., q-2}; log[x] = dlog of the element with
    code x, with log[0] = -1 as a sentinel (zero has no logarithm).
    """

    rho: int
    exp: np.ndarray
    log: np.ndarray


def factorize(n: int) -> dict:
    """{prime: exponent} for n >= 1 ({} below 2), by trial division by 2 and the odd numbers."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _has_full_order(field: Field, x: int, prime_factors) -> bool:
    return all(field.pow(x, (field.q - 1) // f) != 1 for f in prime_factors)


def _mul_array(field: Field, codes: np.ndarray, y: int) -> np.ndarray:
    """Vectorised product of an int64 array of codes with a single element y."""
    p = field.p
    if field.a == 1:
        return codes * y % p
    # column i holds the coefficients of x**i * y (x**i has code p**i), so the
    # product's digits are this matrix times the digits of codes, mod p
    powers = p ** np.arange(field.a, dtype=np.int64)
    matrix = np.array([field.coeffs(field.mul(int(power), y)) for power in powers], dtype=np.int64).T
    digits = codes // powers[:, None] % p
    return powers @ (matrix @ digits % p)


def _check_table_footprint(field: Field) -> None:
    """Refuse tables that would not fit in memory or whose products would overflow int64."""
    if field.a * field.p**2 >= 2**63:
        raise FieldTooLarge(f"GF({field.q}) is too large for int64 table arithmetic (p = {field.p})")
    need = 16 * field.q
    limit = memory_limit()
    if need > limit:
        raise FieldTooLarge(
            f"GF({field.q}) needs about {need / 1e9:.1f} GB for its exp/log tables, "
            f"more than half of the {2 * limit / 1e9:.1f} GB of physical memory"
        )


def _tables_for(field: Field, rho: int) -> PrimitiveData:
    _check_table_footprint(field)
    q = field.q
    exp = np.empty(q - 1, dtype=np.int64)
    exp[0] = 1
    n, step = 1, rho  # invariant: exp[:n] is filled and step = rho**n
    while n < q - 1:
        m = min(n, q - 1 - n)
        for i in range(0, m, TABLE_BLOCK):
            j = min(m, i + TABLE_BLOCK)
            exp[n + i : n + j] = _mul_array(field, exp[i:j], step)
        step = field.mul(step, step)
        n += m
    log = np.full(q, -1, dtype=np.int64)
    for i in range(0, q - 1, TABLE_BLOCK):
        log[exp[i : i + TABLE_BLOCK]] = np.arange(i, min(q - 1, i + TABLE_BLOCK))
    return PrimitiveData(rho=rho, exp=exp, log=log)


def find_primitive_element(field: Field) -> PrimitiveData:
    """First element of multiplicative order q-1 in ascending code order (2, 3, ...)."""
    if field.q == 2:
        return _tables_for(field, 1)
    factors = list(factorize(field.q - 1))
    for cand in range(2, field.q):
        if _has_full_order(field, cand, factors):
            return _tables_for(field, cand)
    raise AssertionError(f"no primitive element found in GF({field.q})")


def primitive_data(field: Field, rho: int) -> PrimitiveData:
    """Tables for a caller-chosen primitive element (order is verified)."""
    field.check_element(rho)
    if field.q > 2:
        factors = list(factorize(field.q - 1))
        if rho in (0, 1) or not _has_full_order(field, rho, factors):
            raise ValueError(f"{rho} is not a primitive element of GF({field.q})")
    elif rho != 1:
        raise ValueError("the only primitive element of GF(2) is 1")
    return _tables_for(field, rho)


def all_primitive_elements(field: Field):
    """Codes of every primitive element, ascending."""
    if field.q == 2:
        return [1]
    factors = list(factorize(field.q - 1))
    return [x for x in range(2, field.q) if _has_full_order(field, x, factors)]


def dlog(pd: PrimitiveData, x: int) -> int:
    """Exponent j with rho**j = x; zero has no logarithm."""
    if x == 0:
        raise ZeroHasNoLog("dlog(0) is undefined")
    if not 0 < x < len(pd.log):
        raise IndexOutOfRange(f"{x} is not a nonzero element code")
    return int(pd.log[x])
