"""Exact arithmetic in GF(p^a): field construction, primitive elements, discrete logs.

Elements are canonical integer codes in {0, ..., q-1}: the code of an element
with coefficient vector (c_0, ..., c_{a-1}) over Z_p is sum(c_i * p**i), so the
prime-field case (a = 1) is plain residue arithmetic. All choices made during
construction (modulus, primitive element) are deterministic so that repeated
runs produce identical fields.

`powers(field, g, count)` lists g**0 .. g**(count-1) by doubling: with out[:n]
known, out[n:2n] is out[:n] times g**n, one vectorised multiplication by a
single element, so a list takes about log2(count) numpy steps (for a = 1 a
multiply and a remainder written in place). Multiplying codes by y
(`Field.mul_array`) is multiplication by a fixed matrix over Z_p on their
base-p digits (for a = 1, codes * y % p). The discrete-log tables of a
primitive element rho are `powers(field, rho, q - 1)` and its inverse; they
are built on first read, so callers that never read them (the parameter
search, which counts every cyclotomic number on class 0, the `powers` of
rho**n) never pay for them.
"""

from dataclasses import dataclass
from functools import cached_property

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

    def mul(self, x: int, y: int) -> int:
        if self.a == 1:
            return x * y % self.p
        return self.code(_poly_mul_mod(self.coeffs(x), self.coeffs(y), self.modulus, self.p))

    def pow(self, x: int, k: int) -> int:
        """x**k; a negative k takes powers of the inverse, which zero has not."""
        if k < 0:
            if x == 0:
                raise ValueError(f"0 has no inverse in GF({self.q})")
            k %= self.q - 1
        if self.a == 1:
            return pow(x, k, self.p)
        r, b = 1, x
        while k:
            if k & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            k >>= 1
        return r

    def mul_array(self, codes: np.ndarray, y: int) -> np.ndarray:
        """Vectorised product of an int64 array of codes with a single element y.

        For a > 1 the codes are taken TABLE_BLOCK at a time, which bounds
        their a-row digit arrays.
        """
        p = self.p
        if self.a == 1:
            return codes * y % p
        # column i holds the coefficients of x**i * y (x**i has code p**i), so the
        # product's digits are this matrix times the digits of codes, mod p
        place = p ** np.arange(self.a, dtype=np.int64)
        matrix = np.array([self.coeffs(self.mul(int(v), y)) for v in place], dtype=np.int64).T
        out = np.empty_like(codes)
        for i in range(0, len(codes), TABLE_BLOCK):
            digits = codes[i : i + TABLE_BLOCK] // place[:, None] % p
            out[i : i + TABLE_BLOCK] = place @ (matrix @ digits % p)
        return out

    def mul_add_array(self, codes: np.ndarray, y: int, s: int) -> np.ndarray:
        """Vectorised codes * y + s for single elements y and s.

        For a = 1 this is one reduction mod p: (p-1)**2 + p-1 < p**2, which
        `_check_table_footprint` keeps below 2**63.
        """
        if self.a == 1:
            return (codes * y + s) % self.p
        return self.add_array(self.mul_array(codes, y), s)

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


def powers(field: Field, g: int, count: int) -> np.ndarray:
    """The int64 codes of g**0, ..., g**(count-1), by doubling.

    For a = 1 each step multiplies and reduces in place in `out`, with no
    temporary; for a > 1 it goes through `Field.mul_array` TABLE_BLOCK codes
    at a time.
    """
    out = np.empty(count, dtype=np.int64)
    out[:1] = 1
    n, step = 1, g  # invariant: out[:n] is filled and step = g**n
    while n < count:
        m = min(n, count - n)
        if field.a == 1:
            dst = out[n : n + m]
            np.multiply(out[:m], step, out=dst)
            np.remainder(dst, field.p, out=dst)
            step = step * step % field.p
        else:
            for i in range(0, m, TABLE_BLOCK):
                j = min(m, i + TABLE_BLOCK)
                out[n + i : n + j] = field.mul_array(out[i:j], step)
            step = field.mul(step, step)
        n += m
    return out


@dataclass(frozen=True)
class PrimitiveData:
    """A primitive element rho of field, with discrete-log tables built on first read.

    exp[j] = rho**j for j in {0, ..., q-2}; log[x] = dlog of the element with
    code x, with log[0] = -1 as a sentinel (zero has no logarithm).
    """

    rho: int
    field: Field

    @cached_property
    def exp(self) -> np.ndarray:
        return powers(self.field, self.rho, self.field.q - 1)

    @cached_property
    def log(self) -> np.ndarray:
        q, exp = self.field.q, self.exp
        log = np.full(q, -1, dtype=np.int64)
        for i in range(0, q - 1, TABLE_BLOCK):
            log[exp[i : i + TABLE_BLOCK]] = np.arange(i, min(q - 1, i + TABLE_BLOCK))
        return log


def find_primitive_element(field: Field) -> PrimitiveData:
    """First element of multiplicative order q-1 in ascending code order (2, 3, ...).

    Refuses (FieldTooLarge) a field whose discrete-log tables could not be
    built, although they are only built when read.
    """
    _check_table_footprint(field)
    if field.q == 2:
        return PrimitiveData(1, field)
    factors = list(factorize(field.q - 1))
    # when a > 1 the codes below p form the prime subfield, whose orders divide p - 1 < q - 1
    for cand in range(field.p if field.a > 1 else 2, field.q):
        if _has_full_order(field, cand, factors):
            return PrimitiveData(cand, field)
    raise AssertionError(f"no primitive element found in GF({field.q})")


def dlog(pd: PrimitiveData, x: int) -> int:
    """Exponent j with rho**j = x; zero has no logarithm."""
    if x == 0:
        raise ZeroHasNoLog("dlog(0) is undefined")
    if not 0 < x < len(pd.log):
        raise IndexOutOfRange(f"{x} is not a nonzero element code")
    return int(pd.log[x])
