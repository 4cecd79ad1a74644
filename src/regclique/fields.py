"""Exact arithmetic in GF(p^a): field construction, primitive elements, discrete logs.

Elements are canonical integer codes in {0, ..., q-1}: the code of an element
with coefficient vector (c_0, ..., c_{a-1}) over Z_p is sum(c_i * p**i), so the
prime-field case (a = 1) is plain residue arithmetic. All choices made during
construction (modulus, primitive element) are deterministic so that repeated
runs produce identical fields.

Every product in a field with a > 1 is a multiplication matrix over Z_p
applied to base-p digits. The matrix of x is the companion matrix C of the
modulus, that of x**j is C**j, and the matrix of y (`Field.matrix`) is the
sum of y's digits times the C**j for j < a, which each field makes once
(`Field.x_matrices`). `Field.pow` squares and multiplies matrices, and
`Field.mul_add_array` applies the matrix of y to an array of codes.

`powers(field, g, count)` lists g**0 .. g**(count-1). For a = 1 it is one
outer product (baby-step/giant-step): with b = ceil(sqrt(count)), row j of
the giant powers g**(b*j) times the baby powers g**i holds g**(b*j + i), so
the table in row-major order, reduced mod p in place, is the list. For a > 1
it doubles: with out[:n] known, out[n:2n] is out[:n] times g**n, and the
matrix of g**n squares to that of g**(2n), so a list takes about
log2(count) matrix steps. The discrete-log tables of a primitive element
rho are `powers(field, rho, q - 1)` and its inverse; they are built on first
read, so callers that never read them (the parameter search, which counts
every cyclotomic number on class 0, the `powers` of rho**n) never pay for
them.

Setting up a field is mostly number theory, vectorised where a field takes
many steps. `is_prime` runs only the Miller-Rabin bases its size needs. The
modulus is the first candidate that no monic polynomial of degree <= a/2
divides, with each candidate divided by a block of them at once. The
primitive element is the first code x with x**((q-1)/r) != 1 for each prime
r | q - 1: for a = 1 one builtin `pow` each, for a > 1 a batch of candidates
at a time, their stacked matrices squared once per exponent bit.
"""

from functools import cached_property
from math import isqrt

import numpy as np

from .errors import (
    ExponentZero,
    FieldTooLarge,
    IndexOutOfRange,
    NotPrime,
    PrimalityOutOfRange,
    ZeroHasNoLog,
    require_memory,
)

TABLE_BLOCK = 1 << 12  # most codes one vectorised multiplication takes, bounding its temporaries
PRIMITIVE_BATCH = 32  # candidates one order test of an extension field takes

# Miller-Rabin with the first k primes as bases is exact below MILLER_RABIN_BOUNDS[k-1],
# the smallest strong pseudoprime to all of them (OEIS A014233; Jaeschke, Math.
# Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86, 2017); the last bound,
# for all 13 bases, is MILLER_RABIN_LIMIT
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUNDS = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
MILLER_RABIN_LIMIT = MILLER_RABIN_BOUNDS[-1]


def is_prime(n: int) -> bool:
    """Deterministic primality check.

    After a divisibility check by the 13 bases, n runs only the first k bases,
    k the fewest whose bound exceeds n (one below 2,047, two below 1,373,653).
    A base that proves n composite is exact at any size; an n >= MILLER_RABIN_LIMIT
    that no base proves composite is refused (PrimalityOutOfRange).
    """
    if n < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    for k, bound in enumerate(MILLER_RABIN_BOUNDS, 1):  # k ends at 13 from MILLER_RABIN_LIMIT on
        if n < bound:
            break
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for b in MILLER_RABIN_BASES[:k]:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_LIMIT:
        raise PrimalityOutOfRange(f"a {n.bit_length()}-bit number: primality is decided only below {MILLER_RABIN_LIMIT}")
    return True


def _reduce(t: np.ndarray, p: int) -> np.ndarray:
    """t mod p in place for non-negative int64 t, TABLE_BLOCK entries at a time.

    t - t // p * p takes numpy's divide-by-constant path, which np.remainder
    has not; the blocks keep its temporaries small.
    """
    for i in range(0, len(t), TABLE_BLOCK):
        block = t[i : i + TABLE_BLOCK]
        block -= block // p * p
    return t


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p, little-endian coefficient tuples


def _monic_divisors(p, a):
    """The monic polynomials of degree 1 .. a/2 over Z_p, ascending in degree and code.

    Yields (d, D) arrays of at most TABLE_BLOCK columns, column j the low
    coefficients c_0 .. c_{d-1} of one polynomial.
    """
    for d in range(1, a // 2 + 1):
        place = p ** np.arange(d, dtype=np.int64)
        for lo in range(0, p**d, TABLE_BLOCK):
            yield np.arange(lo, min(p**d, lo + TABLE_BLOCK), dtype=np.int64) // place[:, None] % p


def _has_divisor(f: np.ndarray, divisors: np.ndarray, p: int) -> bool:
    """Whether a monic polynomial among divisors, a block of `_monic_divisors`, divides monic f over Z_p.

    Synthetic division of one copy of f's a + 1 little-endian coefficients
    per divisor at once: row i of the remainders eliminates x**i, so each step
    takes products below p**2.
    """
    d = len(divisors)
    r = np.empty((len(f), divisors.shape[1]), dtype=np.int64)
    r[:] = f[:, None]
    for i in range(len(f) - 1, d - 1, -1):
        step = r[i - d : i]
        step -= r[i] * divisors
        step %= p
    return not r[:d].sum(axis=0).all()  # remainders lie in [0, p), so only a zero one sums to 0


def _find_modulus(p, a):
    """Smallest monic irreducible of degree a > 1, by ascending code of (c_0..c_{a-1}).

    A candidate is irreducible when no monic polynomial of degree d <= a/2
    divides it; it is divided by TABLE_BLOCK of them at a time, and the
    first block holding a divisor ends its test.
    """
    for code in range(p**a):
        coeffs, c = [], code
        for _ in range(a):
            coeffs.append(c % p)
            c //= p
        f = np.array(coeffs + [1], dtype=np.int64)
        if not any(_has_divisor(f, divisors, p) for divisors in _monic_divisors(p, a)):
            return tuple(coeffs) + (1,)
    raise AssertionError(f"no irreducible polynomial of degree {a} over GF({p})")


# ---------------------------------------------------------------------------


class Field:
    """GF(p^a) with a fixed reduction modulus (None for the prime-field case)."""

    def __init__(self, p: int, a: int, q: int, modulus: tuple | None):
        self.p, self.a, self.q, self.modulus = p, a, q, modulus

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

    def pow(self, x: int, k: int) -> int:
        """x**k; a negative k takes powers of the inverse, which zero has not."""
        if k < 0:
            if x == 0:
                raise ValueError(f"0 has no inverse in GF({self.q})")
            k %= self.q - 1
        if self.a == 1:
            return pow(x, k, self.p)
        # square and multiply on matrices, applied to the digits of 1: the product is column 0 of x**k's matrix
        p, r, b = self.p, np.eye(self.a, 1, dtype=np.int64), self.matrix(x)
        while k:
            if k & 1:
                r = b @ r % p
            k >>= 1
            if k:
                b = b @ b % p
        return self.code(r[:, 0].tolist())

    @cached_property
    def x_matrices(self) -> np.ndarray:
        """(a, a, a) int64 stack: entry j is C**j, C the companion matrix of the modulus.

        C multiplies base-p digit vectors by x: it moves each digit up one
        place and folds x**a back as -(c_0 + ... + c_{a-1} x**(a-1)).
        """
        p, a = self.p, self.a
        companion = np.eye(a, k=-1, dtype=np.int64)
        companion[:, -1] = -np.array(self.modulus[:a], dtype=np.int64) % p
        out = [np.eye(a, dtype=np.int64)]
        for _ in range(a - 1):
            out.append(companion @ out[-1] % p)
        return np.stack(out)

    def matrix(self, y) -> np.ndarray:
        """The a x a matrix over Z_p of multiplication by y on base-p digits (a > 1).

        For an array of codes y, the stack of their matrices. Each entry sums
        at most a products below p**2 before the reduction.
        """
        p, a = self.p, self.a
        digits = np.asarray(y, dtype=np.int64)[..., None] // p ** np.arange(a, dtype=np.int64) % p
        return (digits @ self.x_matrices.reshape(a, a * a) % p).reshape(*digits.shape[:-1], a, a)

    def apply_matrix(self, matrix: np.ndarray, codes: np.ndarray, out: np.ndarray) -> None:
        """Write to out the codes whose digits are matrix times those of codes, mod p.

        Codes are taken TABLE_BLOCK at a time, which bounds their a-row digit
        arrays; out may be any slice that does not overlap codes.
        """
        p = self.p
        place = p ** np.arange(self.a, dtype=np.int64)
        for i in range(0, len(codes), TABLE_BLOCK):
            product = matrix @ (codes[i : i + TABLE_BLOCK] // place[:, None] % p)
            np.remainder(product, p, out=product)
            np.matmul(place, product, out=out[i : i + TABLE_BLOCK])

    def mul_add_array(self, codes: np.ndarray, y: int, s: int) -> np.ndarray:
        """Vectorised codes * y + s for single elements y and s.

        For a = 1 this is one reduction mod p, in place: (p-1)**2 + p-1 < p**2,
        which `check_table_footprint` keeps below 2**63.
        """
        if self.a == 1:
            out = codes * y
            out += s
            return _reduce(out, self.p)
        out = np.empty_like(codes)
        self.apply_matrix(self.matrix(y), codes, out)
        return self.add_array(out, s)

    def add_array(self, codes: np.ndarray, s) -> np.ndarray:
        """codes + s, for a single element s or an array of elements that broadcasts to codes' shape.

        The sum is reduced in place: a prime field holds one array of that
        shape, an extension field two.
        """
        if self.a == 1:
            out = codes + s
            out %= self.p
            return out
        out = np.zeros_like(codes)
        pi = 1
        for _ in range(self.a):
            digit = codes // pi
            digit += s // pi % self.p
            digit %= self.p
            digit *= pi
            out += digit
            pi *= self.p
        return out


def field_order(p: int, a: int) -> int:
    """q = p**a after checking that p is prime and a positive; no modulus is searched."""
    if a < 1:
        raise ExponentZero(f"exponent must be positive, got {a}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p**a


def build_field(p: int, a: int) -> Field:
    """Validated GF(p^a); for a > 1 the reduction modulus is found deterministically.

    The modulus search divides each candidate by every monic polynomial up
    to degree a/2, TABLE_BLOCK of them per vectorised step. That is still
    exponential in a, so callers run their size checks on `field_order` first.
    """
    q = field_order(p, a)
    return Field(p=p, a=a, q=q, modulus=None if a == 1 else _find_modulus(p, a))


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


def check_table_footprint(p: int, a: int) -> None:
    """Refuse GF(p^a) tables that would not fit in memory or whose products would overflow int64.

    Every product the tables take stays below a * p**2: the outer product of
    `powers` below p**2 and the matrix sums of a > 1 below a * p**2.
    """
    q = p**a
    if a * p**2 >= 2**63:
        raise FieldTooLarge(f"GF({q}) is too large for int64 table arithmetic (p = {p})")
    require_memory(16 * q, FieldTooLarge, f"GF({q}) needs", " for its exp/log tables")


def _chain(g: int, count: int, p: int) -> np.ndarray:
    """g**0, ..., g**(count-1) mod p as int64, by Python multiplications."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * g % p)
    return np.array(out, dtype=np.int64)


def powers(field: Field, g: int, count: int) -> np.ndarray:
    """The int64 codes of g**0, ..., g**(count-1).

    For a = 1 one outer product of ceil(count/b) giant powers g**(b*j) and b
    baby powers g**i, b = ceil(sqrt(count)), reduced mod p in place; its first
    count entries in row-major order are the list, so beyond them it takes
    b - 1 spare entries, the two factors and one reduction block.
    For a > 1 doubling by matrix steps, each written TABLE_BLOCK codes at a
    time straight into the list.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    p = field.p
    if field.a == 1:
        b = isqrt(count - 1) + 1
        table = np.multiply.outer(_chain(pow(g, b, p), (count - 1) // b + 1, p), _chain(g, b, p))
        return _reduce(table.reshape(-1), p)[:count]
    out = np.empty(count, dtype=np.int64)
    out[0] = 1
    n, step = 1, field.matrix(g)  # invariant: out[:n] is filled and step is the matrix of g**n
    while n < count:
        m = min(n, count - n)
        field.apply_matrix(step, out[:m], out[n : n + m])
        step = step @ step % p
        n += m
    return out


class PrimitiveData:
    """A primitive element rho of field, with discrete-log tables built on first read.

    exp[j] = rho**j for j in {0, ..., q-2}; log[x] = dlog of the element with
    code x, with log[0] = -1 as a sentinel (zero has no logarithm).
    """

    def __init__(self, rho: int, field: Field):
        self.rho, self.field = rho, field

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


def _first_of_full_order(field: Field, codes: np.ndarray, exponents: list):
    """Index of the first code x of an extension field with x**e != 1 for every e in exponents, or None.

    The codes' multiplication matrices, stacked, are squared once per bit to
    give those of x**(2**i); each is applied to the digits of the powers whose
    exponents have bit i set, which start at the digits of 1. Every product
    sums a terms below p**2.
    """
    p, a = field.p, field.a
    place = p ** np.arange(a, dtype=np.int64)
    square = field.matrix(codes)
    bits = np.array([[e >> i & 1 for e in exponents] for i in range(max(exponents).bit_length())], dtype=bool)
    power = np.zeros((len(codes), a, len(exponents)), dtype=np.int64)
    power[:, 0] = 1
    for i, bit in enumerate(bits):  # bit: the exponents with bit i set
        if i:
            square = square @ square % p
        power[:, :, bit] = square @ power[:, :, bit] % p
    # the batch's few codes are read in Python: numpy reductions here would page in code the search never runs otherwise
    return next((i for i, row in enumerate((place @ power).tolist()) if 1 not in row), None)


def find_primitive_element(field: Field) -> PrimitiveData:
    """First element of multiplicative order q-1 in ascending code order (2, 3, ...).

    x has full order when x**((q-1)/r) != 1 for every prime r dividing q - 1.
    For a = 1 each candidate is tested by builtin `pow`; for a > 1
    PRIMITIVE_BATCH candidates at a time by `_first_of_full_order`.
    Refuses (FieldTooLarge) a field whose discrete-log tables could not be
    built, although they are only built when read.
    """
    check_table_footprint(field.p, field.a)
    p, q = field.p, field.q
    if q == 2:
        return PrimitiveData(1, field)
    exponents = [(q - 1) // r for r in factorize(q - 1)]
    if field.a == 1:
        for cand in range(2, p):
            for e in exponents:
                if pow(cand, e, p) == 1:
                    break
            else:
                return PrimitiveData(cand, field)
    else:  # the codes below p form the prime subfield, whose orders divide p - 1 < q - 1
        for lo in range(p, q, PRIMITIVE_BATCH):
            i = _first_of_full_order(field, np.arange(lo, min(q, lo + PRIMITIVE_BATCH), dtype=np.int64), exponents)
            if i is not None:
                return PrimitiveData(lo + i, field)
    raise AssertionError(f"no primitive element found in GF({q})")


def dlog(pd: PrimitiveData, x: int) -> int:
    """Exponent j with rho**j = x; zero has no logarithm."""
    if x == 0:
        raise ZeroHasNoLog("dlog(0) is undefined")
    if not 0 < x < len(pd.log):
        raise IndexOutOfRange(f"{x} is not a nonzero element code")
    return int(pd.log[x])
