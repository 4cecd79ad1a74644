"""Cyclotomic classes and cyclotomic numbers of GF(q).

For a fixed primitive element rho and n | q-1, the class of index i collects
the nonzero elements whose discrete log is congruent to i mod n, and the
cyclotomic number c(a, b) counts elements x of class a with x + 1 of class b.
The classes are the cosets of the subgroup <rho**n>: class 0 lists the powers
of rho**n and class i is rho**i times class 0. Since rho**n lies in class 0,
every cyclotomic number is counted on class 0 alone, with no discrete-log
table: x = rho**a * y with y in class 0 has x + 1 in class b exactly when
rho**(n+a-b) * y + rho**(n-b) is in class 0. A context makes class 0 and its
mask once and keeps each c(a, b) it counts; no other class is ever made.
`cyclotomic_table` (the `cyclotab` command) labels elements by their
discrete log mod n instead: it labels every nonzero element at once and
counts the n**2 numbers in one pass. `c3_parity_even` needs no class at all.
"""

from functools import cached_property

import numpy as np

from .errors import BadCongruence, IndexOutOfRange, WrongN
from .fields import Field, PrimitiveData, powers


class CyclotomicContext:
    """A field with primitive data and a class count n dividing q-1."""

    def __init__(self, field: Field, pd: PrimitiveData, n: int):
        self.field, self.pd, self.n = field, pd, n
        self._numbers = {}  # (a, b) -> c(a, b), counted on first use

    @cached_property
    def class_zero(self) -> np.ndarray:
        """Class 0 as int64 codes, the powers of rho**n in exponent order."""
        return powers(self.field, self.field.pow(self.pd.rho, self.n), (self.field.q - 1) // self.n)

    @cached_property
    def mask(self) -> np.ndarray:
        """q-entry flags of the members of class 0."""
        flags = np.zeros(self.field.q, dtype=bool)
        flags[self.class_zero] = True
        return flags


def make_context(field: Field, pd: PrimitiveData, n: int) -> CyclotomicContext:
    if n < 1 or (field.q - 1) % n != 0:
        raise BadCongruence(f"n = {n} does not divide q - 1 = {field.q - 1}")
    return CyclotomicContext(field=field, pd=pd, n=n)


def cyclotomic_number(ctx: CyclotomicContext, a: int, b: int) -> int:
    """|(C(a) + 1) & C(b)|, counted on C(0) and kept in the context.

    C(b) = rho**b * C(0), so x = rho**a * y (y in C(0)) has x + 1 in C(b)
    exactly when rho**(a-b) * y + rho**(-b) is in C(0); both terms are
    multiplied by rho**n, a member of C(0), to keep the exponents in [0, 2n).
    """
    if not (0 <= a < ctx.n and 0 <= b < ctx.n):
        raise IndexOutOfRange(f"pair ({a}, {b}) not in [0, {ctx.n})^2")
    if (a, b) not in ctx._numbers:
        field, rho, n = ctx.field, ctx.pd.rho, ctx.n
        moved = field.mul_add_array(ctx.class_zero, field.pow(rho, n + a - b), field.pow(rho, n - b))
        ctx._numbers[a, b] = int(np.count_nonzero(ctx.mask[moved]))
    return ctx._numbers[a, b]


def cyclotomic_table(ctx: CyclotomicContext) -> np.ndarray:
    """Full n x n table of cyclotomic numbers, one pass over the nonzero elements."""
    n = ctx.n
    cls = ctx.pd.log % n  # the class of each code; zero's (log -1) is never read
    shifted = ctx.field.add_array(np.arange(1, ctx.field.q, dtype=np.int64), 1)
    keep = shifted != 0
    return np.bincount(cls[1:][keep] * n + cls[shifted[keep]], minlength=n * n).reshape(n, n)


def c3_parity_even(ctx: CyclotomicContext) -> bool:
    """True iff the third cyclotomic number c(1, 2) is even.

    Decided without counting: c(1, 2) is even exactly when the element 2
    lies in class 0, the cubes, that is when 2**((q-1)/3) = 1. 2 lies in the
    prime field, so the power is taken mod p, with no discrete-log table.
    """
    if ctx.n != 3:
        raise WrongN(f"parity criterion needs n = 3, got n = {ctx.n}")
    q = ctx.field.q
    if q % 6 != 1:
        raise BadCongruence(f"q = {q} is not 1 mod 6")
    return pow(2, (q - 1) // 3, ctx.field.p) == 1
