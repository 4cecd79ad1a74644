"""Cyclotomic classes and cyclotomic numbers of GF(q).

For a fixed primitive element rho and n | q-1, the class of index i collects
the nonzero elements whose discrete log is congruent to i mod n, and the
cyclotomic number c(a, b) counts elements x of class a with x + 1 of class b.
The classes are the cosets of the subgroup <rho**n>: class 0 lists the powers
of rho**n and class i is rho**i times class 0, so no discrete-log table is
needed. Since rho**n lies in class 0, every cyclotomic number is counted on
class 0 alone: x = rho**a * y with y in class 0 has x + 1 in class b exactly
when rho**(n+a-b) * y + rho**(n-b) is in class 0. A context makes class 0
and its mask once and keeps each c(a, b) it counts, so `cyclotomic_number`
never makes another class; `cyclotomic_table` (the `cyclotab` command)
labels every element from all n classes and counts the n**2 numbers in one
pass.
"""

import numpy as np

from .errors import BadCongruence, IndexOutOfRange, WrongN
from .fields import Field, PrimitiveData, dlog, powers


class CyclotomicContext:
    """A field with primitive data and a class count n dividing q-1."""

    def __init__(self, field: Field, pd: PrimitiveData, n: int):
        self.field, self.pd, self.n = field, pd, n
        self._cache = {}

    def coset(self, i: int) -> np.ndarray:
        """Class i as int64 codes, rho**i * <rho**n> in exponent order; made on first use."""
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"class index {i} not in [0, {self.n})")
        key = ("coset", i)
        if key not in self._cache:
            if i == 0:
                rho_n = self.field.pow(self.pd.rho, self.n)
                self._cache[key] = powers(self.field, rho_n, (self.field.q - 1) // self.n)
            else:
                self._cache[key] = self.field.mul_array(self.coset(0), self.field.pow(self.pd.rho, i))
        return self._cache[key]

    def mask(self) -> np.ndarray:
        """q-entry flags of the members of class 0; made on first use."""
        if "mask" not in self._cache:
            flags = np.zeros(self.field.q, dtype=bool)
            flags[self.coset(0)] = True
            self._cache["mask"] = flags
        return self._cache["mask"]


def make_context(field: Field, pd: PrimitiveData, n: int) -> CyclotomicContext:
    if n < 1 or (field.q - 1) % n != 0:
        raise BadCongruence(f"n = {n} does not divide q - 1 = {field.q - 1}")
    return CyclotomicContext(field=field, pd=pd, n=n)


def class_index(ctx: CyclotomicContext, x: int) -> int:
    """Index i in {0, ..., n-1} of the class containing x."""
    return dlog(ctx.pd, x) % ctx.n


def cyclotomic_number(ctx: CyclotomicContext, a: int, b: int) -> int:
    """|(C(a) + 1) & C(b)|, counted on C(0) and kept in the context.

    C(b) = rho**b * C(0), so x = rho**a * y (y in C(0)) has x + 1 in C(b)
    exactly when rho**(a-b) * y + rho**(-b) is in C(0); both terms are
    multiplied by rho**n, a member of C(0), to keep the exponents in [0, 2n).
    """
    if not (0 <= a < ctx.n and 0 <= b < ctx.n):
        raise IndexOutOfRange(f"pair ({a}, {b}) not in [0, {ctx.n})^2")
    key = ("c", a, b)
    if key not in ctx._cache:
        field, rho, n = ctx.field, ctx.pd.rho, ctx.n
        moved = field.mul_add_array(ctx.coset(0), field.pow(rho, n + a - b), field.pow(rho, n - b))
        ctx._cache[key] = int(np.count_nonzero(ctx.mask()[moved]))
    return ctx._cache[key]


def cyclotomic_table(ctx: CyclotomicContext) -> np.ndarray:
    """Full n x n table of cyclotomic numbers, one pass over the nonzero elements."""
    n, q = ctx.n, ctx.field.q
    cls = np.empty(q, dtype=np.int64)
    for i in range(n):
        cls[ctx.coset(i)] = i
    xs = np.arange(1, q, dtype=np.int64)
    shifted = ctx.field.add_array(xs, 1)
    keep = shifted != 0
    return np.bincount(cls[xs[keep]] * n + cls[shifted[keep]], minlength=n * n).reshape(n, n)


def c3_parity_even(ctx: CyclotomicContext) -> bool:
    """True iff the third cyclotomic number c(1, 2) is even.

    Decided without counting: c(1, 2) is even exactly when the element 2
    lies in class 0.
    """
    if ctx.n != 3:
        raise WrongN(f"parity criterion needs n = 3, got n = {ctx.n}")
    if ctx.field.q % 6 != 1:
        raise BadCongruence(f"q = {ctx.field.q} is not 1 mod 6")
    two = ctx.field.add(1, 1)
    return class_index(ctx, two) == 0
