"""The group Z_l + Z_2^m + F_q, its connection sets, and the resulting Cayley graphs.

Bit-vectors in Z_2^m are stored as integers with coordinate i at bit i
(least significant first); displayed tuples elsewhere write the highest
coordinate first, so the tuple (x2, x1, x0) is the integer 4*x2 + 2*x1 + x0.
The vertex encoding fixed here is part of the certificate contract:

    index(z, v, f) = z * (2**m * q) + int(v) * q + fidx(f)

with fidx(0) = 0 and fidx(rho**j) = j + 1.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AsymmetricGeneratingSet, IndexOutOfRange, ZeroVector
from .fields import Field, PrimitiveData, dlog
from .graphcore import Graph, check_footprint


class GroupElement(NamedTuple):
    z: int  # residue mod l
    v: int  # bit-vector in Z_2^m
    f: int  # field element code


@dataclass(frozen=True)
class GroupParams:
    """Parameters (l, m, field) fixing the group Z_l + Z_2^m + F_q."""

    l: int
    m: int
    field: Field
    pd: PrimitiveData

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n_vertices(self) -> int:
        return (1 << self.m) * self.l * self.q

    def identity(self) -> GroupElement:
        return GroupElement(0, 0, 0)

    def add(self, e1: GroupElement, e2: GroupElement) -> GroupElement:
        return GroupElement((e1.z + e2.z) % self.l, e1.v ^ e2.v, self.field.add(e1.f, e2.f))

    def neg(self, e: GroupElement) -> GroupElement:
        return GroupElement(-e.z % self.l, e.v, self.field.neg(e.f))


def make_group(l: int, m: int, field: Field, pd: PrimitiveData) -> GroupParams:
    if l < 1 or m < 1:
        raise ValueError(f"l and m must be positive, got l={l}, m={m}")
    return GroupParams(l=l, m=m, field=field, pd=pd)


# ---------------------------------------------------------------------------
# bijections from nonzero bit-vectors to {0, ..., 2^m - 2}


def weight(v: int) -> int:
    return v.bit_count()


def sigma_plus(v: int) -> int:
    """Cyclic coordinate shift of a 3-bit vector: coordinate i comes from i-1."""
    return ((v << 1) | (v >> 2)) & 7


def sigma_minus(v: int) -> int:
    """Inverse shift of sigma_plus."""
    return ((v >> 1) | (v << 2)) & 7


def phi(v: int) -> int:
    """Binary value of a nonzero 3-bit vector reduced mod 7."""
    if not 0 < v < 8:
        raise ZeroVector(f"phi needs a nonzero 3-bit vector, got {v}")
    return v % 7


def psi1(v: int) -> int:
    """Shift-then-read bijection: sigma_plus for odd weight, sigma_minus for even."""
    if not 0 < v < 8:
        raise ZeroVector(f"psi1 needs a nonzero 3-bit vector, got {v}")
    return (sigma_plus(v) if weight(v) % 2 else sigma_minus(v)) % 7


def psi2(v: int) -> int:
    """Shift-xor bijection: sigma_plus(v)+v for odd weight, complement for even.

    For v = (1,1,1) the odd branch reads the zero vector, whose binary value 0
    is taken as is; that value is exactly what makes psi2 bijective.
    """
    if not 0 < v < 8:
        raise ZeroVector(f"psi2 needs a nonzero 3-bit vector, got {v}")
    return ((sigma_plus(v) ^ v) if weight(v) % 2 else (7 ^ v)) % 7


def psi1_table() -> tuple:
    return tuple(psi1(v) for v in range(1, 8))


def psi2_table() -> tuple:
    return tuple(psi2(v) for v in range(1, 8))


def default_pi(m: int) -> tuple:
    """Identity-order bijection over the ascending-value vector enumeration."""
    return tuple(range((1 << m) - 1))


def validate_bijection(m: int, pi) -> tuple:
    """Check that pi maps the 2^m - 1 nonzero vectors bijectively onto Z_{2^m - 1}."""
    pi = tuple(int(x) for x in pi)
    size = (1 << m) - 1
    if len(pi) != size or sorted(pi) != list(range(size)):
        raise ValueError(f"pi must be a permutation of 0..{size - 1}, got {pi}")
    return pi


# ---------------------------------------------------------------------------
# connection set and graph


@dataclass(frozen=True)
class GeneratingSet:
    """The connection set: s0 plus one slice per nonzero bit-vector."""

    s0: tuple
    by_vector: dict
    elements: frozenset

    @property
    def size(self) -> int:
        return len(self.elements)

    def ordered(self) -> list:
        out = list(self.s0)
        for v in sorted(self.by_vector):
            out.extend(self.by_vector[v])
        return out


def generating_set(gp: GroupParams, pi) -> GeneratingSet:
    """s0 = all (z, v, 0) with (z, v) nonzero; slice v = {(0, v, rho^j) : j = pi(v) mod n}."""
    pi = validate_bijection(gp.m, pi)
    n = (1 << gp.m) - 1
    s0 = tuple(
        GroupElement(z, v, 0)
        for z in range(gp.l)
        for v in range(1 << gp.m)
        if (z, v) != (0, 0)
    )
    by_vector = {}
    for v in range(1, 1 << gp.m):
        by_vector[v] = tuple(
            GroupElement(0, v, int(gp.pd.exp[j])) for j in range(pi[v - 1], gp.q - 1, n)
        )
    elements = frozenset(s0).union(*by_vector.values())
    return GeneratingSet(s0=s0, by_vector=by_vector, elements=elements)


def symmetry_witness(gp: GroupParams, s: GeneratingSet):
    """An element whose negative is missing from the set, or None if symmetric."""
    for e in s.ordered():
        if gp.neg(e) not in s.elements:
            return e
    return None


def encode_vertex(gp: GroupParams, e: GroupElement) -> int:
    if not (0 <= e.z < gp.l and 0 <= e.v < (1 << gp.m)):
        raise IndexOutOfRange(f"{e} outside Z_{gp.l} + Z_2^{gp.m}")
    gp.field.check_element(e.f)
    fidx = 0 if e.f == 0 else dlog(gp.pd, e.f) + 1
    return e.z * ((1 << gp.m) * gp.q) + e.v * gp.q + fidx


def decode_vertex(gp: GroupParams, index: int) -> GroupElement:
    if not 0 <= index < gp.n_vertices:
        raise IndexOutOfRange(f"vertex index {index} not in [0, {gp.n_vertices})")
    block = (1 << gp.m) * gp.q
    z, rest = divmod(index, block)
    v, fidx = divmod(rest, gp.q)
    f = 0 if fidx == 0 else int(gp.pd.exp[fidx - 1])
    return GroupElement(z, v, f)


def check_graph_fits(l: int, m: int, q: int) -> None:
    """Refuse a Cayley graph on Z_l + Z_2^m + F_q that would not fit in memory (GraphTooLarge).

    It needs no field tables, so callers can run it before building them.
    """
    n = l * (1 << m) * q
    # a connection set holds the l * 2^m - 1 elements (z, v, 0) plus q - 1 more
    check_footprint(n, n * (l * (1 << m) + q - 2))


def group_generators(gp: GroupParams) -> list:
    """Elements generating Z_l + Z_2^m + F_q: (1, 0, 0) when l > 1, the m unit
    bit-vectors, and the field codes p^i (the monomials x^i) for i < a."""
    cyclic = [GroupElement(1, 0, 0)] if gp.l > 1 else []
    vectors = [GroupElement(0, 1 << i, 0) for i in range(gp.m)]
    return cyclic + vectors + [GroupElement(0, 0, gp.field.p**i) for i in range(gp.field.a)]


def translator(gp: GroupParams):
    """The map e -> (index(u + e) for every vertex index u), as an int64 array.

    The vertices are decoded once, so each translation is a few array operations.
    """
    q = gp.q
    block = (1 << gp.m) * q
    idx = np.arange(gp.n_vertices, dtype=np.int64)
    zs = idx // block
    vs = idx % block // q
    fcodes = np.concatenate(([0], gp.pd.exp)).astype(np.int64)[idx % q]
    fidx_of_code = gp.pd.log + 1  # log[0] = -1, so fidx(0) = 0

    def translate(e: GroupElement) -> np.ndarray:
        return ((zs + e.z) % gp.l) * block + (vs ^ e.v) * q + fidx_of_code[gp.field.add_array(fcodes, e.f)]

    return translate


def build_cayley_graph(gp: GroupParams, s: GeneratingSet) -> Graph:
    """Graph on the n_vertices group elements with u ~ w iff w - u in the set."""
    witness = symmetry_witness(gp, s)
    if witness is not None:
        raise AsymmetricGeneratingSet(witness)

    generators = s.ordered()
    n = gp.n_vertices
    check_footprint(n, n * len(generators))
    translate = translator(gp)
    nbrs = np.empty((n, len(generators)), dtype=np.int32)
    for j, e in enumerate(generators):
        nbrs[:, j] = translate(e)
    nbrs.sort(axis=1)
    return Graph(np.arange(0, n * len(generators) + 1, len(generators)), nbrs.ravel(), validate=False)
