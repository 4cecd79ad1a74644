"""The group Z_l + Z_2^m + F_q, its connection sets, and the resulting Cayley graphs.

Bit-vectors in Z_2^m are stored as integers with coordinate i at bit i
(least significant first); displayed tuples elsewhere write the highest
coordinate first, so the tuple (x2, x1, x0) is the integer 4*x2 + 2*x1 + x0.
The vertex encoding fixed here is part of the certificate contract:

    index(z, v, f) = z * (2**m * q) + int(v) * q + fidx(f)

with fidx(0) = 0 and fidx(rho**j) = j + 1.
"""

from typing import NamedTuple

import numpy as np

from .errors import AsymmetricGeneratingSet, GraphTooLarge, IndexOutOfRange, ZeroVector, require_memory
from .fields import Field, PrimitiveData, dlog
from .graphcore import Graph

# Bytes per vertex besides the CSR indices while a Cayley graph is built and
# certified: indptr and degrees, the N-entry temporaries of a scan from one
# vertex, the spread's int64 vertex array
VERTEX_BYTES = 192

# bound on the bytes of one int32 array of a chunk of rows that the build and
# the translation check fill or compare at a time. The build holds up to three
# such while it fills block 0 (the field-code sums, a second digit array in an
# extension field, the field indices gathered from them), the check two
# besides a bool compare. A Cayley graph of the construction has k >= q, so
# even a chunk of all q rows of a block holds no more entries than the k^2
# that the mu scan from vertex 0 gathers
BLOCK_BYTES = 1 << 18


class GroupElement(NamedTuple):
    z: int  # residue mod l
    v: int  # bit-vector in Z_2^m
    f: int  # field element code


class GroupParams(NamedTuple):
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
        return graph_size(self.l, self.m, self.q)[0]

    def check_element(self, e: GroupElement) -> None:
        if not (0 <= e.z < self.l and 0 <= e.v < (1 << self.m)):
            raise IndexOutOfRange(f"{e} outside Z_{self.l} + Z_2^{self.m}")
        self.field.check_element(e.f)

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
    """Shift-then-read bijection: phi of sigma_plus(v) for odd weight, of sigma_minus(v) for even."""
    if not 0 < v < 8:
        raise ZeroVector(f"psi1 needs a nonzero 3-bit vector, got {v}")
    return phi(sigma_plus(v) if weight(v) % 2 else sigma_minus(v))


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


def generating_set(gp: GroupParams, pi) -> tuple:
    """The connection set as a tuple: s0 = every (z, v, 0) with (z, v) nonzero, ascending in (z, v),
    then each slice v = (0, v, rho^j) for j = pi(v) mod n, ascending in v and j."""
    pi = validate_bijection(gp.m, pi)
    n = (1 << gp.m) - 1
    s0 = [GroupElement(z, v, 0) for z in range(gp.l) for v in range(1 << gp.m) if (z, v) != (0, 0)]
    slices = [GroupElement(0, v, f) for v in range(1, 1 << gp.m) for f in gp.pd.exp[pi[v - 1] :: n].tolist()]
    return tuple(s0 + slices)


def symmetry_witness(gp: GroupParams, s: tuple):
    """The first element of s whose negative is missing from s, or None if s is symmetric."""
    members = set(s)
    return next((e for e in s if gp.neg(e) not in members), None)


def encode_vertex(gp: GroupParams, e: GroupElement) -> int:
    gp.check_element(e)
    fidx = 0 if e.f == 0 else dlog(gp.pd, e.f) + 1
    return e.z * ((1 << gp.m) * gp.q) + e.v * gp.q + fidx


def graph_size(l: int, m: int, q: int) -> tuple:
    """(N, k, lambda) on Z_l + Z_2^m + F_q: k counts the l * 2^m - 1 elements (z, v, 0) and q - 1 more."""
    size = l * (1 << m)
    return size * q, size + q - 2, size - 2


def check_footprint(n: int, k: int) -> None:
    """Refuse (GraphTooLarge) a graph on n vertices of degree k beyond the memory budget.

    Building and certifying it takes 4 * k bytes of int32 CSR indices and VERTEX_BYTES per vertex.
    """
    require_memory(n * (4 * k + VERTEX_BYTES), GraphTooLarge, f"N = {n} vertices need", " for the graph")


def check_graph_fits(l: int, m: int, q: int) -> None:
    """Refuse a Cayley graph on Z_l + Z_2^m + F_q that would not fit in memory (GraphTooLarge).

    It needs no field tables, so callers can run it before building them.
    """
    check_footprint(*graph_size(l, m, q)[:2])


def group_generators(gp: GroupParams) -> list:
    """Elements generating Z_l + Z_2^m + F_q: (1, 0, 0) when l > 1, the m unit
    bit-vectors, and the field codes p^i (the monomials x^i) for i < a."""
    cyclic = [GroupElement(1, 0, 0)] if gp.l > 1 else []
    vectors = [GroupElement(0, 1 << i, 0) for i in range(gp.m)]
    return cyclic + vectors + [GroupElement(0, 0, gp.field.p**i) for i in range(gp.field.a)]


def field_index_map(gp: GroupParams) -> tuple:
    """(fcodes, fidx_of_code): the code of each field index and the field index of each code
    (log[0] = -1, so fidx(0) = 0), as int32."""
    return np.concatenate(([0], gp.pd.exp)).astype(np.int32), (gp.pd.log + 1).astype(np.int32)


def build_cayley_graph(gp: GroupParams, s: tuple) -> Graph:
    """Graph on the n_vertices group elements with u ~ w iff w - u in the set s, a tuple of
    distinct elements of the group (else IndexOutOfRange or ValueError) closed under negation.

    The vertex index is block * q + fidx(f), with block = z * 2^m + v. The
    elements of the set whose (z, v) part is block d join block b to block
    b + d, field index i to the fidx(f + s) of their field parts s: one
    (q, w_d) table of sorted field indices per d. The rows of block 0 are these
    tables plus d * q, side by side in ascending d, filled BLOCK_BYTES of rows
    at a time. The rows of block (0, v) take the same columns in ascending
    order of target block v + d, so every row comes out sorted. Translation by
    (z, 0, 0) adds z to every target block's cyclic part and so rotates the
    rows of (0, v): the last t_z columns, those whose cyclic part c_z is at
    least l - z, wrap round to the front. Each block (z, v) with z >= 1 is
    that rotation plus z * 2^m * q, less N on the wrapped columns, written as
    two slice sums; the N·k array is the only large one.
    """
    vectors = 1 << gp.m
    parts = {}
    for e in s:
        gp.check_element(e)
        parts.setdefault(e.z * vectors + e.v, []).append(e.f)
    if len(set(s)) != len(s):
        raise ValueError("the connection set repeats an element")
    witness = symmetry_witness(gp, s)
    if witness is not None:
        raise AsymmetricGeneratingSet(witness)

    n, q, k = gp.n_vertices, gp.q, len(s)
    check_footprint(n, k)
    fcodes, fidx_of_code = field_index_map(gp)
    blocks = sorted(parts)
    widths = [len(parts[d]) for d in blocks]
    col_block = np.repeat(blocks, widths)
    col_f = np.array([f for d in blocks for f in parts[d]], dtype=np.int32)
    col_base = (col_block * q).astype(np.int32)
    starts = np.cumsum([0] + widths[:-1])
    wide = [(j, j + w) for j, w in zip(starts.tolist(), widths) if w > 1]
    nbrs = np.empty((n, k), dtype=np.int32)
    first = nbrs[:q]
    step = max(1, BLOCK_BYTES // (4 * k))
    for r0 in range(0, q, step):
        rows = first[r0 : r0 + step]
        rows[:] = fidx_of_code[gp.field.add_array(np.broadcast_to(col_f, rows.shape), fcodes[r0 : r0 + step, None])]
        for j0, j1 in wide:
            rows[:, j0:j1].sort(axis=1)
        rows += col_base

    col_z, col_v = np.divmod(col_block, vectors)
    for v in range(1, vectors):
        target = col_z * vectors + (v ^ col_v)
        order = np.argsort(target, kind="stable")
        rows = nbrs[v * q : (v + 1) * q]
        np.take(first, order, axis=1, out=rows, mode="clip")  # "raise" would buffer a copy of the block
        rows += ((target - col_block)[order] * q).astype(np.int32)

    size = vectors * q
    base = nbrs[:size]  # the blocks (0, v)
    for z in range(1, gp.l):
        t = k - int(np.searchsorted(col_z, gp.l - z))  # col_z ascends
        shift = z * size
        rows = nbrs[shift : shift + size]
        np.add(base[:, k - t :], shift - n, out=rows[:, :t])
        np.add(base[:, : k - t], shift, out=rows[:, t:])
    return Graph(np.arange(0, n * k + 1, k), nbrs.ravel(), validate=False)
