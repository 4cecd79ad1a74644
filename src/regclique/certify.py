"""Certificates for constructed graphs: edge-regularity, clique spreads with
nexus, predicted-vs-measured local valencies and common-neighbour counts, and
a (non-)strong-regularity verdict with reusable witnesses.

A certificate never throws on a failed property: each named check records its
own pass/fail so a failing run is as inspectable as a passing one. Witnesses
are always the lexicographically smallest found, making certificates
byte-reproducible.
"""

import json
from collections import Counter
from math import sqrt
from typing import NamedTuple

import numpy as np

from .construction import GroupElement, GroupParams, encode_vertex, group_generators, validate_bijection
from .cyclotomy import CyclotomicContext, cyclotomic_number, make_context
from .errors import (
    BadCongruence,
    HypothesisViolated,
    IndexOutOfRange,
    NoOutsideVertices,
    NotAClique,
    NotAPartition,
    NotEdgeRegular,
    WrongN,
)
from .graphcore import Graph

# bound on the bytes of one int32 array of a chunk of block-0 rows in
# check_translations, which holds two such at once besides a bool compare:
# the field codes `Field.add_array` sums and the expected rows gathered from
# them, then the expected rows and their image under a block element. A
# Cayley graph of the construction has k >= q, so even a chunk of all q rows
# of block 0 holds no more entries than the k^2 that the mu scan from vertex 0
# gathers
BLOCK_BYTES = 1 << 18


class ErgParams(NamedTuple):
    n: int
    k: int
    lam: int


class SrgParams(NamedTuple):
    n: int
    k: int
    lam: int
    mu: int
    theta1: float
    theta2: float


class Failure(NamedTuple):
    """A failed check with enough context to re-verify the counterexample."""

    detail: str
    witness: tuple


def _irregularity(g: Graph) -> Failure:
    u, v = g.irregularity_witness()
    return Failure(detail=f"degrees differ: deg({u})={g.degree(u)}, deg({v})={g.degree(v)}", witness=(u, v))


def check_translations(gp: GroupParams, g: Graph) -> Failure | None:
    """None when every translation of the group is an automorphism of g, else Failure.

    The translations act transitively on the vertices, so passing proves g
    vertex-transitive: every lambda and mu value then occurs at a pair (0, v).
    Every translation is an automorphism of a regular graph with ascending
    rows iff g is the Cayley graph of the group on the neighbours of 0, that
    is iff row(u) == sort(u + row(0)) for every vertex u, which is what this
    checks. Vertex u = b * q + i is (0, 0, f_i), f_i the field element of
    index i, moved by the block element b = z * 2^m + v, that is (z, v, 0);
    so u + row(0) is tau_b(f_i + row(0)). For each chunk of field indices i:

    - the expected rows of block 0 are row 0's field codes plus f_i, gathered
      back to field indices within row 0's column blocks, then sorted;
    - each of them holds the column blocks of row 0 in ascending order. tau_b
      keeps each entry's field index and moves its block, so one column order
      sorts the images of all of them: the columns stably ordered by target
      block. The images are compared with the rows of block b, b = 0 first.

    A failure's witness is (e, 0), with e the element that moves 0 to the
    smallest vertex u whose row differs. Rows are read in chunks of
    BLOCK_BYTES.
    """
    if g.n != gp.n_vertices:
        detail = f"the graph has {g.n} vertices, the group {gp.n_vertices}"
        return Failure(detail=detail, witness=(g.n, gp.n_vertices))
    k = g.is_regular()
    if k is None:
        return _irregularity(g)
    q, vectors = gp.q, 1 << gp.m
    adj = g.row_table
    fcodes = np.concatenate(([0], gp.pd.exp)).astype(np.int32)  # the code of each field index
    fidx_of_code = (gp.pd.log + 1).astype(np.int32)  # log[0] = -1, so fidx(0) = 0
    cols0, fidx0 = np.divmod(adj[0], q)
    bases0, codes0 = cols0 * q, fcodes[fidx0]
    cols = np.sort(cols0)  # the column blocks of every expected row
    cz, cv = np.divmod(cols, vectors)
    first = g.n  # the smallest vertex found whose row differs
    step = max(1, BLOCK_BYTES // (4 * max(k, 1)))
    for r0 in range(0, q, step):
        r1 = min(r0 + step, q)
        # [] casts the int32 sums to indices a buffer at a time, np.take all at once
        expected = fidx_of_code[gp.field.add_array(np.broadcast_to(codes0, (r1 - r0, k)), fcodes[r0:r1, None])]
        expected += bases0
        expected.sort(axis=1)
        for b in range(gp.l * vectors):
            if b * q + r0 >= first:
                break
            target = (cz + b // vectors) % gp.l * vectors + (cv ^ b % vectors)
            order = np.argsort(target, kind="stable")
            image = expected[:, order]
            image += ((target - cols) * q)[order]
            rows = adj[b * q + r0 : b * q + r1]
            if not np.array_equal(image, rows):
                first = b * q + r0 + int(np.flatnonzero((image != rows).any(axis=1))[0])
            del image  # before the next one is gathered
    if first == g.n:
        return None
    z, v = divmod(first // q, vectors)
    e = GroupElement(z, v, int(fcodes[first % q]))
    return Failure(detail=f"translation by {tuple(e)} maps the neighbours of 0 off those of {first}", witness=(e, 0))


def _pair_profile(g: Graph, sources, adjacent: bool) -> dict:
    """count -> the lexicographically smallest pair (u, v), u < v, u in sources
    (ascending; None for every vertex), that is (or is not) an edge with that
    many common neighbours."""
    found = {}
    for u in range(g.n) if sources is None else sources:
        row = g.indices[g.indptr[u] : g.indptr[u + 1]]
        if adjacent:
            vs = row[row > u]
        else:
            others = np.ones(g.n, dtype=bool)
            others[: u + 1] = False
            others[row] = False
            vs = np.flatnonzero(others)
        values, first = np.unique(g.adjacent_counts(row)[vs], return_index=True)
        for count, i in zip(values.tolist(), first.tolist()):
            found.setdefault(count, (u, int(vs[i])))
    return found


def check_edge_regular(g: Graph, sources=None):
    """ErgParams when every edge (u, v), u in sources, sees the same common-neighbour count, else Failure.

    lambda is the count of the lexicographically first edge; the failure witness
    is the first edge whose count differs from it. With sources=(0,) this
    decides edge-regularity only for vertex-transitive graphs.
    """
    k = g.is_regular()
    if k is None:
        return _irregularity(g)
    profile = _pair_profile(g, sources, adjacent=True)
    if not profile:
        return ErgParams(n=g.n, k=k, lam=0)  # edgeless regular graph: the condition is vacuous
    lam, first_edge = min(profile.items(), key=lambda item: item[1])
    deviant = [(pair, count) for count, pair in profile.items() if count != lam]
    if deviant:
        (u, v), count = min(deviant)
        return Failure(
            detail=f"edge {first_edge} has {lam} common neighbours, edge {(u, v)} has {count}",
            witness=(u, v),
        )
    return ErgParams(n=g.n, k=k, lam=lam)


class SrgScan(NamedTuple):
    verdict: str  # "SRG" | "NotSRG" | "Complete"
    params: SrgParams | None
    mu_values: tuple
    witnesses: tuple  # (u, v, mu) per distinct mu, lexicographically smallest


def _srg_scan(g: Graph, erg, sources) -> SrgScan:
    """The mu profile over sources, classified; any graph that is not edge-regular is NotSRG."""
    found = _pair_profile(g, sources, adjacent=False)
    witnesses = tuple((u, v, mu) for mu, (u, v) in sorted(found.items()))
    mu_values = tuple(sorted(found))
    if isinstance(erg, Failure) or len(found) > 1:
        return SrgScan("NotSRG", None, mu_values, witnesses)
    if not found:
        return SrgScan("Complete", None, (), ())
    mu = mu_values[0]
    disc = sqrt((erg.lam - mu) ** 2 + 4 * (erg.k - mu))
    theta1 = ((erg.lam - mu) + disc) / 2
    theta2 = ((erg.lam - mu) - disc) / 2
    params = SrgParams(n=erg.n, k=erg.k, lam=erg.lam, mu=mu, theta1=theta1, theta2=theta2)
    return SrgScan("SRG", params, mu_values, witnesses)


def check_strongly_regular(g: Graph, erg: ErgParams | None = None, sources=None) -> SrgScan:
    """Scan non-adjacent pairs (u, v), u in sources, for the constancy of the mu parameter.

    `erg` is the graph's edge-regularity result when the caller already has it;
    without it the lambda pass runs here over the same sources. With
    sources=(0,) the scan is conclusive only for vertex-transitive graphs.
    """
    if erg is None:
        erg = check_edge_regular(g, sources)
    if isinstance(erg, Failure):
        raise NotEdgeRegular(erg.detail)
    return _srg_scan(g, erg, sources)


# ---------------------------------------------------------------------------
# cliques and spreads


class CliqueReport(NamedTuple):
    clique: tuple
    order: int
    nexus: int | None  # None when outside counts are not constant
    witnesses: tuple | None  # two (vertex, count) pairs with differing counts


def canonical_spread(gp: GroupParams) -> np.ndarray:
    """The q vertex classes of constant field coordinate as the rows of a
    (q, 2^m * l) array: row i holds the vertices z * 2^m * q + v * q + i, ascending."""
    return np.arange(gp.n_vertices).reshape(-1, gp.q).T


def clique_nexus(g: Graph, clique) -> CliqueReport:
    """Verify pairwise adjacency, then count outside attachments."""
    clique = tuple(sorted({int(v) for v in clique}))
    if len(clique) < 2:
        raise ValueError("a clique report needs at least two vertices")
    members = np.array(clique)
    counts = g.adjacent_counts(members)  # raises IndexOutOfRange at the smallest vertex outside [0, n)
    if len(clique) == g.n:
        raise NoOutsideVertices("the clique covers every vertex")
    short = np.flatnonzero(counts[members] != len(clique) - 1)
    if short.size:
        u = clique[short[0]]
        for v in clique:
            if v != u and not g.has_edge(u, v):
                raise NotAClique(u, v)
    first_v = next((i for i, v in enumerate(clique) if v != i), len(clique))  # the smallest outside vertex
    first = int(counts[first_v])
    differ = counts != first
    differ[members] = False
    i = int(differ.argmax())  # the first outside vertex whose count differs, or 0 when none does
    if differ[i]:
        return CliqueReport(clique, len(clique), None, ((first_v, first), (i, int(counts[i]))))
    return CliqueReport(clique, len(clique), first, None)


# ---------------------------------------------------------------------------
# predictions from the cyclotomic side


def _check_ctx(gp: GroupParams, ctx: CyclotomicContext):
    n = (1 << gp.m) - 1
    if ctx.n != n:
        raise WrongN(f"context has n = {ctx.n}, group needs n = {n}")


def predicted_local_valencies(gp: GroupParams, pi, ctx: CyclotomicContext) -> Counter:
    """Expected within-neighbourhood degree multiset at any vertex.

    One value 2^m*l - 2 per s0 element; for the slice of each nonzero vector g,
    the sum over the other vectors h of c(pi(h-g) - pi(g), pi(h) - pi(g)).
    """
    _check_ctx(gp, ctx)
    pi = validate_bijection(gp.m, pi)
    n = ctx.n
    size = (1 << gp.m) * gp.l
    out = Counter({size - 2: size - 1})
    per_class = (gp.q - 1) // n
    for gv in range(1, 1 << gp.m):
        total = sum(
            cyclotomic_number(ctx, (pi[(h ^ gv) - 1] - pi[gv - 1]) % n, (pi[h - 1] - pi[gv - 1]) % n)
            for h in range(1, 1 << gp.m)
            if h != gv
        )
        out[total] += per_class
    return out


def predicted_mu_witness(gp: GroupParams, pi, ctx: CyclotomicContext, gv: int) -> int:
    """Expected common-neighbour count of the identity and (0, gv, rho).

    Only defined when pi(gv) != 1; otherwise the two vertices are adjacent.
    """
    _check_ctx(gp, ctx)
    pi = validate_bijection(gp.m, pi)
    if not 0 < gv < (1 << gp.m):
        raise HypothesisViolated(f"gv = {gv} is not a nonzero bit-vector")
    if pi[gv - 1] == 1:
        raise HypothesisViolated(f"pi({gv}) = 1: the witness pair would be adjacent")
    n = ctx.n
    return 2 + sum(
        cyclotomic_number(ctx, (pi[h - 1] - 1) % n, (pi[(h ^ gv) - 1] - 1) % n)
        for h in range(1, 1 << gp.m)
        if h != gv
    )


# ---------------------------------------------------------------------------
# quotient matrices and the forced strongly regular parameters


class QuotientMatrix(NamedTuple):
    cells: tuple
    entries: tuple  # rows of Fractions: average neighbour counts cell i -> cell j
    equitable: bool


def quotient_matrix(g: Graph, partition) -> QuotientMatrix:
    from fractions import Fraction  # only here, so importing the package does not load fractions and decimal

    cells = tuple(tuple(sorted(cell)) for cell in partition)
    if not cells or any(not cell for cell in cells):
        raise NotAPartition("cells must be non-empty")
    seen = [v for cell in cells for v in cell]
    if len(seen) != g.n or set(seen) != set(range(g.n)):
        raise NotAPartition("cells must be disjoint and cover every vertex")
    into = [g.adjacent_counts(cell) for cell in cells]  # into[j][x] = |N(x) & cell j|
    entries = []
    equitable = True
    for cell in cells:
        row = []
        for counts_j in into:
            counts = counts_j[list(cell)]
            if (counts != counts[0]).any():
                equitable = False
            row.append(Fraction(int(counts.sum()), len(cell)))
        entries.append(tuple(row))
    return QuotientMatrix(cells=cells, entries=tuple(entries), equitable=equitable)


def eigenvalues_2x2(entries) -> tuple:
    """Closed-form eigenvalues of a 2x2 matrix, descending."""
    (a, b), (c, d) = entries
    tr = a + d
    det = a * d - b * c
    disc = sqrt(float(tr * tr - 4 * det))
    return ((float(tr) + disc) / 2, (float(tr) - disc) / 2)


def srg_clique_parameters(s: int, t: int) -> SrgParams:
    """The strongly regular parameters forced by a 1-regular clique of order s+1.

    Returns ((s+1)(st+1), s(t+1), s-1, t+1) with eigenvalues s-1 and -t-1, and
    verifies the three standard parameter relations in exact integer
    arithmetic before returning.
    """
    if s < 1 or t < 1:
        raise ValueError(f"s and t must be >= 1, got ({s}, {t})")
    n = (s + 1) * (s * t + 1)
    k = s * (t + 1)
    lam = s - 1
    mu = t + 1
    theta1, theta2 = s - 1, -t - 1
    if (n - k - 1) * mu != k * (k - lam - 1):
        raise AssertionError(f"pair count relation fails at (s, t) = ({s}, {t})")
    if lam - mu != theta1 + theta2 or mu - k != theta1 * theta2:
        raise AssertionError(f"eigenvalue relations fail at (s, t) = ({s}, {t})")
    return SrgParams(n=n, k=k, lam=lam, mu=mu, theta1=theta1, theta2=theta2)


# ---------------------------------------------------------------------------
# certificate assembly


class Certificate(NamedTuple):
    m: int
    l: int
    p: int
    a: int
    q: int
    modulus: tuple | None
    rho: int
    pi: tuple
    variant: str | None
    n_vertices: int
    k: int
    lam: int | None
    edge_regular: bool
    spread: dict
    srg: dict
    checks: list
    passed: bool

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "p": self.p,
            "a": self.a,
            "q": self.q,
            "modulus": list(self.modulus) if self.modulus is not None else None,
            "rho": self.rho,
            "pi": list(self.pi),
            "variant": self.variant,
            "N": self.n_vertices,
            "k": self.k,
            "lambda": self.lam,
            "edge_regular": self.edge_regular,
            "spread": self.spread,
            "srg": self.srg,
            "checks": self.checks,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def first_failure(self) -> str | None:
        for check in self.checks:
            if not check["pass"]:
                return check["name"]
        return None


def assemble_certificate(gp: GroupParams, pi, variant, g: Graph) -> Certificate:
    """Run every check on a graph built from (gp, pi) and collect the verdicts.

    The first check proves g vertex-transitive; lambda and mu are then read
    from the pairs (0, v) alone.
    """
    pi = validate_bijection(gp.m, pi)
    checks = []

    def record(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    size = (1 << gp.m) * gp.l
    expected = ErgParams(n=gp.n_vertices, k=size - 2 + gp.q, lam=size - 2)
    sources = (0,)

    # 0. the generating translations are automorphisms
    moved = check_translations(gp, g)
    passed = f"{len(group_generators(gp))} generating translations are automorphisms"
    record("vertex_transitive", moved is None, moved.detail if moved else passed)

    # 1. edge-regularity over the edges at vertex 0
    erg = check_edge_regular(g, sources)
    is_erg = isinstance(erg, ErgParams)
    if is_erg:
        record("edge_regular", True, f"(N, k, lambda) = ({erg.n}, {erg.k}, {erg.lam})")
    else:
        record("edge_regular", False, erg.detail)

    # 2. parameter match against the construction formulas
    if is_erg:
        ok = erg == expected
        record(
            "parameters",
            ok,
            f"measured ({erg.n}, {erg.k}, {erg.lam}), formula ({expected.n}, {expected.k}, {expected.lam})",
        )
    else:
        record("parameters", False, "graph is not edge-regular")

    # 3. the spread of q cliques with constant field coordinate
    spread = canonical_spread(gp)
    orders = set()
    nexus_values = set()
    spread_ok = len(spread) == gp.q
    spread_detail = f"{len(spread)} cliques"
    for clique in spread:
        try:
            report = clique_nexus(g, clique.tolist())  # Python ints, so a NotAClique witness prints as plain integers
        except NotAClique as exc:
            spread_ok = False
            spread_detail = f"not a clique: witness non-edge {exc.witness}"
            break
        except IndexOutOfRange as exc:  # a graph with fewer vertices than the group
            spread_ok = False
            spread_detail = f"not a clique of the graph: {exc}"
            break
        orders.add(report.order)
        nexus_values.add(report.nexus)
        if report.order != size or report.nexus != 1:
            spread_ok = False
    else:
        covered = np.bincount(spread.ravel(), minlength=g.n)
        if len(covered) != g.n or (covered != 1).any():
            spread_ok = False
            spread_detail = "cliques do not partition the vertex set"
        else:
            nexus_list = sorted(nexus_values, key=lambda x: (x is None, x))
            spread_detail = f"{len(spread)} cliques, orders {sorted(orders)}, nexus values {nexus_list}"
    record("clique_spread", spread_ok, spread_detail)
    spread_summary = {
        "count": len(spread),
        "order": orders.pop() if len(orders) == 1 else None,
        "nexus": nexus_values.pop() if len(nexus_values) == 1 else None,
    }

    # 4 + 5. cyclotomic predictions against measured counts
    try:
        ctx = make_context(gp.field, gp.pd, (1 << gp.m) - 1)
    except BadCongruence as exc:
        record("local_valencies", False, f"no cyclotomic context: {exc}")
        record("mu_witnesses", False, f"no cyclotomic context: {exc}")
    else:
        nbrs = np.array(g.neighbours(0), dtype=np.intp)
        at_zero = g.adjacent_counts(nbrs)  # |N(0) & N(w)| for every vertex w
        predicted = predicted_local_valencies(gp, pi, ctx)
        measured = Counter(at_zero[nbrs].tolist())
        record(
            "local_valencies",
            predicted == measured,
            f"predicted {sorted(predicted.items())}, measured at vertex 0 {sorted(measured.items())}",
        )
        mismatches = []
        pairs = []
        for gv in range(1, 1 << gp.m):
            if pi[gv - 1] == 1:
                continue
            want = predicted_mu_witness(gp, pi, ctx, gv)
            w = encode_vertex(gp, GroupElement(0, gv, gp.pd.rho))
            got = int(at_zero[w]) if w < g.n else None  # None beyond a graph smaller than the group
            pairs.append((gv, want, got))
            if want != got:
                mismatches.append((gv, want, got))
        record(
            "mu_witnesses",
            not mismatches,
            f"(g, predicted, measured) = {pairs}" if not mismatches else f"mismatches {mismatches}",
        )

    # 6. strong-regularity scan (a graph that is not edge-regular is NotSRG; its mu profile is kept)
    srg_scan = check_strongly_regular(g, erg, sources) if is_erg else _srg_scan(g, erg, sources)
    verdict = srg_scan.verdict
    srg_summary = {
        "verdict": verdict,
        "mu_values": [int(x) for x in srg_scan.mu_values],
        "witnesses": [[int(u), int(v), int(mu)] for u, v, mu in srg_scan.witnesses],
    }
    if is_erg:
        detail = f"verdict {verdict}, mu values {list(srg_scan.mu_values)}"
        record("not_strongly_regular", verdict == "NotSRG", detail)
    else:
        record("not_strongly_regular", True, "not edge-regular, hence not strongly regular")

    # 7. minimum order of a regular clique in a non-SRG graph
    if verdict != "NotSRG":
        record("clique_order_bound", True, f"not applicable: verdict {verdict}")
    elif spread_summary["nexus"] == 1:
        record("clique_order_bound", size >= 4, f"regular clique order {size}")
    else:
        record("clique_order_bound", False, "no regular clique available for the bound")

    degree = g.is_regular()
    return Certificate(
        m=gp.m,
        l=gp.l,
        p=gp.field.p,
        a=gp.field.a,
        q=gp.q,
        modulus=gp.field.modulus,
        rho=gp.pd.rho,
        pi=pi,
        variant=variant,
        n_vertices=g.n,
        k=degree if degree is not None else g.degree(0),
        lam=erg.lam if is_erg else None,
        edge_regular=is_erg,
        spread=spread_summary,
        srg=srg_summary,
        checks=checks,
        passed=all(c["pass"] for c in checks),
    )
