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
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .construction import GroupParams, GroupElement, encode_vertex, validate_bijection
from .cyclotomy import CyclotomicContext, cyclotomic_number, make_context
from .errors import (
    BadCongruence,
    HypothesisViolated,
    NoOutsideVertices,
    NotAClique,
    NotAPartition,
    NotEdgeRegular,
    WrongN,
)
from .graphcore import Graph

MU_EXHAUSTIVE_LIMIT = 2000  # above this, the scan walks outward from vertex 0


@dataclass(frozen=True)
class ErgParams:
    n: int
    k: int
    lam: int


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int
    theta1: float
    theta2: float


@dataclass(frozen=True)
class Failure:
    """A failed check with enough context to re-verify the counterexample."""

    detail: str
    witness: tuple


def check_edge_regular(g: Graph):
    """ErgParams when every edge sees the same common-neighbour count, else Failure.

    The failure witness is the lexicographically first edge whose count differs
    from that of the first edge.
    """
    k = g.is_regular()
    if k is None:
        u, v = g.irregularity_witness()
        return Failure(
            detail=f"degrees differ: deg({u})={g.degree(u)}, deg({v})={g.degree(v)}",
            witness=(u, v),
        )
    lam = None
    first_edge = None
    for u in range(g.n):
        for vs, counts in g.pair_counts(u, adjacent=True):
            if lam is None:
                lam, first_edge = int(counts[0]), (u, int(vs[0]))
            differ = np.flatnonzero(counts != lam)
            if differ.size:
                v, count = int(vs[differ[0]]), int(counts[differ[0]])
                return Failure(
                    detail=f"edge {first_edge} has {lam} common neighbours, edge {(u, v)} has {count}",
                    witness=(u, v),
                )
    if lam is None:
        lam = 0  # edgeless regular graph: the condition is vacuous
    return ErgParams(n=g.n, k=k, lam=lam)


@dataclass(frozen=True)
class SrgScan:
    verdict: str  # "SRG" | "NotSRG" | "Complete"
    params: SrgParams | None
    mu_values: tuple
    witnesses: tuple  # (u, v, mu) per distinct mu, lexicographically smallest
    scan: str  # "exhaustive" | "from_identity"


def _mu_profile(g: Graph, scan: str) -> dict:
    """mu -> the lexicographically smallest non-adjacent pair (u, v), u < v, with that count.

    The exhaustive scan takes every source row u; from_identity takes u = 0 only.
    """
    if scan == "exhaustive":
        sources = range(g.n)
    elif scan == "from_identity":
        sources = (0,)
    else:
        raise ValueError(f"unknown scan strategy {scan!r}")
    found = {}
    for u in sources:
        for vs, counts in g.pair_counts(u, adjacent=False):
            for mu in np.flatnonzero(np.bincount(counts)).tolist():
                if mu not in found:
                    found[mu] = (u, int(vs[np.argmax(counts == mu)]))
    return found


def check_strongly_regular(g: Graph, scan: str = "exhaustive", erg: ErgParams | None = None) -> SrgScan:
    """Scan non-adjacent pairs for the constancy of the mu parameter.

    `erg` is the graph's edge-regularity result when the caller already has it;
    without it the lambda pass runs here. The from_identity scan is only
    conclusive for vertex-transitive graphs, where every non-adjacent pair
    translates to one containing vertex 0.
    """
    if erg is None:
        erg = check_edge_regular(g)
    if isinstance(erg, Failure):
        raise NotEdgeRegular(erg.detail)
    found = _mu_profile(g, scan)
    witnesses = tuple((u, v, mu) for mu, (u, v) in sorted(found.items()))
    mu_values = tuple(sorted(found))
    if not found:
        return SrgScan("Complete", None, (), (), scan)
    if len(found) > 1:
        return SrgScan("NotSRG", None, mu_values, witnesses, scan)
    mu = mu_values[0]
    disc = sqrt((erg.lam - mu) ** 2 + 4 * (erg.k - mu))
    theta1 = ((erg.lam - mu) + disc) / 2
    theta2 = ((erg.lam - mu) - disc) / 2
    params = SrgParams(n=erg.n, k=erg.k, lam=erg.lam, mu=mu, theta1=theta1, theta2=theta2)
    return SrgScan("SRG", params, mu_values, witnesses, scan)


# ---------------------------------------------------------------------------
# cliques and spreads


@dataclass(frozen=True)
class CliqueReport:
    clique: tuple
    order: int
    nexus: int | None  # None when outside counts are not constant
    witnesses: tuple | None  # two (vertex, count) pairs with differing counts


def canonical_spread(gp: GroupParams) -> list:
    """The q vertex classes of constant field coordinate, each of size 2^m * l."""
    block = (1 << gp.m) * gp.q
    members = [z * block + v * gp.q for z in range(gp.l) for v in range(1 << gp.m)]
    return [[base + fidx for base in members] for fidx in range(gp.q)]


def clique_nexus(g: Graph, clique) -> CliqueReport:
    """Verify pairwise adjacency, then count outside attachments."""
    clique = tuple(sorted(set(clique)))
    if len(clique) < 2:
        raise ValueError("a clique report needs at least two vertices")
    for v in clique:
        g.degree(v)  # bounds check
    if len(clique) == g.n:
        raise NoOutsideVertices("the clique covers every vertex")
    counts = g.adjacent_counts(clique)
    members = np.array(clique)
    short = np.flatnonzero(counts[members] != len(clique) - 1)
    if short.size:
        u = clique[short[0]]
        for v in clique:
            if v != u and not g.has_edge(u, v):
                raise NotAClique(u, v)
    outside = np.ones(g.n, dtype=bool)
    outside[members] = False
    vertices = np.flatnonzero(outside)
    attached = counts[vertices]
    first_v, first = int(vertices[0]), int(attached[0])
    differ = np.flatnonzero(attached != first)
    if differ.size:
        i = differ[0]
        return CliqueReport(clique, len(clique), None, ((first_v, first), (int(vertices[i]), int(attached[i]))))
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


@dataclass(frozen=True)
class QuotientMatrix:
    cells: tuple
    entries: tuple  # rows of Fractions: average neighbour counts cell i -> cell j
    equitable: bool


def quotient_matrix(g: Graph, partition) -> QuotientMatrix:
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


@dataclass
class Certificate:
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


def assemble_certificate(gp: GroupParams, pi, variant, g: Graph, mu_scan: str = "auto") -> Certificate:
    """Run every check on a graph built from (gp, pi) and collect the verdicts.

    mu_scan: "auto" picks exhaustive for n <= MU_EXHAUSTIVE_LIMIT and the
    outward-from-vertex-0 walk above it; either may be forced explicitly.
    """
    pi = validate_bijection(gp.m, pi)
    checks = []

    def record(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    size = (1 << gp.m) * gp.l
    expected = ErgParams(n=gp.n_vertices, k=size - 2 + gp.q, lam=size - 2)

    # 1. edge-regularity over all edges
    erg = check_edge_regular(g)
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
            report = clique_nexus(g, clique)
        except NotAClique as exc:
            spread_ok = False
            spread_detail = f"not a clique: witness non-edge {exc.witness}"
            break
        orders.add(report.order)
        nexus_values.add(report.nexus)
        if report.order != size or report.nexus != 1:
            spread_ok = False
    else:
        covered = sorted(v for clique in spread for v in clique)
        if covered != list(range(g.n)):
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
    rho_code = int(gp.pd.exp[1]) if gp.q > 2 else 1
    try:
        ctx = make_context(gp.field, gp.pd, (1 << gp.m) - 1)
    except BadCongruence as exc:
        record("local_valencies", False, f"no cyclotomic context: {exc}")
        record("mu_witnesses", False, f"no cyclotomic context: {exc}")
    else:
        predicted = predicted_local_valencies(gp, pi, ctx)
        measured = g.neighbourhood_degree_multiset(0)
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
            got = g.common_neighbours(0, encode_vertex(gp, GroupElement(0, gv, rho_code)))
            pairs.append((gv, want, got))
            if want != got:
                mismatches.append((gv, want, got))
        record(
            "mu_witnesses",
            not mismatches,
            f"(g, predicted, measured) = {pairs}" if not mismatches else f"mismatches {mismatches}",
        )

    # 6. strong-regularity scan
    scan = mu_scan
    if scan == "auto":
        scan = "exhaustive" if g.n <= MU_EXHAUSTIVE_LIMIT else "from_identity"
    if is_erg:
        srg_scan = check_strongly_regular(g, scan=scan, erg=erg)
        verdict = srg_scan.verdict
        srg_summary = {
            "verdict": verdict,
            "mu_values": [int(x) for x in srg_scan.mu_values],
            "witnesses": [[int(u), int(v), int(mu)] for u, v, mu in srg_scan.witnesses],
            "scan": scan,
        }
        record(
            "not_strongly_regular",
            verdict == "NotSRG",
            f"verdict {verdict}, mu values {list(srg_scan.mu_values)}",
        )
    else:
        profile = _mu_profile(g, scan)
        verdict = "NotSRG"
        srg_summary = {
            "verdict": verdict,
            "mu_values": [int(mu) for mu in sorted(profile)],
            "witnesses": [[int(u), int(v), int(mu)] for mu, (u, v) in sorted(profile.items())],
            "scan": scan,
        }
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
