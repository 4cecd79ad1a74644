"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact integer equality unless stated otherwise.
"""

import json
import random
from contextlib import contextmanager
from itertools import permutations
from time import perf_counter

import pytest

from regclique.certify import (
    ErgParams,
    Failure,
    assemble_certificate,
    canonical_spread,
    check_edge_regular,
    check_strongly_regular,
    eigenvalues_2x2,
    predicted_local_valencies,
    predicted_mu_witness,
    quotient_matrix,
    srg_clique_parameters,
)
from regclique.cli import main
from regclique.construction import GroupElement, encode_vertex, psi1_table, psi2_table
from regclique.cyclotomy import c3_parity_even, cyclotomic_number, make_context
from regclique.errors import NotEdgeRegular
from regclique.fields import build_field, find_primitive_element
from regclique.graphcore import Graph
from regclique.numtheory import order_profile, prime_powers, primes_up_to, search_m2, search_m3

from conftest import cayley_instance
from reference import (
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    hypercube_edges,
    naive_common_neighbours,
    naive_edge_regular,
    naive_lambda_failure,
    naive_mu_witnesses,
    naive_srg_verdict,
    petersen_edges,
    random_edges,
    to_sets,
)


@contextmanager
def criterion(number, title):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} {title}: PASS ({perf_counter() - start:.1f}s)", flush=True)


# expected m = 2 family members up to q = 200: (q, c) with c = c(1,2) odd,
# frozen from an independent brute-force enumeration
M2_EXPECTED = [
    (7, 1), (13, 1), (19, 3), (37, 3), (49, 7), (61, 7), (67, 7), (73, 9),
    (79, 7), (97, 13), (103, 13), (139, 13), (151, 19), (163, 21), (169, 19),
    (181, 21), (193, 19), (199, 21),
]


@pytest.fixture(scope="module")
def m2_sweep():
    start = perf_counter()
    instances = []
    for record in search_m2(200):
        gp, pi, ctx, graph = cayley_instance(record.l, 2, record.p, record.a, (0, 1, 2))
        cert = assemble_certificate(gp, pi, None, graph)
        instances.append((record, gp, pi, ctx, graph, cert))
    elapsed = perf_counter() - start
    return instances, elapsed


@pytest.fixture(scope="module")
def m3_certified():
    start = perf_counter()
    records = [r for r in search_m3(200) if r.n_vertices <= 200_000]
    record = records[0]
    gp, pi, ctx, graph = cayley_instance(
        record.l, 3, record.p, record.a,
        psi1_table() if record.variant == "psi1" else psi2_table(),
    )
    cert = assemble_certificate(gp, pi, record.variant, graph)
    elapsed = perf_counter() - start
    return record, gp, pi, ctx, graph, cert, elapsed


def test_criterion_1_flagship_reproduction(tmp_path, capsys):
    with criterion(1, "28-vertex instance via CLI"):
        out_path = tmp_path / "cert.json"
        start = perf_counter()
        code = main(["certify", "--m", "2", "--l", "1", "--q", "7", "--pi", "0,1,2", "--out", str(out_path)])
        elapsed = perf_counter() - start
        printed = capsys.readouterr().out
        assert code == 0
        assert printed == "PASS\n"
        data = json.loads(out_path.read_text())
        assert data["pass"] is True
        assert (data["N"], data["k"], data["lambda"]) == (28, 9, 2)
        assert data["spread"] == {"count": 7, "order": 4, "nexus": 1}
        assert data["srg"]["verdict"] == "NotSRG"
        assert elapsed < 1.0


def test_criterion_2_m2_family_sweep(m2_sweep):
    with criterion(2, "m=2 family sweep q <= 200"):
        instances, elapsed = m2_sweep
        assert [(r.q, r.c) for r, *_ in instances] == M2_EXPECTED
        for record, gp, pi, ctx, graph, cert in instances:
            l = (record.c + 1) // 2
            assert record.l == l
            assert cert.passed, f"q={record.q}: first failure {cert.first_failure()}"
            assert (cert.n_vertices, cert.k, cert.lam) == (4 * l * record.q, 4 * l - 2 + record.q, 4 * l - 2)
            assert cert.srg["verdict"] == "NotSRG"
            # the forced parameters are contradicted whenever t is an integer
            t, rem = divmod(record.q - 1, 2 * record.c + 1)
            mu_witness = predicted_mu_witness(gp, pi, ctx, 1)
            if rem == 0:
                assert mu_witness != t + 1
        print(f"  [{len(instances)} graphs built and certified in {elapsed:.1f}s]", flush=True)
        assert elapsed < 60.0


def test_criterion_3_parity_condition_consistency():
    with criterion(3, "odd c(1,2) exactly when the order conditions hold, q <= 10^4"):
        checked = extension_fields = 0
        for q, p, a in prime_powers(10_000):
            if q % 6 != 1:
                continue
            field = build_field(p, a)
            pd = find_primitive_element(field)
            ctx = make_context(field, pd, 3)
            c = cyclotomic_number(ctx, 1, 2)
            # cross-check: parity criterion (2 in class 0) against the direct count
            assert c3_parity_even(ctx) == (c % 2 == 0), f"parity criterion disagrees at q={q}"
            n, e = order_profile(p)
            condition = e > 1 and a % e != 0
            if condition:
                assert c % 2 == 1, f"expected odd c at q={q}, got {c}"
                checked += 1
            # and the converse: an odd c only where the condition holds
            assert (c % 2 == 1) == condition, f"odd c at q={q} = {p}^{a} with e = {e}"
            extension_fields += a > 1
        assert checked > 100  # the condition is non-vacuous in range
        assert extension_fields > 10


def test_criterion_4_cyclotomic_identity_suites():
    with criterion(4, "cyclotomic identity suites"):
        start = perf_counter()
        # third cyclotomic numbers: c(1,2) = c(2,1) = c(0,0) + 1 for q = 1 mod 6
        for q, p, a in prime_powers(2000):
            if q % 6 != 1:
                continue
            field = build_field(p, a)
            ctx = make_context(field, find_primitive_element(field), 3)
            c12 = cyclotomic_number(ctx, 1, 2)
            assert c12 == cyclotomic_number(ctx, 2, 1) == cyclotomic_number(ctx, 0, 0) + 1

        # seventh cyclotomic numbers, q = 1 mod 14: the two triple equalities
        # and full symmetry
        for q, p, a in prime_powers(2000):
            if q % 14 != 1:
                continue
            field = build_field(p, a)
            ctx = make_context(field, find_primitive_element(field), 7)
            c = {(i, j): cyclotomic_number(ctx, i, j) for i in range(7) for j in range(7)}
            assert c[1, 3] == c[6, 2] == c[5, 4]
            assert c[1, 5] == c[6, 4] == c[3, 2]
            for i in range(7):
                for j in range(7):
                    assert c[i, j] == c[j, i]
            if q <= 1000:
                # both m = 3 bijections collapse the double-index pattern
                for pi, target in ((psi1_table(), c[1, 5]), (psi2_table(), c[1, 3])):
                    for g in range(1, 8):
                        for h in range(1, 8):
                            if h != g:
                                row = (pi[(h ^ g) - 1] - pi[g - 1]) % 7
                                col = (pi[h - 1] - pi[g - 1]) % 7
                                assert c[row, col] == target

        # m = 2: every bijection collapses the pattern to c(1,2), q = 1 mod 6
        for q, p, a in prime_powers(1000):
            if q % 6 != 1:
                continue
            field = build_field(p, a)
            ctx = make_context(field, find_primitive_element(field), 3)
            c = {(i, j): cyclotomic_number(ctx, i, j) for i in range(3) for j in range(3)}
            for pi in permutations(range(3)):
                for g in range(1, 4):
                    for h in range(1, 4):
                        if h != g:
                            row = (pi[(h ^ g) - 1] - pi[g - 1]) % 3
                            col = (pi[h - 1] - pi[g - 1]) % 3
                            assert c[row, col] == c[1, 2]
        assert perf_counter() - start < 120.0


def test_criterion_5_m3_instance(m3_certified):
    with criterion(5, "smallest admissible m=3 instance"):
        record, gp, pi, ctx, graph, cert, elapsed = m3_certified
        # regression pin: the scan's first admissible parameters
        assert (record.q, record.variant, record.c, record.l) == (29, "psi1", 1, 1)
        assert (record.c15, record.c13) == (1, 0)
        assert cert.passed
        assert (cert.n_vertices, cert.k, cert.lam) == (8 * record.q, record.q + 6, 6)
        assert cert.srg["verdict"] == "NotSRG"
        assert cert.checks[0]["name"] == "vertex_transitive" and cert.checks[0]["pass"]
        print(f"  [scan + build + certificate in {elapsed:.1f}s]", flush=True)
        assert elapsed < 300.0


def test_criterion_6_valency_and_mu_oracles(m2_sweep, m3_certified, x1):
    with criterion(6, "predicted valencies and mu counts match measurements"):
        m3_record, m3_gp, m3_pi, m3_ctx, m3_graph, _, _ = m3_certified
        x1_gp, x1_pi, x1_ctx, x1_graph = x1
        targets = [(gp, pi, ctx, graph) for _, gp, pi, ctx, graph, _ in m2_sweep[0]]
        targets.append((m3_gp, m3_pi, m3_ctx, m3_graph))
        targets.append((x1_gp, x1_pi, x1_ctx, x1_graph))
        for gp, pi, ctx, graph in targets:
            predicted = predicted_local_valencies(gp, pi, ctx)
            step = max(1, graph.n // 10)
            sampled = list(range(0, graph.n, step))[:10]
            for v in sampled:
                assert graph.neighbourhood_degree_multiset(v) == predicted
            rho = int(gp.pd.exp[1])
            for gv in range(1, 1 << gp.m):
                if pi[gv - 1] == 1:
                    continue
                want = predicted_mu_witness(gp, pi, ctx, gv)
                got = graph.common_neighbours(0, encode_vertex(gp, GroupElement(0, gv, rho)))
                assert want == got, f"q={gp.q}, g={gv}: predicted {want}, measured {got}"
            # clique-against-rest partition: equitable, eigenvalues k and s - 1
            clique = canonical_spread(gp)[0]
            rest = sorted(set(range(graph.n)) - set(clique))
            qm = quotient_matrix(graph, [clique, rest])
            assert qm.equitable
            s = (1 << gp.m) * gp.l - 1
            hi, lo = eigenvalues_2x2(qm.entries)
            assert abs(hi - graph.degree(0)) < 1e-9
            assert abs(lo - (s - 1)) < 1e-9


def test_criterion_7_forced_parameter_algebra():
    with criterion(7, "forced strongly regular parameter algebra on [1,50]^2"):
        for s in range(1, 51):
            for t in range(1, 51):
                params = srg_clique_parameters(s, t)  # verifies the relations exactly
                assert (params.n - params.k - 1) * params.mu == params.k * (params.k - params.lam - 1)
                k = params.k
                hi, lo = eigenvalues_2x2(((s, k - s), (1, k - 1)))
                assert abs(hi - k) < 1e-9
                assert abs(lo - (s - 1)) < 1e-9


def test_criterion_8_order_two_and_clique_bound(m2_sweep, m3_certified, x1):
    with criterion(8, "e = 2 for p = 5 mod 6 and clique order bound"):
        for p in primes_up_to(100_000):
            if p % 6 == 5 and p > 3:
                assert order_profile(p)[1] == 2, f"e != 2 at p = {p}"
        certs = [cert for *_, cert in m2_sweep[0]]
        certs.append(m3_certified[5])
        x1_gp, x1_pi, _, x1_graph = x1
        certs.append(assemble_certificate(x1_gp, x1_pi, None, x1_graph))
        for cert in certs:
            assert cert.passed
            assert cert.srg["verdict"] == "NotSRG"
            assert cert.spread["nexus"] == 1
            assert cert.spread["order"] >= 4
            assert cert.spread["order"] == cert.lam + 2


def test_criterion_9_oracle_equivalence():
    with criterion(9, "kernels agree with naive references on random graphs"):
        rng = random.Random(90521)
        cases = []
        for _ in range(100):
            n = rng.randrange(4, 65)
            cases.append(Graph.from_edges(n, random_edges(n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.9]), rng)))
        for n, edges in (
            petersen_edges(),
            cycle_edges(6),
            complete_edges(7),
            complete_bipartite_edges(3, 3),
            hypercube_edges(3),
        ):
            cases.append(Graph.from_edges(n, edges))
        for g in cases:
            adj = to_sets(g)
            for _ in range(20):
                u, v = rng.randrange(g.n), rng.randrange(g.n)
                if u != v:
                    assert g.common_neighbours(u, v) == naive_common_neighbours(adj, u, v)
            naive = naive_edge_regular(adj)
            result = check_edge_regular(g)
            if naive is None:
                assert isinstance(result, Failure)
                failure = naive_lambda_failure(adj) if len({len(s) for s in adj}) == 1 else None
                if failure is not None:
                    assert result.witness == failure[:2]
                with pytest.raises(NotEdgeRegular):
                    check_strongly_regular(g)
            else:
                assert result == ErgParams(*naive)
                verdict, mus = naive_srg_verdict(adj)
                scan = check_strongly_regular(g)
                assert scan.verdict == verdict
                assert scan.mu_values == mus
                witnesses = naive_mu_witnesses(adj)
                assert scan.witnesses == tuple((u, v, mu) for mu, (u, v) in sorted(witnesses.items()))
