import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from regclique.certify import (
    ErgParams,
    Failure,
    _pair_profile,
    assemble_certificate,
    canonical_spread,
    check_edge_regular,
    check_strongly_regular,
    check_translations,
    clique_nexus,
    eigenvalues_2x2,
    predicted_local_valencies,
    predicted_mu_witness,
    quotient_matrix,
    srg_clique_parameters,
)
from regclique.errors import (
    HypothesisViolated,
    NoOutsideVertices,
    NotAClique,
    NotAPartition,
    NotEdgeRegular,
)
from regclique.construction import group_generators, psi1_table, psi2_table, translator
from regclique.graphcore import Graph

from conftest import cayley_instance
from reference import (
    circulant_edges,
    complete_edges,
    cycle_edges,
    naive_attachments,
    naive_common_neighbours,
    naive_edge_regular,
    naive_lambda_failure,
    naive_missing_edge,
    naive_mu_witnesses,
    random_edges,
    to_sets,
)


def test_edge_regular_x1(x1):
    _, _, _, g = x1
    assert check_edge_regular(g) == ErgParams(28, 9, 2)


def test_edge_regular_cycle_and_star():
    five_cycle = Graph.from_edges(*cycle_edges(5))
    assert check_edge_regular(five_cycle) == ErgParams(5, 2, 0)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    result = check_edge_regular(star)
    assert isinstance(result, Failure)
    u, v = result.witness
    assert star.degree(u) != star.degree(v)


def test_edge_regular_failure_carries_deviant_edge():
    # two triangles sharing a vertex made 2-regular: bowtie is irregular, use
    # instead a 4-cycle plus chord's complement... simplest: prism vs near-prism
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    # triangular prism: 3-regular, adjacent in triangle share 1, across share 0
    result = check_edge_regular(g)
    assert isinstance(result, Failure)
    u, v = result.witness
    assert g.has_edge(u, v)


def test_strongly_regular_petersen(petersen):
    scan = check_strongly_regular(petersen)
    assert scan.verdict == "SRG"
    params = scan.params
    assert (params.n, params.k, params.lam, params.mu) == (10, 3, 0, 1)
    assert {params.theta1, params.theta2} == {1.0, -2.0}


def test_strongly_regular_complete():
    g = Graph.from_edges(*complete_edges(5))
    assert check_strongly_regular(g).verdict == "Complete"


def test_strongly_regular_x1(x1):
    _, _, _, g = x1
    scan = check_strongly_regular(g)
    assert scan.verdict == "NotSRG"
    assert scan.mu_values == (2, 3, 4)
    assert scan.witnesses == ((0, 9, 2), (0, 1, 3), (0, 10, 4))
    for u, v, mu in scan.witnesses:
        assert not g.has_edge(u, v)
        assert g.common_neighbours(u, v) == mu


def test_strongly_regular_requires_edge_regular():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotEdgeRegular):
        check_strongly_regular(star)


def test_strongly_regular_reuses_given_lambda_pass(petersen):
    erg = check_edge_regular(petersen)
    assert check_strongly_regular(petersen, erg=erg) == check_strongly_regular(petersen)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotEdgeRegular):
        check_strongly_regular(star, erg=check_edge_regular(star))


# (l, m, p, a, pi): every search hit with N <= 2000 (m=2: q <= 79, m=3: q <= 127),
# the failing instances l=2 q=7, GF(49) l=1, q=13 l=3, GF(25) l=2 and q=29 psi2,
# GF(25) at l=1, and GF(27) through m=1 (one class: every nonzero field element)
SMALL_CAYLEY = [
    (1, 2, 7, 1, (0, 1, 2)),
    (1, 2, 13, 1, (0, 1, 2)),
    (2, 2, 19, 1, (0, 1, 2)),
    (2, 2, 37, 1, (0, 1, 2)),
    (4, 2, 7, 2, (0, 1, 2)),
    (4, 2, 61, 1, (0, 1, 2)),
    (4, 2, 67, 1, (0, 1, 2)),
    (5, 2, 73, 1, (0, 1, 2)),
    (4, 2, 79, 1, (0, 1, 2)),
    (1, 3, 29, 1, psi1_table()),
    (1, 3, 43, 1, psi2_table()),
    (1, 3, 71, 1, psi2_table()),
    (1, 3, 127, 1, psi1_table()),
    (2, 2, 7, 1, (0, 1, 2)),
    (1, 2, 7, 2, (0, 1, 2)),
    (3, 2, 13, 1, (0, 1, 2)),
    (2, 2, 5, 2, (0, 1, 2)),
    (1, 3, 29, 1, psi2_table()),
    (1, 2, 5, 2, (0, 1, 2)),
    (1, 1, 3, 3, (0,)),
    (2, 1, 3, 3, (0,)),
]


@pytest.mark.parametrize("l,m,p,a,pi", SMALL_CAYLEY, ids=lambda x: str(x) if isinstance(x, int) else "pi")
def test_certificate_from_vertex_0_matches_exhaustive_oracles(l, m, p, a, pi):
    gp, pi, _, g = cayley_instance(l, m, p, a, pi)
    cert = assemble_certificate(gp, pi, None, g)
    assert cert.checks[0]["name"] == "vertex_transitive" and cert.checks[0]["pass"]
    adj = to_sets(g)
    first_edge = (0, min(adj[0]))
    lam = naive_common_neighbours(adj, *first_edge)
    failure = naive_lambda_failure(adj)
    edge_check = cert.checks[1]
    assert edge_check["name"] == "edge_regular"
    if failure is None:
        assert edge_check["pass"] and cert.lam == lam
    else:
        u, v, count = failure
        assert cert.lam is None
        assert edge_check["detail"] == f"edge {first_edge} has {lam} common neighbours, edge {(u, v)} has {count}"
    witnesses = naive_mu_witnesses(adj)
    assert cert.srg["mu_values"] == sorted(witnesses)
    assert cert.srg["witnesses"] == [[u, v, mu] for mu, (u, v) in sorted(witnesses.items())]


def _two_switch(g):
    """A degree-preserving 2-switch: edges ab, cd become ac, bd (the first such choice)."""
    for a, b in g.edges():
        for c, d in g.edges():
            if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
                edges = set(g.edges()) - {(a, b), (c, d)} | {tuple(sorted(e)) for e in ((a, c), (b, d))}
                return Graph.from_edges(g.n, edges)
    raise AssertionError("no 2-switch")


def test_two_switch_fails_vertex_transitivity(x1):
    gp, pi, _, g = x1
    switched = _two_switch(g)
    assert switched.is_regular() == g.is_regular()
    cert = assemble_certificate(gp, pi, None, switched)
    assert not cert.passed
    assert cert.first_failure() == "vertex_transitive"
    failure = check_translations(gp, switched)
    assert cert.checks[0]["detail"] == failure.detail
    e, u = failure.witness
    assert e in group_generators(gp)
    perm = translator(gp)(e)
    image = sorted(perm[list(switched.neighbours(u))].tolist())
    assert image != list(switched.neighbours(int(perm[u])))


def test_translations_report_irregular_graph(x1):
    gp, pi, _, g = x1
    edges = list(g.edges())[1:]
    irregular = Graph.from_edges(g.n, edges)
    failure = check_translations(gp, irregular)
    assert failure.detail.startswith("degrees differ")
    cert = assemble_certificate(gp, pi, None, irregular)
    assert cert.first_failure() == "vertex_transitive"
    assert check_translations(gp, g) is None
    larger = check_translations(gp, Graph.from_edges(g.n + 1, g.edges()))
    assert larger.detail == "the graph has 29 vertices, the group 28"


def test_canonical_spread_x1(x1):
    gp, _, _, g = x1
    spread = canonical_spread(gp)
    assert len(spread) == 7
    assert all(len(c) == 4 for c in spread)
    covered = sorted(v for clique in spread for v in clique)
    assert covered == list(range(28))
    for clique in spread:
        report = clique_nexus(g, clique)
        assert report.order == 4
        assert report.nexus == 1
        assert report.witnesses is None
        assert g.common_neighbours(clique[0], clique[1]) == 2  # adjacent pair: lambda


def test_clique_nexus_single_edge_not_regular(x1):
    gp, _, _, g = x1
    edge = canonical_spread(gp)[0][:2]
    report = clique_nexus(g, edge)
    assert report.nexus is None
    (v1, c1), (v2, c2) = report.witnesses
    assert c1 != c2
    assert sum(g.has_edge(v1, v) for v in edge) == c1


def test_clique_nexus_errors(x1):
    _, _, _, g = x1
    k4 = Graph.from_edges(*complete_edges(4))
    with pytest.raises(NoOutsideVertices):
        clique_nexus(k4, [0, 1, 2, 3])
    with pytest.raises(NotAClique):
        clique_nexus(g, [0, 1, 2])  # 0 and 1 differ by an element outside the connection set
    with pytest.raises(ValueError):
        clique_nexus(g, [0])


def test_predicted_local_valencies_x1(x1):
    gp, pi, ctx, g = x1
    predicted = predicted_local_valencies(gp, pi, ctx)
    assert predicted == Counter({2: 9})
    assert predicted == g.neighbourhood_degree_multiset(0)
    assert sum(predicted.values()) == 9  # the degree


def test_predicted_local_valencies_non_uniform_for_l2():
    gp, pi, ctx, g = cayley_instance(2, 2, 7, 1, (0, 1, 2))
    predicted = predicted_local_valencies(gp, pi, ctx)
    assert predicted == Counter({6: 7, 2: 6})
    assert predicted == g.neighbourhood_degree_multiset(0)


def test_predicted_mu_witness_m2(x1):
    gp, pi, ctx, g = x1
    # pi(g) = 0 at g = 1 gives the count 2 + 2*c(0,1) = 2
    assert predicted_mu_witness(gp, pi, ctx, 1) == 2
    assert predicted_mu_witness(gp, pi, ctx, 3) == 4
    with pytest.raises(HypothesisViolated):
        predicted_mu_witness(gp, pi, ctx, 2)  # pi(2) = 1: adjacent pair
    with pytest.raises(HypothesisViolated):
        predicted_mu_witness(gp, pi, ctx, 0)


def test_predicted_local_valencies_m3(m3_29):
    gp, pi, ctx, g = m3_29
    # slice valency is 6 * c(1,5) = 6, matching the within-s0 valency 8l - 2
    predicted = predicted_local_valencies(gp, pi, ctx)
    assert predicted == Counter({6: 35})
    assert predicted == g.neighbourhood_degree_multiset(0)


def test_predicted_mu_witness_m3(m3_29):
    gp, pi, ctx, g = m3_29
    from regclique.construction import GroupElement, encode_vertex

    expected = {1: 2, 2: 4, 3: 4, 5: 6, 6: 4, 7: 10}
    rho = int(gp.pd.exp[1])
    for gv, want in expected.items():
        assert predicted_mu_witness(gp, pi, ctx, gv) == want
        w = encode_vertex(gp, GroupElement(0, gv, rho))
        assert g.common_neighbours(0, w) == want
    assert pi[4 - 1] == 1
    with pytest.raises(HypothesisViolated):
        predicted_mu_witness(gp, pi, ctx, 4)


def test_quotient_matrix_x1(x1):
    gp, _, _, g = x1
    clique = canonical_spread(gp)[0]
    rest = [v for v in range(g.n) if v not in set(clique)]
    qm = quotient_matrix(g, [clique, rest])
    assert qm.equitable
    assert qm.entries == ((Fraction(3), Fraction(6)), (Fraction(1), Fraction(8)))
    hi, lo = eigenvalues_2x2(qm.entries)
    assert abs(hi - 9) < 1e-9
    assert abs(lo - 2) < 1e-9


def test_quotient_matrix_inequitable_partition():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    qm = quotient_matrix(path, [[0, 1], [2, 3]])
    assert not qm.equitable


def test_quotient_matrix_partition_validation(x1):
    _, _, _, g = x1
    with pytest.raises(NotAPartition):
        quotient_matrix(g, [list(range(10))])
    with pytest.raises(NotAPartition):
        quotient_matrix(g, [list(range(20)), list(range(15, 28))])
    with pytest.raises(NotAPartition):
        quotient_matrix(g, [list(range(28)), []])


def test_srg_clique_parameters():
    params = srg_clique_parameters(3, 2)
    assert (params.n, params.k, params.lam, params.mu) == (28, 9, 2, 3)
    assert (params.theta1, params.theta2) == (2, -3)
    assert (params.n - params.k - 1) * params.mu == 54 == params.k * (params.k - params.lam - 1)
    assert srg_clique_parameters(1, 1) == srg_clique_parameters(1, 1)
    assert (srg_clique_parameters(1, 1).n, srg_clique_parameters(1, 1).k) == (4, 2)
    with pytest.raises(ValueError):
        srg_clique_parameters(0, 1)


def test_certificate_x1_passes(x1):
    gp, pi, _, g = x1
    cert = assemble_certificate(gp, pi, None, g)
    assert cert.passed
    assert (cert.n_vertices, cert.k, cert.lam) == (28, 9, 2)
    assert cert.spread == {"count": 7, "order": 4, "nexus": 1}
    assert cert.srg["verdict"] == "NotSRG"
    assert cert.first_failure() is None
    # forced parameters would need mu = t + 1 = 3; the witnessed mu = 2 differs
    t, rem = divmod(gp.q - 1, 2 * 1 + 1)
    assert rem == 0
    assert 2 != t + 1


def test_certificate_l2_fails_edge_regularity():
    gp, pi, _, g = cayley_instance(2, 2, 7, 1, (0, 1, 2))
    cert = assemble_certificate(gp, pi, None, g)
    assert not cert.passed
    assert cert.first_failure() == "edge_regular"
    assert cert.lam is None
    by_name = {c["name"]: c["pass"] for c in cert.checks}
    assert not by_name["edge_regular"]
    assert not by_name["parameters"]
    assert by_name["clique_spread"]
    assert by_name["local_valencies"]
    assert by_name["mu_witnesses"]
    assert by_name["not_strongly_regular"]


def test_certificate_json_contract(x1):
    gp, pi, _, g = x1
    cert = assemble_certificate(gp, pi, None, g)
    data = json.loads(cert.to_json())
    assert list(data.keys()) == [
        "m", "l", "p", "a", "q", "modulus", "rho", "pi", "variant",
        "N", "k", "lambda", "edge_regular", "spread", "srg", "checks", "pass",
    ]
    assert list(data["spread"].keys()) == ["count", "order", "nexus"]
    assert list(data["srg"].keys()) == ["verdict", "mu_values", "witnesses"]
    assert data["checks"][0]["name"] == "vertex_transitive"
    assert data["modulus"] is None
    assert data["rho"] == 3
    assert data["pi"] == [0, 1, 2]
    assert data["lambda"] == 2
    assert all(set(c) == {"name", "pass", "detail"} for c in data["checks"])


def test_certificate_m3_with_larger_clique():
    # q = 197 has c(1,5) = 5, so l = 4: cliques of order 32
    gp, pi, _, g = cayley_instance(4, 3, 197, 1, psi1_table())
    cert = assemble_certificate(gp, pi, "psi1", g)
    assert cert.passed
    assert (cert.n_vertices, cert.k, cert.lam) == (6304, 227, 30)
    assert cert.spread == {"count": 197, "order": 32, "nexus": 1}
    assert cert.srg["verdict"] == "NotSRG"
    assert cert.checks[0] == {
        "name": "vertex_transitive",
        "pass": True,
        "detail": "5 generating translations are automorphisms",
    }


def test_certificate_records_modulus_for_extension_fields():
    # GF(49) has c(1, 2) = 7, so l = 4 is the passing choice
    gp, pi, _, g = cayley_instance(4, 2, 7, 2, (0, 1, 2))
    cert = assemble_certificate(gp, pi, None, g)
    assert cert.passed
    data = json.loads(cert.to_json())
    assert data["modulus"] == [1, 0, 1]
    assert data["p"] == 7 and data["a"] == 2 and data["q"] == 49
    assert (data["N"], data["k"], data["lambda"]) == (784, 63, 14)


# ---------------------------------------------------------------------------
# vectorised kernels against the naive references


def _kernel_cases(seed):
    """Random regular (circulant) and irregular graphs, from one to three bit words wide."""
    rng = random.Random(seed)
    cases = []
    for _ in range(25):
        n = rng.randrange(5, 160)
        steps = rng.sample(range(1, n // 2 + 1), rng.randrange(1, max(2, n // 5)))
        cases.append(Graph.from_edges(*circulant_edges(n, steps)))
        cases.append(Graph.from_edges(n, random_edges(n, rng.choice([0.1, 0.4, 0.8]), rng)))
    return rng, cases


def _block_sizes(g):
    """The graph's own kernel block, then blocks small enough to split every row's pairs."""
    yield g.block_rows
    g.block_rows = 4
    yield g.block_rows


def test_lambda_kernel_matches_reference():
    _, cases = _kernel_cases(2024)
    failures = 0
    for g in cases:
        adj = to_sets(g)
        regular = len({len(s) for s in adj}) == 1
        failure = naive_lambda_failure(adj) if regular else None
        failures += failure is not None
        for _ in _block_sizes(g):
            result = check_edge_regular(g)
            if not regular:
                u, v = result.witness
                assert u == 0 and len(adj[v]) != len(adj[0])
                assert all(len(adj[w]) == len(adj[0]) for w in range(v))
            elif failure is None:
                assert result == ErgParams(*naive_edge_regular(adj))
            else:
                assert isinstance(result, Failure)
                assert result.witness == failure[:2]
                assert result.detail.endswith(f"edge {failure[:2]} has {failure[2]}")
    assert failures >= 5  # the witness path is exercised


def test_mu_kernel_matches_reference():
    _, cases = _kernel_cases(4711)
    for g in cases:
        adj = to_sets(g)
        exhaustive = naive_mu_witnesses(adj)
        from_identity = naive_mu_witnesses(adj, sources=(0,))
        for _ in _block_sizes(g):
            assert _pair_profile(g, None, adjacent=False) == exhaustive
            assert _pair_profile(g, (0,), adjacent=False) == from_identity


def test_nexus_kernel_matches_reference():
    rng, cases = _kernel_cases(1312)
    for g in cases:
        adj = to_sets(g)
        for _ in range(4):
            clique = [rng.randrange(g.n)]
            for v in rng.sample(range(g.n), g.n):
                if all(v in adj[c] for c in clique):
                    clique.append(v)
            if len(clique) < 2 or len(clique) == g.n:
                continue
            attached = naive_attachments(adj, clique)
            report = clique_nexus(g, clique)
            assert report.order == len(clique)
            differing = [pair for pair in attached if pair[1] != attached[0][1]]
            if differing:
                assert report.nexus is None
                assert report.witnesses == (attached[0], differing[0])
            else:
                assert report.nexus == attached[0][1]
                assert report.witnesses is None
        for _ in range(4):
            subset = rng.sample(range(g.n), min(g.n - 1, rng.randrange(3, 7)))
            missing = naive_missing_edge(adj, subset)
            if missing is None:
                continue
            with pytest.raises(NotAClique) as info:
                clique_nexus(g, subset)
            assert info.value.witness == missing
