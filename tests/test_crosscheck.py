"""Cross-checks against independent implementations in installed libraries.

Each test is skipped when its library is missing: networkx decides strong
regularity, sympy decides irreducibility and primitive roots.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from regclique.certify import Failure, check_edge_regular, check_strongly_regular
from regclique.fields import _find_modulus, build_field, find_primitive_element
from regclique.graphcore import Graph
from regclique.numtheory import prime_powers, primes_up_to

from reference import circulant_edges, cycle_edges, edge_list


def _srg_verdict(g):
    erg = check_edge_regular(g)
    return "NotSRG" if isinstance(erg, Failure) else check_strongly_regular(g, erg).verdict


def _random_circulants(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(5, 31)
        steps = rng.sample(range(1, n // 2 + 1), rng.randrange(1, n // 2 + 1))
        yield circulant_edges(n, steps)


def test_srg_verdict_agrees_with_networkx(petersen, x1, m3_29):
    nx = pytest.importorskip("networkx")
    paley13 = circulant_edges(13, [1, 3, 4])  # the quadratic residues mod 13
    graphs = [petersen, x1[3], m3_29[3]]
    graphs += [Graph.from_edges(n, edges) for n, edges in [paley13, *map(cycle_edges, range(3, 12))]]
    graphs += [Graph.from_edges(n, edges) for n, edges in _random_circulants(60, 2024)]
    verdicts = []
    for g in graphs:
        h = nx.Graph(edge_list(g))
        h.add_nodes_from(range(g.n))
        verdict = _srg_verdict(g)
        verdicts.append(verdict)
        # networkx counts only connected graphs that are not complete as strongly regular
        assert (verdict == "SRG" and nx.is_connected(h)) == nx.is_strongly_regular(h), (g, verdict)
    assert {"SRG", "NotSRG", "Complete"} <= set(verdicts)


def test_field_moduli_are_irreducible_by_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    extensions = [(p, a) for _, p, a in prime_powers(2000) if a > 1]
    assert len(extensions) > 20
    for p, a in extensions:
        modulus = _find_modulus(p, a)
        assert sympy.Poly(list(reversed(modulus)), x, modulus=p).is_irreducible, (p, a, modulus)


def test_prime_field_rho_is_a_primitive_root_by_sympy():
    ntheory = pytest.importorskip("sympy.ntheory")
    for p in primes_up_to(2000):
        rho = find_primitive_element(build_field(p, 1)).rho
        assert ntheory.is_primitive_root(rho, p), (p, rho)


@pytest.mark.parametrize("argv", [("--m", "3", "--q", "29", "--variant", "psi1"), ("--m", "2", "--q", "49", "--l", "4")])
def test_certificate_bytes_do_not_depend_on_the_hash_seed(tmp_path, argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("0", "4242"):
        out = tmp_path / f"cert-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        cmd = [sys.executable, "-m", "regclique.cli", "certify", *argv, "--out", str(out)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout) == (0, "PASS\n"), proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
