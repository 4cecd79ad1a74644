"""Cross-checks against independent implementations in installed libraries.

Each test is skipped when its library is missing: networkx decides strong
regularity, sympy decides irreducibility, primitive roots, primality and
factorizations, and multiplies polynomials over Z_p.
"""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regclique.certify import Failure, check_edge_regular, check_strongly_regular
from regclique import fields
from regclique.errors import PrimalityOutOfRange
from regclique.fields import (
    MILLER_RABIN_BOUNDS,
    MILLER_RABIN_LIMIT,
    _find_modulus,
    build_field,
    find_primitive_element,
    is_prime,
)
from regclique.graphcore import Graph
from regclique.numtheory import prime_power_decompose, prime_powers, primes_up_to

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


@functools.cache
def _first_irreducibles():
    """{(p, a): the first monic polynomial of degree a in code order that sympy calls irreducible over Z_p}.

    Every p**a <= 20,000 with a > 1, and four larger degrees.
    """
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    out = {}
    for p, a in [(p, a) for _, p, a in prime_powers(20000) if a > 1] + [(2, 20), (3, 12), (101, 3), (7, 8)]:
        for code in range(p**a):
            coeffs = tuple(code // p**i % p for i in range(a)) + (1,)
            if sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible:
                out[p, a] = coeffs
                break
    return out


@pytest.mark.parametrize("block", [None, 1, 3])
def test_field_moduli_are_the_first_irreducibles_by_sympy(monkeypatch, block):
    # blocks of 1 and 3 divisors split every degree's divisors over many steps
    expected = _first_irreducibles()
    assert len(expected) == 66 + 4
    if block:
        monkeypatch.setattr(fields, "TABLE_BLOCK", block)
    assert {(p, a): _find_modulus(p, a) for p, a in expected} == expected


def test_matrix_products_agree_with_sympy_galoistools():
    # x * y is the matrix of y applied to x's digits; sympy multiplies the
    # polynomials and reduces them by its own first irreducible
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    rng = random.Random(24)
    for (p, a), coeffs in _first_irreducibles().items():
        f = build_field(p, a)
        xs = [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(13)]
        ys = [f.q - 1, 0, p] + [rng.randrange(f.q) for _ in range(13)]
        place = p ** np.arange(a, dtype=np.int64)
        digits = np.array(xs, dtype=np.int64)[:, None, None] // place[:, None] % p  # entry i: x_i's digits as a column
        products = (place @ (f.matrix(np.array(ys)) @ digits % p))[:, 0]
        modulus = list(reversed(coeffs))  # galoistools lists coefficients highest first
        for x, y, product in zip(xs, ys, products.tolist()):
            u, v = ([c // p**i % p for i in reversed(range(a))] for c in (x, y))
            r = galoistools.gf_rem(galoistools.gf_mul(galoistools.gf_strip(u), galoistools.gf_strip(v), p, ZZ), modulus, p, ZZ)
            assert product == sum(int(c) * p**i for i, c in enumerate(reversed(r))), (p, a, x, y)


def test_prime_field_rho_is_the_smallest_primitive_root_by_sympy():
    ntheory = pytest.importorskip("sympy.ntheory")
    for p in primes_up_to(20000):
        assert find_primitive_element(build_field(p, 1)).rho == ntheory.primitive_root(p), p


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(16)
    samples = [rng.randrange(1, 10 ** rng.randrange(1, 25)) for _ in range(2000)]
    samples += [sympy.randprime(10 ** (e - 1), 10**e) for e in range(2, 25)]  # random n are seldom prime
    samples += range(-1, 2000)  # the bases themselves, their multiples and n < 41**2
    samples += [3215031751, 3825123056546413051]  # strong pseudoprimes to bases 2, 3, 5, 7 and to the first 9 primes
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_beyond_its_exact_range_decides_only_composites():
    sympy = pytest.importorskip("sympy")
    assert not sympy.isprime(MILLER_RABIN_LIMIT)  # a strong pseudoprime to all 13 bases
    assert is_prime(MILLER_RABIN_LIMIT - 2) == sympy.isprime(MILLER_RABIN_LIMIT - 2)
    with pytest.raises(PrimalityOutOfRange):
        is_prime(MILLER_RABIN_LIMIT)
    # a base that proves n composite is exact at any size
    for n in (2**100, 6 * 2**88, sympy.nextprime(10**15) * sympy.nextprime(10**16), MILLER_RABIN_LIMIT + 2):
        assert not sympy.isprime(n) and not is_prime(n), n


def test_is_prime_at_each_miller_rabin_bound():
    # each bound is the smallest strong pseudoprime to the bases before it, so
    # it takes one base more; the last, which passes all 13, is refused above
    sympy = pytest.importorskip("sympy")
    for bound in MILLER_RABIN_BOUNDS:
        assert not sympy.isprime(bound) and is_prime(sympy.prevprime(bound)), bound
    for bound in MILLER_RABIN_BOUNDS[:-1]:
        assert not is_prime(bound), bound


def test_prime_power_decompose_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(16)
    prime_powers_ = [p**a for p in (2, 3, 7, 13, 1009, 1_000_003, 1_000_000_007) for a in (1, 2, 3, 5) if p**a < 10**24]
    prime_powers_ += [2**79, 3**50]
    near = [10**18 + d for d in range(-200, 200)] + [rng.randrange(10**17, 10**19) for _ in range(200)]
    for q in prime_powers_ + near:
        factors = sympy.factorint(q)
        expected = next(iter(factors.items())) if len(factors) == 1 else None
        assert prime_power_decompose(q) == expected, q


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
