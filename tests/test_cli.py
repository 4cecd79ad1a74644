import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import regclique
from regclique.cli import main
from regclique.graphcore import footprint_bytes


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_search_m2_first_hit(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "2", "--q-max", "7")
    assert code == 0
    assert out == "m=2 p=7 a=1 q=7 c=1 l=1 N=28 k=9 lambda=2\n"


def test_search_empty_is_success(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "2", "--q-max", "6")
    assert code == 0
    assert out == ""


def test_search_m3(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "3", "--q-max", "29")
    assert code == 0
    assert out == "m=3 p=29 a=1 q=29 variant=psi1 c=1 l=1 N=232 k=35 lambda=6\n"


def test_certify_x1(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certify", "--m", "2", "--l", "1", "--q", "7", "--pi", "0,1,2", "--out", str(out_path)
    )
    assert code == 0
    assert out == "PASS\n"
    data = json.loads(out_path.read_text())
    assert (data["N"], data["k"], data["lambda"]) == (28, 9, 2)
    assert data["spread"] == {"count": 7, "order": 4, "nexus": 1}
    assert data["srg"]["verdict"] == "NotSRG"
    assert data["pass"] is True


def test_certify_failure_exit_code(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certify", "--m", "2", "--l", "2", "--q", "7", "--pi", "0,1,2", "--out", str(out_path)
    )
    assert code == 1
    assert out == "FAIL edge_regular\n"
    assert json.loads(out_path.read_text())["pass"] is False


def test_certify_default_pi_for_m2(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "--m", "2", "--q", "7", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["pi"] == [0, 1, 2]


def test_certify_rejects_bad_congruence(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "2", "--l", "1", "--q", "5", "--pi", "0,1,2"])
    assert info.value.code == 2


def test_certify_rejects_non_prime_power(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "2", "--q", "10"])
    assert info.value.code == 2


def test_certify_rejects_bad_bijection(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "2", "--q", "7", "--pi", "0,1,1"])
    assert info.value.code == 2


def test_variant_requires_m3(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "2", "--q", "7", "--variant", "psi1"])
    assert info.value.code == 2


def test_m3_requires_pi_or_variant(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "3", "--q", "29"])
    assert info.value.code == 2


def test_certify_m3_variant(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certify", "--m", "3", "--q", "29", "--variant", "psi1", "--out", str(out_path)
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["variant"] == "psi1"
    assert (data["N"], data["k"], data["lambda"]) == (232, 35, 6)
    assert data["pi"] == [2, 4, 5, 1, 6, 3, 0]


def test_build_summary_line(capsys):
    code, out, _ = run_cli(capsys, "build", "--m", "2", "--q", "7")
    assert code == 0
    assert out == "N=28 k=9 M=126\n"


def test_export_dimacs_round_trip(capsys, tmp_path, x1):
    path = tmp_path / "x1.dimacs"
    code, _, _ = run_cli(capsys, "export", "--m", "2", "--q", "7", "--out", str(path), "--format", "dimacs")
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "p edge 28 126"
    assert len(lines) == 127
    assert all(line.startswith("e ") for line in lines[1:])
    edges = [tuple(int(x) - 1 for x in line.split()[1:]) for line in lines[1:]]
    assert edges == list(x1[3].edges())


def test_export_edges_round_trip(capsys, tmp_path, x1):
    path = tmp_path / "x1.edges"
    code, _, _ = run_cli(capsys, "export", "--m", "2", "--q", "7", "--out", str(path), "--format", "edges")
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "0 7"  # the smallest encoded connection-set element
    assert [tuple(map(int, line.split())) for line in lines] == list(x1[3].edges())


def test_cyclotab_q7_n3(capsys):
    code, out, _ = run_cli(capsys, "cyclotab", "--q", "7", "--n", "3")
    assert code == 0
    assert out == "0 0 1\n0 1 1\n1 1 0\n"


def test_cyclotab_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cyclotab", "--q", "7", "--n", "4"])
    assert info.value.code == 2


def test_cyclotab_row_sums(capsys):
    code, out, _ = run_cli(capsys, "cyclotab", "--q", "13", "--n", "3")
    rows = [list(map(int, line.split())) for line in out.splitlines()]
    for i, row in enumerate(rows):
        assert sum(row) == 4 - (1 if i == 0 else 0)


def test_outputs_are_deterministic(capsys, tmp_path):
    args = ("certify", "--m", "2", "--q", "13")
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run_cli(capsys, *args, "--out", str(first))
    run_cli(capsys, *args, "--out", str(second))
    assert first.read_text() == second.read_text()


def test_missing_field_flags(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "2"])
    assert info.value.code == 2


def test_export_rejects_unknown_format(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["export", "--m", "2", "--q", "7", "--out", str(tmp_path / "g"), "--format", "gml"])
    assert info.value.code == 2


# sha256 of each output file; any byte change fails. The exports were recorded
# from the integer-bitset implementation before the graph moved to packed uint64
# bits and CSR arrays. The certificates were re-recorded when the vertex_transitive
# check was added, after checking that each equals the earlier bytes with
# srg.scan dropped and that check prepended.
GOLDEN_SHA256 = {
    ("certify", "--m", "2", "--q", "7"): "23993f6d571ad5de9d315fc28ad085e8a4dd7c189e6b0a6212cedb847ff9218c",
    ("certify", "--m", "2", "--q", "13"): "be77d27aaeac8b7a10bec1f5536627896503a98b6fed10261c7e48d8ef9eb47f",
    ("certify", "--m", "3", "--q", "29", "--variant", "psi1"): "cc7979c8776b420fc68d8adab604aa0532db54404d6099d97b59501c08e1d3bd",
    ("export", "--m", "2", "--q", "7", "--format", "dimacs"): "ba2a70a3d9b283c791a889f89297213c0ed2c6060a0f0b1a4c797b25a6cab902",
    ("export", "--m", "2", "--q", "7", "--format", "edges"): "afc3a8ab35ad5545f611117db340ac750e7df8253ca173b77729cda2bd707de5",
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_outputs_match_recorded_bytes(capsys, tmp_path, argv):
    path = tmp_path / "out"
    code, _, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[argv]


# sha256 of stdout, recorded before the exp/log tables were built by doubling
GOLDEN_STDOUT_SHA256 = {
    ("search", "--m", "2", "--q-max", "2000"): "bbb055cff79dddd787dc758eb9ee0084df9a0ff9f53c9ee290d388c656ad4d2c",
    ("search", "--m", "3", "--q-max", "3000"): "1c12a5b5201591bb696d1520ee03c04b219d05fa5e08794ff4c4abc62869f7a3",
    ("cyclotab", "--q", "29", "--n", "7"): "3c4724cee0d74d3bc7decdbc2a64b70f5aab9d84ba119f24ace0c6d5f25bd807",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_SHA256), ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_stdout_matches_recorded_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


def _limit_address_space():
    # a safety net: should a guard ever let the allocation start, it fails
    # here with MemoryError instead of exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_cli_limited(*argv):
    """The CLI in a subprocess limited to 2 GB of address space."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(regclique.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "regclique.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_address_space,
    )


def _host_could_hold(nbytes):
    return nbytes <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def test_certify_refuses_graph_beyond_memory(tmp_path):
    n = 4 * 112 * 1993  # m=2, l=112, q=1993: a search hit with N = 892,864
    need = footprint_bytes(n, n * (4 * 112 - 2 + 1993))
    if _host_could_hold(need):
        pytest.skip("this host could hold the graph")
    out = tmp_path / "cert.json"
    proc = _run_cli_limited("certify", "--m", "2", "--q", "1993", "--l", "112", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"N = {n} vertices need about {need / 1e9:.1f} GB" in proc.stderr
    assert not out.exists()


BIG_PRIME = 2_100_000_127  # = 1 mod 6; its exp/log tables alone take 33.6 GB


def test_certify_refuses_graph_before_building_field_tables(tmp_path):
    n = 4 * BIG_PRIME
    need = footprint_bytes(n, n * (4 - 2 + BIG_PRIME))
    if _host_could_hold(16 * BIG_PRIME):
        pytest.skip("this host could hold the field tables")
    out = tmp_path / "cert.json"
    proc = _run_cli_limited("certify", "--m", "2", "--q", str(BIG_PRIME), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"N = {n} vertices need about {need / 1e9:.1f} GB" in proc.stderr
    assert not out.exists()


def test_cyclotab_refuses_field_tables_beyond_memory():
    if _host_could_hold(16 * BIG_PRIME):
        pytest.skip("this host could hold the field tables")
    proc = _run_cli_limited("cyclotab", "--q", str(BIG_PRIME), "--n", "3")
    assert proc.returncode == 2, proc.stderr
    assert f"GF({BIG_PRIME}) needs about {16 * BIG_PRIME / 1e9:.1f} GB for its exp/log tables" in proc.stderr
    assert proc.stdout == ""


def test_cyclotab_refuses_field_beyond_int64_products():
    p = 3_037_000_507  # the first prime with p**2 >= 2**63
    proc = _run_cli_limited("cyclotab", "--q", str(p), "--n", "1")
    assert proc.returncode == 2, proc.stderr
    assert f"GF({p}) is too large for int64 table arithmetic" in proc.stderr
    assert proc.stdout == ""
