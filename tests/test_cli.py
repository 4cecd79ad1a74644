import argparse
import decimal
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import regclique
from regclique import cli, errors, fields, numtheory
from regclique.cli import main
from regclique.construction import VERTEX_BYTES, check_graph_fits
from regclique.errors import GraphTooLarge
from regclique.graphcore import Graph

from reference import edge_list


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


@pytest.mark.parametrize(
    "pi, message",
    [
        ("a,b,c", "pi must be a comma list of integers, got 'a,b,c'"),
        ("", "pi must be a comma list of integers, got ''"),
        ("0,1,1", "pi must be a permutation of 0..2, got (0, 1, 1)"),
    ],
)
def test_certify_names_a_bad_pi(capsys, pi, message):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "2", "--q", "7", "--pi", pi])
    out = capsys.readouterr()
    assert (info.value.code, out.out) == (2, "")
    assert out.err.splitlines()[-1] == f"regclique: error: {message}"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("build", "--m", "2", "--q", "7", "--a", "5"), "--p/--a inconsistent with --q 7 = 7^1"),
        (("cyclotab", "--q", "7", "--a", "0", "--n", "1"), "--p/--a inconsistent with --q 7 = 7^1"),
        (("build", "--m", "2", "--q", "49", "--p", "7"), "--p/--a inconsistent with --q 49 = 7^2"),  # --a 1 with --p
    ],
)
def test_a_that_differs_from_the_exponent_of_q_is_refused(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.splitlines()[-1] == f"regclique: error: {message}"


@pytest.mark.parametrize("field", [("--q", "49", "--a", "2"), ("--q", "49", "--p", "7", "--a", "2")])
def test_a_that_matches_the_exponent_of_q_is_accepted(capsys, field):
    assert run_cli(capsys, "build", "--m", "2", *field) == (0, "N=196 k=51 M=4998\n", "")


def test_build_prints_size_without_building_the_graph(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("build must not construct the graph")

    monkeypatch.setattr(cli, "build_cayley_graph", refuse)
    monkeypatch.setattr(errors, "memory_limit", lambda: 10**9)  # the guard admits N = 168,364 on any host
    code, out, _ = run_cli(capsys, "build", "--m", "2", "--q", "859", "--l", "49")
    assert (code, out) == (0, "N=168364 k=1053 M=88643646\n")


def test_build_prints_size_of_a_graph_the_guard_refuses(capsys, monkeypatch, tmp_path):
    # N = 209,888, k = 1,159: the graph needs about 1.0 GB, its N, k and M nothing
    monkeypatch.setattr(errors, "memory_limit", lambda: 10**9)
    code, out, _ = run_cli(capsys, "build", "--m", "2", "--q", "937", "--l", "56")
    assert (code, out) == (0, "N=209888 k=1159 M=121630096\n")
    out_path = tmp_path / "cert.json"
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "2", "--q", "937", "--l", "56", "--out", str(out_path)])
    assert info.value.code == 2
    assert "N = 209888 vertices need about 1.0 GB" in capsys.readouterr().err
    assert not out_path.exists()


def test_export_dimacs_round_trip(capsys, tmp_path, x1):
    path = tmp_path / "x1.dimacs"
    code, _, _ = run_cli(capsys, "export", "--m", "2", "--q", "7", "--out", str(path), "--format", "dimacs")
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "p edge 28 126"
    assert len(lines) == 127
    assert all(line.startswith("e ") for line in lines[1:])
    edges = [tuple(int(x) - 1 for x in line.split()[1:]) for line in lines[1:]]
    assert edges == edge_list(x1[3])


def test_export_edges_round_trip(capsys, tmp_path, x1):
    path = tmp_path / "x1.edges"
    code, _, _ = run_cli(capsys, "export", "--m", "2", "--q", "7", "--out", str(path), "--format", "edges")
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "0 7"  # the smallest encoded connection-set element
    assert [tuple(map(int, line.split())) for line in lines] == edge_list(x1[3])


IRREGULAR_GRAPHS = {
    "isolated": (6, [(0, 2), (0, 3), (2, 3), (3, 4)]),  # vertices 1 and 5 have no neighbour
    "no-higher": (5, [(0, 1), (0, 2), (1, 2), (0, 4), (3, 4)]),  # 2 has only lower neighbours
}


@pytest.mark.parametrize("n,edges", list(IRREGULAR_GRAPHS.values()), ids=list(IRREGULAR_GRAPHS))
def test_writers_match_a_naive_formatter_on_irregular_graphs(n, edges):
    g = Graph.from_edges(n, edges)
    formats = ((cli.write_dimacs, f"p edge {n} {len(edges)}\n", "e ", 1), (cli.write_edge_list, "", "", 0))
    for writer, header, prefix, base in formats:
        fh = io.StringIO()
        writer(g, fh)
        assert fh.getvalue() == header + "".join(f"{prefix}{u + base} {v + base}\n" for u, v in edge_list(g))


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


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_certify_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path, where):
    out_path = tmp_path / "missing" / "cert.json" if where == "missing directory" else tmp_path
    with pytest.raises(SystemExit) as info:
        main(["certify", "--m", "2", "--q", "7", "--out", str(out_path)])
    out = capsys.readouterr()
    assert info.value.code == 2
    assert out.out == ""  # no PASS or FAIL line
    assert out.err.splitlines()[-1].startswith(f"regclique: error: cannot write {out_path}: ")


def test_export_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "graph.txt"
    with pytest.raises(SystemExit) as info:
        main(["export", "--m", "2", "--q", "7", "--out", str(out_path)])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"regclique: error: cannot write {out_path}: No such file or directory"


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
    # recorded from the per-element build, before rows were assembled block by block
    ("export", "--m", "2", "--q", "49", "--l", "4"): "8a9d95bbd8679fccb166285aa0588b180c1f85907728bd8ab32e31dc7419fd0d",
    ("export", "--m", "3", "--q", "29", "--variant", "psi1"): "2f8603969b430ef1bb3b42c9cdd56b6f3310c1d84ad9315e07feafdc3ec0d5c5",
    # recorded while block translations were still checked by sorting every image
    ("certify", "--m", "2", "--q", "199", "--l", "11"): "e989d985dfc4dc9a10dbf1c954f361348e442f9dbf7bd48f8320250ec0fcbe48",
    ("certify", "--m", "3", "--q", "197", "--l", "4", "--variant", "psi1"): "2edf3bdd4529b581bb05c21e7859318de20a8fe2d3cc090b63a6772d94f93d1c",
    # recorded while every block was gathered from block 0, before blocks (z, v) were rotations of (0, v):
    # l = 6 makes five block rows by rotation, and GF(25) is an extension field
    ("export", "--m", "2", "--q", "13", "--l", "6", "--pi", "2,0,1", "--format", "edges"): "8789583aa94e024938be06d45f4f60c55e4be3ecadc4069e88f7c997985a486b",
    ("export", "--m", "2", "--q", "25", "--l", "3"): "fc8f5d8e5b532aa44a307a4fca01dc6df11440b49f164c10b25d4b4487a61891",
}

# certificates that fail (exit 1), recorded at the same commit as the two above
GOLDEN_FAILING_SHA256 = {
    ("certify", "--m", "2", "--q", "7", "--l", "2"): "50f716123fa37b83605ea32d46d9d0a4b1d1760132a3f04ece4ce893bec71389",
    ("certify", "--m", "2", "--q", "13", "--l", "3"): "30249323d90b7aeec999e8a69973d1f159e95965293d9303ad3c164031804181",
    ("certify", "--m", "3", "--q", "29", "--variant", "psi2"): "8d4eebab321a6fe0ca570fce2de6392790bf2b2ecdf96382cd24dc41041354f5",
    # recorded at the same commit as the l = 6 and GF(25) exports above
    ("certify", "--m", "3", "--q", "43", "--l", "3", "--variant", "psi2"): "83b48f286f184b87546dfb93997474075893a7794548a9986894a239aa686eec",
    # recorded while extension-field products still went through coefficient tuples: GF(7^3)
    ("certify", "--m", "2", "--q", "343", "--l", "1"): "b6045b9e469ea28d5ab634d5f8569d88a0a7a44bb4b7cb1cf7f907b297a74296",
}


@pytest.mark.parametrize(
    "argv", list(GOLDEN_SHA256) + list(GOLDEN_FAILING_SHA256), ids=lambda argv: "-".join(a.lstrip("-") for a in argv)
)
def test_outputs_match_recorded_bytes(capsys, tmp_path, argv):
    path = tmp_path / "out"
    code, _, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == (1 if argv in GOLDEN_FAILING_SHA256 else 0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == {**GOLDEN_SHA256, **GOLDEN_FAILING_SHA256}[argv]


# sha256 of stdout, recorded before the exp/log tables were built by doubling
GOLDEN_STDOUT_SHA256 = {
    ("search", "--m", "2", "--q-max", "2000"): "bbb055cff79dddd787dc758eb9ee0084df9a0ff9f53c9ee290d388c656ad4d2c",
    ("search", "--m", "3", "--q-max", "3000"): "1c12a5b5201591bb696d1520ee03c04b219d05fa5e08794ff4c4abc62869f7a3",
    ("cyclotab", "--q", "29", "--n", "7"): "3c4724cee0d74d3bc7decdbc2a64b70f5aab9d84ba119f24ace0c6d5f25bd807",
    # two extension fields and a prime field with n = 90, recorded while cyclotab built all n classes as cosets
    ("cyclotab", "--q", "49", "--n", "8"): "e348344a2524b31b924a7cc5a7f110eeff1b5b4cfb3e176a13aae9bc743da7a5",
    ("cyclotab", "--p", "3", "--a", "6", "--n", "7"): "b754565c6d9d0a217dfcd14620d0c847f64cb947046d6e88f53384844489f6e0",
    ("cyclotab", "--q", "8191", "--n", "90"): "85ba7a06b1cff77eef42444e976290cf1814f690e87f6f22e3d6bca8fb8745e9",
    # the benchmark's search_wide calls, recorded before classes were taken as cosets of <rho**n>
    ("search", "--m", "2", "--q-max", "20000"): "951555b24094ff5f33901ab1efd2dcc0f512f315cbdf311d694c218aa0be7619",
    ("search", "--m", "3", "--q-max", "20000"): "d3daa823db74d35d9072582938fe68bd560da1cbb5ff5744611d70fea2f65c53",
    # GF(2^12), recorded while extension-field products still went through coefficient tuples
    ("cyclotab", "--p", "2", "--a", "12", "--n", "7"): "8b00bf5e5e428abd22cd1d41c06d028cc2136f1a08dc7861bd4460c3562bea85",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_SHA256), ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_stdout_matches_recorded_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


@pytest.mark.parametrize("argv", [("search", "--m", "2", "--q-max", "2000"), ("search", "--m", "3", "--q-max", "3000")])
def test_search_reads_no_discrete_log_table(monkeypatch, capsys, argv):
    def unread(pd):
        raise AssertionError(f"the search read a discrete-log table of GF({pd.field.q})")

    for table in ("exp", "log"):
        monkeypatch.setattr(fields.PrimitiveData, table, property(unread))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


def test_search_refuses_a_field_the_table_guard_refuses(monkeypatch, capsys):
    # the limit admits the sieve to 20,000 and the tables of GF(q) for 16 * q up to it only
    monkeypatch.setattr(errors, "memory_limit", lambda: numtheory.sieve_bytes(20000))
    with pytest.raises(SystemExit) as exc:
        main(["search", "--m", "2", "--q-max", "20000"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "GF(19009) needs about 0.0 GB for its exp/log tables" in out.err
    assert out.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("certify", "--m", "2", "--q", "937", "--l", "56"),
            "N = 209888 vertices need about 1.0 GB for the graph, more than half of the 2.0 GB of physical memory",
        ),
        (
            ("cyclotab", "--q", "2100000127", "--n", "3"),
            "GF(2100000127) needs about 33.6 GB for its exp/log tables, more than half of the 2.0 GB of physical memory",
        ),
        (
            ("cyclotab", "--q", "3037000507", "--n", "1"),
            "GF(3037000507) is too large for int64 table arithmetic (p = 3037000507)",
        ),
        (
            ("search", "--m", "2", "--q-max", "100000000000"),
            "listing the prime powers up to 100000000000 needs about 655.0 GB, "
            "more than half of the 2.0 GB of physical memory",
        ),
        (
            ("cyclotab", "--q", "65537", "--n", "65536"),
            "an n x n table for n = 65536 needs about 34.4 GB, more than half of the 2.0 GB of physical memory",
        ),
    ],
)
def test_every_size_refusal_is_a_usage_error(monkeypatch, capsys, tmp_path, argv, message):
    monkeypatch.setattr(errors, "memory_limit", lambda: 10**9)  # half of 2.0 GB, on any host
    out_path = tmp_path / "cert.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out_path)] if argv[0] == "certify" else list(argv))
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.splitlines()[-1] == f"regclique: error: {message}"
    assert not out_path.exists()


HUGE = 2**600  # N = 2^m * l * q stays far below MAX_ORDER_BITS, the bytes it needs far beyond a float


@pytest.mark.parametrize("command", ["certify", "export", "cyclotab"])
def test_a_size_refusal_beyond_a_float_is_a_usage_error(monkeypatch, capsys, tmp_path, command):
    monkeypatch.setattr(errors, "memory_limit", lambda: 10**9)
    out_path = tmp_path / "out"
    if command == "cyclotab":
        argv = [command, "--q", "7", "--n", str(HUGE)]
        subject, need = f"an n x n table for n = {HUGE} needs", 8 * HUGE**2
    else:
        argv = [command, "--m", "2", "--q", "7", "--l", str(HUGE), "--out", str(out_path)]
        subject, need = f"N = {28 * HUGE} vertices need", 28 * HUGE * (4 * (4 * HUGE + 5) + VERTEX_BYTES)
    with decimal.localcontext(prec=800):
        gigabytes = f"{decimal.Decimal(need) / 10**9:.1f}"
    use = "" if command == "cyclotab" else " for the graph"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    message = f"{subject} about {gigabytes} GB{use}, more than half of the 2.0 GB of physical memory"
    assert out.err.splitlines()[-1] == f"regclique: error: {message}"
    assert not out_path.exists()


def _limit_address_space():
    # a safety net: should a guard ever let the allocation start, it fails
    # here with MemoryError instead of exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_cli_limited(*argv, timeout=120, cwd=None):
    """The CLI in a subprocess limited to 2 GB of address space."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(regclique.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "regclique.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_limit_address_space,
        cwd=cwd,
    )


def _host_could_hold(nbytes):
    return nbytes <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def test_build_prints_size_of_any_l_without_per_element_memory():
    # l * 2^m = 4 * 10^9 block elements: N and k come from the parameters
    # alone, so the 2 GB address-space limit is never approached
    proc = _run_cli_limited("build", "--m", "2", "--q", "7", "--l", str(10**9))
    n, k = 28 * 10**9, 4 * 10**9 + 5
    assert (proc.returncode, proc.stdout) == (0, f"N={n} k={k} M={n * k // 2}\n"), proc.stderr


def test_certify_refuses_graph_beyond_memory(tmp_path):
    n = 4 * 112 * 1993  # m=2, l=112, q=1993: a search hit with N = 892,864
    need = n * (4 * (4 * 112 - 2 + 1993) + VERTEX_BYTES)
    if _host_could_hold(need):
        pytest.skip("this host could hold the graph")
    out = tmp_path / "cert.json"
    proc = _run_cli_limited("certify", "--m", "2", "--q", "1993", "--l", "112", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"N = {n} vertices need about {need / 1e9:.1f} GB" in proc.stderr
    assert not out.exists()


def test_graph_guard_admits_csr_within_limit(monkeypatch):
    monkeypatch.setattr(errors, "memory_limit", lambda: 10**9)
    check_graph_fits(49, 2, 859)  # N = 168,364, k = 1,053: about 0.74 GB
    with pytest.raises(GraphTooLarge, match="N = 209888 vertices need about 1.0 GB"):
        check_graph_fits(56, 2, 937)  # a search hit just above 1 GB


BIG_PRIME = 2_100_000_127  # = 1 mod 6; its exp/log tables alone take 33.6 GB


def test_certify_refuses_graph_before_building_field_tables(tmp_path):
    n = 4 * BIG_PRIME
    need = n * (4 * (4 - 2 + BIG_PRIME) + VERTEX_BYTES)
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


def test_cyclotab_refuses_a_class_table_before_the_field(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("a field was built for a table that does not fit")

    # a limit just under the 8 * 100**2 bytes of the n = 100 table refuses
    # it before the field is built
    monkeypatch.setattr(errors, "memory_limit", lambda: 8 * 99**2)
    monkeypatch.setattr(cli, "build_field", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["cyclotab", "--q", "101", "--n", "100"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "an n x n table for n = 100 needs about 0.0 GB" in out.err
    assert out.out == ""


# Extension fields whose modulus search (trial division by every monic
# polynomial up to degree a/2) would not end: each command must answer from
# p and a alone, within seconds.


def test_build_prints_size_of_a_huge_extension_field_without_a_modulus():
    q = 13**24
    proc = _run_cli_limited("build", "--m", "2", "--p", "13", "--a", "24", timeout=20)
    n, k = 4 * q, 4 + q - 2
    assert (proc.returncode, proc.stdout) == (0, f"N={n} k={k} M={n * k // 2}\n"), proc.stderr


def test_certify_refuses_a_huge_extension_field_before_its_modulus(tmp_path):
    q = 7**30
    out = tmp_path / "c.json"
    proc = _run_cli_limited("certify", "--m", "2", "--p", "7", "--a", "30", "--out", str(out), timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert f"N = {4 * q} vertices need about" in proc.stderr
    assert not out.exists()


def test_cyclotab_refuses_a_huge_extension_field_before_its_modulus():
    q = 2**40
    proc = _run_cli_limited("cyclotab", "--p", "2", "--a", "40", "--n", "1", timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert f"GF({q}) needs about {16 * q / 1e9:.1f} GB for its exp/log tables" in proc.stderr
    assert proc.stdout == ""


# Orders that trial division, p**a or 1 << m would never finish with: each
# command must answer from the bit lengths of its parameters, within seconds.


@pytest.mark.parametrize(
    "field",
    [
        ("--q", "1000000000000000003"),  # a prime = 1 mod 6; trial division would take 10**9 steps
        ("--p", "7", "--a", "60"),
        ("--p", "7", "--a", "2542"),  # N of 7139 bits, whose M has 4,297 decimal digits
        ("--q", str(7**2542)),
    ],
)
def test_build_prints_size_of_a_large_field(field):
    proc = _run_cli_limited("build", "--m", "2", *field, timeout=20)
    q = int(field[1]) ** int(field[3]) if field[0] == "--p" else int(field[1])
    n, k = 4 * q, 4 + q - 2
    assert (proc.returncode, proc.stdout) == (0, f"N={n} k={k} M={n * k // 2}\n"), proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cyclotab", "--p", "1000000000000000003", "--n", "1"), "is too large for int64 table arithmetic"),
        (("build", "--m", "2", "--p", "7", "--a", "100000000"), "N = 2^m * l * q has more than 7140 bits"),
        (("build", "--m", "2", "--p", "7", "--a", "2543"), "N = 2^m * l * q has more than 7140 bits"),  # N of 7142 bits
        (("build", "--m", str(10**9), "--q", "7"), "N = 2^m * l * q has more than 7140 bits"),
        (("cyclotab", "--q", str(2**7140), "--n", "1"), "q has more than 7140 bits"),
        (("build", "--m", "2", "--q", str(2**89 - 1)), "primality is decided only below"),  # a Mersenne prime
        (("build", "--m", "2", "--q", str(6 * 2**88)), f"q = {6 * 2**88} is not a prime power"),
        (("build", "--m", "2", "--p", str(2**100)), f"{2**100} is not prime"),
    ],
)
def test_huge_orders_are_refused_from_their_bit_lengths(argv, message):
    proc = _run_cli_limited(*argv, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("regclique: error: ") and message in proc.stderr
    assert proc.stdout == ""


def test_search_refuses_prime_list_beyond_memory():
    q_max = 10**11
    need = numtheory.sieve_bytes(q_max)
    if _host_could_hold(need):
        pytest.skip("this host could hold the sieve and the prime list")
    proc = _run_cli_limited("search", "--m", "2", "--q-max", str(q_max))
    assert proc.returncode == 2, proc.stderr
    assert f"listing the prime powers up to {q_max} needs about {need / 1e9:.1f} GB" in proc.stderr
    assert proc.stdout == ""


def test_parser_is_built_on_the_first_call_only(monkeypatch, capsys):
    built = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    totals = []
    for _ in range(2):
        assert main(["build", "--m", "2", "--q", "7"]) == 0
        totals.append(built)
    assert totals == [6, 6]  # the top-level parser and its five subcommands, all in the first call
    assert capsys.readouterr().out == "N=28 k=9 M=126\n" * 2


# a usage error, a failing certificate, then one call of every kind: run one
# after another in this process, each must match a fresh process byte for byte
STATELESS_SEQUENCE = [
    ("certify", "--m", "3", "--q", "29"),
    ("certify", "--m", "2", "--q", "7", "--l", "2"),
    ("certify", "--m", "3", "--q", "29", "--variant", "psi1"),
    ("certify", "--m", "2", "--q", "7"),
    ("search", "--m", "2", "--q-max", "200"),
    ("export", "--m", "2", "--q", "7", "--format", "edges", "--out", "graph.txt"),
    ("cyclotab", "--q", "29", "--n", "7"),
    ("certify", "--help"),
]


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_calls_in_one_process_match_fresh_processes(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width; fix it for both sides
    codes = []
    for i, argv in enumerate(STATELESS_SEQUENCE):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        proc = _run_cli_limited(*argv, cwd=fresh)
        assert (code, out.out, out.err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert _files(here) == _files(fresh), argv
        codes.append(code)
    assert codes == [2, 1, 0, 0, 0, 0, 0, 0]
    assert json.loads((tmp_path / "here3" / "certificate.json").read_text())["variant"] is None
