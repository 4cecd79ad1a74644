"""Command-line front end: parameter search, graph construction, certification,
and graph export.

Exit codes: 0 on success (including a passing certificate), 1 for a failing
certificate, 2 for usage or parameter errors. All output is deterministic:
identical flags produce byte-identical results.
"""

import argparse
import sys
from bisect import bisect_right

from .certify import assemble_certificate
from .construction import (
    build_cayley_graph,
    check_graph_fits,
    default_pi,
    generating_set,
    make_group,
    psi1_table,
    psi2_table,
    validate_bijection,
)
from .cyclotomy import cyclotomic_table, make_context
from .errors import BadCongruence, FieldTooLarge, GraphTooLarge, RegcliqueError
from .fields import build_field, find_primitive_element
from .graphcore import Graph
from .numtheory import prime_power_decompose, search_m2, search_m3


# ---------------------------------------------------------------------------
# graph file formats


def _write_edge_lines(g: Graph, fh, prefix: str, base: int) -> None:
    """One `{prefix}u v` line per edge u < v (numbered from base), lexicographically ascending.

    Lines are written a row at a time, so memory stays bounded by one row.
    """
    names = [str(v + base) for v in range(g.n)]
    for u in range(g.n):
        nbrs = g.neighbours(u)
        upper = nbrs[bisect_right(nbrs, u) :]
        if upper:
            head = f"{prefix}{names[u]} "
            fh.write(head + f"\n{head}".join([names[v] for v in upper]) + "\n")


def write_dimacs(g: Graph, fh) -> None:
    """DIMACS edge format: `p edge N M`, then `e i j` with 1-based i < j."""
    fh.write(f"p edge {g.n} {g.m}\n")
    _write_edge_lines(g, fh, "e ", 1)


def write_edge_list(g: Graph, fh) -> None:
    """One `i j` line per edge, 0-based, i < j, lexicographically ascending."""
    _write_edge_lines(g, fh, "", 0)


# ---------------------------------------------------------------------------
# argument handling


def _add_graph_arguments(sp, need_pi=True):
    sp.add_argument("--m", type=int, required=True, help="rank of the Z_2^m factor (>= 2)")
    sp.add_argument("--l", type=int, default=1, help="order of the cyclic factor (default 1)")
    sp.add_argument("--q", type=int, help="field order (a prime power)")
    sp.add_argument("--p", type=int, help="field characteristic (use with --a)")
    sp.add_argument("--a", type=int, default=1, help="field extension degree (default 1)")
    if need_pi:
        sp.add_argument("--pi", help="comma list: images of the nonzero vectors in ascending value order")
        sp.add_argument("--variant", choices=("psi1", "psi2"), help="built-in bijection for m = 3")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regclique",
        description="Cayley graphs with spreads of 1-regular cliques: search, build, certify, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="scan prime powers for admissible parameters")
    sp.add_argument("--m", type=int, required=True, choices=(2, 3))
    sp.add_argument("--q-max", dest="q_max", type=int, required=True)

    sp = sub.add_parser("build", help="construct a graph and print its size")
    _add_graph_arguments(sp)

    sp = sub.add_parser("certify", help="construct a graph and verify every claimed property")
    _add_graph_arguments(sp)
    sp.add_argument("--out", default="certificate.json", help="certificate path (default certificate.json)")

    sp = sub.add_parser("export", help="construct a graph and write it to a file")
    _add_graph_arguments(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("dimacs", "edges"), default="dimacs")

    sp = sub.add_parser("cyclotab", help="print the n x n cyclotomic number table of GF(q)")
    sp.add_argument("--q", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)

    return parser


def _resolve_field(parser, args):
    if args.q is not None:
        pp = prime_power_decompose(args.q)
        if pp is None:
            parser.error(f"q = {args.q} is not a prime power")
        p, a = pp
        if args.p is not None and (args.p, args.a) != (p, a):
            parser.error(f"--p/--a inconsistent with --q {args.q} = {p}^{a}")
    elif args.p is not None:
        p, a = args.p, args.a
    else:
        parser.error("a field is required: give --q or --p (with --a)")
    try:
        return build_field(p, a)
    except RegcliqueError as exc:
        parser.error(str(exc))


def _resolve_pi(parser, args):
    if args.variant is not None:
        if args.m != 3:
            parser.error("--variant applies only to m = 3")
        if args.pi is not None:
            parser.error("give either --pi or --variant, not both")
        return (psi1_table() if args.variant == "psi1" else psi2_table()), args.variant
    if args.pi is not None:
        try:
            values = tuple(int(s) for s in args.pi.split(","))
            return validate_bijection(args.m, values), None
        except ValueError as exc:
            parser.error(str(exc))
    if args.m == 2:
        return default_pi(2), None
    parser.error(f"--pi or --variant is required for m = {args.m}")


def _resolve_construction(parser, args):
    if args.m < 2:
        parser.error("m must be at least 2")
    if args.l < 1:
        parser.error("l must be at least 1")
    field = _resolve_field(parser, args)
    two_n = 2 * ((1 << args.m) - 1)
    if field.q % two_n != 1:
        parser.error(
            f"q = {field.q} is not 1 mod {two_n}: the connection set would not be symmetric"
        )
    pi, variant = _resolve_pi(parser, args)
    try:  # before the field's tables, which are far smaller than the graph
        check_graph_fits(args.l, args.m, field.q)
    except GraphTooLarge as exc:
        parser.error(str(exc))
    gp = make_group(args.l, args.m, field, _primitive_element(parser, field))
    return gp, pi, variant


def _primitive_element(parser, field):
    try:
        return find_primitive_element(field)
    except FieldTooLarge as exc:
        parser.error(str(exc))


def _build_graph(parser, args):
    gp, pi, variant = _resolve_construction(parser, args)
    try:
        graph = build_cayley_graph(gp, generating_set(gp, pi))
    except GraphTooLarge as exc:
        parser.error(str(exc))
    return gp, pi, variant, graph


# ---------------------------------------------------------------------------
# subcommands


def _cmd_search(parser, args) -> int:
    if args.q_max < 2:
        parser.error("--q-max must be at least 2")
    records = search_m2(args.q_max) if args.m == 2 else search_m3(args.q_max)
    for record in records:
        print(record.summary())
    return 0


def _cmd_build(parser, args) -> int:
    _, _, _, graph = _build_graph(parser, args)
    print(f"N={graph.n} k={graph.degree(0)} M={graph.m}")
    return 0


def _cmd_certify(parser, args) -> int:
    gp, pi, variant, graph = _build_graph(parser, args)
    cert = assemble_certificate(gp, pi, variant, graph)
    with open(args.out, "w") as fh:
        fh.write(cert.to_json())
        fh.write("\n")
    if cert.passed:
        print("PASS")
        return 0
    print(f"FAIL {cert.first_failure()}")
    return 1


def _cmd_export(parser, args) -> int:
    _, _, _, graph = _build_graph(parser, args)
    with open(args.out, "w") as fh:
        if args.format == "dimacs":
            write_dimacs(graph, fh)
        else:
            write_edge_list(graph, fh)
    return 0


def _cmd_cyclotab(parser, args) -> int:
    field = _resolve_field(parser, args)
    if args.n < 1:
        parser.error("n must be at least 1")
    pd = _primitive_element(parser, field)
    try:
        ctx = make_context(field, pd, args.n)
    except BadCongruence as exc:
        parser.error(str(exc))
    table = cyclotomic_table(ctx)
    for row in table:
        print(" ".join(str(int(x)) for x in row))
    return 0


_COMMANDS = {
    "search": _cmd_search,
    "build": _cmd_build,
    "certify": _cmd_certify,
    "export": _cmd_export,
    "cyclotab": _cmd_cyclotab,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
