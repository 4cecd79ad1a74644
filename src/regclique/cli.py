"""Command-line front end: parameter search, graph construction, certification,
and graph export.

Exit codes: 0 on success (including a passing certificate), 1 for a failing
certificate, 2 for usage or parameter errors (an unwritable --out among
them). All output is deterministic: identical flags produce byte-identical
results.

`main(argv)` may be called many times in one process: it returns the exit
code, and usage errors raise `SystemExit(2)`. The parser is built on the
first call and reused.
"""

import argparse
import sys
from bisect import bisect_right
from functools import cache

from .certify import assemble_certificate
from .construction import (
    build_cayley_graph,
    check_graph_fits,
    default_pi,
    generating_set,
    graph_size,
    make_group,
    psi1_table,
    psi2_table,
    validate_bijection,
)
from .cyclotomy import cyclotomic_table, make_context
from .errors import BadCongruence, FieldTooLarge, GraphTooLarge, RegcliqueError, SearchTooLarge, require_memory
from .fields import build_field, check_table_footprint, field_order, find_primitive_element
from .graphcore import Graph
from .numtheory import prime_power_decompose, search_m2, search_m3

# The graph commands refuse N = 2^m * l * q, and cyclotab q, of more bits.
# `build` prints M = N * k / 2 < N**2, which then has at most 4,299 decimal
# digits: within Python's default limit on int-to-str conversion (4,300)
MAX_ORDER_BITS = 7140

# ---------------------------------------------------------------------------
# graph file formats


def _write_edge_lines(g: Graph, fh, prefix: str, base: int) -> None:
    """One `{prefix}u v` line per edge u < v (numbered from base), lexicographically ascending.

    Lines are written a row at a time; memory holds one row and the N vertex names.
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


def _add_graph_arguments(sp):
    sp.add_argument("--m", type=int, required=True, help="rank of the Z_2^m factor (>= 2)")
    sp.add_argument("--l", type=int, default=1, help="order of the cyclic factor (default 1)")
    sp.add_argument("--q", type=int, help="field order (a prime power)")
    sp.add_argument("--p", type=int, help="field characteristic (use with --a)")
    sp.add_argument("--a", type=int, help="field extension degree (default 1 with --p)")
    sp.add_argument("--pi", help="comma list: images of the nonzero vectors in ascending value order")
    sp.add_argument("--variant", choices=("psi1", "psi2"), help="built-in bijection for m = 3")


@cache  # parse_args makes a fresh Namespace per call; the parser holds no state between calls
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regclique",
        description="Cayley graphs with spreads of 1-regular cliques: search, build, certify, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="scan prime powers for admissible parameters")
    sp.add_argument("--m", type=int, required=True, choices=(2, 3))
    sp.add_argument("--q-max", dest="q_max", type=int, required=True)

    sp = sub.add_parser("build", help="print the size of a graph without constructing it")
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
    sp.add_argument("--a", type=int)
    sp.add_argument("--n", type=int, required=True)

    return parser


def _check_order_bits(parser, m, l, p, a):
    """Refuse N = 2^m * l * p^a of more than MAX_ORDER_BITS bits (m = 0 and l = 1 bound p^a alone).

    N >= 2**(m + bits(l) - 1 + a * (bits(p) - 1)), so that bound comes first;
    once it holds, 1 << m and p**a have at most about 2 * MAX_ORDER_BITS bits.
    """
    if a >= 1 and (
        m + l.bit_length() + a * (p.bit_length() - 1) > MAX_ORDER_BITS
        or ((l << m) * p**a).bit_length() > MAX_ORDER_BITS
    ):
        parser.error(f"{'N = 2^m * l * q' if m else 'q'} has more than {MAX_ORDER_BITS} bits")


def _resolve_order(parser, args, m=0, l=1):
    """(p, a) of the field a command names, validated without searching a modulus.

    N = 2^m * l * q is bounded before q is decomposed or p**a computed.
    Callers run their size checks on p**a before `build_field`, whose modulus
    search would take exponential time on a field too large to use.
    """
    a_named = 1 if args.a is None and args.p is not None else args.a  # --a defaults to 1 with --p
    if args.q is not None:
        _check_order_bits(parser, m, l, args.q, 1)
        try:
            pp = prime_power_decompose(args.q)
        except RegcliqueError as exc:  # a root beyond the exact range of is_prime
            parser.error(str(exc))
        if pp is None:
            parser.error(f"q = {args.q} is not a prime power")
        p, a = pp
        if args.p not in (None, p) or a_named not in (None, a):
            parser.error(f"--p/--a inconsistent with --q {args.q} = {p}^{a}")
    elif args.p is not None:
        p, a = args.p, a_named
        _check_order_bits(parser, m, l, p, a)
    else:
        parser.error("a field is required: give --q or --p (with --a)")
    try:
        field_order(p, a)
    except RegcliqueError as exc:
        parser.error(str(exc))
    return p, a


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
        except ValueError:
            parser.error(f"pi must be a comma list of integers, got {args.pi!r}")
        try:
            return validate_bijection(args.m, values), None
        except ValueError as exc:
            parser.error(str(exc))
    if args.m == 2:
        return default_pi(2), None
    parser.error(f"--pi or --variant is required for m = {args.m}")


def _resolve_construction(parser, args):
    """(p, a), bijection and variant name of a graph command, validated without building the field."""
    if args.m < 2:
        parser.error("m must be at least 2")
    if args.l < 1:
        parser.error("l must be at least 1")
    p, a = _resolve_order(parser, args, args.m, args.l)
    q, two_n = p**a, 2 * ((1 << args.m) - 1)
    if q % two_n != 1:
        parser.error(f"q = {q} is not 1 mod {two_n}: the connection set would not be symmetric")
    pi, variant = _resolve_pi(parser, args)
    return p, a, pi, variant


def _build_graph(parser, args):
    p, a, pi, variant = _resolve_construction(parser, args)
    check_graph_fits(args.l, args.m, p**a)  # before the field and its tables, which are far smaller
    field = build_field(p, a)
    gp = make_group(args.l, args.m, field, find_primitive_element(field))
    return gp, pi, variant, build_cayley_graph(gp, generating_set(gp, pi))


def _write(parser, path, write) -> None:
    """write(fh) to path opened for text; a path that cannot be written is a usage error."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_search(parser, args) -> int:
    if args.q_max < 2:
        parser.error("--q-max must be at least 2")
    for record in (search_m2 if args.m == 2 else search_m3)(args.q_max):
        print(record.summary())
    return 0


def _cmd_build(parser, args) -> int:
    p, a, _, _ = _resolve_construction(parser, args)
    n, k, _ = graph_size(args.l, args.m, p**a)
    print(f"N={n} k={k} M={n * k // 2}")
    return 0


def _cmd_certify(parser, args) -> int:
    gp, pi, variant, graph = _build_graph(parser, args)
    cert = assemble_certificate(gp, pi, variant, graph)
    _write(parser, args.out, lambda fh: fh.write(cert.to_json() + "\n"))
    if cert.passed:
        print("PASS")
        return 0
    print(f"FAIL {cert.first_failure()}")
    return 1


def _cmd_export(parser, args) -> int:
    _, _, _, graph = _build_graph(parser, args)
    writer = write_dimacs if args.format == "dimacs" else write_edge_list
    _write(parser, args.out, lambda fh: writer(graph, fh))
    return 0


def _cmd_cyclotab(parser, args) -> int:
    p, a = _resolve_order(parser, args)
    if args.n < 1:
        parser.error("n must be at least 1")
    require_memory(8 * args.n**2, FieldTooLarge, f"an n x n table for n = {args.n} needs")  # int64 entries
    check_table_footprint(p, a)  # before the modulus search
    field = build_field(p, a)
    try:
        ctx = make_context(field, find_primitive_element(field), args.n)
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
    try:
        return _COMMANDS[args.command](parser, args)
    except (GraphTooLarge, FieldTooLarge, SearchTooLarge) as exc:  # a size the memory budget refuses
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
