"""The benchmark's fixed workloads and the checks on their outputs.

A workload is a list of `regclique` CLI calls that one pass runs in order
(the run's seed shuffles the order per pass). Each call's output is reduced
to an observation (see `worker.observe`) and compared with the reference
recorded in `reference.json`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    id: str
    kind: str  # "certify" | "export" | "search"
    argv: tuple  # CLI arguments; certify and export calls also get --out FILE


def _certify(m, q, l=1, variant=None):
    argv = ["certify", "--m", str(m), "--q", str(q), "--l", str(l)]
    if variant is not None:
        argv += ["--variant", variant]
    name = f"certify-m{m}-q{q}-l{l}" + (f"-{variant}" if variant else "")
    return Call(name, "certify", tuple(argv))


def _export(fmt):
    return Call(f"export-m2-q199-l11-{fmt}", "export", ("export", "--m", "2", "--q", "199", "--l", "11", "--format", fmt))


def _search(m):
    return Call(f"search-m{m}-qmax20000", "search", ("search", "--m", str(m), "--q-max", "20000"))


WORKLOADS = {
    # The two largest instances one pass can afford: the lambda pass over all
    # edges and the spread nexus dominate; the mu scan starts at vertex 0.
    "certify_large": [
        _certify(2, 199, 11),
        _certify(3, 197, 4, "psi1"),
    ],
    # Every search hit with N <= 2000 (m=2: q <= 79, m=3: q <= 127), so the
    # exhaustive mu scan and the per-instance fixed cost dominate.
    "certify_small_sweep": [
        _certify(2, 7, 1),
        _certify(2, 13, 1),
        _certify(2, 19, 2),
        _certify(2, 37, 2),
        _certify(2, 49, 4),
        _certify(2, 61, 4),
        _certify(2, 67, 4),
        _certify(2, 73, 5),
        _certify(2, 79, 4),
        _certify(3, 29, 1, "psi1"),
        _certify(3, 43, 1, "psi2"),
        _certify(3, 71, 1, "psi2"),
        _certify(3, 127, 1, "psi1"),
    ],
    # The certify_large m=2 graph, enumerated and written instead of intersected.
    "export_graph": [_export("dimacs"), _export("edges")],
    # No graph at all: field tables, cyclotomic numbers and number theory.
    "search_wide": [_search(2), _search(3)],
}


# The traced spans (worker.SPANS) each kind of call must enter at least once;
# a traced pass where one of them has no calls fails its self-check.
_FIELD_SPANS = ("cli.main", "fields.build_field", "fields.find_primitive_element")
_GRAPH_SPANS = _FIELD_SPANS + ("construction.build_cayley_graph", "construction.generating_set", "graphcore.neighbours")
SPANS_BY_KIND = {
    "certify": _GRAPH_SPANS + (
        "cyclotomy.cyclotomic_number",
        "certify.assemble_certificate",
        "certify.check_edge_regular",
        "certify.check_strongly_regular",
        "certify.clique_nexus",
        "certify.predictions",
        "certify.to_json",
    ),
    "export": _GRAPH_SPANS,
    "search": _FIELD_SPANS + ("cyclotomy.cyclotomic_number", "numtheory.search"),
}
WRITER_SPANS = {"dimacs": "cli.write_dimacs", "edges": "cli.write_edge_list"}


def expected_spans(calls) -> set:
    """Every span that a pass making `calls` must enter."""
    spans = set()
    for call in calls:
        spans.update(SPANS_BY_KIND[call.kind])
        if call.kind == "export":
            spans.add(WRITER_SPANS[call.argv[call.argv.index("--format") + 1]])
    return spans


def certificate_summary(cert: dict) -> dict:
    """The certificate fields the reference pins; extra keys are ignored."""
    srg = cert["srg"]
    return {
        "pass": cert["pass"],
        "N": cert["N"],
        "k": cert["k"],
        "lambda": cert["lambda"],
        "spread": cert["spread"],
        "srg": {key: srg[key] for key in ("verdict", "mu_values", "witnesses")},
        "checks": {check["name"]: check["pass"] for check in cert["checks"]},
    }


def mismatch(call: Call, observed: dict, reference: dict):
    """None when the observation matches the reference, else a short reason."""
    if observed.get("exit") != 0:
        return f"exit {observed.get('exit')}: {observed.get('error', '')}".strip()
    if call.kind != "certify":
        if observed["sha256"] != reference["sha256"]:
            return f"output sha256 {observed['sha256'][:12]} != reference {reference['sha256'][:12]}"
        return None
    try:
        got = certificate_summary(observed["certificate"])
    except (KeyError, TypeError) as exc:
        return f"certificate lacks {exc}"
    want = reference["summary"]
    for key, value in want.items():
        if key == "checks":
            for name, passed in value.items():
                if got["checks"].get(name) != passed:
                    return f"check {name}: {got['checks'].get(name)} != reference {passed}"
        elif got[key] != value:
            return f"{key}: {got[key]} != reference {value}"
    return None
