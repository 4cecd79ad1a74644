"""The benchmark's traced self-check, run on small calls of every kind.

`perfbench/run.py` fails a traced run when a span its calls must enter has
no calls, when a traced function is gone from the package, or when
`clique_nexus` is not called once per clique (q times per certificate).
This runs one traced worker per kind of call through `run.spawn`, so a
change that would break that gate fails here first.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

OTHER_CALLS = {
    "export": [
        (f"export-m2-q7-{fmt}", "export", ("export", "--m", "2", "--q", "7", "--format", fmt))
        for fmt in ("dimacs", "edges")
    ],
    "search": [("search-m2-qmax50", "search", ("search", "--m", "2", "--q-max", "50"))],
}


def traced_spans(monkeypatch, tmp_path, calls) -> dict:
    """Per-span counts of one traced worker making `calls`, after checking it entered every gated span."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    calls = [workloads.Call(*call) for call in calls]
    report = run.spawn(calls, tmp_path, trace=True, timeout=120)
    assert report is not None
    assert [report["observed"][call.id]["exit"] for call in calls] == [0] * len(calls)
    trace = report["trace"]
    assert trace["missing"] == []
    spans = trace["spans"]
    idle = sorted(span for span in workloads.expected_spans(calls) if spans.get(span, {}).get("calls", 0) == 0)
    assert idle == []
    return spans


def test_traced_worker_enters_every_gated_span(monkeypatch, tmp_path):
    spans = traced_spans(monkeypatch, tmp_path, [("certify-m2-q7", "certify", ("certify", "--m", "2", "--q", "7"))])
    assert spans["certify.clique_nexus"]["calls"] == 7  # one per clique of the spread, q = 7


def test_traced_worker_enters_every_gated_span_with_rotated_blocks(monkeypatch, tmp_path):
    # l = 2: the build and the translation check rotate block row 0 into block row 1
    call = ("certify-m2-q19-l2", "certify", ("certify", "--m", "2", "--q", "19", "--l", "2"))
    spans = traced_spans(monkeypatch, tmp_path, [call])
    assert spans["certify.clique_nexus"]["calls"] == 19  # one per clique of the spread, q = 19


@pytest.mark.parametrize("kind", sorted(OTHER_CALLS))
def test_traced_worker_enters_every_gated_span_of_other_kinds(monkeypatch, tmp_path, kind):
    traced_spans(monkeypatch, tmp_path, OTHER_CALLS[kind])
