"""The benchmark's traced self-check, run on one small certify call.

`perfbench/run.py` fails a traced run when a span its calls must enter has
no calls, when a traced function is gone from the package, or when
`clique_nexus` is not called once per clique (q times per certificate).
This runs one traced worker through `run.spawn`, so a change that would
break that gate fails here first.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_worker_enters_every_gated_span(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    call = workloads.Call("certify-m2-q7", "certify", ("certify", "--m", "2", "--q", "7"))
    report = run.spawn([call], tmp_path, trace=True, timeout=120)
    assert report is not None
    assert report["observed"][call.id]["exit"] == 0
    trace = report["trace"]
    assert trace["missing"] == []
    spans = trace["spans"]
    idle = sorted(span for span in workloads.expected_spans([call]) if spans.get(span, {}).get("calls", 0) == 0)
    assert idle == []
    assert spans["certify.clique_nexus"]["calls"] == 7  # one per clique of the spread, q = 7
