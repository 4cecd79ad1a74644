"""The regclique benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload certify_large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; `src/regclique` is imported from
there, nothing is installed. Every pass of the workload runs in a fresh,
single-threaded worker process (`worker.py`), one after another: a closed
loop with one client. The seed shuffles the order of the calls in each pass.
Every output is checked against `reference.json`.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
median pass wall time at the reference host speed, median set-up (import)
time and median peak RSS. With `--trace 1` untraced and traced passes
alternate and the run reports the per-layer metrics from the traced passes.
Human-readable lines come first on stdout, among them the raw pass wall time
and the failed share of calls; the last line is the JSON result.
"""

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import SPANS
from workloads import WORKLOADS, expected_spans, mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

IMPORT_ONLY = 3  # import-only workers at the start; one more precedes each pass
TIME_LIMIT_S = 170.0  # a run must end within 180 s, whatever the workload does
# worker.probe_kernel's typical time on the host where the benchmark was
# defined (see README.md); wall_ref_s and setup_s are times at that host speed
REF_PROBE_S = 0.0013


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .perfbench_work/ in the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def spawn(calls, workdir, trace: bool, timeout: float):
    """Run one worker process; its JSON report, or None when it failed."""
    spec = {
        "src": str(SRC),
        "workdir": str(workdir),
        "trace": trace,
        "calls": [[c.id, c.kind, list(c.argv)] for c in calls],
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # set-up is timed from cached bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    """(q1, median, q3); a single value stands for all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment(worker_report) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": worker_report.get("python") if worker_report else None,
        "numpy": worker_report.get("numpy") if worker_report else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Time set-up in import-only workers, then run passes until the time is spent."""
    calls = WORKLOADS[workload]
    rng = random.Random(seed)
    started = time.perf_counter()

    def remaining():
        return TIME_LIMIT_S - (time.perf_counter() - started)

    warmup = spawn([], workdir, False, remaining())  # fills bytecode and file caches
    if warmup is None:
        return None, [], []
    t0 = time.perf_counter()
    imports = []  # reports of the import-only workers

    def time_import():
        report = spawn([], workdir, False, remaining())
        if report is not None:
            imports.append(report)

    for _ in range(IMPORT_ONLY):
        time_import()
    passes = []  # (traced, report or None)
    while True:
        time_import()  # spread set-up samples over the run
        traced = trace and len(passes) % 2 == 1
        order = list(calls)
        rng.shuffle(order)
        p0 = time.perf_counter()
        passes.append((traced, spawn(order, workdir, traced, remaining())))
        last = time.perf_counter() - p0
        if passes[-1][1] is None:
            break
        elapsed = time.perf_counter() - t0
        need_traced = trace and not any(t for t, _ in passes)
        # stop where one more pass would end past the budget by over half a pass
        if (elapsed + last / 2 > seconds and not need_traced) or remaining() < 2 * last:
            break
    return warmup, imports, passes


def check(calls, reference, passes):
    """(attempted, failed, deterministic): every call of every pass vs the reference."""
    attempted = failed = 0
    seen = {}
    for _, report in passes:
        attempted += len(calls)
        if report is None:
            failed += len(calls)
            continue
        for call in calls:
            observed = report["observed"][call.id]
            why = mismatch(call, observed, reference[call.id])
            if why is not None:
                failed += 1
                print(f"FAILED {call.id}: {why}")
            seen.setdefault(call.id, set()).add(json.dumps(observed, sort_keys=True))
    return attempted, failed, all(len(v) == 1 for v in seen.values())


def at_ref_speed(seconds, probe_samples):
    """A time scaled to the reference host speed, by the probe samples taken with it.

    1 / probe time is the host's speed at a sample. The samples are evenly
    spaced in time, so the mean speed over the interval is the mean of their
    inverses (not the inverse of their mean, which a slow episode would bias).
    """
    return seconds * REF_PROBE_S * statistics.fmean(1 / p for p in probe_samples)


def end_to_end(imports, passes) -> dict:
    reports = [r for traced, r in passes if r is not None and not traced]
    imports = imports + reports  # every worker times its own import
    samples = {
        "wall_ref_s": [at_ref_speed(r["wall_s"], r["probe_s"]) for r in reports if r["probe_s"]],
        "wall_s": [r["wall_s"] for r in reports],
        "probe_ms": [1000 * statistics.fmean(r["probe_s"]) for r in reports if r["probe_s"]],
        "setup_s": [at_ref_speed(r["setup_s"], r["setup_probe_s"]) for r in imports],
        "setup_raw_s": [r["setup_s"] for r in imports],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
    }
    return {name: values for name, values in samples.items() if values}


def layer_metrics(report) -> dict:
    """Per-layer figures of one traced pass."""
    tr = report["trace"]
    spans = tr["spans"]

    def get(span, key):
        return spans.get(span, {}).get(key, 0)

    certs = get("certify.assemble_certificate", "calls")
    out = {
        "certify.check_edge_regular.calls_per_cert": get("certify.check_edge_regular", "calls") / certs if certs else 0.0,
        "construction.build_cayley_graph.rss_delta_mb": tr["build_rss_delta_mb"],
        "numtheory.hit_ratio": tr["search_hits"] / tr["search_fields"] if tr["search_fields"] else 0.0,
        "cli.bytes_written": report["bytes_written"],
    }
    for span in SPANS:
        for key in ("calls", "s", "self_s"):
            out[f"{span}.{key}"] = get(span, key)
    return out


def per_layer(calls, passes):
    """(samples, ok): per-layer samples of the traced passes and whether the tracing self-checks held."""
    traced = [r for t, r in passes if t and r is not None]
    untraced = [r["wall_s"] for t, r in passes if not t and r is not None]
    if not traced or not untraced:
        return {}, False
    samples = {}
    for report in traced:
        for name, value in layer_metrics(report).items():
            samples.setdefault(name, []).append(value)
    samples["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced) - statistics.median(untraced)]

    # self-checks on the tracing itself: a failed one makes the run incorrect,
    # since the per-layer figures would then read 0 where work was done
    sum_q = sum(int(c.argv[c.argv.index("--q") + 1]) for c in calls if c.kind == "certify")
    expected = expected_spans(calls)
    ok = True
    for report in traced:
        spans = report["trace"]["spans"]
        for target in report["trace"]["missing"]:
            print(f"FAILED selfcheck: no {target} to trace")
            ok = False
        idle = sorted(span for span in expected if spans.get(span, {}).get("calls", 0) == 0)
        if idle:
            print(f"FAILED selfcheck: spans without calls: {', '.join(idle)}")
            ok = False
        nexus_calls = spans.get("certify.clique_nexus", {}).get("calls", 0)
        if nexus_calls != sum_q:
            print(f"FAILED selfcheck: clique_nexus calls {nexus_calls} != sum of q {sum_q}")
            ok = False
    if ok:
        print(f"selfcheck ok: {len(expected)} spans entered, clique_nexus calls == sum of q ({sum_q})")
    return samples, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regclique" / "__init__.py").is_file():
        print(f"run.py: no regclique sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reference = json.loads((HERE / "reference.json").read_text())
    calls = WORKLOADS[args.workload]

    with scratch_dir() as workdir:
        warmup, imports, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)

    if warmup is None:
        print("run.py: the worker could not import regclique", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    attempted, failed, deterministic = check(calls, reference, passes)
    if passes and not deterministic:
        print("FAILED outputs differ between passes (traced and untraced passes must agree)")
    samples, traced_ok = per_layer(calls, passes) if args.trace else (end_to_end(imports, passes), True)
    n_traced = sum(1 for t, r in passes if t)
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
        f"{len(passes)} passes ({n_traced} traced), {len(imports)} import-only workers"
    )
    print("env " + json.dumps(environment(warmup)))
    metrics = {}
    for metric in wanted:
        values = samples.get(metric["name"])
        if values is None:
            continue
        q1, med, q3 = quartiles(values)
        metrics[metric["name"]] = {"value": med, "unit": metric["unit"]}
        print(f"{metric['name']:48s} {med:12.6g} {metric['unit']:6s} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    for name, unit in (("wall_s", "s"), ("setup_raw_s", "s"), ("probe_ms", "ms")):  # raw figures behind the scaled ones
        if samples.get(name) and not args.trace:
            q1, med, q3 = quartiles(samples[name])
            print(f"{name:48s} {med:12.6g} {unit:6s} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})")
    print(f"{'failed_frac':48s} {failed / max(attempted, 1):12.6g} {'1':6s} ({failed} of {attempted} calls)")
    complete = len(metrics) == len(wanted)
    correct = complete and failed == 0 and deterministic and traced_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
