"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/report.py                      # 10 seeds x every workload
    python3 perfbench/report.py --runs 5 --workload certify_large
    python3 perfbench/report.py --trace              # per-layer metrics instead
    python3 perfbench/report.py --out perfbench/baseline.json

Each run is the command of BENCHMARK.json with its `run_seconds`, exactly as
a single measured run. For every workload and metric it prints the median of
the per-run values, their quartiles (`statistics.quantiles(n=4)`), the spread
(q3 - q1) / median against the metric's bound, and the failed share of all
CLI calls attempted. `--out` also writes all of it, the per-run values and the
environment, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    for line in lines:
        if "FAILED" in line:  # failed calls and failed tracing self-checks
            print(f"  {workload} seed {seed}: {line}", file=sys.stderr)
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None, env
    return json.loads(lines[-1]), env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {w: [] for w in workloads}
    env = None
    for seed in range(1, args.runs + 1):
        for workload in workloads:  # alternate workloads so host drift spreads over all
            t0 = time.perf_counter()
            result, run_env = run_once(spec, workload, seed, args.trace)
            took = time.perf_counter() - t0
            env = env or run_env
            results[workload].append((seed, result, took))
            status = "no result" if result is None else f"correct={result['correct']}"
            print(f"  {workload} seed {seed}: {status} in {took:.1f} s", file=sys.stderr, flush=True)

    summary = {"env": env, "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload, runs in results.items():
        done = [r for _, r, _ in runs if r is not None]
        took = [t for _, _, t in runs]
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        correct = len(done) == len(runs) and all(r["correct"] for r in done)
        ok &= correct
        print(f"{workload}: {len(done)}/{len(runs)} runs of {statistics.mean(took):.1f} s (max {max(took):.1f}), "
              f"correct={correct}, failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted} calls)")
        entry = {"runs": len(runs), "run_s": took, "correct": correct, "attempted": attempted, "failed": failed,
                 "failed_frac": failed / max(attempted, 1), "metrics": {}}
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in done if metric["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med > 0 else None  # no share of a zero or negative median
            bound = metric.get("bound")
            mark = "" if bound is None else f"  bound {bound:g} ({'ok' if spread is not None and spread <= bound / 3 else 'WIDE'})"
            shown = "-" if spread is None else f"{spread:.4f}"
            print(f"  {metric['name']:46s} {med:12.6g} {metric['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {shown}{mark}")
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": values,
            }
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
