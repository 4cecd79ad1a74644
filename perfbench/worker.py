"""One benchmark pass, run in a fresh process by `run.py`.

    python3 worker.py '<json spec>'

The spec names the source directory, a scratch directory for output files,
the CLI calls to make (`[id, kind, argv]` each) and whether to trace. The
worker times `import regclique`, calls `regclique.cli.main` once per call,
then reports one JSON object on its last stdout line: set-up time, the pass's
wall time (first call to last return, less the probe's own time), peak RSS,
an observation of every call's output, the host-speed probe samples (around
the import, and over the pass when untraced) and, when tracing, per-span call
counts and times.

Only modules already loaded are imported before the timed import, so set-up time
includes everything `regclique` pulls in (numpy, json, argparse, ...);
`os`, `sys` and `time` are loaded by interpreter start-up anyway. Before it
only the built-in `signal` module is loaded, for the host-speed probe, whose
kernel (timed around the import) uses builtins only.
"""

import os
import signal
import sys
import time


def main() -> int:
    speed = [time_probe_kernel() for _ in range(SETUP_PROBE_SAMPLES)]
    t0 = time.perf_counter()
    import regclique
    import regclique.cli

    setup_s = time.perf_counter() - t0
    speed += [time_probe_kernel() for _ in range(SETUP_PROBE_SAMPLES)]

    import json

    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(regclique.__file__).startswith(src + os.sep):
        print(f"worker: imported regclique from {regclique.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    result = {"setup_s": setup_s, "setup_probe_s": speed, "python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__}
    if spec["calls"]:
        # an untraced pass probes host speed; a traced one does not, so spans hold only regclique's time
        result.update(run_calls(regclique.cli, spec["calls"], spec["workdir"], probe_speed=tracer is None))
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


def run_calls(cli, calls, workdir, probe_speed: bool) -> dict:
    """Make every call, then observe the outputs (outside the timed span)."""
    import contextlib
    import io
    import resource

    outcomes = []
    first = last = None
    probe = SpeedProbe()
    with probe if probe_speed else contextlib.nullcontext():
        for call_id, kind, argv in calls:
            out = os.path.join(workdir, call_id) if kind in ("certify", "export") else None
            stdout = io.StringIO()
            start = time.perf_counter()
            first = start if first is None else first
            try:
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(list(argv) + (["--out", out] if out else []))
                error = None
            except SystemExit as exc:
                code, error = exc.code, "SystemExit"
            except Exception as exc:  # a crashing call is a failed call, not a crashed pass
                code, error = None, f"{type(exc).__name__}: {exc}"
            last = time.perf_counter()
            outcomes.append((call_id, kind, out, code, error, stdout.getvalue().encode()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    observed = {}
    bytes_written = 0
    for call_id, kind, out, code, error, stdout in outcomes:
        obs = {"exit": code}
        if error is not None:
            obs["error"] = error
        bytes_written += len(stdout)
        if out is not None and os.path.exists(out):
            bytes_written += os.path.getsize(out)
        if code == 0:
            obs.update(observe(kind, out, stdout))
        if out is not None and os.path.exists(out):
            os.remove(out)
        observed[call_id] = obs
    return {
        "wall_s": last - first - sum(probe.samples),
        "probe_s": probe.samples,
        "peak_rss_mb": peak_rss_mb,
        "observed": observed,
        "bytes_written": bytes_written,
    }


def observe(kind, out, stdout) -> dict:
    import hashlib
    import json

    if kind == "certify":
        with open(out) as fh:
            return {"certificate": json.load(fh)}
    digest = hashlib.sha256()
    if kind == "search":
        digest.update(stdout)
    else:
        with open(out, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return {"sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# host speed

PROBE_INTERVAL_S = 0.05
SETUP_PROBE_SAMPLES = 10  # kernel runs just before and just after the timed import


def probe_kernel() -> int:
    """A fixed piece of interpreter work (dict stores, int to str): the host-speed yardstick.

    It is plain bytecode like most of regclique's time, and on the benchmark's
    host its time tracked regclique's calls more closely than numpy kernels did.
    """
    total, table = 0, {}
    for i in range(3000):
        table[(i * 2654435761) & 0xFFFF] = i
        total += len(str(i))
    return total


def time_probe_kernel() -> float:
    start = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """While active, times `probe_kernel` every PROBE_INTERVAL_S of wall time.

    The kernel runs in a SIGALRM handler, between two bytecodes of whatever
    the process is doing, so the samples are spread evenly over the pass and
    track the host's speed during it. The caller subtracts the samples' sum
    from its own timing.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(time_probe_kernel())

    def __enter__(self):
        probe_kernel()  # warm, outside the samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


# ---------------------------------------------------------------------------
# tracing


# span name -> functions it times, as (module, attribute path). Each function
# is replaced in every regclique namespace that binds it, so calls made inside
# the package (cli -> assemble_certificate, numtheory -> find_primitive_element)
# are caught too. Graph.common_neighbours is left alone on purpose: it runs
# about 10^6 times per pass and a wrapper would dominate its cost.
SPANS = {
    "cli.main": [("regclique.cli", "main")],
    "cli.write_dimacs": [("regclique.cli", "write_dimacs")],
    "cli.write_edge_list": [("regclique.cli", "write_edge_list")],
    "certify.assemble_certificate": [("regclique.certify", "assemble_certificate")],
    "certify.check_edge_regular": [("regclique.certify", "check_edge_regular")],
    "certify.check_strongly_regular": [("regclique.certify", "check_strongly_regular")],
    "certify.clique_nexus": [("regclique.certify", "clique_nexus")],
    "certify.predictions": [
        ("regclique.certify", "predicted_local_valencies"),
        ("regclique.certify", "predicted_mu_witness"),
    ],
    "certify.to_json": [("regclique.certify", "Certificate.to_json")],
    "construction.build_cayley_graph": [("regclique.construction", "build_cayley_graph")],
    "construction.generating_set": [("regclique.construction", "generating_set")],
    "graphcore.neighbours": [("regclique.graphcore", "Graph.neighbours")],
    "fields.find_primitive_element": [("regclique.fields", "find_primitive_element")],
    "fields.build_field": [("regclique.fields", "build_field")],
    "cyclotomy.cyclotomic_number": [("regclique.cyclotomy", "cyclotomic_number")],
    "numtheory.search": [("regclique.numtheory", "search_m2"), ("regclique.numtheory", "search_m3")],
}


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


class Tracer:
    """Nested spans kept in memory: per name, calls, total and self seconds.

    A span's self time is its duration minus the durations of the spans it
    directly encloses.
    """

    def __init__(self):
        self.stack = []  # [span name, seconds spent in child spans]
        self.stats = {}  # span name -> [calls, total seconds, self seconds]
        self.build_rss_delta_mb = 0.0  # largest resident growth over one graph build
        self.search_hits = 0
        self.search_fields = 0  # fields built while a search span is open
        self.missing = []  # SPANS targets the package no longer has

    def install(self) -> None:
        import importlib

        modules = [m for name, m in list(sys.modules.items()) if name == "regclique" or name.startswith("regclique.")]
        for span, targets in SPANS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0], None)
                original = getattr(owner, attr, None)
                if original is None:  # gone from the package: run.py fails the run
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapper = self._wrap(span, original)
                setattr(owner, attr, wrapper)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, span, fn):
        import functools

        stack, stats = self.stack, self.stats
        perf_counter = time.perf_counter
        is_field = span == "fields.build_field"
        is_build = span == "construction.build_cayley_graph"
        is_search = span == "numtheory.search"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            if is_field and any(f[0] == "numtheory.search" for f in stack):
                self.search_fields += 1
            rss_before = _current_rss_mb() if is_build else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = stats.setdefault(span, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if rss_before is not None:
                self.build_rss_delta_mb = max(self.build_rss_delta_mb, _current_rss_mb() - rss_before)
            if is_search:
                self.search_hits += len(result)
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "spans": {name: {"calls": c, "s": s, "self_s": own} for name, (c, s, own) in self.stats.items()},
            "build_rss_delta_mb": self.build_rss_delta_mb,
            "search_hits": self.search_hits,
            "search_fields": self.search_fields,
            "missing": self.missing,
        }


if __name__ == "__main__":
    sys.exit(main())
