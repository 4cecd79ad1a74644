"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload's calls once, in a worker like a measured pass, and writes
`reference.json`: for certify calls the certificate fields that
`workloads.certificate_summary` pins, for export and search calls the sha256
of the file or stdout bytes. Re-record only when a change to regclique alters
these outputs on purpose, and say so in CHANGES.md.
"""

import json
import sys

from run import HERE, TIME_LIMIT_S, scratch_dir, spawn
from workloads import WORKLOADS, certificate_summary


def main() -> int:
    reference = {}
    with scratch_dir() as workdir:
        for calls in WORKLOADS.values():
            report = spawn(calls, workdir, False, TIME_LIMIT_S)
            if report is None:
                return 1
            for call in calls:
                observed = report["observed"][call.id]
                if observed["exit"] != 0:
                    print(f"{call.id} exited {observed['exit']}; nothing recorded", file=sys.stderr)
                    return 1
                if call.kind == "certify":
                    reference[call.id] = {"kind": call.kind, "summary": certificate_summary(observed["certificate"])}
                else:
                    reference[call.id] = {"kind": call.kind, "sha256": observed["sha256"]}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    print(f"recorded {len(reference)} calls in {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
