"""Importing the package stays cheap: every CLI process pays for it before any work.

Records are NamedTuples or plain classes, whose classes are made about ten
times faster than dataclasses, and `fractions` is imported only by
`certify.quotient_matrix`, which no command calls. The CLI's parser is built
by the first `cli.main` call, not at import. The probe first imports what
the package needs from outside it, so only the modules regclique itself adds
are checked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import regclique

PROBE = """
import argparse, json, sys
import numpy
before = set(sys.modules)
import regclique, regclique.cli
dataclasses = sorted(
    f"{name}.{key}"
    for name, module in list(sys.modules.items())
    if name == "regclique" or name.startswith("regclique.")
    for key, value in vars(module).items()
    if isinstance(value, type) and "__dataclass_fields__" in vars(value)
)
print(json.dumps({
    "loaded": sorted({"dataclasses", "fractions"} & (set(sys.modules) - before)),
    "dataclasses": dataclasses,
    "parsers_built": regclique.cli._parser.cache_info().currsize,
}))
"""


def test_import_adds_neither_dataclasses_nor_fractions():
    src = str(Path(regclique.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "dataclasses": [], "parsers_built": 0}
