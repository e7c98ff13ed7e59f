"""The public entry points load neither numpy nor the table engine.

Each import runs in a fresh interpreter, so modules the rest of the
suite has already imported cannot hide a module-level import of
``repro.table`` (the stand-ins perfbench reads) or of numpy.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PROBE = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(" ".join(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "numpy" or name.startswith("repro.table"))))
"""


@pytest.mark.parametrize("module", ["repro", "repro.resynth",
                                    "repro.service"])
def test_import_loads_no_table_engine(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = subprocess.run([sys.executable, "-c", PROBE, module], env=env,
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == ""
