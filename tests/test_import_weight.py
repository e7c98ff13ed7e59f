"""The public entry points load neither numpy, the table engine nor
multiprocessing, the service loads no asyncio, and ``import repro``
loads no equation front end.

Each import runs in a fresh interpreter, so modules the rest of the
suite has already imported cannot hide a module-level import of
``repro.table`` (the stand-ins perfbench reads), of numpy, of
multiprocessing or of asyncio.
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
print(" ".join(sorted(sys.modules)))
"""


def imported_by(module):
    """Every module a fresh interpreter holds after importing ``module``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = subprocess.run([sys.executable, "-c", PROBE, module], env=env,
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    return probe.stdout.split()


@pytest.mark.parametrize("module", ["repro", "repro.resynth",
                                    "repro.service"])
def test_import_loads_no_table_engine(module):
    assert [name for name in imported_by(module)
            if name.split(".")[0] == "numpy"
            or name.startswith("repro.table")] == []


def test_service_import_loads_no_asyncio():
    # The HTTP boundary is the stdlib's threaded server.
    assert [name for name in imported_by("repro.service")
            if name.split(".")[0] == "asyncio"] == []


@pytest.mark.parametrize("module", ["repro", "repro.resynth",
                                    "repro.service"])
def test_import_loads_no_multiprocessing(module):
    # Only solve_many(executor="process") needs a process pool, and it
    # imports one when it starts it.
    assert [name for name in imported_by(module)
            if name.split(".")[0] == "multiprocessing"
            or name == "concurrent.futures.process"] == []


def test_import_repro_loads_no_equations():
    # repro.BooleanSystem and repro.BooleanEquation load the module on
    # first use; a solve of any other spec kind never does.
    assert [name for name in imported_by("repro")
            if name.startswith("repro.equations")] == []
    from repro.equations import BooleanEquation, BooleanSystem
    assert repro.BooleanSystem is BooleanSystem
    assert repro.BooleanEquation is BooleanEquation
    with pytest.raises(AttributeError):
        repro.NoSuchName
