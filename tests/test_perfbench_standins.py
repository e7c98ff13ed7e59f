"""What ``perfbench/`` reads from the retired table engine's stand-ins.

``perfbench/run.py`` prints, on the environment line of every result,
which table kernel ``"auto"`` chose at each width, and
``perfbench/compare.py`` refuses to compare results whose lines
differ.  perfbench's tracer looks up
``repro.table.manager.TableManager`` before it checks for ``isop``.
Both readings stay as they were before the engine went, so results on
either side of the deletion compare.
"""

import importlib
import os
import sys
import types

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

#: perfbench's top-level modules this file imports.
MODULES = ("run", "speed", "tracing")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules, imported from its directory."""
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module
    for name in MODULES:
        sys.modules.pop(name, None)


def test_env_line_with_numpy(perfbench, monkeypatch):
    # A stand-in numpy module, so this branch runs with or without numpy
    # installed: the stand-in only asks whether it imports.
    numpy = types.ModuleType("numpy")
    numpy.__version__ = "0"
    monkeypatch.setitem(sys.modules, "numpy", numpy)
    run = perfbench("run")
    environment = run.environment()
    assert environment["numpy"] == "0"
    assert environment["table_kernel_auto"] \
        == {"int": "1-14", "numpy": "15-20"}


def test_env_line_without_numpy(perfbench, monkeypatch):
    run = perfbench("run")
    monkeypatch.setitem(sys.modules, "numpy", None)
    environment = run.environment()
    assert environment["numpy"] is None
    assert environment["table_kernel_auto"] \
        == {"int": "1-16", "none": "17-20"}


def test_tracer_reports_table_isop_unpatched(perfbench):
    from repro.table.manager import TableManager
    assert not hasattr(TableManager, "isop")
    tracer = perfbench("tracing").Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert "repro.table.manager.TableManager.isop" in missing
    assert not [name for name in missing
                if name.startswith("repro.core.brel.")]
