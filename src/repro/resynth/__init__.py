"""End-to-end don't-care resynthesis of real circuits (paper Table 3).

The pipeline ingests a BLIF netlist, windows every candidate cut,
mines per-cut don't-care flexibility as Boolean relations held in
packed truth tables (:mod:`repro.decompose.cutflex`), hands them to
:meth:`repro.api.Session.solve_tables` with a shared report cache, and
rewrites the network with the strictly-improving minimized covers —
verifying every rewrite on its window and the final network at the
combinational outputs.
"""

from .pipeline import resynthesize, resynthesize_network
from .report import RESYNTH_SCHEMA_VERSION, ResynthReport
from .request import (MAX_VERIFY_VECTORS, ResynthRequest, load_circuit,
                      normalize_circuit_spec)
from .window import (CUT_POLICIES, MAX_WINDOW_LEAVES, Window,
                     enumerate_cuts, extract_window)

__all__ = [
    "CUT_POLICIES",
    "MAX_VERIFY_VECTORS",
    "MAX_WINDOW_LEAVES",
    "RESYNTH_SCHEMA_VERSION",
    "ResynthReport",
    "ResynthRequest",
    "Window",
    "enumerate_cuts",
    "extract_window",
    "load_circuit",
    "normalize_circuit_spec",
    "resynthesize",
    "resynthesize_network",
]
