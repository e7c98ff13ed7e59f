"""The paper's application: BR-driven logic decomposition (Section 10)."""

from .cutflex import (CutError, CutResynthesis, cut_flexibility_relation,
                      cut_flexibility_table, realize_template,
                      resynthesize_cut)
from .flow import (ComparisonRow, FlowMetrics, compare_flows, run_baseline,
                   run_decomposed)
from .gatedec import (DecompositionResult, and_function,
                      decompose_with_gate, decomposition_relation,
                      mux_function, or_function, xor_function)
from .muxlatch import (MuxLatchResult, MuxLatchStats, decompose_mux_latches,
                       evaluation_frame)

__all__ = [
    "ComparisonRow",
    "CutError",
    "CutResynthesis",
    "cut_flexibility_relation",
    "cut_flexibility_table",
    "realize_template",
    "resynthesize_cut",
    "DecompositionResult",
    "FlowMetrics",
    "MuxLatchResult",
    "MuxLatchStats",
    "and_function",
    "compare_flows",
    "decompose_mux_latches",
    "decompose_with_gate",
    "decomposition_relation",
    "evaluation_frame",
    "mux_function",
    "or_function",
    "run_baseline",
    "run_decomposed",
    "xor_function",
]
