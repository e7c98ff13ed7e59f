"""Bit-parallel truth-table function engine for narrow relations.

:class:`TableManager` implements the :class:`repro.bdd.FunctionBackend`
protocol with packed truth tables instead of BDD nodes: a function over
``n`` variables is its full ``2**n``-bit truth table, and every
connective/quantifier/cofactor is a handful of word-wise bitwise
operations on it.  Two kernels hold the raw bits — one Python bigint
per table (``n <= 16``), or a ``numpy.uint64`` word array
(``n <= 20``, optional dependency, selected via the ``kernel`` knob or
``REPRO_TABLE_KERNEL``).  It is a standalone engine: a relation built
on a :class:`TableManager` solves there, and nothing moves a relation
between engines.
"""

from .manager import (KERNEL_CHOICES, MAX_NUMPY_TABLE_WIDTH,
                      MAX_TABLE_WIDTH, TableManager)
from .npkernel import NUMPY_CROSSOVER_WIDTH

__all__ = ["KERNEL_CHOICES", "MAX_NUMPY_TABLE_WIDTH", "MAX_TABLE_WIDTH",
           "NUMPY_CROSSOVER_WIDTH", "TableManager"]
