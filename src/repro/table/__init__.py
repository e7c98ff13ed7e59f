"""Stand-ins for the retired table engine, kept only for ``perfbench/``.

The table engine (``TableManager`` and its int and numpy kernels) is
gone: every narrow step of a solve runs on the packed kernel of
:mod:`repro.bdd.packed`, on the BDD engine.  ``perfbench/`` still reads
two names from here — :mod:`.npkernel` for its environment line and
:mod:`.manager` for its tracer — so both remain as stand-ins.  Delete
the package with ROADMAP item 1, step 0 (perfbench follows deletions).
"""
