"""A placeholder for the retired per-solve subproblem layer.

Every relation is solved from scratch now, so nothing routes
subproblems any more.  :class:`SubproblemRouter` remains only because
the ``perfbench/`` tracer imports this module and reads the class
before it checks for the methods it wraps; without the name a traced
run fails.  Delete the module once that tracer skips missing classes.
"""

__all__ = ["SubproblemRouter"]


class SubproblemRouter:
    """No behaviour: kept as a name for the ``perfbench/`` tracer."""
