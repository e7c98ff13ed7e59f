"""Stand-in for the retired ``TableManager``, kept only for
``perfbench/``.

perfbench's tracer imports this module and reads the class before it
checks for the ``isop`` method it wraps; without the name a traced run
fails.  The empty class lets it report that binding as unpatched.
Delete this module with ROADMAP item 1, step 0 (perfbench follows
deletions).
"""

__all__ = ["TableManager"]


class TableManager:
    """No behaviour: kept as a name for the ``perfbench/`` tracer."""
