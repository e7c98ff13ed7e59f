"""Stand-in for the retired numpy table kernel, kept only for
``perfbench/``.

``perfbench/run.py`` prints, on the environment line every result
carries, which kernel ``"auto"`` picked at each width up to
:data:`MAX_NUMPY_TABLE_WIDTH`, and refuses to compare results whose
lines differ.  :func:`resolve_kernel` answers with the mapping the
engine had, so the line reads as it did.  Delete this module with
ROADMAP item 1, step 0 (perfbench follows deletions).
"""

#: The widest frame the numpy kernel took.
MAX_NUMPY_TABLE_WIDTH = 20


def resolve_kernel(kernel, width: int) -> str:
    """The kernel ``"auto"`` chose for ``width`` variables: ``"numpy"``
    above 14 when numpy imports, ``"int"`` up to 16 otherwise, and a
    ``ValueError`` above 16 without numpy.  ``kernel`` is not read:
    ``"auto"`` is the only mapping kept."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        if width > 16:
            raise ValueError("table widths beyond 16 needed numpy")
        return "int"
    return "numpy" if width > 14 else "int"
