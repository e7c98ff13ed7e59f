"""Boolean relations represented by BDD characteristic functions.

This is the central data structure of the reproduction (paper
Definitions 4.6 and 6.1): a relation ``R ⊆ B^n × B^m`` stored as the BDD of
its characteristic function ``R(X, Y)``, together with the identities of
the input and output variables inside the shared manager.

All the structural operations the solver needs live here: well-definedness
(left-totality), functionality, projection to ISFs (Definition 5.1), the
covering MISF (Definition 5.2), compatibility of a candidate function
vector (Definition 5.3), and the Split operation (Definition 5.4).

For a relation whose frame has at most 16 variables the solver packs
the root once and calls nothing here while exploring it: its
:class:`~repro.core.packedrel.PackedRelation` answers the same calls
(:meth:`is_function`, :meth:`minimize`, :meth:`conflict_inputs`,
:meth:`split` and the rest) on a truth table.  They all stay public
API, the path for wider relations, and the reference the packed layer
is tested against.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from ..bdd.manager import FALSE, TRUE, BddManager
from ..bdd.traversal import shortest_path_cube
from .cost import CostFunction
from .explore import value_repr
from .isf import Isf, Misf
from .solution import Solution


class NotWellDefinedError(ValueError):
    """Raised when an operation requires a left-total (well-defined) BR."""


#: Most inputs a tabular relation (``output_sets``/``truth_tables``)
#: may declare: 2**18 rows, which build in 0.7 s as output sets and in
#: 2.5 s as two random truth tables (2-core VM, Python 3.11).
MAX_SPEC_INPUTS = 18

#: Most outputs a tabular relation may declare: 200 outputs over two
#: rows solve in 0.35 s, 400 take 4.4 s (same machine).
MAX_SPEC_OUTPUTS = 200


def _check_count(field: str, value: object, bound: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an int (not a bool) in
    ``0..bound``; runs before anything shifts by it."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or not 0 <= value <= bound:
        shown = ("an int of %d bits" % value.bit_length()
                 if isinstance(value, int) and value.bit_length() > 64
                 else value_repr(value))
        raise ValueError("%s must be an int in 0..%d, got %s"
                         % (field, bound, shown))


def check_output_sets(rows: Sequence[Iterable[int]], num_inputs: int,
                      num_outputs: int) -> None:
    """Raise ``ValueError`` unless ``num_inputs``/``num_outputs`` are
    ints within :data:`MAX_SPEC_INPUTS`/:data:`MAX_SPEC_OUTPUTS`,
    ``rows`` has one row per input vertex and every output vertex is an
    int (not a bool) in ``0..2**num_outputs-1``."""
    _check_count("num_inputs", num_inputs, MAX_SPEC_INPUTS)
    _check_count("num_outputs", num_outputs, MAX_SPEC_OUTPUTS)
    if len(rows) != (1 << num_inputs):
        raise ValueError("expected %d rows, got %d"
                         % (1 << num_inputs, len(rows)))
    top = 1 << num_outputs
    for index, row in enumerate(rows):
        for value in row:
            if type(value) is not int or not 0 <= value < top:
                raise ValueError("row %d: output vertex %s is outside "
                                 "0..%d" % (index, value_repr(value),
                                            top - 1))


def check_truth_tables(tables: Sequence[int], num_inputs: int) -> None:
    """Raise ``ValueError`` unless ``num_inputs`` is an int within
    :data:`MAX_SPEC_INPUTS`, there are at most :data:`MAX_SPEC_OUTPUTS`
    tables (one per output) and every table is an int (not a bool) in
    ``0..2**(2**num_inputs)-1``."""
    _check_count("num_inputs", num_inputs, MAX_SPEC_INPUTS)
    _check_count("number of tables", len(tables), MAX_SPEC_OUTPUTS)
    top = 1 << (1 << num_inputs)
    for index, table in enumerate(tables):
        if type(table) is not int or not 0 <= table < top:
            # The bound has 2**num_inputs bits: print its exponent, and
            # only the size of a wide table.
            shown = ("an int of %d bits" % table.bit_length()
                     if type(table) is int and table.bit_length() > 64
                     else value_repr(table))
            raise ValueError("table %d: %s is outside 0..2**%d-1"
                             % (index, shown, 1 << num_inputs))


class BooleanRelation:
    """A Boolean relation over named input and output BDD variables.

    Instances are immutable; operations return new relations sharing the
    same manager (which gives the node-sharing benefits the paper points
    out in Section 7.1).
    """

    __slots__ = ("mgr", "inputs", "outputs", "node")

    def __init__(self, mgr: BddManager, inputs: Sequence[int],
                 outputs: Sequence[int], node: int) -> None:
        self.mgr = mgr
        self.inputs: Tuple[int, ...] = tuple(inputs)
        self.outputs: Tuple[int, ...] = tuple(outputs)
        self.node = node
        if set(self.inputs) & set(self.outputs):
            raise ValueError("input and output variables must be disjoint")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_output_sets(rows: Sequence[Iterable[int]],
                         num_inputs: int, num_outputs: int,
                         mgr: Optional[BddManager] = None
                         ) -> "BooleanRelation":
        """Build a relation from a truth-table-like row list.

        ``rows[i]`` is the set of permitted output vertices (integer
        encoded, bit ``j`` = output ``j``) for the input vertex encoded by
        integer ``i``.  This follows the tabular notation used throughout
        the paper (e.g. Example 4.2).  Raises ``ValueError`` on a wrong
        row count or an output vertex outside ``0..2**num_outputs-1``.

        Each distinct output set's function is built once; the rows are
        then paired level by level from the bottom input up, one
        ``ite(x_i, hi, lo)`` per input-tree node — by canonicity the
        node of the OR of input-minterm times output-set terms.
        """
        check_output_sets(rows, num_inputs, num_outputs)
        if mgr is None:
            mgr = BddManager(["x%d" % i for i in range(num_inputs)]
                             + ["y%d" % j for j in range(num_outputs)])
            input_vars = list(range(num_inputs))
            output_vars = list(range(num_inputs, num_inputs + num_outputs))
        else:
            input_vars = list(range(num_inputs))
            output_vars = list(range(num_inputs, num_inputs + num_outputs))
            if mgr.num_vars < num_inputs + num_outputs:
                raise ValueError("manager lacks variables for this relation")
        by_set = {}
        level = []
        for outputs in rows:
            key = frozenset(outputs)
            node = by_set.get(key)
            if node is None:
                node = by_set[key] = mgr.from_minterms(output_vars,
                                                       sorted(key))
            level.append(node)
        # Row i's bit j is input j, so the last input pairs rows i and
        # i + half.
        for var in reversed(input_vars):
            half = len(level) >> 1
            guard = mgr.var(var)
            level = [mgr.ite(guard, level[i + half], level[i])
                     for i in range(half)]
        return BooleanRelation(mgr, input_vars, output_vars, level[0])

    @staticmethod
    def from_functions(mgr: BddManager, inputs: Sequence[int],
                       outputs: Sequence[int],
                       functions: Sequence[int]) -> "BooleanRelation":
        """The functional relation ``∧_i (y_i ⇔ f_i(X))``."""
        if len(functions) != len(outputs):
            raise ValueError("one function per output required")
        node = TRUE
        for var, func in zip(outputs, functions):
            node = mgr.and_(node, mgr.xnor_(mgr.var(var), func))
        return BooleanRelation(mgr, inputs, outputs, node)

    @staticmethod
    def universe(mgr: BddManager, inputs: Sequence[int],
                 outputs: Sequence[int]) -> "BooleanRelation":
        """The top of the semilattice: ``B^n × B^m`` (Theorem 5.1)."""
        return BooleanRelation(mgr, inputs, outputs, TRUE)

    def with_node(self, node: int) -> "BooleanRelation":
        """Same variable frame, different characteristic function."""
        return BooleanRelation(self.mgr, self.inputs, self.outputs, node)

    # ------------------------------------------------------------------
    # Identity / ordering
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanRelation):
            return NotImplemented
        return (self.mgr is other.mgr and self.node == other.node
                and self.inputs == other.inputs
                and self.outputs == other.outputs)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((id(self.mgr), self.node, self.inputs, self.outputs))

    def __le__(self, other: "BooleanRelation") -> bool:
        """Subset order on relations (the semilattice order of §5.1)."""
        self._check_frame(other)
        return self.mgr.implies(self.node, other.node)

    def __lt__(self, other: "BooleanRelation") -> bool:
        return self <= other and self.node != other.node

    def _check_frame(self, other: "BooleanRelation") -> None:
        if (self.mgr is not other.mgr or self.inputs != other.inputs
                or self.outputs != other.outputs):
            raise ValueError("relations are over different variable frames")

    def __repr__(self) -> str:
        return ("BooleanRelation(inputs=%d, outputs=%d, pairs=%d)"
                % (len(self.inputs), len(self.outputs), self.pair_count()))

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "BooleanRelation") -> "BooleanRelation":
        """Meet (natural join over all variables, Definition 4.7)."""
        self._check_frame(other)
        return self.with_node(self.mgr.and_(self.node, other.node))

    def union(self, other: "BooleanRelation") -> "BooleanRelation":
        """Join of two relations over the same frame."""
        self._check_frame(other)
        return self.with_node(self.mgr.or_(self.node, other.node))

    def pair_count(self) -> int:
        """Number of ``(x, y)`` tuples in the relation."""
        return self.mgr.sat_count(self.node,
                                  list(self.inputs) + list(self.outputs))

    # ------------------------------------------------------------------
    # Well-definedness / functionality
    # ------------------------------------------------------------------
    def is_well_defined(self) -> bool:
        """Left-totality: every input vertex has at least one output."""
        return self.mgr.exists(self.node, self.outputs) == TRUE

    def require_in_frame(self) -> None:
        """Raise ``ValueError`` naming the variables outside the inputs
        and outputs that the characteristic function mentions.

        No step of a solve assigns such a variable, so a solve refuses
        the relation where it starts; its subrelations keep its frame.
        """
        stray = set(self.mgr.support(self.node)).difference(self.inputs,
                                                            self.outputs)
        if stray:
            raise ValueError(
                "relation mentions variables outside its inputs and "
                "outputs: %s" % ", ".join(self.mgr.var_name(var)
                                          for var in sorted(stray)))

    def require_well_defined(self) -> None:
        """Raise :class:`NotWellDefinedError` unless left-total."""
        if not self.is_well_defined():
            raise NotWellDefinedError(
                "relation is not well defined (not left-total)")

    def is_function(self) -> bool:
        """True when every input vertex maps to exactly one output vertex."""
        return (self.is_well_defined()
                and self.pair_count() == (1 << len(self.inputs)))

    def function_vector(self) -> List[int]:
        """Extract ``f_i(X)`` for a functional relation.

        Raises :class:`ValueError` when the relation is not a function
        (some input vertex maps to zero or to several output vertices):
        the per-output extraction below would silently return the
        "may be 1" upper bound of each output, which is *not* a
        solution of the relation.  Use :meth:`project` when the
        per-output flexibility itself is wanted.
        """
        if not self.is_function():
            raise ValueError(
                "function_vector() requires a functional relation "
                "(every input vertex maps to exactly one output "
                "vertex); this one is %s — check is_function() before "
                "extracting, or project() per output for the "
                "flexibility bounds"
                % ("not well defined" if not self.is_well_defined()
                   else "a relation with residual flexibility"))
        result = []
        for var in self.outputs:
            picked = self.mgr.and_(self.node, self.mgr.var(var))
            result.append(self.mgr.exists(picked, self.outputs))
        return result

    # ------------------------------------------------------------------
    # Support analysis (output-block decomposition, repro.core.partition)
    # ------------------------------------------------------------------
    def input_support(self) -> Tuple[int, ...]:
        """Input variables the characteristic function mentions.

        A subset of :attr:`inputs`, in frame order; inputs the relation
        never constrains (and no output depends on) are absent.
        """
        support = set(self.mgr.support(self.node))
        return tuple(var for var in self.inputs if var in support)

    def output_support(self, position: int) -> Tuple[int, ...]:
        """Input variables output ``position`` depends on.

        The support of the relation projected onto ``(X, y_i)`` —
        i.e. the inputs that can influence which values output
        ``position`` may take.  These are the edges of the
        output–input support graph that drives
        :func:`repro.core.partition.partition_relation`.
        """
        var = self.outputs[position]
        others = [v for v in self.outputs if v != var]
        projected = self.mgr.exists(self.node, others)
        input_set = set(self.inputs)
        return tuple(v for v in self.mgr.support(projected)
                     if v in input_set)

    def output_supports(self) -> List[Tuple[int, ...]]:
        """Per-output input supports (one tuple per output position)."""
        return [self.output_support(position)
                for position in range(len(self.outputs))]

    # ------------------------------------------------------------------
    # Projection / MISF (paper §5.2)
    # ------------------------------------------------------------------
    def project(self, position: int) -> Isf:
        """Project onto output ``position`` (Definition 5.1) as an ISF.

        For a well-defined relation the projection yields, per input
        vertex, the set of values output ``y_i`` may take; the ISF interval
        is ``[~allows0, allows1]``.
        """
        var = self.outputs[position]
        others = [v for v in self.outputs if v != var]
        projected = self.mgr.exists(self.node, others)
        allows0 = self.mgr.cofactor(projected, var, False)
        allows1 = self.mgr.cofactor(projected, var, True)
        on = self.mgr.diff(allows1, allows0)
        dc = self.mgr.and_(allows0, allows1)
        return Isf(self.mgr, on, dc, self.inputs)

    def misf(self) -> Misf:
        """The covering MISF obtained by projecting every output."""
        return Misf([self.project(i) for i in range(len(self.outputs))])

    def minimize(self, position: int,
                 minimizer: Callable[[Isf], int]) -> int:
        """Output ``position``'s ISF minimised by ``minimizer``."""
        return minimizer(self.project(position))

    def misf_relation(self) -> "BooleanRelation":
        """The MISF as a relation: join of the single-output projections.

        Properties 5.2 / 5.3: the result contains ``self`` and is the
        smallest MISF-shaped relation doing so.
        """
        node = TRUE
        for position, var in enumerate(self.outputs):
            isf = self.project(position)
            component = self.mgr.or_(
                self.mgr.and_(self.mgr.var(var), isf.upper),
                self.mgr.and_(self.mgr.nvar(var),
                              self.mgr.not_(isf.on)))
            node = self.mgr.and_(node, component)
        return self.with_node(node)

    def is_misf(self) -> bool:
        """True when the relation already has MISF (per-output) shape."""
        return self.node == self.misf_relation().node

    # ------------------------------------------------------------------
    # Compatibility (paper Definition 5.3)
    # ------------------------------------------------------------------
    def function_characteristic(self, functions: Sequence[int]) -> int:
        """Characteristic function of the vector ``Y = F(X)``."""
        if len(functions) != len(self.outputs):
            raise ValueError("one function per output required")
        node = TRUE
        for var, func in zip(self.outputs, functions):
            node = self.mgr.and_(node,
                                 self.mgr.xnor_(self.mgr.var(var), func))
        return node

    def is_compatible(self, functions: Sequence[int]) -> bool:
        """Is the multiple-output function a solution (``F ⊆ R``)?"""
        return self.incompatibilities(functions) == FALSE

    def incompatibilities(self, functions: Sequence[int]) -> int:
        """``Incomp(F, R) = F \\ R`` as a characteristic function."""
        f_char = self.function_characteristic(functions)
        return self.mgr.diff(f_char, self.node)

    def conflict_inputs(self, functions: Sequence[int]) -> int:
        """Input-space projection of the incompatibilities (§7.4's C)."""
        return self.mgr.exists(self.incompatibilities(functions),
                               self.outputs)

    def conflict_cube(self, conflicts: int) -> Optional[Dict[int, bool]]:
        """The largest cube of the conflict set ``conflicts`` (its
        shortest BDD path), or ``None`` when it is empty."""
        return shortest_path_cube(self.mgr, conflicts)

    def solution(self, functions: Sequence[int],
                 cost_function: CostFunction) -> Solution:
        """The function vector ``functions``, priced by
        ``cost_function``."""
        functions = tuple(functions)
        return Solution(self.mgr, functions,
                        cost_function(self.mgr, functions))

    # ------------------------------------------------------------------
    # Split (paper Definition 5.4)
    # ------------------------------------------------------------------
    def split(self, vertex: Mapping[int, bool], position: int
              ) -> Tuple["BooleanRelation", "BooleanRelation"]:
        """Split at input vertex ``vertex`` on output ``position``.

        Returns ``(R_y0, R_y1)`` where ``R_y0`` removes the tuples with
        ``y_i = 1`` at the vertex (forcing the output to 0 there) and
        ``R_y1`` the mirror image.  Theorem 5.2: both are well defined and
        strictly smaller iff the projected ISF has a don't care at the
        vertex.
        """
        if set(vertex) != set(self.inputs):
            raise ValueError("split vertex must assign every input variable")
        var = self.outputs[position]
        x_cube = self.mgr.cube(dict(vertex))
        keep0 = self.mgr.diff(self.node,
                              self.mgr.and_(x_cube, self.mgr.var(var)))
        keep1 = self.mgr.diff(self.node,
                              self.mgr.and_(x_cube, self.mgr.nvar(var)))
        return self.with_node(keep0), self.with_node(keep1)

    def can_split(self, vertex: Mapping[int, bool], position: int) -> bool:
        """Theorem 5.2 precondition: ``(R ↓ y_i)(x) = {0, 1}``."""
        isf = self.project(position)
        return self.mgr.eval(isf.dc, dict(vertex))

    def restrict_output(self, position: int, function: int
                        ) -> "BooleanRelation":
        """Constrain output ``position`` to follow ``function`` (Fig. 4)."""
        var = self.outputs[position]
        constraint = self.mgr.xnor_(self.mgr.var(var), function)
        return self.with_node(self.mgr.and_(self.node, constraint))

    # ------------------------------------------------------------------
    # Enumeration / pretty printing
    # ------------------------------------------------------------------
    def output_set(self, input_value: int) -> Set[int]:
        """The set of permitted output vertices for one input vertex."""
        assignment = {var: bool((input_value >> i) & 1)
                      for i, var in enumerate(self.inputs)}
        restricted = self.mgr.restrict_cube(self.node, assignment)
        return set(self.mgr.minterms(restricted, self.outputs))

    def rows(self) -> Iterator[Tuple[int, Set[int]]]:
        """Iterate ``(input_value, output_set)`` rows (small inputs only)."""
        for value in range(1 << len(self.inputs)):
            yield value, self.output_set(value)

    def to_table(self) -> str:
        """Render the tabular representation used in the paper's examples."""
        n, m = len(self.inputs), len(self.outputs)
        header_in = " ".join(self.mgr.var_name(v) for v in self.inputs)
        header_out = " ".join(self.mgr.var_name(v) for v in self.outputs)
        lines = ["%s | %s" % (header_in, header_out)]
        for value, outs in self.rows():
            bits = "".join("1" if (value >> i) & 1 else "0"
                           for i in range(n))
            out_text = ", ".join(
                "".join("1" if (o >> j) & 1 else "0" for j in range(m))
                for o in sorted(outs))
            lines.append("%s | {%s}" % (bits, out_text))
        return "\n".join(lines)
