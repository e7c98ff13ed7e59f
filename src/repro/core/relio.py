"""Serialisation of Boolean relations: PLA text and the node list.

Two formats live here, with separate jobs:

* **PLA text** is the user-facing import/export format (relation files,
  ``{"kind": "pla"}`` specs, :attr:`repro.api.SolveReport.pla`).  It
  enumerates every input vertex, so its size is exponential in the
  number of inputs.  :func:`parse_rows` is the one row parser: it reads
  the text into output-set rows, which :func:`parse_relation` builds as
  nodes and a narrow spec packs straight into a table
  (:func:`repro.core.packedrel.pack_rows`).  :func:`write_rows` is the
  one row formatter: :func:`write_relation` feeds it a relation's rows,
  and a solution held as truth tables feeds it :func:`table_rows`.
* **The node list** (:class:`RelationNodes`) is the internal transport:
  whenever the program moves a relation between managers or processes
  it ships the post-order ``(rank, lo, hi)`` triples of the
  characteristic function (:func:`relation_to_nodes`,
  :func:`relation_from_nodes`).  Both directions are linear in the size
  of the BDD.  Ranks index the relation's variable frame compacted in
  the source manager's level order; refs ``0``/``1`` are the terminals
  and ref ``k + 2`` is triple ``k``.  A narrow list is packed straight
  into a table (:func:`repro.core.packedrel.pack_nodes`) in the manager
  :func:`nodes_manager` gives, the one :func:`relation_from_nodes`
  builds in.  By ROBDD canonicity equal relations over the same frame
  give equal tuples, so the data doubles as an exact cache key.  It is
  also a relation spec kind
  (``{"kind": "nodes", ...}`` in :mod:`repro.api.request`), validated
  by :func:`check_nodes` on ingest.  Resynthesis is the one exception
  to the transport: its windows' relations are mined as truth tables,
  which travel as they are (:meth:`repro.api.Session.solve_tables`).

The gyocro suite distributed BRs as espresso PLA files with one row per
(input cube, permitted output pattern).  This module reads and writes that
dialect:

    .i 2
    .o 2
    .type fr
    # input-plane  output-pattern
    00 01
    10 00
    10 11
    11 1-
    .e

* The input plane uses ``0/1/-`` cube notation.
* Each output pattern is one permitted output *cube* for those inputs —
  several rows with the same input cube union their output sets (that is
  the relation-ness: vertex ``10`` above permits {00, 11}).
* Input vertices not mentioned by any row have an empty output set (the
  relation is then not well defined), matching the strict reading of the
  format; writers always emit every vertex of a well-defined relation.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Set, Tuple)

from ..bdd.manager import FALSE, TRUE, BddManager
from ..bdd.packed import vertex_indices
from ..sop.cube import Cube
from .relation import (MAX_SPEC_INPUTS, MAX_SPEC_OUTPUTS, BooleanRelation,
                       _check_count)

#: One node of the structural format: ``(rank, lo ref, hi ref)``.
NodeTriple = Tuple[int, int, int]


class RelationFormatError(ValueError):
    """Raised on malformed relation files."""


# ----------------------------------------------------------------------
# The node list (internal transport)
# ----------------------------------------------------------------------
class RelationNodes(NamedTuple):
    """A relation as data: its frame and its characteristic function.

    ``inputs`` and ``outputs`` are the frame ranks of the relation's
    input and output variables in positional order; ``nodes`` is the
    post-order triple list and ``root`` the ref of the characteristic
    function.  Instances come from :func:`relation_to_nodes` or
    :func:`check_nodes`, so they are valid by construction; being a
    tuple, one is its own exact, hashable cache key.
    """

    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    nodes: Tuple[NodeTriple, ...]
    root: int

    def spec(self) -> Dict[str, Any]:
        """The ``{"kind": "nodes", ...}`` relation spec of this data."""
        return {"kind": "nodes", "inputs": self.inputs,
                "outputs": self.outputs, "nodes": self.nodes,
                "root": self.root}


def function_nodes(mgr: BddManager, roots: Sequence[int],
                   rank_of_var: Mapping[int, int]
                   ) -> Tuple[Tuple[NodeTriple, ...], Tuple[int, ...]]:
    """Post-order ``(rank, lo, hi)`` triples of the DAG under ``roots``.

    Returns ``(nodes, refs)`` with one ref per root.  Low children are
    emitted before high children, so the list depends only on the
    reduced-BDD structure, never on node ids.  Raises ``ValueError``
    when a node's variable is missing from ``rank_of_var``.
    """
    level, low, high = mgr.level, mgr.low, mgr.high
    refs: Dict[int, int] = {FALSE: 0, TRUE: 1}
    nodes: List[NodeTriple] = []
    for root in roots:
        stack = [root]
        while stack:
            current = stack[-1]
            if current in refs:
                stack.pop()
                continue
            lo, hi = low(current), high(current)
            lo_ref, hi_ref = refs.get(lo), refs.get(hi)
            if lo_ref is None or hi_ref is None:
                if hi_ref is None:
                    stack.append(hi)
                if lo_ref is None:
                    stack.append(lo)
                continue
            stack.pop()
            try:
                rank = rank_of_var[level(current)]
            except KeyError:
                raise ValueError(
                    "function depends on variable %d outside the frame"
                    % level(current)) from None
            refs[current] = len(nodes) + 2
            nodes.append((rank, lo_ref, hi_ref))
    return tuple(nodes), tuple(refs[root] for root in roots)


def build_nodes(mgr: BddManager, nodes: Sequence[NodeTriple],
                variables: Sequence[int]) -> List[int]:
    """Rebuild triples in ``mgr``; rank ``r`` becomes ``variables[r]``.

    Returns the handle of every ref (index = ref).  Each node is one
    ``ite(var, hi, lo)``, O(1) on ``BddManager`` when ``variables`` is
    increasing (the variable-guard path).
    """
    var, ite = mgr.var, mgr.ite
    literals: Dict[int, int] = {}
    built = [FALSE, TRUE]
    append = built.append
    for rank, lo, hi in nodes:
        literal = literals.get(rank)
        if literal is None:
            literal = literals[rank] = var(variables[rank])
        append(ite(literal, built[hi], built[lo]))
    return built


def relation_to_nodes(relation: BooleanRelation) -> RelationNodes:
    """The node list of ``relation`` over its compacted frame.

    The frame is the relation's inputs and outputs sorted by level and
    renumbered ``0..k-1``, so the source manager's variable order (and
    with it the reduced-BDD structure) is preserved.  Raises
    ``ValueError`` when the characteristic function depends on a
    variable outside the frame.
    """
    frame = sorted(set(relation.inputs) | set(relation.outputs))
    rank = {var: index for index, var in enumerate(frame)}
    try:
        nodes, (root,) = function_nodes(relation.mgr, (relation.node,),
                                        rank)
    except ValueError:
        raise ValueError("relation depends on variables outside its "
                         "declared inputs/outputs") from None
    return RelationNodes(tuple(rank[var] for var in relation.inputs),
                         tuple(rank[var] for var in relation.outputs),
                         nodes, root)


def _int_tuple(values: Any, what: str) -> Tuple[int, ...]:
    try:
        out = tuple(values)
    except TypeError:
        raise ValueError("%s must be a list of ints" % what) from None
    for value in out:
        if type(value) is not int:
            raise ValueError("%s must be a list of ints, got %r"
                             % (what, value))
    return out


def check_nodes(data: Any) -> RelationNodes:
    """Validate node-list data (a mapping or a 4-tuple) into tuples.

    Raises ``ValueError`` naming the problem for: frame ranks that
    overlap or fall outside ``0..k-1``; a triple that is not three
    ints, names a rank outside the frame, refers to a missing or later
    triple, has ``lo == hi``, has a child whose rank is not below its
    own, or repeats an earlier triple; and a root ref that does not
    exist.  Every check is local, so validation is linear and a bad
    list can neither hang the rebuild nor yield a wrong relation.
    """
    if isinstance(data, Mapping):
        try:
            data = (data["inputs"], data["outputs"], data["nodes"],
                    data["root"])
        except KeyError as exc:
            raise ValueError("node data lacks %s" % exc) from None
    try:
        inputs, outputs, nodes, root = data
    except (TypeError, ValueError):
        raise ValueError("node data must be (inputs, outputs, nodes, "
                         "root)") from None
    inputs = _int_tuple(inputs, "inputs")
    outputs = _int_tuple(outputs, "outputs")
    width = len(inputs) + len(outputs)
    for rank in inputs + outputs:
        if not 0 <= rank < width:
            raise ValueError("frame rank %d is out of range 0..%d"
                             % (rank, width - 1))
    if len(set(inputs + outputs)) != width:
        raise ValueError("frame ranks overlap (inputs %r, outputs %r)"
                         % (inputs, outputs))
    try:
        rows = list(nodes)
    except TypeError:
        raise ValueError("nodes must be a list of [rank, lo, hi] "
                         "triples") from None
    ranks: List[int] = []
    seen: Set[NodeTriple] = set()
    checked: List[NodeTriple] = []
    for index, row in enumerate(rows):
        try:
            rank, lo, hi = row
        except (TypeError, ValueError):
            raise ValueError("node %d is not a [rank, lo, hi] triple"
                             % index) from None
        if type(rank) is not int or type(lo) is not int \
                or type(hi) is not int:
            raise ValueError("node %d has non-int fields %r"
                             % (index, row))
        if not 0 <= rank < width:
            raise ValueError("node %d has rank %d outside the frame "
                             "0..%d" % (index, rank, width - 1))
        for child in (lo, hi):
            if not 0 <= child < index + 2:
                raise ValueError("node %d refers to ref %d, which is "
                                 "missing or not an earlier node"
                                 % (index, child))
            if child >= 2 and ranks[child - 2] <= rank:
                raise ValueError("node %d (rank %d) has a child of rank "
                                 "%d; children must lie below their "
                                 "parent" % (index, rank, ranks[child - 2]))
        if lo == hi:
            raise ValueError("node %d is redundant (lo == hi == %d)"
                             % (index, lo))
        triple = (rank, lo, hi)
        if triple in seen:
            raise ValueError("node %d duplicates an earlier triple %r"
                             % (index, triple))
        seen.add(triple)
        ranks.append(rank)
        checked.append(triple)
    if type(root) is not int or not 0 <= root < len(checked) + 2:
        raise ValueError("root ref %r does not exist" % (root,))
    return RelationNodes(inputs, outputs, tuple(checked), root)


def nodes_manager(data: RelationNodes) -> BddManager:
    """A fresh manager for node-list data: frame rank ``r`` is variable
    ``r``, named ``x<i>``/``y<j>`` by position exactly as
    :func:`parse_relation` names them."""
    names = [""] * (len(data.inputs) + len(data.outputs))
    for position, rank in enumerate(data.inputs):
        names[rank] = "x%d" % position
    for position, rank in enumerate(data.outputs):
        names[rank] = "y%d" % position
    return BddManager(names)


def relation_from_nodes(data: Any,
                        mgr: Optional[BddManager] = None
                        ) -> BooleanRelation:
    """Rebuild a relation from node-list data, linear in its size.

    ``data`` is a :class:`RelationNodes` (trusted) or anything
    :func:`check_nodes` accepts (validated first).  Without ``mgr`` the
    relation lives in :func:`nodes_manager`'s fresh manager.  A given
    ``mgr`` must already hold the frame: rank ``r`` is its variable
    ``r``.
    """
    if not isinstance(data, RelationNodes):
        data = check_nodes(data)
    width = len(data.inputs) + len(data.outputs)
    if mgr is None:
        mgr = nodes_manager(data)
    elif mgr.num_vars < width:
        raise ValueError("manager lacks variables for this relation")
    built = build_nodes(mgr, data.nodes, range(width))
    return BooleanRelation(mgr, data.inputs, data.outputs,
                           built[data.root])


# ----------------------------------------------------------------------
# PLA text (import/export)
# ----------------------------------------------------------------------
def peek_shape(text: str) -> Tuple[int, int]:
    """Scan just the ``.i`` / ``.o`` header of PLA-dialect text.

    Lets callers learn ``(num_inputs, num_outputs)`` — e.g. to pick a
    shared manager — without building the relation.
    """
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith(".i ") or line.startswith(".o "):
            try:
                value = int(line.split()[1])
            except ValueError:
                raise RelationFormatError("malformed header %r"
                                          % line) from None
            if line.startswith(".i "):
                num_inputs = value
            else:
                num_outputs = value
        if num_inputs is not None and num_outputs is not None:
            return num_inputs, num_outputs
    raise RelationFormatError("missing .i / .o header")


def parse_rows(text: str) -> Tuple[int, int, List[Set[int]]]:
    """Parse PLA-dialect text into ``(num_inputs, num_outputs, rows)``.

    ``rows[v]`` is the set of output vertices the text permits at input
    vertex ``v`` (bit ``i`` of ``v`` is input ``i``, bit ``j`` of an
    output vertex is output ``j``), empty where no row mentions ``v``:
    the tabular notation of
    :meth:`~repro.core.relation.BooleanRelation.from_output_sets`.
    A header past :data:`~repro.core.relation.MAX_SPEC_INPUTS` inputs
    or :data:`~repro.core.relation.MAX_SPEC_OUTPUTS` outputs raises
    ``ValueError`` before any row is allocated.
    """
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    rows: List[Tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".i "):
            num_inputs = int(line.split()[1])
        elif line.startswith(".o "):
            num_outputs = int(line.split()[1])
        elif line.startswith(".type"):
            kind = line.split()[1] if len(line.split()) > 1 else ""
            if kind not in ("fr", "f", "relation", ""):
                raise RelationFormatError("unsupported .type %r" % kind)
        elif line.startswith(".e"):
            break
        elif line.startswith("."):
            continue  # tolerated unknown directives
        else:
            parts = line.split()
            if len(parts) != 2:
                raise RelationFormatError("malformed row %r" % line)
            rows.append((parts[0], parts[1]))
    if num_inputs is None or num_outputs is None:
        raise RelationFormatError("missing .i / .o header")
    # The header is bounded before one output set per input vertex is
    # allocated.
    _check_count("num_inputs", num_inputs, MAX_SPEC_INPUTS)
    _check_count("num_outputs", num_outputs, MAX_SPEC_OUTPUTS)

    output_sets: List[Set[int]] = [set() for _ in range(1 << num_inputs)]
    for in_text, out_text in rows:
        if len(in_text) != num_inputs or len(out_text) != num_outputs:
            raise RelationFormatError("row width mismatch: %s %s"
                                      % (in_text, out_text))
        in_cube = Cube.from_str(in_text)
        out_cube = Cube.from_str(out_text)
        for vertex in in_cube.minterms():
            for out_value in out_cube.minterms():
                output_sets[vertex].add(out_value)
    return num_inputs, num_outputs, output_sets


def parse_relation(text: str,
                   mgr: Optional[BddManager] = None) -> BooleanRelation:
    """Parse the PLA-dialect text into a :class:`BooleanRelation`.

    The rows of :func:`parse_rows`, built as output sets.  When ``mgr``
    is given the relation is built inside that manager (which must
    already hold enough variables), enabling node sharing across
    relations — e.g. a :class:`repro.api.Session` ingesting many
    same-shape relations.
    """
    num_inputs, num_outputs, rows = parse_rows(text)
    return BooleanRelation.from_output_sets(rows, num_inputs, num_outputs,
                                            mgr=mgr)


def write_rows(num_inputs: int, num_outputs: int,
               rows: Iterable[Tuple[int, Iterable[int]]],
               comment: Optional[str] = None) -> str:
    """PLA-dialect text of ``(input vertex, permitted output vertices)``
    rows, one line per pair, output vertices in ascending order.

    The one row formatter: :func:`write_relation` feeds it a relation's
    rows, and a solution held as truth tables feeds it
    :func:`table_rows`.
    """
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append("# %s" % part)
    lines.append(".i %d" % num_inputs)
    lines.append(".o %d" % num_outputs)
    lines.append(".type fr")
    # Bit i of a vertex is character i: the binary digits of
    # ``vertex | 1 << width`` reversed, less the marker bit.
    in_top, out_top = 1 << num_inputs, 1 << num_outputs
    out_texts: Dict[int, str] = {}
    for vertex, outputs in rows:
        in_text = format(vertex | in_top, "b")[:0:-1]
        for out_value in sorted(outputs):
            out_text = out_texts.get(out_value)
            if out_text is None:
                out_text = out_texts[out_value] = \
                    format(out_value | out_top, "b")[:0:-1]
            lines.append("%s %s" % (in_text, out_text))
    lines.append(".e")
    return "\n".join(lines) + "\n"


def write_relation(relation: BooleanRelation,
                   comment: Optional[str] = None) -> str:
    """Serialise a relation to the PLA dialect (one row per (x, y) cube).

    Output sets are written as one output pattern per permitted vertex —
    compact cube-merging of output sets is possible but the explicit form
    round-trips exactly and keeps the writer simple.
    """
    return write_rows(len(relation.inputs), len(relation.outputs),
                      relation.rows(), comment)


def table_rows(tables: Sequence[int], frame: Sequence[int],
               inputs: Sequence[int]) -> Iterator[Tuple[int, Tuple[int]]]:
    """The rows of a function vector held as truth tables, as
    :meth:`~repro.core.relation.BooleanRelation.rows` gives them for
    its functional relation: ``(vertex, (output vertex,))`` per input
    vertex, bit ``i`` of a vertex being ``inputs[i]``.

    ``tables[j]`` is output ``j`` over ``frame`` in the packed layout
    (:mod:`repro.bdd.packed`: ``frame[k]`` on position
    ``len(frame)-1-k``); ``inputs`` lists the frame's variables in
    positional order.
    """
    top = len(frame) - 1
    position = {var: top - k for k, var in enumerate(frame)}
    index = vertex_indices([position[var] for var in inputs])
    marker = 1 << len(index)
    # Character i of each string is the table's bit i.
    bits = [format(table | marker, "b")[:0:-1] for table in tables]
    for vertex, entry in enumerate(index):
        value = 0
        for j, column in enumerate(bits):
            if column[entry] == "1":
                value |= 1 << j
        yield vertex, (value,)


def load_relation(path: str,
                  mgr: Optional[BddManager] = None) -> BooleanRelation:
    """Read a relation file from disk."""
    with open(path, "r", encoding="ascii") as handle:
        return parse_relation(handle.read(), mgr=mgr)


def save_relation(relation: BooleanRelation, path: str,
                  comment: Optional[str] = None) -> None:
    """Write a relation file to disk."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_relation(relation, comment))
