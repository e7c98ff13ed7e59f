"""The resynthesis pipeline: network -> relations -> solver -> network.

One pass over the network:

    enumerate cuts  ->  window them  ->  mine flexibility tables
        ->  hand them to Session.solve_tables (shared cache)
        ->  price the solutions' rank covers  ->  realize and accept
            strictly-improving rewrites  ->  sweep

Each window's flexibility relation is mined as one packed truth table
in the solver's root layout (:func:`cut_flexibility_table`), with no
BDD manager.  A pass dedups its ``(n, m, table)`` triples and hands
them, with one options-only :class:`~repro.api.SolveRequest`, to the
session, which builds a relation only for a cache miss and solves it
in this process: a round's relations take a fraction of a millisecond
each, less than a process pool costs to start.  A solution
comes back as its entry's rank template (one ISOP cover per output
over the relation's inputs).  Its literal count is the rewrite's cost,
and only a rewrite that costs less than the cut becomes covers over
the window's leaves, by renaming alone (:func:`realize_template`).
Every accepted rewrite is verified exhaustively on its window, in
place, before it sticks, and the final network is checked against the
original at the combinational outputs (exhaustively for narrow frames,
on seeded random vectors for wide ones).  Both checks simulate the
vectors bit-parallel and compare output masks.  Rejected or
conflicting candidates are counted, never silently dropped.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple

from ..api.session import Session
from ..bdd.packed import frame_masks
from ..decompose.cutflex import cut_flexibility_table, realize_template
from ..network.blif import write_blif
from ..network.netlist import LogicNetwork
from ..network.simulate import (exhaustive_outputs, output_masks,
                                random_leaf_masks, signal_masks)
from .report import ResynthReport
from .request import ResynthRequest, load_circuit
from .window import Window, enumerate_cuts, extract_window


#: A mined relation: its leaf count, its cut size and its table.
Mined = Tuple[int, int, int]
#: Nodes' ``(fanins, cover)`` pairs, by node name.
Covers = Dict[str, Tuple[List[str], Any]]


class _Candidate:
    """One windowed cut awaiting its solved relation."""

    __slots__ = ("cut", "window", "relation", "old_literals")

    def __init__(self, cut: Tuple[str, ...], window: Window,
                 relation: Mined, old_literals: int) -> None:
        self.cut = cut
        self.window = window
        self.relation = relation
        self.old_literals = old_literals


def _mine_candidates(network: LogicNetwork, request: ResynthRequest,
                     counters: Dict[str, int]) -> List[_Candidate]:
    """Window every candidate cut and extract its flexibility relation.

    The network does not change while a pass mines, so its fanouts,
    topological order and outputs are computed once for every window,
    and each window is mined in place on it.
    """
    fanouts = network.fanouts()
    order = network.topological_order()
    position = {name: index for index, name in enumerate(order)}
    outputs = set(network.combinational_outputs())
    cuts = enumerate_cuts(network, request.cut_policy, request.max_nodes,
                          order=order)
    counters["candidates"] = len(cuts)
    candidates: List[_Candidate] = []
    for cut in cuts:
        window = extract_window(network, cut, max_leaves=request.window,
                                tfo_depth=request.tfo_depth,
                                fanouts=fanouts, position=position,
                                outputs=outputs)
        if window is None:
            counters["windows_skipped"] += 1
            continue
        candidates.append(_Candidate(
            cut=cut, window=window,
            relation=cut_flexibility_table(network, cut, window),
            old_literals=sum(
                network.nodes[name].cover.literal_count()
                for name in cut)))
    counters["relations_mined"] = len(candidates)
    return candidates


def _closes_cycle(network: LogicNetwork, cut: Tuple[str, ...]) -> bool:
    """Whether a rewritten cut node now lies in its own transitive fanin.

    The network was acyclic before the cut's new fanins went in, so any
    cycle runs through one of them into a cut node; searching each cut
    node's fanin cone for the node itself finds every such cycle.
    """
    nodes = network.nodes
    for name in cut:
        if name not in nodes:
            continue
        stack = list(nodes[name].fanins)
        seen = set()
        while stack:
            signal = stack.pop()
            if signal == name:
                return True
            if signal in seen or signal not in nodes:
                continue
            seen.add(signal)
            stack.extend(nodes[signal].fanins)
    return False


def _install(network: LogicNetwork, covers: Covers) -> None:
    """Give each named node of ``network`` its ``(fanins, cover)``."""
    for name, (fanins, cover) in covers.items():
        node = network.nodes[name]
        node.fanins = list(fanins)
        node.cover = cover


def _verify_window(network: LogicNetwork, window: Window, before: Covers,
                   after: Covers) -> bool:
    """Whether the cut's ``after`` covers keep the window roots that
    ``before`` gives, each installed and simulated exhaustively in place
    on the host, which keeps ``after``."""
    _, ones = frame_masks(len(window.leaves))
    pins = dict(zip(window.leaves, ones))

    def roots(covers: Covers) -> List[int]:
        _install(network, covers)
        values = signal_masks(network, (), 1 << len(window.leaves),
                              pinned=pins, order=window.nodes)
        return [values[root] for root in window.roots]

    return roots(before) == roots(after)


def _apply_pass(network: LogicNetwork, candidates: List[_Candidate],
                reports_by_relation: Dict[Mined, Any],
                counters: Dict[str, int]) -> int:
    """Realize solved relations and install the improving rewrites.

    Returns the number of accepted rewrites.  ``network`` is mutated in
    place; every mutation is rolled back unless it passes the
    structural (acyclicity) and window-equivalence checks.

    A candidate is priced on its template before it is realised: the
    template's literal count is its realised covers' count, because
    realising renames rank ``i`` to leaf ``i`` and both the ranks of a
    cube and the leaves of a window are distinct.  So only a candidate
    that passes the cost and conflict tests is realised.
    """
    accepted = 0
    dirty: set = set()
    for candidate in candidates:
        report = reports_by_relation[candidate.relation]
        if not report.ok:
            counters["solver_failures"] += 1
            continue
        template = report.solution_template()
        if template is None:
            counters["unrealized"] += 1
            continue
        new_literals = sum(len(cube) for cover in template for cube in cover)
        if new_literals >= candidate.old_literals:
            counters["rejected_cost"] += 1
            continue
        if dirty.intersection(candidate.window.nodes):
            # A previous rewrite changed a node inside this window, so
            # the mined flexibility is stale; retry next pass.
            counters["skipped_conflict"] += 1
            continue
        # Rank i of the template is input i of the window's relation,
        # i.e. the window's i-th leaf.
        realized = realize_template(template, candidate.window.leaves)
        new_covers = dict(zip(candidate.cut, realized))
        saved = {name: (network.nodes[name].fanins,
                        network.nodes[name].cover)
                 for name in candidate.cut}
        _install(network, new_covers)
        if _closes_cycle(network, candidate.cut):
            # The new support reconverges through the cut: a cycle.
            _install(network, saved)
            counters["rejected_cycle"] += 1
            continue
        if not _verify_window(network, candidate.window, saved,
                              new_covers):
            _install(network, saved)
            counters["rejected_verify"] += 1
            continue
        dirty.update(candidate.window.nodes)  # the cut among them
        accepted += 1
    counters["accepted"] = accepted
    return accepted


def _verify_final(original: LogicNetwork, rewritten: LogicNetwork,
                  request: ResynthRequest
                  ) -> Tuple[Optional[bool], Optional[str], Optional[int]]:
    """Whole-network equivalence check at the combinational outputs."""
    if request.verify == "none":
        return None, None, None
    leaves = original.combinational_inputs()
    method = request.verify
    if method == "auto":
        method = ("exhaustive"
                  if len(leaves) <= request.verify_exhaustive_limit
                  else "signature")
    if method == "exhaustive":
        if len(leaves) > 16:
            method = "signature"  # exhaustive_outputs' hard cap
        else:
            same = exhaustive_outputs(original) == \
                exhaustive_outputs(rewritten)
            return same, "exhaustive", 1 << len(leaves)
    count = request.verify_vectors
    if len(leaves) < 30:
        count = min(count, 1 << len(leaves))
    masks = random_leaf_masks(random.Random(request.seed), len(leaves),
                              count)
    same = output_masks(original, masks, count) == \
        output_masks(rewritten, masks, count)
    return same, "signature", count


def resynthesize_network(network: LogicNetwork, request: ResynthRequest,
                         session: Optional[Session] = None
                         ) -> Tuple[LogicNetwork, ResynthReport]:
    """Run the full pipeline on a parsed network.

    Returns ``(rewritten_network, report)``.  The input network is not
    mutated.  A shared ``session`` carries its report cache across
    calls — the service layer passes its own.
    """
    started = time.perf_counter()
    if session is None:
        session = Session()
    original = network
    net = network.copy()
    solve_request = request.solver_request(None)
    pass_records: List[Dict[str, Any]] = []
    total_mined = 0
    total_solved = 0
    total_accepted = 0

    for index in range(request.passes):
        pass_started = time.perf_counter()
        counters: Dict[str, int] = {
            "candidates": 0, "windows_skipped": 0, "relations_mined": 0,
            "unique_relations": 0, "solver_failures": 0, "unrealized": 0,
            "rejected_cost": 0, "skipped_conflict": 0,
            "rejected_cycle": 0, "rejected_verify": 0, "accepted": 0,
        }
        candidates = _mine_candidates(net, request, counters)
        # The mined triple is an exact key: equal triples, equal
        # relations.
        unique = list(dict.fromkeys(candidate.relation
                                    for candidate in candidates))
        counters["unique_relations"] = len(unique)
        reports = session.solve_tables(unique, solve_request)
        accepted = _apply_pass(net, candidates, dict(zip(unique, reports)),
                               counters)
        swept = net.sweep_dangling()
        record = dict(counters)
        record["pass"] = index
        record["gates_swept"] = swept
        record["literals_end"] = net.literal_count()
        record["runtime_seconds"] = time.perf_counter() - pass_started
        pass_records.append(record)
        total_mined += counters["relations_mined"]
        total_solved += counters["unique_relations"]
        total_accepted += accepted
        if accepted == 0:
            break

    equivalent, method, vectors = _verify_final(original, net, request)
    # Nothing rewrites the network after the last pass's sweep.
    literals_before = original.literal_count()
    literals_after = pass_records[-1]["literals_end"]
    report = ResynthReport(
        ok=True,
        label=request.label,
        request=request.to_dict(),
        circuit=original.name,
        num_inputs=len(original.inputs),
        num_outputs=len(original.outputs),
        num_latches=len(original.latches),
        gates_before=original.node_count(),
        gates_after=net.node_count(),
        literals_before=literals_before,
        literals_after=literals_after,
        literal_savings=literals_before - literals_after,
        gate_savings=original.node_count() - net.node_count(),
        passes=pass_records,
        relations_mined=total_mined,
        relations_solved=total_solved,
        rewrites_accepted=total_accepted,
        equivalent=equivalent,
        verify_method=method,
        verify_vectors=vectors,
        runtime_seconds=time.perf_counter() - started,
        blif=write_blif(net),
    )
    return net, report


def resynthesize(request: ResynthRequest,
                 session: Optional[Session] = None
                 ) -> ResynthReport:
    """Load the request's circuit, run the pipeline, return the report.

    Failures (bad specs, unreadable files, malformed BLIF) are captured
    as ``ok=False`` reports, mirroring :meth:`Session.solve_many`.
    """
    try:
        if request.circuit is None:
            raise ValueError("request has no circuit source")
        network = load_circuit(request.circuit)
        _, report = resynthesize_network(network, request,
                                         session=session)
        return report
    except Exception as exc:  # noqa: BLE001 — capture per request
        return ResynthReport.from_error(exc, request=request.to_dict(),
                                        label=request.label)
