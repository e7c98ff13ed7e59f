#!/usr/bin/env python3
"""Resynthesize a real circuit end to end (the paper's Table 3 flow).

Loads a bundled ISCAS'89-style benchdata netlist, runs the windowed
don't-care resynthesis pipeline (:mod:`repro.resynth`) over it —
every candidate cut becomes a Boolean relation, every relation goes
through the recursive solver over one shared session — and prints
the per-pass story plus the literal savings.

The same run is available from the command line::

    repro resynth s298 --passes 2 --window 8

and as a service call (``POST /resynth``).

Run:  python examples/resynth_circuit.py [circuit-name]
"""

import sys

from repro.resynth import ResynthRequest, load_circuit, resynthesize


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "s298"
    network = load_circuit(name)
    print("circuit %s: %d inputs, %d outputs, %d latches, "
          "%d gates, %d SOP literals"
          % (name, len(network.inputs), len(network.outputs),
             len(network.latches), network.node_count(),
             network.literal_count()))
    print()

    request = ResynthRequest(circuit=name, passes=2, window=8,
                             max_explored=8, label=name)
    report = resynthesize(request)
    if not report.ok:
        print("resynthesis failed:", report.error)
        raise SystemExit(1)

    for record in report.passes:
        print("pass %d: %d cuts -> %d relations (%d unique), "
              "%d accepted, %d cost-rejected, %d conflicts, "
              "literals %d"
              % (record["pass"], record["candidates"],
                 record["relations_mined"], record["unique_relations"],
                 record["accepted"], record["rejected_cost"],
                 record["skipped_conflict"], record["literals_end"]))
    print()
    print(report.summary())
    print()
    print("rewritten netlist (first lines of the BLIF):")
    for line in (report.blif or "").splitlines()[:8]:
        print("   ", line)
    print("    ...")


if __name__ == "__main__":
    main()
