"""Persistent perf trajectory: collect quick-bench numbers, diff PRs.

The quick benches each leave a JSON artefact in ``benchmarks/results/``
(gitignored — numbers are machine-local).  This tool folds them into a
committed ``BENCH_<n>.json`` at the repo root so the performance story
survives across PRs, and diffs consecutive snapshots so a regression
shows up in review instead of three PRs later::

    # after running the --quick benches:
    python benchmarks/snapshot.py --collect 6   # writes BENCH_6.json
    python benchmarks/snapshot.py --diff        # newest vs previous

The diff walks every numeric leaf shared by both snapshots and prints
relative changes above a threshold (default 25% — quick-mode numbers on
shared CI runners are noisy; the point is catching step changes and
structural drift, not 3% jitter).  Wall-clock leaves are labelled as
timing so reviewers can weigh them accordingly; counter leaves (hits,
misses, explored, entries) are the stable signal.  The diff is
informational: it always exits 0 — the quick benches themselves hard-
fail on genuine behavioural regressions.
"""

import argparse
import json
import re
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: The quick benches whose artefacts feed the snapshot (absent files
#: are skipped with a warning so a partial run still snapshots).
ARTEFACTS = ("bench_partition", "bench_bdd_engine", "bench_service",
             "bench_resynth", "bench_portfolio")

#: Leaf-name fragments that mark machine-local wall-clock numbers.
TIMING_MARKERS = ("seconds", "speedup", "_s", "runtime")


def collect(number: int) -> int:
    benches = {}
    for name in ARTEFACTS:
        path = RESULTS_DIR / ("%s.json" % name)
        if not path.exists():
            print("warning: %s missing (run the --quick bench first)"
                  % path, file=sys.stderr)
            continue
        benches[name] = json.loads(path.read_text())
    if not benches:
        print("error: no artefacts found under %s" % RESULTS_DIR,
              file=sys.stderr)
        return 1
    out = REPO_ROOT / ("BENCH_%d.json" % number)
    out.write_text(json.dumps({"snapshot": number, "benches": benches},
                              indent=2, sort_keys=True) + "\n")
    print("wrote %s (%d benches: %s)"
          % (out, len(benches), ", ".join(sorted(benches))))
    return 0


def numeric_leaves(tree, prefix=""):
    """Flatten a JSON tree to {dotted.path: number} (bools excluded)."""
    leaves = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            leaves.update(numeric_leaves(value,
                                         "%s.%s" % (prefix, key)
                                         if prefix else str(key)))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            leaves.update(numeric_leaves(value,
                                         "%s[%d]" % (prefix, index)))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        leaves[prefix] = float(tree)
    return leaves


def find_snapshots():
    pattern = re.compile(r"^BENCH_(\d+)\.json$")
    found = []
    for path in REPO_ROOT.iterdir():
        match = pattern.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def diff(threshold: float) -> int:
    snapshots = find_snapshots()
    if len(snapshots) < 2:
        print("nothing to diff: %d snapshot(s) present%s"
              % (len(snapshots),
                 " (%s)" % snapshots[0][1].name if snapshots else ""))
        return 0
    (old_n, old_path), (new_n, new_path) = snapshots[-2:]
    old = numeric_leaves(json.loads(old_path.read_text()))
    new = numeric_leaves(json.loads(new_path.read_text()))
    print("diff %s -> %s (reporting |change| >= %.0f%%)"
          % (old_path.name, new_path.name, 100 * threshold))
    shared = sorted(set(old) & set(new))
    reported = 0
    for path in shared:
        before, after = old[path], new[path]
        if before == after:
            continue
        if before == 0:
            change = float("inf")
        else:
            change = (after - before) / abs(before)
        if abs(change) < threshold:
            continue
        timing = any(marker in path.lower()
                     for marker in TIMING_MARKERS)
        print("  %-60s %12g -> %-12g %+.0f%%%s"
              % (path, before, after,
                 100 * change if change != float("inf") else 999,
                 "  [timing]" if timing else ""))
        reported += 1
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    for path in only_old[:10]:
        print("  removed: %s" % path)
    for path in only_new[:10]:
        print("  added:   %s" % path)
    if len(only_old) > 10 or len(only_new) > 10:
        print("  (%d removed / %d added leaves total)"
              % (len(only_old), len(only_new)))
    if not reported and not only_old and not only_new:
        print("  no changes above threshold")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="collect quick-bench artefacts into BENCH_<n>.json "
                    "and diff consecutive snapshots")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--collect", type=int, metavar="N",
                        help="write BENCH_N.json from "
                             "benchmarks/results/*.json")
    action.add_argument("--diff", action="store_true",
                        help="compare the two newest BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative change worth reporting "
                             "(default 0.25)")
    args = parser.parse_args(argv)
    if args.collect is not None:
        return collect(args.collect)
    return diff(args.threshold)


if __name__ == "__main__":
    sys.exit(main())
