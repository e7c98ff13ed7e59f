"""Time one workload's set-up in a fresh process; prints seconds.

The clock starts before ``import repro`` and stops when the first
operation could be sent: the session or service exists, the disk pool's
memo entries are seeded, and the circuits are loaded.  The time is
scaled to the reference machine speed (``speed.py``) sampled before,
during and after the set-up.

    python3 perfbench/setup_probe.py <solve|resynth|service> [pool-dir]
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    workload = sys.argv[1]
    pool = sys.argv[2] if len(sys.argv) > 2 else None
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import speed
    import workloads  # does not import the program
    meter = speed.SpeedMeter()
    meter.start()
    try:
        first = meter.boundary()
        spent = meter.spent
        start = time.perf_counter()
        workloads.SETUPS[workload](pool)
        elapsed = time.perf_counter() - start - (meter.spent - spent)
        meter.boundary()
    finally:
        meter.stop()
    print(repr(elapsed * meter.scale(first)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
