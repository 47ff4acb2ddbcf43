"""Print the set-up time of one benchmark workload in this fresh process:
the reference seconds (see speedclock.py) to import spinorsheaf and build
the workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

from speedclock import SpeedClock


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    with SpeedClock() as clock:
        t0 = clock.now()
        import spinorsheaf  # noqa: F401
        import workloads

        workloads.make(workload, seed).inputs()
        elapsed = clock.now() - t0
    print(elapsed)


if __name__ == "__main__":
    main()
