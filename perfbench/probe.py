"""Set-up probe: run in a fresh interpreter, stop where the first iteration starts.

Imports the library, builds the workload's problem and start point, runs
``init_state`` for the first cell (the first evaluation plus the H0
allocation) and prints the monotonic clock.  The parent takes the same
clock just before it starts this interpreter, so the difference is the
set-up time a user of the workload pays.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ssbroyden  # noqa: E402
import workloads  # noqa: E402


def main():
    workload = workloads.WORKLOADS[sys.argv[1]]
    problem = workload.make_problem()
    x0 = workloads.start_point(problem, int(sys.argv[2]))
    config = ssbroyden.SolverConfig(variant=workload.variants[0],
                                    max_iters=workload.max_iters)
    ssbroyden.init_state(problem, x0, config)
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
