"""Set-up time of one fresh process: import telegraphctl and finish the
workload's first call (for openloop-estimate, building the exact grid
propagator). Prints the seconds as its only line.

Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]]().first_call()
print(repr(time.perf_counter() - _t0))
