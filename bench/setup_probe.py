"""Set-up time of one workload in this fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED SIZE

Times ``import cottonkit`` plus building the workload's inputs (parsing
the catalog or random metrics, making grids and points) and prints the
seconds.  ``run_bench.py`` starts several of these and reports the median.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
start = time.perf_counter()
import cottonkit  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - start)
