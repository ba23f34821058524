"""Driver entry point: one workload, one result line.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
prints, as its last line, the JSON object the benchmark contract in
``BENCHMARK.json`` describes.  ``python -m perfbench`` is the same
machinery over all six workloads at once.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("perfbench: no program to measure: %s/src/repro is missing"
             % ROOT)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.cli import run_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(run_main())
