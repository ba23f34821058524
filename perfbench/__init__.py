"""perfbench: the two-clock benchmark of the simulator (see README.md)."""

import os

#: The checkout: BENCHMARK.json, src/ and perfbench/ live here.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
