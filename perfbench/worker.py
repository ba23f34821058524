"""One repeat of one workload in its own process; prints its record.

Spawned by :func:`perfbench.harness.spawn_repeat`; ``time.process_time``
counts from interpreter start, so set-up includes the imports.
"""

import argparse
import json
import sys

from perfbench import harness
from perfbench.cases import CASES


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="timed", choices=harness.MODES)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--control", action="store_true",
                        help="also run this workload's checker self-test")
    parser.add_argument("--out-dir")
    args = parser.parse_args(argv)
    case = CASES[args.workload](args.seed, quick=args.quick)
    record = harness.run_repeat(case, args.mode, out_dir=args.out_dir)
    if args.control:
        checks, failures = case.control()
        record["checks"] += checks
        record["failures"] += failures
    json.dump(record, sys.stdout, allow_nan=False)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
