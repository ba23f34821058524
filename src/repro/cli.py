"""Command-line entry point: regenerate the paper's figures.

Examples::

    hinfs-bench --list
    hinfs-bench fig7
    hinfs-bench fig9 fig12 --scale medium
    hinfs-bench all --no-check
    hinfs-bench fig7 --json BENCH_fig7.json
    hinfs-bench tenants --json BENCH_tenants.json
    hinfs-bench shard --json BENCH_shard.json
    hinfs-bench crashcheck --fs all --seed 7 --samples 64
    hinfs-bench crashcheck --fs pmfs@2
    hinfs-bench trace --fs hinfs --workload fileserver -o trace.json
"""

import argparse
import json
import math
import sys

from repro.bench.experiments.common import SCALES
from repro.bench.registry import EXPERIMENTS
from repro.bench.report import Series, Table


def crashcheck_main(argv):
    """``crashcheck``: enumerate crash states and verify the invariants."""
    from repro.faults.crashpoints import (
        DEFAULT_OPS,
        SHARD_OPS,
        CrashPointExplorer,
    )

    parser = argparse.ArgumentParser(
        prog="hinfs-bench crashcheck",
        description="Explore every flush/fence crash state of a mixed "
        "operation sequence (plus sampled uncontrolled-eviction states) "
        "and verify recovery invariants.  A sharded stack (base@M) "
        "explores the cross-shard rename protocols instead.",
    )
    parser.add_argument("--fs", default="all",
                        help="PMFS-layout stack to explore, e.g. hinfs, "
                        "hinfs-wb, pmfs@2 (default: all = pmfs + hinfs)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for eviction-subset sampling")
    parser.add_argument("--samples", type=int, default=64,
                        help="eviction subsets sampled per operation")
    args = parser.parse_args(argv)

    kinds = ["pmfs", "hinfs"] if args.fs == "all" else [args.fs]
    try:
        explorers = [CrashPointExplorer(kind, seed=args.seed,
                                        eviction_samples_per_op=args.samples)
                     for kind in kinds]
    except ValueError as exc:
        parser.error(str(exc))
    failures = 0
    for explorer in explorers:
        report = explorer.explore(
            SHARD_OPS if "@" in explorer.fs_kind else DEFAULT_OPS)
        print(report.summary())
        for violation in report.failures:
            print("  %s" % violation, file=sys.stderr)
        failures += len(report.failures)
    if failures:
        print("crashcheck: %d invariant violation(s)" % failures,
              file=sys.stderr)
        return 1
    print("crashcheck: all crash states recovered consistently")
    return 0


def trace_main(argv):
    """``trace``: run one workload with the trace spine on and export the
    per-request spans as Chrome trace-event JSON."""
    from repro.bench.runner import FS_NAMES
    from repro.obs.trace import chrome_trace, layer_duration_sums
    from repro.workloads.filebench import PERSONALITIES

    parser = argparse.ArgumentParser(
        prog="hinfs-bench trace",
        description="Run a filebench personality with per-request tracing "
        "and write a Chrome trace-event JSON file (load it in "
        "chrome://tracing or Perfetto).",
    )
    parser.add_argument("--fs", choices=FS_NAMES, default="hinfs",
                        help="file system to run (default: hinfs)")
    parser.add_argument("--workload", choices=sorted(PERSONALITIES),
                        default="fileserver",
                        help="filebench personality (default: fileserver)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="small",
                        help="scale preset (default: small)")
    parser.add_argument("--capacity", type=int, default=65536,
                        help="trace ring capacity in spans (default: 65536)")
    parser.add_argument("-o", "--output", default="trace.json",
                        help="output path (default: trace.json)")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    result = scale.run(args.fs, scale.personality(args.workload),
                       duration_ns=scale.duration_ns,
                       trace_capacity=args.capacity)
    ring = result.trace
    doc = chrome_trace(ring.spans())
    # Compact, and in one write: ``json.dump`` streams through the
    # pure-Python encoder, ``json.dumps`` runs the C one.
    with open(args.output, "w") as fileobj:
        fileobj.write(json.dumps(doc, separators=(",", ":")))
    print("%s/%s: %d ops, %d spans recorded (%d dropped) -> %s"
          % (result.fs_name, result.workload_name, result.ops,
             ring.recorded, ring.dropped, args.output))
    sums = layer_duration_sums(doc["traceEvents"])
    for layer in sorted(set(sums) | set(result.stats.layer_time_ns)):
        trace_ns = sums.get(layer, 0)
        stats_ns = result.stats.layer_time_ns.get(layer, 0)
        marker = "ok" if trace_ns == stats_ns else "MISMATCH"
        print("  %-10s trace %12d ns   stats %12d ns   %s"
              % (layer, trace_ns, stats_ns, marker))
    if ring.dropped:
        print("  (ring evicted %d spans; totals above still cover the "
              "whole run because stats are fed at span close)"
              % ring.dropped)
    return 0


def _to_json(value):
    """The plain-JSON form of an experiment's data: a Series or a Table
    becomes lists, a non-finite float becomes ``null`` (bare ``Infinity``
    is not JSON), and any value json cannot serialise fails loudly
    instead of being archived as its ``repr`` string."""
    if isinstance(value, (Series, Table)):
        value = value.to_json()
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (str, int)):
        return value
    raise TypeError("%s is not JSON serialisable" % type(value).__name__)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "crashcheck":
        return crashcheck_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="hinfs-bench",
        description="Regenerate the HiNFS paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="figure ids (e.g. fig7), or 'all'")
    parser.add_argument("--scale", choices=sorted(SCALES), default="small",
                        help="experiment scale preset (default: small)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the shape assertions")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump the experiments' raw data as JSON "
                        "(CI archives it as BENCH_<name>.json)")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name, module in sorted(EXPERIMENTS.items(),
                                   key=lambda kv: (len(kv[0]), kv[0])):
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print("%-6s  %s" % (name, doc))
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    for name in names:
        if name not in EXPERIMENTS:
            print("unknown experiment %r (try --list)" % name, file=sys.stderr)
            return 2
    scale = SCALES[args.scale]
    failures = 0
    collected = {}
    for name in names:
        module = EXPERIMENTS[name]
        print("== %s (scale=%s) ==" % (name, scale.name))
        tables, data = module.run(scale)
        collected[name] = data
        for table in tables:
            print(table)
            print()
        if args.no_check:
            continue
        try:
            module.check_shape(data)
        except AssertionError as exc:
            print("SHAPE CHECK FAILED: %s" % exc, file=sys.stderr)
            failures += 1
    if args.json is not None:
        with open(args.json, "w") as fileobj:
            json.dump(_to_json({"scale": scale.name,
                                "experiments": collected}),
                      fileobj, indent=1, sort_keys=True, allow_nan=False)
        print("wrote %s" % args.json)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
