"""Command-line entry point: regenerate the paper's figures.

Examples::

    hinfs-bench --list
    hinfs-bench fig7
    hinfs-bench fig9 fig12 --scale medium
    hinfs-bench all --no-check
    hinfs-bench fig7 --json BENCH_fig07.json
    hinfs-bench tenants --json BENCH_tenants.json
    hinfs-bench shard --json BENCH_shard.json
    hinfs-bench crashcheck --fs all --seed 7 --samples 64
    hinfs-bench trace --fs hinfs --workload fileserver -o trace.json
"""

import argparse
import json
import sys

from repro.bench.experiments.common import SCALES
from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.bench.report import Series, Table


def crashcheck_main(argv):
    """``crashcheck``: enumerate crash states and verify the invariants."""
    from repro.faults.crashpoints import run_crashcheck

    parser = argparse.ArgumentParser(
        prog="hinfs-bench crashcheck",
        description="Explore every flush/fence crash state of a mixed "
        "operation sequence (plus sampled uncontrolled-eviction states) "
        "and verify recovery invariants.",
    )
    parser.add_argument("--fs", choices=["pmfs", "hinfs", "all"],
                        default="all", help="file system(s) to explore")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for eviction-subset sampling")
    parser.add_argument("--samples", type=int, default=64,
                        help="eviction subsets sampled per operation")
    args = parser.parse_args(argv)

    kinds = ["pmfs", "hinfs"] if args.fs == "all" else [args.fs]
    failures = 0
    for report in run_crashcheck(kinds, seed=args.seed,
                                 eviction_samples_per_op=args.samples):
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
    from repro.bench.experiments.common import SCALES, personality_kwargs
    from repro.bench.runner import FS_NAMES, run_workload
    from repro.obs.trace import chrome_trace, layer_duration_sums
    from repro.workloads.filebench import (
        Fileserver, Varmail, Webproxy, Webserver,
    )

    personalities = {
        "fileserver": Fileserver,
        "webserver": Webserver,
        "webproxy": Webproxy,
        "varmail": Varmail,
    }
    parser = argparse.ArgumentParser(
        prog="hinfs-bench trace",
        description="Run a filebench personality with per-request tracing "
        "and write a Chrome trace-event JSON file (load it in "
        "chrome://tracing or Perfetto).",
    )
    parser.add_argument("--fs", choices=FS_NAMES, default="hinfs",
                        help="file system to run (default: hinfs)")
    parser.add_argument("--workload", choices=sorted(personalities),
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
    cls = personalities[args.workload]
    workload = cls(threads=scale.threads, duration_ops=100_000,
                   **personality_kwargs(scale, args.workload))
    result = run_workload(
        args.fs, workload,
        device_size=scale.device_size,
        duration_ns=scale.duration_ns,
        hinfs_config=scale.hinfs_config(),
        cache_pages=scale.cache_pages,
        trace_capacity=args.capacity,
    )
    ring = result.trace
    doc = chrome_trace(ring.spans())
    with open(args.output, "w") as fileobj:
        json.dump(doc, fileobj, indent=1)
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


def simspeed_main(argv):
    """``simspeed``: wall-clock engine self-benchmark with optional
    cProfile capture and a perf-regression gate against a baseline."""
    from repro.bench.experiments import simspeed

    parser = argparse.ArgumentParser(
        prog="hinfs-bench simspeed",
        description="Measure wall-clock simulation speed (sim-ops/sec) "
        "per stack for write/mixed/ring workloads; optionally profile "
        "the run or gate against a recorded baseline.",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="small",
                        help="scale preset (default: small)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="wall-clock repeats per cell, best kept "
                        "(default: 2)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="dump the raw measurements as JSON "
                        "(CI archives this as BENCH_simspeed.json)")
    parser.add_argument("--profile", nargs="?", const="simspeed.pstats",
                        default=None, metavar="PATH",
                        help="wrap the run in cProfile; writes a pstats "
                        "dump to PATH (default: simspeed.pstats) and "
                        "prints the top-20 cumulative functions")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="gate against a previously recorded "
                        "BENCH_simspeed.json: fail if the headline "
                        "mixed-workload sim-ops/sec regresses")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional drop below the baseline "
                        "headline before the gate fails (default: 0.30)")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    # Load the baseline *before* the run so ``--json`` and ``--baseline``
    # may name the same file (gate against the old numbers, then refresh).
    baseline = None
    if args.baseline is not None:
        with open(args.baseline) as fileobj:
            baseline = json.load(fileobj)
    profiler = None
    if args.profile is not None:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    tables, data = simspeed.run(scale=scale, repeats=args.repeats)
    if profiler is not None:
        profiler.disable()
    simspeed.check_shape(data)
    for table in tables:
        print(table)
        print()
    if profiler is not None:
        import pstats
        profiler.dump_stats(args.profile)
        print("wrote profile %s" % args.profile)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(20)
    if args.json is not None:
        with open(args.json, "w") as fileobj:
            json.dump(data, fileobj, indent=1, sort_keys=True)
        print("wrote %s" % args.json)
    if baseline is not None:
        # Prefer the interpreter-normalized headline (machine-portable);
        # fall back to the raw rate for baselines predating calibration.
        if baseline.get("headline_mixed_normalized"):
            metric = "headline_mixed_normalized"
            unit = "sim-ops/cal-unit"
        else:
            metric = "headline_mixed_ops_per_sec"
            unit = "sim-ops/s"
        base = baseline.get(metric, 0.0)
        now = data[metric]
        floor = base * (1.0 - args.max_regression)
        verdict = "ok" if now >= floor else "REGRESSION"
        print("simspeed gate: mixed %.4f %s vs baseline %.4f "
              "(floor %.4f at -%d%%): %s"
              % (now, unit, base, floor, round(args.max_regression * 100),
                 verdict))
        if now < floor:
            print("simspeed gate FAILED: headline mixed-workload rate "
                  "dropped more than %.0f%% below the checked-in baseline"
                  % (args.max_regression * 100), file=sys.stderr)
            return 1
    return 0


def _to_json(value):
    """``json.dump`` hook: a Series or a Table dumps as plain lists; any
    other value json cannot serialise fails loudly instead of being
    archived as its ``repr`` string."""
    if isinstance(value, (Series, Table)):
        return value.to_json()
    raise TypeError("%s is not JSON serialisable" % type(value).__name__)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "crashcheck":
        return crashcheck_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "simspeed":
        return simspeed_main(argv[1:])
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
                        "(used by CI to archive the fig7 baseline)")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name, module in sorted(EXPERIMENTS.items(),
                                   key=lambda kv: (len(kv[0]), kv[0])):
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print("%-6s  %s" % (name, doc))
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    scale = SCALES[args.scale]
    failures = 0
    collected = {}
    for name in names:
        if name not in EXPERIMENTS:
            print("unknown experiment %r (try --list)" % name, file=sys.stderr)
            return 2
        print("== %s (scale=%s) ==" % (name, scale.name))
        try:
            tables, data = run_experiment(name, scale=scale,
                                          check=not args.no_check)
        except AssertionError as exc:
            print("SHAPE CHECK FAILED: %s" % exc, file=sys.stderr)
            failures += 1
            continue
        collected[name] = data
        for table in tables:
            print(table)
            print()
    if args.json is not None:
        with open(args.json, "w") as fileobj:
            json.dump({"scale": scale.name, "experiments": collected},
                      fileobj, indent=1, sort_keys=True, default=_to_json)
        print("wrote %s" % args.json)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
