"""Command lines: the driver's single-workload run, the six-workload
suite (``python -m perfbench``) and ``python -m perfbench compare``."""

import argparse
import json
import os
import platform
import statistics
import sys

from perfbench import ROOT, catalogue, harness
from perfbench.cases import CASES

OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def _traced(workload, seed, quick, out_dir):
    """The traced run: one untraced repeat for the counters and the
    tracing-overhead base, one span-traced (T1), one profiled (T2)."""
    os.makedirs(out_dir, exist_ok=True)
    timed = harness.spawn_repeat(workload, seed, quick=quick)
    t1 = None
    if CASES[workload].traceable:
        t1 = harness.spawn_repeat(workload, seed, "t1", quick=quick,
                                  out_dir=out_dir)
    t2 = harness.spawn_repeat(workload, seed, "t2", quick=quick)
    records = [r for r in (timed, t1, t2) if r is not None]
    failures = [msg for r in records for msg in r["failures"]]
    if t1 is not None and t1["virtual"] != timed["virtual"]:
        failures.append("tracing changed the virtual results")
    if t1 is not None and t1["t1"]["misnested"]:
        failures.append("%d trace intervals straddle their parent"
                        % t1["t1"]["misnested"])
    share = sum(t2["t2"]["host_self_frac"].values())
    if abs(share - 1.0) > 1e-3:
        failures.append("host_self_frac sums to %r, not 1" % share)
    values = catalogue.layer_metrics(timed, t1, t2)
    with open(os.path.join(out_dir, workload + ".layers.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "units": t2["units"],
                   "metrics": values, "boundaries": t2["t2"]["boundaries"]},
                  fh, indent=1, sort_keys=True, allow_nan=False)
    attempted = sum(r["units"] + r["checks"] for r in records)
    return values, attempted, failures


# -- the driver's contract -----------------------------------------------------


def run_main(argv=None):
    bench = catalogue.load_benchmark()
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.trace:
        values, attempted, failures = _traced(
            args.workload, args.seed, False, OUT_DIR)
        wanted = bench["per_layer"]
    else:
        records = harness.timed_set(args.workload, args.seed, args.seconds)
        values, attempted, failures, _spread = harness.summarize(records)
        wanted = bench["end_to_end"]
    for msg in failures:
        print("FAILED CHECK: " + msg, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result, allow_nan=False))
    return 1 if failures else 0


# -- the suite -----------------------------------------------------------------


def suite_main(argv=None):
    bench = catalogue.load_benchmark()
    parser = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="Run the six workloads; see perfbench/README.md. "
                    "Also: python -m perfbench compare A.json B.json")
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (7 is held out for claims)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "run.json"))
    parser.add_argument("--workload", action="append", choices=sorted(CASES),
                        help="run only this workload (repeatable)")
    parser.add_argument("--repeats", type=int,
                        help="timed repeats per workload (default 5; 4 on "
                             "crash-explore, whose repeats are longest)")
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size workloads, for the self-tests")
    parser.add_argument("--traced", action=argparse.BooleanOptionalAction,
                        default=True, help="also run the traced passes")
    args = parser.parse_args(argv)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    report = {
        "meta": {"seed": args.seed, "quick": args.quick,
                 "python": platform.python_version(),
                 "ref_loops_per_s": harness.REF_LOOPS_PER_S},
        "workloads": {},
    }
    failed_any = False
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        repeats = args.repeats or (4 if name == "crash-explore" else 5)
        records = harness.timed_set(name, args.seed, repeats=repeats,
                                    quick=args.quick)
        values, attempted, failures, spread = harness.summarize(records)
        entry = {
            "why": CASES[name].why,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                            "spread": spread.get(m["name"],
                                                 [values[m["name"]]])}
                for m in bench["end_to_end"]},
            "repeats": [{k: r.get(k) for k in (
                "host_ops_per_s", "setup_s", "host_peak_rss_mb", "cpu_s",
                "cal_loops_per_s", "cal_cv", "noisy")} for r in records],
        }
        if args.traced:
            layer_values, t_attempted, t_failures = _traced(
                name, args.seed, args.quick, out_dir)
            entry["layers"] = layer_values
            attempted += t_attempted
            failures += t_failures
        entry.update(attempted=attempted, failed=len(failures),
                     fail_frac=len(failures) / attempted, failures=failures)
        report["workloads"][name] = entry
        failed_any = failed_any or bool(failures)
        print("== %s: %d repeats, fail_frac %g" % (
            name, len(records), entry["fail_frac"]))
        for metric, cell in entry["metrics"].items():
            print("  %-28s %14.6g %s" % (metric, cell["value"], cell["unit"]))
        for metric, value in sorted(entry.get("layers", {}).items()):
            if value:
                print("  %-38s %14.6g %s" % (metric, value, units[metric]))
        for msg in failures:
            print("  FAILED CHECK: " + msg)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, allow_nan=False)
    print("wrote " + args.out)
    return 1 if failed_any else 0


# -- compare -------------------------------------------------------------------


def verdict(better, bound, a, b):
    """Judge side B against side A for one metric.

    ``a``/``b`` are ``(value, [spread sample, ...])``.  Where either
    side's own spread exceeds the bound, the pair is ``unresolved``
    unless every sample of one side beats every sample of the other.
    """
    (va, sa), (vb, sb) = a, b
    sign = 1 if better == "lower" else -1  # signed so that larger is worse
    worse = sign * (vb - va) / abs(va)
    spread = max((max(s) - min(s)) / abs(statistics.median(s))
                 for s in (sa, sb))
    if spread > bound:
        wa, wb = [sign * x for x in sa], [sign * x for x in sb]
        if not (min(wb) > max(wa) or max(wb) < min(wa)):
            return "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "improved" if worse < -bound else "unchanged"


def compare_main(argv):
    parser = argparse.ArgumentParser(prog="python -m perfbench compare")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    bench = catalogue.load_benchmark()
    sides = []
    for path in (args.a, args.b):
        with open(path) as fh:
            sides.append(json.load(fh)["workloads"])
    regressions = 0
    print("%-14s %-20s %13s %13s %8s  %-10s %s" % (
        "workload", "metric", "A", "B", "change", "verdict",
        "A min..max | B min..max"))
    for name in sides[0]:
        if name not in sides[1]:
            continue
        for m in bench["end_to_end"]:
            cells = [side[name]["metrics"][m["name"]] for side in sides]
            a, b = [(c["value"], c["spread"]) for c in cells]
            label = verdict(m["better"], m["bound"], a, b)
            regressions += label == "REGRESSION"
            print("%-14s %-20s %13.6g %13.6g %+7.2f%%  %-10s "
                  "%.6g..%.6g | %.6g..%.6g" % (
                      name, m["name"], a[0], b[0],
                      100 * (b[0] - a[0]) / abs(a[0]), label,
                      min(a[1]), max(a[1]), min(b[1]), max(b[1])))
        for side, tag in zip(sides, "AB"):
            if side[name]["failed"]:
                regressions += 1
                print("%-14s side %s failed %d output checks" % (
                    name, tag, side[name]["failed"]))
    return 1 if regressions else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    if argv == ["catalogue"]:  # the README's generated block
        print(catalogue.render_markdown(), end="")
        return 0
    return suite_main(argv)
