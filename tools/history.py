#!/usr/bin/env python3
"""Append one row per change to ``BENCH_history.jsonl``.

A row records what the tree costs at that change, on both clocks'
host side: the ``tools/loc.py`` code lines per package, the four
``tools/calls.py`` frame tables and its opcodes-per-op column, and per
workload the median
``host_ops_per_s`` of the parent's and the change's perfbench runs,
with how many alternated pairs were run and in how many the change was
faster.

    PYTHONPATH=src python tools/history.py --pr 41 --parent 2350b8b \\
        --runs RUNS_DIR

``RUNS_DIR`` holds two files per workload and seed,
``<workload>@<seed>.parent.jsonl`` and ``<workload>@<seed>.change.jsonl``:
each line is the JSON record ``perfbench/run.py`` prints last, in run
order, so the i-th lines of the two files are the i-th alternated pair.
The row is appended to ``BENCH_history.jsonl`` at the repo root.
"""

import argparse
import importlib.util
import json
import os
import statistics
import sys

_TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_TOOLS)
DEFAULT_OUT = os.path.join(ROOT, "BENCH_history.jsonl")
#: The keys of a row, and of one workload's ``host_ops_per_s`` entry.
ROW_KEYS = ("pr", "parent", "loc", "calls", "host_ops_per_s")
AB_KEYS = ("parent", "change", "pairs", "better")


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def loc_table():
    """``{package: code lines}`` of ``src/repro``, plus ``total``."""
    rows = _tool("loc").count([os.path.join(ROOT, "src", "repro")])
    table = {os.path.relpath(label, ROOT): lines for label, _, lines in rows}
    table["total"] = sum(table.values())
    return table


def calls_tables():
    """The four ``tools/calls.py`` tables: frames per warm syscall by
    stack, per mapped op by ``MAP_ATOMIC`` policy, per lifecycle op
    (create, append, fsync, unlink) by stack, and per op of each
    simulated-thread perfbench workload -- plus that table's bytecode
    instructions per op (``workload_opcodes``)."""
    calls = _tool("calls")
    return {
        "syscalls": {name: calls.syscall_frames(name)
                     for name in calls.STACKS},
        "mapped": {policy: calls.mapped_frames(policy)
                   for policy in calls.POLICIES},
        "lifecycle": {name: calls.lifecycle_frames(name)
                      for name in calls.LIFECYCLE_STACKS},
        "workloads": {name: calls.workload_frames(name)
                      for name in calls.WORKLOADS},
        "workload_opcodes": {name: calls.workload_opcodes(name)
                             for name in calls.WORKLOADS},
    }


def _host_rates(path):
    with open(path) as fileobj:
        return [json.loads(line)["metrics"]["host_ops_per_s"]["value"]
                for line in fileobj if line.strip()]


def ab_table(runs_dir):
    """``{"<workload>@<seed>": {parent, change, pairs, better}}`` from
    the saved runs in ``runs_dir``: the medians of each side's
    ``host_ops_per_s``, the pairs run, and the pairs the change won."""
    table = {}
    suffix = ".parent.jsonl"
    for name in sorted(os.listdir(runs_dir)):
        if not name.endswith(suffix):
            continue
        key = name[:-len(suffix)]
        parent = _host_rates(os.path.join(runs_dir, name))
        change = _host_rates(os.path.join(runs_dir, key + ".change.jsonl"))
        pairs = min(len(parent), len(change))
        if not pairs:
            raise SystemExit("history: no runs for %s" % key)
        table[key] = {
            "parent": round(statistics.median(parent), 1),
            "change": round(statistics.median(change), 1),
            "pairs": pairs,
            "better": sum(c > p for p, c in zip(parent, change)),
        }
    if not table:
        raise SystemExit("history: no *%s files in %s" % (suffix, runs_dir))
    return table


def make_row(pr, parent, runs_dir):
    return {"pr": pr, "parent": parent, "loc": loc_table(),
            "calls": calls_tables(), "host_ops_per_s": ab_table(runs_dir)}


def append_row(row, out=DEFAULT_OUT):
    with open(out, "a") as fileobj:
        fileobj.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True,
                        help="the parent commit the A/B ran against")
    parser.add_argument("--runs", required=True,
                        help="directory of <workload>@<seed>.{parent,change}"
                             ".jsonl perfbench records")
    args = parser.parse_args(argv)
    row = make_row(args.pr, args.parent, args.runs)
    append_row(row)
    print(json.dumps(row["host_ops_per_s"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
