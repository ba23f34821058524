"""Timing harness: calibrated host time, one subprocess per repeat.

Host time on a shared box drifts by tens of percent within a minute, so
a raw ops/s median is not comparable between two runs of the same code.
The measured phase is therefore cut into slices, a fixed pure-Python
kernel is timed between slices, and host time is reported in
*calibrated seconds*: CPU seconds scaled by how fast the interpreter was
running alongside, relative to a fixed reference rate.
"""

import cProfile
import gc
import heapq
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time

from perfbench import ROOT, layers

#: Iterations of the calibration kernel (~3 ms) and the reference rate
#: that defines one calibrated second (about this box when it is quiet).
CAL_ITERS = 2_000
REF_LOOPS_PER_S = 7.0e5
#: A repeat whose calibration rates vary more than this is re-run once
#: (the rates of a 3 ms kernel vary by 0.10-0.20 on this box as it is).
NOISY_CV = 0.30
#: Spans of a traced repeat exported as a Chrome trace (the first ones).
TRACE_EXPORT_SPANS = 5000

MODES = ("timed", "t1", "t2")


class _Node:
    __slots__ = ("now", "entered")

    def __init__(self):
        self.now = 0
        self.entered = 0

    def charge(self, ns):
        self.now += ns
        return self.now


class _Entered:
    __slots__ = ("node",)

    def __init__(self, node):
        self.node = node

    def __enter__(self):
        self.node.entered += 1
        return self.node

    def __exit__(self, *exc):
        return False


_NODES = [_Node() for _ in range(64)]
_TILE = bytes(4096)


def calibration_kernel():
    """CPU seconds for :data:`CAL_ITERS` rounds of the yardstick.

    The yardstick shares no code with the program under test (a faster
    simulator must not speed its own ruler up) but has its instruction
    mix: slotted-object method calls, ``with`` blocks, a heap, a dict
    counter, 4 KB memoryview copies, small tuples and lists.  When a
    neighbour slows this box, that mix slows in step with the simulator
    (log-log slope 0.9, residual 2.5 % per repeat); the int/dict loop of
    ``simspeed.calibrate`` does not (slope 1.3, residual 4.6 %).
    """
    heap = []
    counts = {}
    view = memoryview(bytearray(1 << 18))
    push, pop = heapq.heappush, heapq.heappop
    c0 = time.process_time()
    for i in range(CAL_ITERS):
        node = _NODES[i & 63]
        with _Entered(node) as entered:
            t = entered.charge(i & 1023)
        push(heap, (t, i, node))
        if len(heap) > 32:
            pop(heap)
        counts[i & 31] = counts.get(i & 31, 0) + 1
        offset = (i * 4096) & 0x3FFFF
        view[offset:offset + 4096] = _TILE
        _keep = (node, [i, t])
    return time.process_time() - c0


_ENDED = object()


def run_repeat(case, mode="timed", out_dir=None):
    """One repeat of ``case`` in this process; returns its record.

    ``timed`` measures; ``t1`` runs with the trace spine on and yields
    virtual self time per layer; ``t2`` runs under cProfile and yields
    host self time and call counts per layer.
    """
    case.setup(trace=(mode == "t1"))
    gc.collect()
    gc.freeze()
    setup_cpu = time.process_time()  # counts from interpreter start
    cal = [calibration_kernel()]
    profiler = cProfile.Profile() if mode == "t2" else None
    cpu = []
    phase = case.slices()
    while True:
        if profiler:
            profiler.enable()
        c0 = time.process_time()
        ended = next(phase, _ENDED) is _ENDED
        c1 = time.process_time()
        if profiler:
            profiler.disable()
        if ended:
            break
        cpu.append(c1 - c0)
        cal.append(calibration_kernel())
    gc.unfreeze()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Each slice is scaled by the kernel timings on either side of it,
    # as far as the yardstick predicts this workload's slowdown.
    slice_s = [
        c * (2 * CAL_ITERS / (cal[i] + cal[i + 1]) / REF_LOOPS_PER_S)
        ** case.yardstick_exponent for i, c in enumerate(cpu)]
    rates = [CAL_ITERS / c for c in cal]
    # Read the results before the output checks touch the stack.
    units = case.units()
    virtual = case.virtual()
    counts = case.counts()
    checks, failures = case.verify()
    record = {
        "mode": mode,
        "units": units,
        "cpu_s": sum(cpu),
        "slice_s": slice_s,
        "host_ops_per_s": units / sum(slice_s),
        "setup_s": setup_cpu * statistics.fmean(rates) / REF_LOOPS_PER_S,
        "host_peak_rss_mb": peak_rss_mb,
        "cal_loops_per_s": statistics.fmean(rates),
        "cal_cv": statistics.pstdev(rates) / statistics.fmean(rates),
        "virtual": virtual,
        "counts": counts,
        "checks": checks,
        "failures": failures,
    }
    if mode == "t1":
        record["t1"] = _span_pass(case, units, out_dir)
    if mode == "t2":
        record["t2"] = _profile_pass(profiler, units)
    return record


def _span_pass(case, units, out_dir):
    spans = case.env.trace.spans()
    threads = {t.name: t.now for t in case.scheduler.threads}
    self_ns, misnested = layers.span_self_ns(spans, case.fs_layer())
    on_threads, _ = layers.span_self_ns(
        [s for s in spans if s.thread in threads], case.fs_layer())
    if out_dir:
        from repro.obs.trace import chrome_trace

        with open(os.path.join(out_dir, case.name + ".trace.json"),
                  "w") as fh:
            # A window a viewer can open, not the whole run.
            json.dump(chrome_trace(spans[:TRACE_EXPORT_SPANS]), fh)
    return {
        "virt_self_ns_per_op": {k: v / units for k, v in self_ns.items()},
        # Share of foreground thread time the spans account for.
        "virt_closure_frac": (sum(on_threads.values())
                              / sum(threads.values())),
        "spans": len(spans),
        "misnested": misnested,
    }


def _profile_pass(profiler, units):
    self_frac, calls_per_op, boundaries = layers.profile_by_layer(
        pstats.Stats(profiler), units)
    return {"host_self_frac": self_frac, "host_calls_per_op": calls_per_op,
            "boundaries": boundaries}


# -- the parent side: one child process per repeat ---------------------------


def spawn_repeat(workload, seed, mode="timed", quick=False, control=False,
                 out_dir=None):
    """Run one repeat in a fresh single-threaded interpreter (clean heap,
    own peak RSS, set-up paid from process start) and return its record."""
    argv = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    if quick:
        argv.append("--quick")
    if control:
        argv.append("--control")
    if out_dir:
        argv += ["--out-dir", out_dir]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          check=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def timed_set(workload, seed, seconds=None, repeats=None, quick=False):
    """The timed repeats of one workload: ``repeats`` of them, or (the
    driver's contract) at least four and until ``seconds`` of measured
    phase have run.  A noisy repeat is re-run once and flagged if the
    re-run is noisy too."""
    records = []
    measured = 0.0
    while len(records) < (repeats or 4) or (
            repeats is None and measured < seconds and len(records) < 9):
        # The explorer's negative control rides on the first repeat only.
        control = not records
        record = spawn_repeat(workload, seed, quick=quick, control=control)
        if record["cal_cv"] > NOISY_CV:
            record = spawn_repeat(workload, seed, quick=quick,
                                  control=control)
            record["noisy"] = record["cal_cv"] > NOISY_CV
        records.append(record)
        measured += record["cpu_s"]
    return records


def summarize(records):
    """End-to-end metrics, attempted count and failures of a timed set.

    Repeats of one seed do identical work slice by slice, and noise on a
    shared box only ever adds time, so throughput is taken over each
    slice's fastest repeat: far steadier than the median of whole
    repeats (README, "Noise").  Set-up and memory are medians.
    """
    first = records[0]
    failures = [msg for r in records for msg in r["failures"]]
    for r in records[1:]:
        if (r["virtual"] != first["virtual"] or r["units"] != first["units"]
                or len(r["slice_s"]) != len(first["slice_s"])):
            failures.append("virtual results differ between repeats of "
                            "one seed: the simulation is not deterministic")
            break
    summary = {"host_ops_per_s": _floor_rate(records)}
    # What `compare` judges run-to-run spread on: for the floor, the
    # floors with each repeat left out in turn.
    spread = {"host_ops_per_s": [
        _floor_rate(records[:i] + records[i + 1:])
        for i in range(len(records))] if len(records) > 1
        else [summary["host_ops_per_s"]]}
    for name in ("setup_s", "host_peak_rss_mb"):
        spread[name] = [r[name] for r in records]
        summary[name] = statistics.median(spread[name])
    summary.update(first["virtual"])
    attempted = sum(r["units"] + r["checks"] for r in records)
    return summary, attempted, failures, spread


def _floor_rate(records):
    floor_s = sum(min(column) for column in
                  zip(*(r["slice_s"] for r in records)))
    return records[0]["units"] / floor_s
