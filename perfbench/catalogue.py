"""What each metric means and which end-to-end metric it should move.

``BENCHMARK.json`` fixes every metric's name, unit, direction and bound
(its schema allows nothing else), so the prediction the issue calls
``moves`` -- which end-to-end metric a layer metric should move, on
which workload -- lives here, keyed by the same names.
``perfbench/tests`` keeps the two in step.
"""

import json
import os

from perfbench import ROOT
from perfbench.layers import LAYERS, SPINE


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


END_TO_END_DOC = {
    "host_ops_per_s": "units of work per calibrated host CPU second "
                      "(completed simulated op; crash state on "
                      "crash-explore), over each slice's fastest repeat",
    "setup_s": "calibrated CPU s from interpreter start to the measured "
               "phase: imports, build_stack, prepare, unmount, quiesce, "
               "QoS/mmap attach; median of the repeats",
    "host_peak_rss_mb": "ru_maxrss of the repeat's process at the end of "
                        "the measured phase; median of the repeats",
    "virt_ops_per_s": "ops per simulated second",
    "virt_lat_mean_us": "mean per-step virtual latency (queue-inclusive "
                        "from scheduled arrival on serve-tenants)",
    "virt_lat_p99_x_mean": "nearest-rank p99 of the same samples over "
                           "their mean: the tail, in a form that is never "
                           "identical on every seed",
    "nvmm_write_amp": "bytes written to NVMM (data, journal, epoch log) "
                      "per user byte written",
}

#: Layer -> the ``moves`` prediction of its host-side metrics.
_HOST_MOVES = {
    "fs.vfs": "host_ops_per_s on fio-sync (ceiling: fs.vfs+io.ring+"
              "io.request share) and less on fio-ring; flat on fio-mmap "
              "and crash-explore, <=5% on fileserver",
    "io.ring": "as fs.vfs; a sync-path gain that costs the batch path "
               "shows as fio-ring falling",
    "io.request": "as fs.vfs",
    "io.mmio": "every metric of fio-mmap only",
    "fs.qos": "host_ops_per_s on serve-tenants only",
    "fs.shard": "host_ops_per_s on serve-tenants only",
    "fs.health": "nothing while mounts stay healthy; non-zero means a "
                 "workload degraded",
    "engine": "host_ops_per_s everywhere but crash-explore (largest "
              "single share)",
    "core": "host_ops_per_s on fileserver, small on serve-tenants, none "
            "on the pmfs workloads",
    "fs.pmfs": "host_ops_per_s on fio-* and, through mount and journal "
               "scan, crash-explore",
    "nvmm": "host_ops_per_s on fio-mmap, fileserver and crash-explore",
    "mem": "host_ops_per_s on fio-mmap, fileserver (data-plane copies) "
           "and crash-explore (device rebuild per state); "
           "host_peak_rss_mb everywhere",
    "faults": "host_ops_per_s and host_peak_rss_mb on crash-explore only",
    "obs": "nothing end to end: tracing is off in timed runs",
    "workloads": "host_ops_per_s everywhere: the generator's own cost, "
                 "a floor no program change removes",
    "other": "nothing: must stay 0, these files are outside every "
             "workload's lane",
    "python": "host_ops_per_s everywhere: stdlib and builtin self time",
}

_VIRT_MOVES = {
    "fs.vfs": "virt_ops_per_s and virt_lat_mean_us on fio-sync/fio-ring",
    "io.ring": "virt_ops_per_s on fio-ring (fewer entries per op is the "
               "ring's whole virtual gain)",
    "fs.qos": "virt_lat_p99_x_mean on serve-tenants",
    "engine": "virt_lat_p99_x_mean on serve-tenants first (waiting rises "
              "before throughput stops rising), virt_ops_per_s on fio-*",
    "core": "virt_ops_per_s and nvmm_write_amp on fileserver",
    "fs.pmfs": "virt_ops_per_s on fio-sync/fio-ring",
    "nvmm": "virt_lat_p99_x_mean on serve-tenants, virt_ops_per_s on fio-*",
    "io.mmio": "every virtual metric of fio-mmap only",
    "fs.health": "nothing while no scrub runs",
}

_TENANTS_TAIL = "virt_lat_p99_x_mean on serve-tenants only"
_FILESERVER = "virt_ops_per_s and nvmm_write_amp on fileserver"

#: ``(name, unit, better, moves)`` of every count and ratio metric.
_COUNTS = (
    ("fs.vfs.syscall_entries_per_op", "count", "lower",
     "virt_ops_per_s, virt_lat_mean_us on fio-sync/fio-ring; 0 on fio-mmap"),
    ("io.ring.sqes_per_batch", "count", "higher",
     "virt_ops_per_s on fio-ring"),
    ("io.ring.retries_per_op", "count", "lower",
     "nothing while no fault is injected"),
    ("io.mmio.log_appends_per_store", "count", "lower",
     "nvmm_write_amp on fio-mmap"),
    ("io.mmio.autocommits", "count", "lower",
     "virt_lat_p99_x_mean on fio-mmap"),
    ("fs.qos.throttle_ns_per_op", "ns", "lower", _TENANTS_TAIL),
    ("fs.qos.shed_frac", "frac", "lower",
     "failed/attempted on serve-tenants only"),
    ("fs.qos.bronze_p99_us", "us", "lower", _TENANTS_TAIL),
    ("fs.qos.silver_p99_us", "us", "lower", _TENANTS_TAIL),
    ("fs.qos.gold_p99_us", "us", "lower", _TENANTS_TAIL),
    ("fs.shard.req_imbalance", "ratio", "lower", _TENANTS_TAIL),
    ("fs.shard.ledger_exact", "bool", "higher",
     "correct on serve-tenants: per-device ledgers sum to the totals"),
    ("engine.lock_contention_frac", "frac", "lower", _TENANTS_TAIL),
    ("engine.lock_wait_ns_per_op", "ns", "lower",
     "virt_lat_p99_x_mean on serve-tenants, virt_ops_per_s on fio-*"),
    ("engine.completion_wait_ns_per_op", "ns", "lower",
     "virt_lat_mean_us on fio-ring"),
    ("core.buffer_hit_frac", "frac", "higher",
     "nvmm_write_amp (down) and virt_ops_per_s on fileserver"),
    ("core.evictions_per_op", "count", "lower", _FILESERVER),
    ("core.eager_write_frac", "frac", "lower", _FILESERVER),
    ("core.demand_stalls_per_kop", "count", "lower",
     "virt_lat_p99_x_mean on fileserver"),
    ("core.flushed_lines_per_op", "count", "lower", _FILESERVER),
    ("fs.pmfs.meta_block_writes_per_op", "count", "lower",
     "nvmm_write_amp on fileserver"),
    ("fs.pmfs.journal_wraps", "count", "lower",
     "nvmm_write_amp on fio-sync/fio-ring/fileserver"),
    ("nvmm.bytes_written_per_op", "B", "lower",
     "nvmm_write_amp everywhere"),
    ("nvmm.bytes_read_per_op", "B", "lower",
     "nothing yet: the cost model charges no read time"),
    ("nvmm.slot_grants_per_op", "count", "lower",
     "virt_lat_p99_x_mean on serve-tenants, virt_ops_per_s on fio-*"),
    ("nvmm.slot_wait_ns_per_op", "ns", "lower",
     "virt_lat_p99_x_mean on serve-tenants"),
    ("faults.states_checked", "count", "higher",
     "must not change when host_ops_per_s on crash-explore does"),
    ("faults.dup_skip_frac", "frac", "lower",
     "host_ops_per_s on crash-explore: draws hashed and thrown away"),
    ("faults.tape_events", "count", "lower",
     "faults.states_checked on crash-explore"),
    ("faults.host_ms_per_state", "ms", "lower",
     "host_ops_per_s on crash-explore (its reciprocal)"),
    ("workloads.virt_lat_p50_us", "us", "lower",
     "reported beside virt_lat_mean_us; 0 on fio-ring by construction"),
    ("workloads.virt_lat_p99_us", "us", "lower",
     "numerator of virt_lat_p99_x_mean"),
    ("workloads.virt_lat_p999_us", "us", "lower",
     "reported where >=10000 samples (fio-*, serve-tenants), else 0"),
    ("workloads.virt_lat_samples", "count", "higher",
     "sample count behind the latency percentiles"),
    ("obs.virt_closure_frac", "frac", "higher",
     "nothing: share of thread time the spans account for"),
    ("obs.host_overhead_frac", "frac", "lower",
     "nothing end to end: the price of tracing"),
)


def per_layer():
    """``[(name, unit, better, moves), ...]`` of every per-layer metric."""
    out = []
    for layer in LAYERS:
        out.append((layer + ".host_self_frac", "frac", "lower",
                    _HOST_MOVES[layer]))
        out.append((layer + ".host_calls_per_op", "count", "lower",
                    _HOST_MOVES[layer]))
    for layer in sorted(set(SPINE.values()) | {"fs.pmfs"}):
        out.append((layer + ".virt_self_ns_per_op", "ns", "lower",
                    _VIRT_MOVES[layer]))
    out.extend(_COUNTS)
    return out


def layer_metrics(timed, t1, t2):
    """Every per-layer metric of one traced run, from the records of its
    untraced, span-traced and profiled repeats (``t1`` may be None)."""
    values = dict.fromkeys((name for name, *_ in per_layer()), 0.0)
    for family in ("host_self_frac", "host_calls_per_op"):
        for layer, value in t2["t2"][family].items():
            values["%s.%s" % (layer, family)] = value
    values.update(timed["counts"])
    for key in ("p50_us", "p99_us", "p999_us", "samples"):
        values["workloads.virt_lat_" + key] = timed["virtual"][
            "virt_lat_" + key]
    values["faults.host_ms_per_state"] = (
        1e3 / timed["host_ops_per_s"] if "faults.states_checked"
        in timed["counts"] else 0.0)
    if t1 is not None:
        for layer, ns in t1["t1"]["virt_self_ns_per_op"].items():
            values[layer + ".virt_self_ns_per_op"] = ns
        values["obs.virt_closure_frac"] = t1["t1"]["virt_closure_frac"]
        values["obs.host_overhead_frac"] = (
            1 - t1["host_ops_per_s"] / timed["host_ops_per_s"])
    return values


def render_markdown():
    """The README's metric catalogue, generated from BENCHMARK.json."""
    bench = load_benchmark()
    moves = {name: text for name, _u, _b, text in per_layer()}
    lines = ["| end-to-end metric | unit | better | bound | meaning |",
             "|---|---|---|---|---|"]
    for m in bench["end_to_end"]:
        lines.append("| `%s` | %s | %s | %g%% | %s |" % (
            m["name"], m["unit"], m["better"], m["bound"] * 100,
            END_TO_END_DOC[m["name"]]))
    lines += ["", "| per-layer metric | unit | better | should move |",
              "|---|---|---|---|"]
    for m in bench["per_layer"]:
        lines.append("| `%s` | %s | %s | %s |" % (
            m["name"], m["unit"], m["better"], moves[m["name"]]))
    return "\n".join(lines) + "\n"
