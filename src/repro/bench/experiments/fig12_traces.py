"""Figure 12: breakdown of trace-replay time (read/write/unlink/fsync).

Replays the four syscall traces on every file system (plus the HiNFS-WB
ablation) and reports per-syscall time, normalised to PMFS's total.
Expected shape (paper Section 5.3): HiNFS cuts replay time by roughly
a third on Usr0/Usr1/LASR (all of it out of the write bucket), matches
PMFS on the sync-dominated Facebook trace, and beats HiNFS-WB on the
traces with many syncs (buffering eager-persistent writes hurts).
"""

from repro.bench.report import Table
from repro.bench.experiments.common import SMALL
from repro.workloads.traces import SYNTHESIZERS, TraceReplayWorkload

FILE_SYSTEMS = ("hinfs", "hinfs-wb", "pmfs", "ext4-dax", "ext2-nvmmbd",
                "ext4-nvmmbd")
SYSCALLS = ("read", "write", "unlink", "fsync")


def run(scale=SMALL, traces=("usr0", "usr1", "lasr", "facebook"),
        file_systems=FILE_SYSTEMS):
    tables = []
    totals = {}
    for trace_name in traces:
        trace = SYNTHESIZERS[trace_name](ops=scale.trace_ops)
        table = Table(
            "Figure 12 (%s): replay time breakdown, normalised to PMFS"
            % trace_name,
            ["fs"] + ["%s_t" % s for s in SYSCALLS] + ["total"],
        )
        raw = {}
        for fs_name in file_systems:
            workload = TraceReplayWorkload(trace)
            result = scale.run(
                fs_name, workload,
                # The paper sets the buffer to 1/10 of the workload size
                # for the trace and macro runs (Section 5.3).
                hinfs_config=scale.hinfs_config(buffer_bytes=2 << 20),
                cache_pages=512,
            )
            per_syscall = {
                syscall: result.stats.syscall_time_ns.get(syscall, 0)
                for syscall in SYSCALLS
            }
            raw[fs_name] = per_syscall
        base = max(1, sum(raw["pmfs"].values()))
        for fs_name in file_systems:
            values = [raw[fs_name][s] / base for s in SYSCALLS]
            table.add_row(fs_name, *values, sum(values))
        tables.append(table)
        totals[trace_name] = {
            fs: sum(raw[fs].values()) / base for fs in file_systems
        }
    return tables, totals


def check_shape(totals):
    # HiNFS clearly beats PMFS on the coalescible traces (paper: 35-38 %).
    for trace in ("usr0", "usr1", "lasr"):
        assert totals[trace]["hinfs"] <= 0.80, (trace, totals[trace])
    # On the sync-everything Facebook trace HiNFS ~ PMFS.
    assert 0.75 <= totals["facebook"]["hinfs"] <= 1.15, totals["facebook"]
    # The eager-persistent checker pays off where syncs are frequent: on
    # Facebook the naive buffer is strictly worse; on the mixed desktop
    # traces it must at least never win meaningfully (the paper reports a
    # larger WB penalty there, driven by buffer-pollution cascades at a
    # trace scale this simulation does not reach -- see EXPERIMENTS.md).
    assert totals["facebook"]["hinfs-wb"] >= 1.05 * totals["facebook"]["hinfs"]
    for trace in ("usr0", "usr1"):
        assert totals[trace]["hinfs-wb"] >= 0.9 * totals[trace]["hinfs"], (
            trace, totals[trace]
        )
