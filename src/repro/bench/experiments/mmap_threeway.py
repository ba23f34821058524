"""Zero-syscall mmap data plane: sync vs ring batch-64 vs MAP_ATOMIC.

Three ways to push the same small-op fio stream into the PMFS-family
stacks, in increasing order of syscall avoidance:

1. **sync**: one syscall per op -- every 64-byte write pays the full
   ``T_syscall`` entry plus VFS dispatch;
2. **ring**: the io_uring-style ring at batch depth 64 -- the entry is
   paid once per batch, but dispatch and completion bookkeeping remain;
3. **mmap**: a library-mode ``MAP_ATOMIC`` mapping -- loads and stores
   hit NVMM in process.  After setup there are *zero* syscalls: the
   only per-op costs are the media itself and the epoch log append.

At small I/O sizes the per-op constant dominates media time, so the
expected shape is mmap > ring > sync throughput on every stack, with
the mmap margin largest exactly where the paper's software-overhead
argument lives.  The accounting leg pins the headline claim exactly:
the steady-state mmap run finishes with an **empty syscall ledger**
(``syscall_time_ns == {}``, zero VFS entries) while still performing
every op of the stream, each op logged and crash-atomic.
"""

from repro.bench.report import Series, Table
from repro.bench.experiments.common import SMALL
from repro.workloads.fio import FioWorkload, RingFioWorkload
from repro.workloads.mmio import MmapFioWorkload

FILE_SYSTEMS = ("hinfs", "pmfs", "ext4-dax")
LEGS = ("sync", "ring", "mmap")


def _make(leg, policy, **kwargs):
    if leg == "sync":
        return FioWorkload(**kwargs), None
    if leg == "ring":
        return RingFioWorkload(batch_depth=64, **kwargs), None
    workload = MmapFioWorkload(policy=policy, **kwargs)
    return workload, workload.attach


def run(scale=SMALL, file_systems=FILE_SYSTEMS, threads=2,
        ops_per_thread=1500, io_size=64, file_size=1 << 20,
        fsync_every=16, policy="auto"):
    config = scale.nvmm_config()

    def one_run(fs_name, leg, nthreads, ops, pacing):
        workload, setup = _make(
            leg, policy,
            threads=nthreads, ops_per_thread=ops, io_size=io_size,
            file_size=file_size, fsync_every=pacing,
        )
        return scale.run(fs_name, workload, config=config, setup=setup)

    table = Table(
        "Data-plane comparison (fio mixed, %d B ops, sync=%d, %d threads): "
        "ops/s per submission mechanism" % (io_size, fsync_every, threads),
        ["fs"] + list(LEGS),
    )
    throughput = {leg: Series(leg) for leg in LEGS}
    counters = {}
    for fs_name in file_systems:
        row = [fs_name]
        counters[fs_name] = {}
        for leg in LEGS:
            result = one_run(fs_name, leg, threads, ops_per_thread,
                             fsync_every)
            throughput[leg].add(fs_name, result.throughput)
            counters[fs_name][leg] = {
                "ops": result.ops,
                "syscall_time_ns": sum(
                    result.stats.syscall_time_ns.values()),
                "syscall_entries": result.stats.count(
                    "vfs_syscall_entries"),
                "mmio_stores": result.stats.count("mmio_stores"),
                "mmio_loads": result.stats.count("mmio_loads"),
                "mmio_log_appends": result.stats.count("mmio_log_appends"),
                "mmio_epochs_committed": result.stats.count(
                    "mmio_epochs_committed"),
            }
            row.append(result.throughput)
        table.add_row(*row)

    # The zero-syscall ledger, pinned exactly: single thread, steady
    # state -- every op runs, not one syscall is charged.
    accounting_table = Table(
        "Steady-state ledger (single thread, %d ops): syscalls charged "
        "per data plane" % ops_per_thread,
        ["leg", "syscall_entries", "syscall_time_ns", "ops_completed"],
    )
    accounting = {}
    for leg in LEGS:
        result = one_run("hinfs", leg, 1, ops_per_thread, fsync_every)
        accounting[leg] = {
            "ops": result.ops,
            "syscall_entries": result.stats.count("vfs_syscall_entries"),
            "syscall_time_ns": sum(result.stats.syscall_time_ns.values()),
            "syscall_ledger": dict(result.stats.syscall_time_ns),
            "mmio_stores": result.stats.count("mmio_stores"),
            "mmio_loads": result.stats.count("mmio_loads"),
            "msync_calls": result.stats.count("msync_calls"),
        }
        accounting_table.add_row(leg, accounting[leg]["syscall_entries"],
                                 accounting[leg]["syscall_time_ns"],
                                 accounting[leg]["ops"])

    data = {
        "throughput": throughput,
        "counters": counters,
        "accounting": accounting,
        "ops_per_thread": ops_per_thread,
        "threads": threads,
        "syscall_ns": config.syscall_ns,
    }
    return [table, accounting_table], data


def check_shape(data):
    """The acceptance shape for the zero-syscall data plane."""
    throughput = data["throughput"]
    legs = {leg: dict(zip(throughput[leg].xs(), throughput[leg].ys()))
            for leg in LEGS}
    for fs_name in legs["sync"]:
        sync, ring, mmap = (legs["sync"][fs_name], legs["ring"][fs_name],
                            legs["mmap"][fs_name])
        # Batching amortizes the entry; the mapping eliminates it (and
        # the VFS dispatch), so the ordering is strict at 64 B ops.
        assert ring > sync, (fs_name, sync, ring)
        assert mmap > ring, (fs_name, ring, mmap)
    # Identical op streams: the mapped leg replays the exact fio
    # sequence; the only lifecycle ops it skips are each thread's
    # open and close (the mapping outlives the measured phase).
    threads = data["threads"]
    for fs_name, per_leg in data["counters"].items():
        assert per_leg["sync"]["ops"] - per_leg["mmap"]["ops"] \
            == 2 * threads, (fs_name, per_leg)
        mmio_ops = (per_leg["mmap"]["mmio_stores"]
                    + per_leg["mmap"]["mmio_loads"])
        assert mmio_ops == threads * data["ops_per_thread"], (
            fs_name, per_leg["mmap"])
        # Every store was logged at least once (crash atomicity is on
        # the whole time the plane is winning the throughput race).
        assert per_leg["mmap"]["mmio_log_appends"] >= \
            per_leg["mmap"]["mmio_stores"], (fs_name, per_leg["mmap"])
    # The headline ledger, exact: the steady-state mmap leg charged
    # literally zero syscall time and zero VFS entries, while sync and
    # ring both paid for every entry they made.
    acct = data["accounting"]
    assert acct["mmap"]["syscall_entries"] == 0, acct["mmap"]
    assert acct["mmap"]["syscall_time_ns"] == 0, acct["mmap"]
    assert acct["mmap"]["syscall_ledger"] == {}, acct["mmap"]
    assert acct["mmap"]["mmio_stores"] + acct["mmap"]["mmio_loads"] \
        == data["ops_per_thread"], acct["mmap"]
    assert acct["sync"]["syscall_entries"] > 0
    assert acct["ring"]["syscall_entries"] > 0
    assert acct["sync"]["syscall_time_ns"] > \
        acct["ring"]["syscall_time_ns"] > 0, acct
