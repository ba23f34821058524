"""Batched submission: the io_uring-style ring's amortization sweep.

The same fio op stream (fixed seed, so identical offsets, mix, and
fsync pacing) is driven through the submission/completion ring at batch
depths 1 to 64.  Depth 1 costs exactly what the sync-syscall path
costs -- every data syscall in the stack runs the same per-SQE core,
without the queues -- so the sweep isolates what batching buys: the
``T_syscall`` user/kernel mode switch is paid once per batch instead
of once per op, and fsyncs marked ``IOSQE_ASYNC``
resolve their CQEs at the persist point instead of blocking the
submitter inside the handler.

Expected shape:

- Throughput rises monotonically with depth on every stack (the op
  stream is identical; only entry charges and fsync blocking shrink),
  with HiNFS gaining visibly from 1 to 64.
- The gain is *bounded*: per-op work (``vfs_op_ns`` + fs + media time)
  dominates the amortized entry, so deep batches approach an asymptote
  rather than scaling with depth.
- The accounting is exact: with fsyncs disabled (no device-timeline
  coupling), the total syscall time at depth ``d`` differs from depth 1
  by precisely ``(batches_1 - batches_d) * T_syscall``.
"""

from repro.bench.report import Series, Table
from repro.bench.experiments.common import SMALL
from repro.workloads.fio import RingFioWorkload

FILE_SYSTEMS = ("hinfs", "pmfs", "ext4-dax", "ext2-nvmmbd", "ext4-nvmmbd")
BATCH_DEPTHS = (1, 4, 8, 16, 32, 64)


def run(scale=SMALL, file_systems=FILE_SYSTEMS, batch_depths=BATCH_DEPTHS,
        threads=2, ops_per_thread=900, io_size=4096, file_size=1 << 20,
        fsync_every=16):
    config = scale.nvmm_config()

    def one_run(fs_name, depth, fsync_pacing, nthreads, ops):
        workload = RingFioWorkload(
            batch_depth=depth,
            threads=nthreads,
            ops_per_thread=ops,
            io_size=io_size,
            file_size=file_size,
            fsync_every=fsync_pacing,
        )
        return scale.run(fs_name, workload, config=config)

    table = Table(
        "Batched submission (fio mixed, %d B ops, fsync=%d, %d threads): "
        "ops/s at ring batch depth 1-64"
        % (io_size, fsync_every, threads),
        ["depth"] + list(file_systems),
    )
    per_fs = {fs: Series(fs) for fs in file_systems}
    counters = {fs: [] for fs in file_systems}
    for depth in batch_depths:
        row = [depth]
        for fs_name in file_systems:
            result = one_run(fs_name, depth, fsync_every, threads,
                             ops_per_thread)
            per_fs[fs_name].add(depth, result.throughput)
            counters[fs_name].append({
                "depth": depth,
                "ops": result.ops,
                "ring_batches": result.stats.count("ring_batches"),
                "ring_sqes": result.stats.count("ring_sqes"),
                "ring_cqes": result.stats.count("ring_cqes"),
                "syscall_entries": result.stats.count("vfs_syscall_entries"),
            })
            row.append(result.throughput)
        table.add_row(*row)

    # The exact-accounting sweep: single thread, no fsyncs, so the only
    # depth-dependent quantity in the whole run is how many times the
    # T_syscall entry was charged.
    accounting_table = Table(
        "Entry-charge accounting (hinfs, single thread, no fsync): "
        "total syscall ns vs ring batches",
        ["depth", "ring_batches", "syscall_time_ns"],
    )
    accounting = []
    for depth in batch_depths:
        result = one_run("hinfs", depth, 0, 1, ops_per_thread)
        total_syscall_ns = sum(result.stats.syscall_time_ns.values())
        accounting.append({
            "depth": depth,
            "ops": result.ops,
            "ring_batches": result.stats.count("ring_batches"),
            "ring_sqes": result.stats.count("ring_sqes"),
            "syscall_time_ns": total_syscall_ns,
            "throughput": result.throughput,
        })
        accounting_table.add_row(depth, accounting[-1]["ring_batches"],
                                 total_syscall_ns)

    data = {
        "throughput": per_fs,
        "counters": counters,
        "accounting": accounting,
        "syscall_ns": config.syscall_ns,
    }
    return [table, accounting_table], data


def check_shape(data):
    """The acceptance shape for the batched-submission layer."""
    per_fs = data["throughput"]
    hinfs = per_fs["hinfs"].ys()
    # Monotonically non-decreasing in depth, within queueing noise:
    # batching only removes entry charges and fsync blocking from an
    # identical op stream, but two threads' async flushes contend for
    # the NVMM writer slots at batch-boundary-dependent instants, which
    # wiggles elapsed time by a fraction of a percent.
    for shallow, deep in zip(hinfs, hinfs[1:]):
        assert deep >= 0.995 * shallow, hinfs
    # ... and the amortization is worth something visible end to end.
    assert hinfs[-1] > 1.02 * hinfs[0], hinfs
    # The uncontended sweep has no such coupling (single thread, no
    # fsyncs): there, deeper batches are strictly faster.
    uncontended = [row["throughput"] for row in data["accounting"]]
    for shallow, deep in zip(uncontended, uncontended[1:]):
        assert deep > shallow, uncontended
    # Identical op streams: every depth executed the same SQEs and
    # completed every one of them.
    for fs_name, rows in data["counters"].items():
        ops = {row["ops"] for row in rows}
        sqes = {row["ring_sqes"] for row in rows}
        assert len(ops) == 1 and len(sqes) == 1, (fs_name, rows)
        for row in rows:
            assert row["ring_cqes"] == row["ring_sqes"], (fs_name, row)
    # Exact entry accounting: depth d saves (batches_1 - batches_d)
    # T_syscall charges relative to depth 1, to the nanosecond.
    syscall_ns = data["syscall_ns"]
    base = data["accounting"][0]
    for row in data["accounting"][1:]:
        saved_batches = base["ring_batches"] - row["ring_batches"]
        saved_ns = base["syscall_time_ns"] - row["syscall_time_ns"]
        assert saved_ns == saved_batches * syscall_ns, (base, row, syscall_ns)
