"""Thread scalability: fio read/write mixes at 1-16 threads.

The concurrency-model companion to Figure 8: instead of filebench
personalities this sweeps disjoint-file fio (each thread owns its file,
so per-inode VFS locks never contend) with fsync pacing (fio's
``fsync=32``), and measures how far each file system scales before a
shared bottleneck caps it.

Expected shape (the paper's Figs. 8-11 argument):

- HiNFS rises monotonically from 1 to 4 threads -- buffered writes cost
  DRAM time only, and each thread's fsync flushes drain through the
  ``N_w`` NVMM writer slots independently -- then plateaus once the
  aggregate persistent traffic saturates the slots (``N_w`` = 3 at the
  default 1 GB/s emulated write bandwidth, so the knee sits near 4
  threads).
- PMFS/EXT4-DAX pay NVMM latency on every write in the foreground, so
  they track slightly below HiNFS and hit the same writer-slot ceiling.
- The NVMMBD stacks sit far below the rest and stop scaling at the
  block layer; at high thread counts HiNFS is multiples ahead.

The sweep keeps the *aggregate* op count constant across thread counts
so every point does the same total work; fsync pacing keeps persistent
traffic flowing (an unsynced burst that fits in the DRAM buffer would
scale linearly forever and say nothing about the shared bottlenecks).
"""

from repro.bench.report import Series, Table
from repro.bench.experiments.common import SMALL
from repro.engine.stats import percentiles
from repro.workloads.fio import FioWorkload

FILE_SYSTEMS = ("hinfs", "pmfs", "ext4-dax", "ext2-nvmmbd", "ext4-nvmmbd")
THREAD_COUNTS = (1, 2, 4, 8, 16)
#: (label, read_fraction): the disjoint-file write sweep the acceptance
#: shape is asserted on, plus the paper's 1:2 read:write mix.
MIXES = (("write", 0.0), ("mixed", 1 / 3))


def run(scale=SMALL, file_systems=FILE_SYSTEMS, thread_counts=THREAD_COUNTS,
        mixes=MIXES, aggregate_ops=2400, io_size=4096, file_size=1 << 20,
        fsync_every=32):
    config = scale.nvmm_config()
    tables = []
    mixes_data = {}
    latency_tails = {}
    for mix_name, read_fraction in mixes:
        table = Table(
            "Thread scalability (fio %s, %d B ops, fsync=%d): "
            "ops/s for 1-16 threads"
            % (mix_name, io_size, fsync_every),
            ["threads"] + list(file_systems),
        )
        per_fs = {fs: Series(fs) for fs in file_systems}
        tails = latency_tails.setdefault(mix_name, {})
        for threads in thread_counts:
            row = [threads]
            for fs_name in file_systems:
                workload = FioWorkload(
                    threads=threads,
                    ops_per_thread=max(96, aggregate_ops // threads),
                    io_size=io_size,
                    file_size=file_size,
                    read_fraction=read_fraction,
                    fsync_every=fsync_every,
                )
                result = scale.run(
                    fs_name, workload,
                    config=config,
                    record_latencies=True,
                )
                per_fs[fs_name].add(threads, result.throughput)
                # Exact nearest-rank per-op tails alongside the
                # throughput curve -- the same queueing knee from the
                # latency side.
                tails.setdefault(fs_name, {})[threads] = percentiles(
                    result.op_latencies_ns, (50, 99))
                row.append(result.throughput)
            table.add_row(*row)
        tables.append(table)
        mixes_data[mix_name] = per_fs
    return tables, {"mixes": mixes_data, "latency_tails": latency_tails}


def check_shape(data):
    """The acceptance shape for the concurrency layer."""
    for mix_name, tails in data["latency_tails"].items():
        for fs_name, by_threads in tails.items():
            for threads, ps in by_threads.items():
                assert 0 < ps[50] <= ps[99], (mix_name, fs_name, threads, ps)
    for mix_name, per_fs in data["mixes"].items():
        hinfs = per_fs["hinfs"].ys()
        # Monotonic rise from 1 to 4 threads on disjoint files: per-inode
        # locking means independent threads only share N_w and DRAM.
        assert hinfs[0] < hinfs[1] < hinfs[2], (mix_name, hinfs)
        # Plateau near writer-slot saturation: past the knee, doubling
        # the thread count buys well under 2x.
        assert hinfs[-1] <= 1.4 * hinfs[-2], (mix_name, hinfs)
        # ... and the plateau holds rather than collapsing.
        assert hinfs[-1] >= 0.6 * max(hinfs), (mix_name, hinfs)
        # HiNFS stays level with or ahead of PMFS everywhere.
        pmfs = per_fs["pmfs"].ys()
        for h, p in zip(hinfs, pmfs):
            assert h >= 0.9 * p, (mix_name, hinfs, pmfs)
        # The block-layer stacks fall behind: at 16 threads HiNFS is
        # well ahead of ext2 over the NVMM block device and multiples
        # ahead of journaling ext4 (whose jbd2 serialisation makes it
        # *lose* throughput past 8 threads).
        for blockfs, margin in (("ext2-nvmmbd", 1.5), ("ext4-nvmmbd", 2.0)):
            if blockfs not in per_fs:
                continue
            assert hinfs[-1] >= margin * per_fs[blockfs].ys()[-1], (
                mix_name, hinfs, per_fs[blockfs].ys(),
            )
