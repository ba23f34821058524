"""Figure 8: throughput for 1-10 threads.

Expected shape: HiNFS scales best everywhere.  PMFS/EXT4-DAX become
limited by the NVMM write bandwidth on Fileserver; HiNFS stays about
1.5x ahead of PMFS at high thread counts.  On Webserver and Varmail,
HiNFS tracks PMFS closely and both beat the NVMMBD stacks.
"""

from repro.bench.report import Series, Table
from repro.bench.experiments.common import SMALL

FILE_SYSTEMS = ("hinfs", "pmfs", "ext4-dax", "ext2-nvmmbd")
THREAD_COUNTS = (1, 2, 4, 8, 10)


#: Filesets sized so file lifetimes stay shorter than the buffer's drain
#: horizon (the paper's 5 GB fileset vs 2 GB buffer ratio) -- the
#: delete-absorption and coalescing effects need live buffered blocks.
FILESETS = {
    "fileserver": dict(files_per_thread=16, mean_file_size=32 << 10,
                       io_size=32 << 10),
    "webproxy": dict(files_per_thread=30),
}


def run(scale=SMALL, personalities=("fileserver", "webproxy"),
        file_systems=FILE_SYSTEMS, thread_counts=THREAD_COUNTS):
    tables = []
    series = {}
    for name in personalities:
        table = Table(
            "Figure 8 (%s): ops/s for 1-10 threads" % name,
            ["threads"] + list(file_systems),
        )
        per_fs = {fs: Series(fs) for fs in file_systems}
        for threads in thread_counts:
            row = [threads]
            for fs_name in file_systems:
                workload = scale.personality(name, threads=threads,
                                             **FILESETS.get(name, {}))
                # Webproxy's per-thread log grows 16 KB an iteration for
                # the whole run, so how much device a run needs follows
                # its throughput: 233 MB on HiNFS at 10 threads.
                result = scale.run(
                    fs_name, workload,
                    duration_ns=scale.duration_ns,
                    device_size=scale.device_size * 2,
                    hinfs_config=scale.hinfs_config(
                        buffer_bytes=scale.buffer_bytes * 2),
                )
                per_fs[fs_name].add(threads, result.throughput)
                row.append(result.throughput)
            table.add_row(*row)
        tables.append(table)
        series[name] = per_fs
    return tables, series


def check_shape(series):
    """The paper's Figure 8 claims."""
    for name, per_fs in series.items():
        hinfs = per_fs["hinfs"].ys()
        pmfs = per_fs["pmfs"].ys()
        # PMFS rises with threads, then is capped by the NVMM write
        # bandwidth (Section 5.2.2).
        assert pmfs[1] > 1.2 * pmfs[0], (name, pmfs)
        assert pmfs[-1] <= 1.25 * pmfs[len(pmfs) // 2], (name, pmfs)
        # HiNFS clearly beats PMFS at the top thread count on the
        # write-dominated fileserver (the paper: ~1.5x there); on the
        # read-heavier webproxy the gap is smaller but still present.
        factor = 1.25 if name == "fileserver" else 1.05
        assert hinfs[-1] >= factor * pmfs[-1], (name, hinfs, pmfs)
        # A dip from the shrinking per-thread buffer share is expected,
        # but throughput stabilises (paper: stable beyond 8 threads).
        assert hinfs[-1] >= 0.7 * max(hinfs), (name, hinfs)
        # HiNFS is never (meaningfully) below PMFS.
        for h, p in zip(hinfs, pmfs):
            assert h >= 0.85 * p, (name, hinfs, pmfs)
