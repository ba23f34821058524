"""Figure 13: elapsed time of the macrobenchmarks, normalised to PMFS.

Expected shape (paper Section 5.3): HiNFS cuts Postmark and Kernel-Make
time dramatically (short-lived files / lazy build writes); on TPC-C
(sync per commit) and Kernel-Grep (read-only) HiNFS matches PMFS; the
NVMMBD stacks are far slower everywhere, with EXT2 faster than EXT4
(no journaling).
"""

from repro.bench.report import Table
from repro.bench.experiments.common import SMALL
from repro.workloads.macro import KernelGrep, KernelMake, Postmark, TPCC

FILE_SYSTEMS = ("hinfs", "hinfs-wb", "pmfs", "ext4-dax", "ext2-nvmmbd",
                "ext4-nvmmbd")


def _workloads(scale):
    yield "postmark", Postmark(transactions=scale.trace_ops // 4,
                               initial_files=150)
    yield "tpcc", TPCC(transactions=scale.trace_ops // 6)
    yield "kernel-grep", KernelGrep()
    yield "kernel-make", KernelMake()


def run(scale=SMALL, file_systems=FILE_SYSTEMS):
    table = Table(
        "Figure 13: macrobenchmark elapsed time normalised to PMFS",
        ["workload"] + list(file_systems),
    )
    normalised = {}
    for name, workload in _workloads(scale):
        raw = {}
        for fs_name in file_systems:
            result = scale.run(
                fs_name, workload,
                # Buffer = ~1/10 of workload size (Section 5.3); the
                # page-cache budget of the block-based stacks is matched
                # so neither side gets free staging memory.
                hinfs_config=scale.hinfs_config(buffer_bytes=2 << 20),
                cache_pages=512,
            )
            raw[fs_name] = result.elapsed_ns
        base = raw["pmfs"]
        normalised[name] = {fs: v / base for fs, v in raw.items()}
        table.add_row(name, *[normalised[name][fs] for fs in file_systems])
    return [table], normalised


def check_shape(normalised):
    # Big HiNFS wins on the lazy-write workloads.
    assert normalised["postmark"]["hinfs"] <= 0.7, normalised["postmark"]
    assert normalised["kernel-make"]["hinfs"] <= 0.7, normalised["kernel-make"]
    # Parity on the read-only / sync-dominated ones.
    assert 0.8 <= normalised["kernel-grep"]["hinfs"] <= 1.1
    assert 0.8 <= normalised["tpcc"]["hinfs"] <= 1.1
    # EXT2 (no journal) is faster than EXT4 on NVMMBD.
    for name in normalised:
        assert (normalised[name]["ext2-nvmmbd"]
                <= normalised[name]["ext4-nvmmbd"] * 1.02), (name, normalised[name])
    # The NVMMBD stacks are far slower than HiNFS on the I/O-heavy runs.
    assert normalised["kernel-grep"]["ext2-nvmmbd"] >= 1.5
    # HiNFS-WB pays for buffering eager-persistent writes on TPC-C.
    assert normalised["tpcc"]["hinfs-wb"] >= normalised["tpcc"]["hinfs"]
