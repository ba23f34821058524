"""Figure 1: time breakdown of running fio on PMFS.

The paper profiles a 1-read : 2-writes fio run on PMFS per I/O size and
splits time into *Read Access* (NVMM -> user copies), *Write Access*
(user -> NVMM copies), and *Others*.  Expected shape: the direct write
access dominates (> 80 %) at I/O sizes >= 4 KiB and still accounts for a
noticeable share (>= ~16 %) at 64 B.
"""

from repro.bench.report import Table
from repro.bench.experiments.common import SMALL
from repro.engine.stats import CAT_OTHERS, CAT_READ_ACCESS, CAT_WRITE_ACCESS
from repro.workloads.fio import FioWorkload

IO_SIZES = (64, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20)


def run(scale=SMALL, io_sizes=IO_SIZES, fs_name="pmfs"):
    table = Table(
        "Figure 1: fio time breakdown on %s (read:write = 1:2)" % fs_name,
        ["io_size", "read_access_%", "write_access_%", "others_%"],
    )
    fractions = {}
    for io_size in io_sizes:
        workload = FioWorkload(
            io_size=io_size,
            file_size=min(16 << 20, max(1 << 20, io_size * 64)),
            read_fraction=1 / 3,
            ops_per_thread=max(200, 2000 // max(1, io_size // 4096)),
            threads=1,
        )
        result = scale.run(fs_name, workload, duration_ns=scale.duration_ns)
        fr = result.stats.breakdown.fractions()
        read = fr.get(CAT_READ_ACCESS, 0.0)
        write = fr.get(CAT_WRITE_ACCESS, 0.0)
        others = fr.get(CAT_OTHERS, 0.0)
        fractions[io_size] = {"read": read, "write": write, "others": others}
        table.add_row(io_size, 100 * read, 100 * write, 100 * others)
    return [table], fractions


def check_shape(fractions):
    """The paper's Figure 1 claims, as assertions."""
    for io_size, fr in fractions.items():
        if io_size >= 4096:
            assert fr["write"] >= 0.80, (
                "write access should dominate at %dB: %r" % (io_size, fr)
            )
    assert fractions[64]["write"] >= 0.10
    assert fractions[64]["others"] >= fractions[1 << 20]["others"]
