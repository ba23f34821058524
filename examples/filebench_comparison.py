"""Compare the five file systems on a filebench personality.

A miniature of the paper's Figure 7: runs the chosen personality on
HiNFS, PMFS, EXT4-DAX, and EXT2/EXT4+NVMMBD and prints throughput
normalised to PMFS.

Run:  python examples/filebench_comparison.py [fileserver|webserver|webproxy|varmail]
"""

import sys

from repro.bench.report import Table
from repro.bench.runner import run_workload
from repro.core.config import HiNFSConfig
from repro.workloads.filebench import PERSONALITIES

FILE_SYSTEMS = ("hinfs", "pmfs", "ext4-dax", "ext2-nvmmbd", "ext4-nvmmbd")


def main(argv):
    name = argv[1] if len(argv) > 1 else "fileserver"
    cls = PERSONALITIES[name]
    table = Table("%s: throughput (ops/s) by file system" % name,
                  ["fs", "ops_per_sec", "vs_pmfs", "nvmm_MB_written"])
    results = {}
    for fs_name in FILE_SYSTEMS:
        workload = cls(threads=2, files_per_thread=60, duration_ops=100_000)
        results[fs_name] = run_workload(
            fs_name, workload,
            device_size=128 << 20,
            duration_ns=300_000_000,
            hinfs_config=HiNFSConfig(buffer_bytes=8 << 20),
            cache_pages=2048,
        )
    base = results["pmfs"].throughput
    for fs_name, result in results.items():
        table.add_row(fs_name, result.throughput, result.throughput / base,
                      result.nvmm_bytes_written / 1e6)
    print(table)


if __name__ == "__main__":
    main(sys.argv)
