"""Figure 10: throughput as a function of the DRAM buffer size.

The buffer size sweeps from 0.1x to 1.0x the workload's fileset size.
Expected shape: Fileserver improves markedly as the buffer grows (more
write hits); Webproxy stays nearly flat (strong locality plus
short-lived files that die before writeback, so even a small buffer
absorbs almost everything).
"""

from repro.bench.report import Series, Table
from repro.bench.experiments.common import SMALL

RATIOS = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


#: Tight filesets so the 0.1x-1.0x buffer sweep spans the regime where
#: absorption actually turns on (mirrors the fig8 sizing).
FILESETS = {
    "fileserver": dict(files_per_thread=24, mean_file_size=32 << 10,
                       io_size=32 << 10),
    "webproxy": dict(files_per_thread=30),
}


def run(scale=SMALL, ratios=RATIOS):
    table = Table(
        "Figure 10: HiNFS throughput vs DRAM buffer size (fraction of fileset)",
        ["buffer_ratio", "fileserver", "webproxy"],
    )
    series = {name: Series(name) for name in FILESETS}
    for ratio in ratios:
        row = [ratio]
        for name, fileset in FILESETS.items():
            workload = scale.personality(name, **fileset)
            fileset_bytes = (workload.threads * workload.files_per_thread
                             * workload.mean_file_size)
            result = scale.run(
                "hinfs", workload,
                duration_ns=scale.duration_ns,
                hinfs_config=scale.hinfs_config(
                    buffer_bytes=max(32 * 4096, int(ratio * fileset_bytes))),
            )
            series[name].add(ratio, result.throughput)
            row.append(result.throughput)
        table.add_row(*row)
    return [table], series


def check_shape(series):
    fileserver = series["fileserver"].ys()
    webproxy = series["webproxy"].ys()
    # Fileserver gains clearly from a bigger buffer.
    assert fileserver[-1] >= 1.2 * fileserver[0], fileserver
    # Webproxy is insensitive (within noise).
    assert max(webproxy) <= 1.25 * min(webproxy), webproxy
