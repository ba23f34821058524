"""Figure 2: percentage of fsync bytes across workloads.

The paper instruments each workload and reports how much of the written
data is covered by an fsync: TPC-C is over 90 % fsynced, LASR not at
all, the desktop traces and Varmail sit in between.  We run each
workload on PMFS with the VFS's fsync-byte accounting enabled.
"""

from repro.bench.report import Table
from repro.bench.experiments.common import SMALL
from repro.workloads.filebench import Varmail
from repro.workloads.macro import TPCC
from repro.workloads.traces import (
    SYNTHESIZERS,
    TraceReplayWorkload,
)


def _workloads(scale):
    for name, synth in sorted(SYNTHESIZERS.items()):
        yield name, TraceReplayWorkload(synth(ops=scale.trace_ops))
    yield "tpcc", TPCC(transactions=min(400, scale.trace_ops // 4))
    yield "varmail", Varmail(files_per_thread=40, duration_ops=150)


def run(scale=SMALL):
    table = Table(
        "Figure 2: percentage of written bytes covered by fsync",
        ["workload", "written_MB", "fsync_bytes_%"],
    )
    fractions = {}
    for name, workload in _workloads(scale):
        result = scale.run("pmfs", workload)
        fractions[name] = result.fsync_byte_fraction
        table.add_row(name,
                      result.stats.count("app_bytes_written") / 1e6,
                      100 * result.fsync_byte_fraction)
    return [table], fractions


def check_shape(fractions):
    """The paper's Figure 2 claims."""
    assert fractions["tpcc"] > 0.90, fractions
    assert fractions["lasr"] == 0.0, fractions
    assert fractions["facebook"] > 0.6, fractions
    assert 0.2 < fractions["usr0"] < 0.8, fractions
    assert 0.2 < fractions["usr1"] < 0.8, fractions
    assert fractions["varmail"] > 0.3, fractions
