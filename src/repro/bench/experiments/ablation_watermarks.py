"""Ablation: writeback watermarks and batch size (Section 3.2 defaults).

The paper fixes ``Low_f = 5 %`` and ``High_f = 20 %`` "by default and
configurable".  This ablation sweeps the watermark pair (and the demand
reclaim batch) on a write-intensive fileserver run against a small
buffer, where the settings actually matter.  Expected shape: overly lazy
settings (tiny High_f) cause more demand stalls; overly eager settings
(huge High_f) throw away coalescing opportunity; the paper's default
sits in the stable middle.
"""

from repro.bench.report import Table
from repro.bench.experiments.common import SMALL

SETTINGS = (
    ("lazy", 0.02, 0.05),
    ("paper", 0.05, 0.20),
    ("eager", 0.20, 0.60),
)


def run(scale=SMALL, settings=SETTINGS):
    table = Table(
        "Ablation: Low_f/High_f watermarks (fileserver, tight buffer)",
        ["setting", "low", "high", "ops_per_sec", "demand_stalls",
         "bg_blocks"],
    )
    results = {}
    for name, low, high in settings:
        workload = scale.personality(
            "fileserver", files_per_thread=40, mean_file_size=32 << 10,
            io_size=32 << 10)
        result = scale.run(
            "hinfs", workload,
            duration_ns=scale.duration_ns,
            hinfs_config=scale.hinfs_config(
                buffer_bytes=1 << 20,
                low_watermark=low,
                high_watermark=high,
            ),
        )
        stalls = result.stats.count("writeback_demand_stalls")
        bg = result.stats.count("writeback_pressure_blocks")
        results[name] = {"throughput": result.throughput, "stalls": stalls,
                         "bg_blocks": bg}
        table.add_row(name, low, high, result.throughput, stalls, bg)
    return [table], results


def check_shape(results):
    # The paper's default must be competitive with both extremes.
    best = max(r["throughput"] for r in results.values())
    assert results["paper"]["throughput"] >= 0.85 * best, results
    # Lazier watermarks reclaim less in the background.
    assert results["lazy"]["bg_blocks"] <= results["eager"]["bg_blocks"], results
