"""Figure 11: sensitivity to the NVMM write latency (single thread).

The write latency sweeps 50-800 ns.  Expected shape: the HiNFS-vs-PMFS
gap grows with the latency (the paper reports up to ~6x at 800 ns on
Webproxy), and even at DRAM-like 50 ns HiNFS performs no worse than
PMFS (the Benefit Model keeps the double copy off the path).
"""

from repro.bench.report import Table
from repro.bench.experiments.common import SMALL
from repro.engine.stats import percentiles

LATENCIES_NS = (50, 100, 200, 400, 800)


def run(scale=SMALL, latencies=LATENCIES_NS):
    table = Table(
        "Figure 11: throughput vs NVMM write latency (1 thread)",
        ["latency_ns",
         "fileserver_hinfs", "fileserver_pmfs",
         "webproxy_hinfs", "webproxy_pmfs"],
    )
    tail_table = Table(
        "Figure 11 companion: per-op p99 latency (us), exact nearest-rank",
        ["latency_ns",
         "fileserver_hinfs", "fileserver_pmfs",
         "webproxy_hinfs", "webproxy_pmfs"],
    )
    ratios = {"fileserver": {}, "webproxy": {}}
    tails = {"fileserver": {}, "webproxy": {}}
    for latency in latencies:
        config = scale.nvmm_config(nvmm_write_latency_ns=latency)
        row = [latency]
        tail_row = [latency]
        for name in ("fileserver", "webproxy"):
            per_fs = {}
            for fs_name in ("hinfs", "pmfs"):
                result = scale.run(
                    fs_name, scale.personality(name, threads=1),
                    config=config,
                    duration_ns=scale.duration_ns,
                    record_latencies=True,
                )
                per_fs[fs_name] = result.throughput
                ps = percentiles(result.op_latencies_ns, (50, 99))
                tails[name].setdefault(fs_name, {})[latency] = ps
                tail_row.append("%.2f" % (ps[99] / 1e3))
            ratios[name][latency] = per_fs["hinfs"] / per_fs["pmfs"]
            row.extend([per_fs["hinfs"], per_fs["pmfs"]])
        table.add_row(*row)
        tail_table.add_row(*tail_row)
    return [table, tail_table], {"ratios": ratios, "latency_tails": tails}


def check_shape(data):
    ratios = data["ratios"]
    # The per-op tails come out of the exact nearest-rank helper and must
    # at least be ordered and positive for every cell.
    for name, by_fs in data["latency_tails"].items():
        for fs_name, by_latency in by_fs.items():
            for latency, ps in by_latency.items():
                assert 0 < ps[50] <= ps[99], (name, fs_name, latency, ps)
    for name, by_latency in ratios.items():
        latencies = sorted(by_latency)
        # HiNFS never loses, even at DRAM-like latency.
        assert by_latency[latencies[0]] >= 0.9, (name, by_latency)
        # The advantage grows with the latency.
        assert by_latency[latencies[-1]] > 1.5 * by_latency[latencies[0]], (
            name, by_latency
        )
        gaps = [by_latency[lat] for lat in latencies]
        assert gaps[-1] == max(gaps), (name, by_latency)
