"""Figure 7: overall filebench throughput, normalised to PMFS.

Expected shape (paper Section 5.2.1):

- HiNFS is the best (or tied-best) file system on every personality;
  the largest win is Fileserver (lazy-persistent writes dominate).
- On the read-intensive Webserver and the sync-heavy Varmail, HiNFS
  performs at par with PMFS (direct access keeps the double copy away).
- EXT4-DAX trails PMFS on Varmail (cache-oriented metadata).
- EXT2/EXT4+NVMMBD lose badly on Webserver (double-copy reads) and only
  approach/beat PMFS on Webproxy (strong locality, short-lived files).
"""

from repro.bench.report import Table
from repro.bench.experiments.common import SMALL
from repro.workloads.filebench import PERSONALITIES

FILE_SYSTEMS = ("hinfs", "pmfs", "ext4-dax", "ext2-nvmmbd", "ext4-nvmmbd")


def run(scale=SMALL, file_systems=FILE_SYSTEMS):
    table = Table(
        "Figure 7: filebench throughput normalised to PMFS",
        ["workload"] + list(file_systems),
    )
    normalised = {}
    for name in PERSONALITIES:
        raw = {}
        for fs_name in file_systems:
            result = scale.run(fs_name, scale.personality(name),
                               duration_ns=scale.duration_ns)
            raw[fs_name] = result.throughput
        base = raw["pmfs"]
        normalised[name] = {fs: v / base for fs, v in raw.items()}
        table.add_row(name, *[normalised[name][fs] for fs in file_systems])
    return [table], normalised


def check_shape(normalised):
    """The paper's Figure 7 claims."""
    for name, row in normalised.items():
        best = max(row.values())
        assert row["hinfs"] >= 0.92 * best, (
            "HiNFS should be (near-)best on %s: %r" % (name, row)
        )
    assert normalised["fileserver"]["hinfs"] >= 1.3
    assert abs(normalised["webserver"]["hinfs"] - 1.0) <= 0.3
    assert abs(normalised["varmail"]["hinfs"] - 1.0) <= 0.3
    assert normalised["varmail"]["ext4-dax"] <= 0.85
    assert normalised["webserver"]["ext2-nvmmbd"] <= 0.6
    assert normalised["webproxy"]["ext2-nvmmbd"] >= 0.75
