"""Golden-seed equivalence fence for the hot-path engine rewrite.

The PR 7 engine rewrite (slab data plane, flat-array cacheline state,
batch wakeups, disabled-trace fast path) must preserve *bit-identical*
virtual-time results: same seed => same SimStats counters, same
makespan, same trace-ring contents.  This suite pins those observables
as fixture JSON (``golden/hotpath_golden.json``) generated on the
pre-refactor engine, so any future hot-path edit that silently changes
virtual-time results fails here rather than drifting the paper's
figures.

The grid covers seed in {0, 1337} and ring batch depth in {1, 8}
(depth 0 = the sync syscall path) across all five comparison stacks,
plus the library-mode mmap data plane (depth -1) on the stacks that
support it -- those entries pin the mmio charge accounting exactly,
including the empty ``syscall_time_ns`` ledger.
Trace-ring contents are pinned as a SHA-256 over the canonicalised
span stream -- exact, but compact enough to check in.

Regenerate (only when an *intentional* virtual-time change lands, with
a changelog note)::

    PYTHONPATH=src python tests/engine/test_hotpath_equiv.py --regen
"""

import hashlib
import json
import os

import pytest

from repro.bench.runner import run_workload
from repro.core import HiNFSConfig
from repro.workloads.fio import FioWorkload, RingFioWorkload
from repro.workloads.mmio import MmapFioWorkload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "hotpath_golden.json")

STACKS = ("hinfs", "pmfs", "ext4-dax", "ext2-nvmmbd", "ext4-nvmmbd")

#: (fs, seed, depth): depth 0 is the sync path, otherwise the ring at
#: that batch depth.  Every stack sees both seeds and both depth
#: classes; hinfs also runs the rest of the seed x depth grid.
CASES = [(fs, 0, 0) for fs in STACKS] + \
        [(fs, 1337, 8) for fs in STACKS] + [
    ("hinfs", 0, 1),
    ("hinfs", 0, 8),
    ("hinfs", 1337, 1),
    ("pmfs", 0, 8),
    # depth -1: MAP_ATOMIC mappings on the library-mode stacks.  These
    # pin the zero-syscall ledger and the mmio counters/spans exactly.
    ("hinfs", 0, -1),
    ("pmfs", 1337, -1),
    ("ext4-dax", 0, -1),
    # Sharded mounts ("base@M"): M devices, each its own resource
    # domain, behind one VFS mount.  These pin the shard routing
    # layer's virtual-time results including the per-device
    # ``sharded_reqs@devN``/``nvmm_slot_grants@devN`` ledgers; the
    # single-device entries above stay bit-identical through the shard
    # refactor (domain-None devices bump no per-domain counters).
    ("hinfs@2", 0, 0),
    ("hinfs@4", 1337, 8),
    ("pmfs@2", 0, 8),
]


def case_key(fs, seed, depth):
    mech = "mmap" if depth < 0 else "d%d" % depth
    return "%s/seed%d/%s" % (fs, seed, mech)


def run_case(fs, seed, depth):
    """One deterministic traced run; returns its full fingerprint."""
    kwargs = dict(threads=2, ops_per_thread=50, io_size=4096,
                  file_size=256 << 10, read_fraction=1 / 3,
                  fsync_every=16, seed=seed)
    setup = None
    if depth < 0:
        workload = MmapFioWorkload(**kwargs)
        setup = workload.attach
    elif depth:
        workload = RingFioWorkload(batch_depth=depth, **kwargs)
    else:
        workload = FioWorkload(**kwargs)
    hc = HiNFSConfig(buffer_bytes=2 << 20)
    result = run_workload(fs, workload, device_size=32 << 20,
                          hinfs_config=hc, trace_capacity=1 << 14,
                          setup=setup)
    stats = result.stats
    spans = [
        [sp.req_id, sp.name, sp.layer, sp.thread, sp.start_ns, sp.end_ns,
         [list(p) for p in sp.phases], repr(sp.meta)]
        for sp in result.trace.spans()
    ]
    span_blob = json.dumps(spans, separators=(",", ":")).encode()
    return {
        "ops": result.ops,
        "elapsed_ns": result.elapsed_ns,
        "counters": dict(stats.counters),
        "bytes_written_nvmm": stats.bytes_written_nvmm,
        "bytes_read_nvmm": stats.bytes_read_nvmm,
        "bytes_written_dram": stats.bytes_written_dram,
        "breakdown": stats.breakdown.as_dict(),
        "syscall_time_ns": dict(stats.syscall_time_ns),
        "syscall_counts": dict(stats.syscall_counts),
        "layer_time_ns": dict(stats.layer_time_ns),
        "span_count": len(spans),
        "spans_recorded": result.trace.recorded,
        "span_sha256": hashlib.sha256(span_blob).hexdigest(),
    }


def load_golden():
    with open(GOLDEN_PATH) as fileobj:
        return json.load(fileobj)


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail("golden fixture %s missing; regenerate with "
                    "PYTHONPATH=src python %s --regen"
                    % (GOLDEN_PATH, __file__))
    return load_golden()


@pytest.mark.parametrize("fs,seed,depth", CASES,
                         ids=[case_key(*c) for c in CASES])
def test_virtual_time_results_match_golden(golden, fs, seed, depth):
    key = case_key(fs, seed, depth)
    assert key in golden, "no golden entry for %s (regen needed?)" % key
    got = run_case(fs, seed, depth)
    want = golden[key]
    # Compare field by field so a mismatch names what drifted.
    for field in sorted(want):
        assert got[field] == want[field], (
            "%s: %s drifted\n  golden: %r\n  got:    %r"
            % (key, field, want[field], got[field])
        )
    assert sorted(got) == sorted(want)


def regen():
    out = {case_key(*case): run_case(*case) for case in CASES}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fileobj:
        json.dump(out, fileobj, indent=1, sort_keys=True)
        fileobj.write("\n")
    print("wrote %s (%d cases)" % (GOLDEN_PATH, len(out)))


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
