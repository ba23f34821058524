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
including the empty ``syscall_time_ns`` ledger.  Two more entries pin
the eager (O_SYNC) write path, which none of the fio cases takes: a
shrunk tenant fleet on ``hinfs@2`` behind a QoS controller, and an
unaligned O_SYNC stream on ``hinfs`` over lazily buffered blocks and
holes (``EAGER_CASES``).  The ``LIFECYCLE_CASES`` run a shrunk
filebench fileserver -- files created, appended, read and deleted in
the measured phase -- with a buffer small enough for demand reclaim,
pressure writeback and unlink discards, under LRW, ARC and 2Q.
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
from repro.fs import flags as f
from repro.fs.qos import QosController
from repro.workloads.base import Workload, payload
from repro.workloads.filebench import Fileserver
from repro.workloads.fio import FioWorkload, RingFioWorkload
from repro.workloads.mmio import MmapFioWorkload
from repro.workloads.tenants import TenantFleet

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


class EagerOverlapWorkload(Workload):
    """Unaligned 16 KB O_SYNC writes mixed with lazy 6000-byte writes
    and 8 KB reads, at random offsets over a file whose 16 KB extents
    alternate with 16 KB holes: an eager request lands on blocks the
    lazy writes left in the DRAM buffer, on mapped blocks, and on holes
    it maps mid-request, and some extend the file."""

    name = "eager-overlap"
    file_size = 512 << 10
    extent = 16 << 10

    def __init__(self, ops_per_thread=40, **kwargs):
        super().__init__(**kwargs)
        self.ops_per_thread = ops_per_thread

    def path(self, thread_id):
        return "/eager.%d.dat" % thread_id

    def prepare(self, vfs, ctx):
        data = payload(self.extent, tag=7)
        for tid in range(self.threads):
            fd = vfs.open(ctx, self.path(tid), f.O_CREAT | f.O_RDWR)
            for offset in range(0, self.file_size, 2 * self.extent):
                vfs.pwrite(ctx, fd, offset, data)
            vfs.close(ctx, fd)

    def make_thread_body(self, vfs, thread_id):
        rng = self.rng(thread_id)
        eager_chunk = payload(self.extent, tag=thread_id + 1)
        lazy_chunk = payload(6000, tag=thread_id + 3)

        def body(ctx):
            path = self.path(thread_id)
            lazy = vfs.open(ctx, path, f.O_RDWR)
            eager = vfs.open(ctx, path, f.O_RDWR | f.O_SYNC)
            for _ in range(self.ops_per_thread):
                offset = rng.randrange(self.file_size)
                kind = rng.random()
                if kind < 0.4:
                    vfs.pwrite(ctx, lazy, offset, lazy_chunk)
                elif kind < 0.9:
                    vfs.pwrite(ctx, eager, offset, eager_chunk)
                else:
                    vfs.pread(ctx, lazy, offset, 8192)
                yield
            vfs.close(ctx, eager)
            vfs.close(ctx, lazy)

        return body


#: (fs, seed, mechanism) of the eager-path entries: ``tenants`` is
#: perfbench's serve-tenants fleet cut to 8 tenants of 12 ops, its
#: O_SYNC 16 KB writes billed through a QoS controller whose capacity is
#: low enough to throttle them; ``osync`` is :class:`EagerOverlapWorkload`.
EAGER_CASES = [
    ("hinfs@2", 0, "tenants"),
    ("hinfs", 0, "osync"),
]


#: (fs, seed, mechanism) of the lifecycle entries: ``fileserver`` is a
#: shrunk :class:`Fileserver` (6 files of 32 KB mean per thread, 32 KB
#: requests) over a 192 KB buffer; ``fileserver-arc`` / ``-2q`` run it
#: under that replacement policy (``LIFECYCLE_POLICIES``).
LIFECYCLE_CASES = [
    ("hinfs", 0, "fileserver"),
    ("hinfs-nclfw", 0, "fileserver"),
    ("pmfs", 0, "fileserver"),
    ("hinfs", 0, "fileserver-arc"),
    ("hinfs", 0, "fileserver-2q"),
]
LIFECYCLE_POLICIES = {"fileserver": "lrw", "fileserver-arc": "arc",
                      "fileserver-2q": "2q"}

ALL_CASES = CASES + EAGER_CASES + LIFECYCLE_CASES


def case_key(fs, seed, depth):
    if isinstance(depth, str):
        mech = depth
    else:
        mech = "mmap" if depth < 0 else "d%d" % depth
    return "%s/seed%d/%s" % (fs, seed, mech)


def _workload(seed, depth):
    """``(workload, setup)`` of one case."""
    if depth == "tenants":
        fleet = TenantFleet.mixed(
            8, ops=12, io_size=16 << 10, read_fraction=0.25,
            think_ns=800_000, interval_ns=1_600_000, seed=seed, sync=True)

        def attach(env, fs, vfs):
            qos = QosController(env, 64 << 20)
            vfs.attach_qos(qos)
            fleet.register_all(qos)

        return fleet, attach
    if depth == "osync":
        return EagerOverlapWorkload(threads=2, seed=seed), None
    if depth in LIFECYCLE_POLICIES:
        return Fileserver(seed=seed, threads=2, files_per_thread=6,
                          mean_file_size=32 << 10, io_size=32 << 10,
                          duration_ops=12), None
    kwargs = dict(threads=2, ops_per_thread=50, io_size=4096,
                  file_size=256 << 10, read_fraction=1 / 3,
                  fsync_every=16, seed=seed)
    if depth < 0:
        workload = MmapFioWorkload(**kwargs)
        return workload, workload.attach
    if depth:
        return RingFioWorkload(batch_depth=depth, **kwargs), None
    return FioWorkload(**kwargs), None


def _run(fs, seed, depth, trace_capacity):
    workload, setup = _workload(seed, depth)
    if depth in LIFECYCLE_POLICIES:
        hc = HiNFSConfig(buffer_bytes=192 << 10,
                         replacement_policy=LIFECYCLE_POLICIES[depth])
    else:
        hc = HiNFSConfig(buffer_bytes=2 << 20)
    return run_workload(fs, workload, device_size=32 << 20,
                        hinfs_config=hc, trace_capacity=trace_capacity,
                        setup=setup)


def run_case(fs, seed, depth):
    """One deterministic traced run; returns its full fingerprint."""
    result = _run(fs, seed, depth, 1 << 14)
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


@pytest.mark.parametrize("fs,seed,depth", ALL_CASES,
                         ids=[case_key(*c) for c in ALL_CASES])
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


def test_the_eager_cases_take_the_paths_they_pin(golden, monkeypatch):
    """``osync``'s O_SYNC requests flush lazily buffered blocks first
    (the stream has no fsync and no writeback runs, so only the barrier
    flushes) and map holes mid-request; ``tenants`` is throttled on
    both shards."""
    from repro.core import HiNFS

    eager, mid_request_holes = [], []
    body, ensure = HiNFS._write_sync_body, HiNFS._ensure_mapped

    def watched_body(self, ctx, inode, offset, tx, view):
        eager.append(offset)  # the O_SYNC request in progress
        try:
            return body(self, ctx, inode, offset, tx, view)
        finally:
            eager.pop()

    def watched_ensure(self, ctx, tx, blockmap, offset, length):
        if eager and offset > eager[-1]:
            mid_request_holes.append(offset)
        return ensure(self, ctx, tx, blockmap, offset, length)

    monkeypatch.setattr(HiNFS, "_write_sync_body", watched_body)
    monkeypatch.setattr(HiNFS, "_ensure_mapped", watched_ensure)
    counters = run_case("hinfs", 0, "osync")["counters"]
    assert counters == golden[case_key("hinfs", 0, "osync")]["counters"]
    assert counters["hinfs_lazy_writes"] and counters["hinfs_flushed_lines"]
    assert not [name for name in counters if name.startswith("writeback_")]
    assert mid_request_holes
    tenants = golden[case_key("hinfs@2", 0, "tenants")]["counters"]
    assert tenants["qos_throttle_ns"] > 0
    assert tenants["sharded_reqs@dev0"] and tenants["sharded_reqs@dev1"]


@pytest.mark.parametrize("fs,seed,depth", [
    c for c in LIFECYCLE_CASES if c[0].startswith("hinfs")])
def test_the_lifecycle_cases_reclaim_write_back_and_discard(golden, fs, seed,
                                                            depth):
    """Each buffered lifecycle entry runs the buffer dry (a foreground
    demand reclaim), writes back under pressure and drops a deleted
    file's buffered blocks without writing them."""
    counters = golden[case_key(fs, seed, depth)]["counters"]
    for name in ("writeback_demand_stalls", "writeback_pressure_blocks",
                 "hinfs_discarded_blocks"):
        assert counters.get(name, 0) > 0, name


#: (fs, seed, workload kwargs) of the untraced-mapping fence: the three
#: ``mmap`` golden cases, perfbench ``fio-mmap``'s shape (``auto``
#: policy, a 64-block log, 4 MB files, an msync every 32 ops) and each
#: atomic policy alone.
UNTRACED_MMAP_CASES = [
    ("hinfs", 0, {}),
    ("pmfs", 1337, {}),
    ("ext4-dax", 0, {}),
    ("pmfs", 42, dict(policy="auto", log_blocks=64, ops_per_thread=400,
                      file_size=4 << 20, fsync_every=32)),
    ("pmfs", 7, dict(policy="undo")),
    ("pmfs", 7, dict(policy="redo")),
]


def _mmap_fingerprint(fs, seed, overrides, traced):
    kwargs = dict(threads=2, ops_per_thread=50, io_size=4096,
                  file_size=256 << 10, read_fraction=1 / 3,
                  fsync_every=16, seed=seed)
    kwargs.update(overrides)
    workload = MmapFioWorkload(**kwargs)
    result = run_workload(fs, workload, device_size=32 << 20,
                          hinfs_config=HiNFSConfig(buffer_bytes=2 << 20),
                          trace_capacity=(1 << 16) if traced else None,
                          setup=workload.attach)
    stats = result.stats
    slots = result.fs.device.write_slots
    return {
        "ops": result.ops,
        "elapsed_ns": result.elapsed_ns,
        "counters": dict(stats.counters),
        "breakdown": stats.breakdown.as_dict(),
        "bytes": (stats.bytes_written_nvmm, stats.bytes_read_nvmm,
                  stats.bytes_written_dram),
        "slots": (slots.total_grants, slots.total_busy_ns,
                  slots.total_wait_ns),
    }


@pytest.mark.parametrize(
    "fs,seed,overrides", UNTRACED_MMAP_CASES,
    ids=["%s/seed%d/%s" % (fs, seed, o.get("policy", "auto"))
         + ("/perfbench" if "log_blocks" in o else "")
         for fs, seed, o in UNTRACED_MMAP_CASES])
def test_untraced_mapped_runs_match_their_traced_twins(fs, seed, overrides):
    """The goldens all run traced, so the mapping's untraced entry (no
    span, the mapping mutex taken inline) is pinned here instead: the
    same run without the trace spine keeps every virtual number."""
    traced = _mmap_fingerprint(fs, seed, overrides, traced=True)
    untraced = _mmap_fingerprint(fs, seed, overrides, traced=False)
    assert traced["counters"]["mmio_stores"] > 0
    for field in sorted(traced):
        assert untraced[field] == traced[field], field


#: (fs, seed, depth) of the untraced-syscall fence: the sync path (d0)
#: and the ring at depth 16 on the three stacks perfbench's syscall
#: workloads use, the two eager-path entries and one lifecycle entry.
UNTRACED_SYSCALL_CASES = [
    (fs, seed, depth) for fs in ("pmfs", "hinfs", "hinfs@2")
    for seed, depth in ((0, 0), (1337, 16))] + [
    ("hinfs", 0, "osync"),
    ("hinfs@2", 0, "tenants"),
    ("hinfs", 0, "fileserver"),
]


def _syscall_fingerprint(fs, seed, depth, traced):
    result = _run(fs, seed, depth, (1 << 16) if traced else None)
    stats = result.stats
    devices = [inner.device for inner in getattr(result.fs, "shards",
                                                 [result.fs])]
    return {
        "ops": result.ops,
        "elapsed_ns": result.elapsed_ns,
        "counters": dict(stats.counters),
        "breakdown": stats.breakdown.as_dict(),
        "syscall_time_ns": dict(stats.syscall_time_ns),
        "syscall_counts": dict(stats.syscall_counts),
        "bytes": (stats.bytes_written_nvmm, stats.bytes_read_nvmm,
                  stats.bytes_written_dram),
        "slots": [(d.write_slots.total_grants, d.write_slots.total_busy_ns,
                   d.write_slots.total_wait_ns) for d in devices],
    }


@pytest.mark.parametrize("fs,seed,depth", UNTRACED_SYSCALL_CASES,
                         ids=[case_key(*c) for c in UNTRACED_SYSCALL_CASES])
def test_untraced_syscall_runs_match_their_traced_twins(fs, seed, depth):
    """The goldens all run traced, while perfbench and the experiments
    run untraced: the syscall path without the trace spine (no span, no
    ``fs`` phase) is pinned here -- the same run keeps every virtual
    number."""
    traced = _syscall_fingerprint(fs, seed, depth, traced=True)
    untraced = _syscall_fingerprint(fs, seed, depth, traced=False)
    assert traced["counters"]["vfs_syscall_entries"] > 0
    for field in sorted(traced):
        assert untraced[field] == traced[field], field


def regen():
    out = {case_key(*case): run_case(*case) for case in ALL_CASES}
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
