"""Tests for the library-mode mmap data plane (repro.io.mmio).

The properties under test, in rough order of importance:

- **zero syscalls**: once a ``MAP_ATOMIC`` mapping exists, its
  load/store/msync ops never touch the syscall ledger;
- **epoch atomicity**: a crash recovers the pre-epoch or post-epoch
  image under both the undo and redo policies, never a blend;
- **POSIX coherence**: descriptor I/O on a mapped file is routed
  through the mapping, so reads see staged stores and fsync commits
  the open epoch.
"""

import random

import pytest

from repro.core.hinfs import HiNFS
from repro.engine.context import ExecContext
from repro.engine.errors import DeadlockError, ThreadDiagnostic
from repro.faults import FaultPlan
from repro.fs import flags as f
from repro.fs.base import ROOT_INO
from repro.fs.errors import InvalidArgument, MediaError
from repro.fs.pmfs import PMFS
from repro.fs.pmfs.layout import block_addr
from repro.io import mmio
from repro.nvmm.config import BLOCK_SIZE, CACHELINE_SIZE
from repro.obs.trace import LAYER_MMIO

from tests.fs.conftest import PmfsRig
from tests.fs.test_shard import ShardRig, name_on


@pytest.fixture()
def rig():
    return PmfsRig()


def amap(rig, path, data=b"x" * 8192, **kwargs):
    """Create a file and map it MAP_ATOMIC; returns (fd, mapping)."""
    rig.vfs.write_file(rig.ctx, path, data)
    fd = rig.vfs.open(rig.ctx, path, f.O_RDWR)
    region = rig.vfs.mmap(rig.ctx, fd, flags=f.MAP_ATOMIC, **kwargs)
    return fd, region


def dirty_store_lines(rig, region):
    """Line indices of the mapping's in-place (undo) stores that are
    still sitting dirty in the CPU cache."""
    dirty = set(rig.device.mem.dirty_line_indices())
    want = set()
    for _foff, addr, length in region._dirty_ranges:
        first = addr // CACHELINE_SIZE
        last = (addr + length - 1) // CACHELINE_SIZE
        want.update(range(first, last + 1))
    return sorted(want & dirty)


# -- the tentpole property: zero syscall charges --------------------------


def test_mapped_ops_charge_zero_syscall_time(rig):
    _fd, region = amap(rig, "/m")
    ledger_before = dict(rig.env.stats.syscall_time_ns)
    t0 = rig.ctx.now
    for i in range(32):
        region.store(rig.ctx, i * 64, b"Z" * 64)
        region.load(rig.ctx, i * 64, 64)
    region.msync(rig.ctx)
    # Work happened (virtual time moved, ops were counted)...
    assert rig.ctx.now > t0
    assert rig.env.stats.count("mmio_stores") == 32
    assert rig.env.stats.count("mmio_loads") == 32
    assert rig.env.stats.count("mmio_epochs_committed") == 1
    # ...but the syscall ledger never moved: library mode, no kernel.
    assert dict(rig.env.stats.syscall_time_ns) == ledger_before


def test_mmio_time_lands_in_the_mmio_layer(rig):
    _fd, region = amap(rig, "/m")
    rig.env.enable_tracing(capacity=256)
    region.store(rig.ctx, 0, b"hello")
    region.msync(rig.ctx)
    assert rig.env.stats.layer_time_ns.get("mmio", 0) > 0
    names = [sp.name for sp in rig.env.trace.spans()]
    assert "mmio.store" in names and "mmio.msync" in names


def _reference_op(self, ctx, name, body, *args):
    """``MmioMapping._op`` as the span and ``VMutex.held`` spell it."""
    with ctx.span(name, layer=LAYER_MMIO):
        with self._mu.held(ctx):
            result = body(ctx, *args)
    self.fs.env.stats.ops_completed += 1
    return result


def _stuck_in_labelled_waits(patch):
    """Make ``ExecContext.sync_to`` find a deadlock inside every
    labelled wait."""
    sync_to = ExecContext.sync_to

    def stuck(self, *args):
        if self.waiting_on is not None:
            raise DeadlockError("stuck",
                                diagnostics=[ThreadDiagnostic.of(self)])
        return sync_to(self, *args)

    patch.setattr(ExecContext, "sync_to", stuck)


def _mutex_run(monkeypatch, inline, traced, busy_ns, deadlock):
    rig = PmfsRig()
    _fd, region = amap(rig, "/m", policy="redo")
    if not inline:
        monkeypatch.setattr(region, "_op",
                            _reference_op.__get__(region))
    if traced:
        rig.env.enable_tracing(capacity=256)
    mu = region._mu
    errors = []
    for op in ("store", "load", "msync"):
        mu._free_at = rig.ctx.now + busy_ns
        with monkeypatch.context() as patch:
            if deadlock:
                _stuck_in_labelled_waits(patch)
            try:
                if op == "store":
                    region.store(rig.ctx, 1000, b"s" * 4096)
                elif op == "load":
                    region.load(rig.ctx, 1000, 4096)
                else:
                    region.msync(rig.ctx)
            except DeadlockError as err:
                errors.append([d.waiting_on for d in err.diagnostics])
        assert rig.ctx.trace_span is None and mu.owner is None
    stats = rig.env.stats
    return {
        "ino": region.ino,
        "now": rig.ctx.now,
        "errors": errors,
        "counters": {name: stats.count(name) for name in (
            "lock_acquisitions", "lock_contentions", "lock_wait_ns",
            "mmio_stores", "mmio_loads", "mmio_epochs_committed")},
        "ops": stats.ops_completed,
        "breakdown": stats.breakdown.as_dict(),
        "mutex": (mu._free_at, mu.contentions, mu.wait_ns_total),
        "spans": None if rig.env.trace is None else [
            (sp.name, sp.start_ns, sp.end_ns, sp.phases)
            for sp in rig.env.trace.spans()],
    }


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("busy_ns,deadlock", [(-1, False), (0, False),
                                              (5000, False), (5000, True)],
                         ids=["free", "free-at-now", "busy", "deadlock"])
def test_the_inline_mapping_mutex_matches_vmutex_held(
        monkeypatch, traced, busy_ns, deadlock):
    """A store, a load and an msync with the mapping's mutex free before
    the clock, free at it, or busy past it -- and a deadlock found
    inside that wait.  The inline take and drop agree with
    ``VMutex.held`` on the clock, the lock counters, every op's outcome,
    the ``lock`` phase of each traced ``mmio`` span, and the
    ``waiting`` label a DeadlockError reports."""
    ref = _mutex_run(monkeypatch, False, traced, busy_ns, deadlock)
    new = _mutex_run(monkeypatch, True, traced, busy_ns, deadlock)
    assert new == ref
    contended = busy_ns > 0
    assert (ref["counters"]["lock_contentions"] > 0) == contended
    if deadlock:
        assert ref["errors"] == [["acquire of 'mmio:%d'" % ref["ino"]]] * 3
    elif traced:
        lock_phases = [p for sp in ref["spans"] for p in sp[3]
                       if p[0] == "lock"]
        assert len(lock_phases) == (3 if contended else 0)


# -- undo policy ----------------------------------------------------------


def test_undo_msync_is_durable(rig):
    _fd, region = amap(rig, "/m", policy="undo")
    region.store(rig.ctx, 100, b"DURABLE")
    region.msync(rig.ctx)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m")[100:107] == b"DURABLE"


def test_undo_uncommitted_epoch_rolls_back(rig):
    """In-place stores that leaked to media (cache eviction) before the
    epoch committed must be rolled back from the undo log."""
    _fd, region = amap(rig, "/m", data=b"a" * 8192, policy="undo")
    region.store(rig.ctx, 0, b"TORN" * 16)
    region.store(rig.ctx, 4096, b"TORN" * 16)
    evict = dirty_store_lines(rig, region)
    assert evict, "undo stores should sit dirty in the cache"
    rig.crash_and_remount(evict_lines=evict)
    # The evicted new bytes reached media, but recovery restored the
    # pre-epoch image from the undo entries.
    assert rig.env.stats.count("mmio_logs_recovered") == 1
    assert rig.env.stats.count("mmio_recovered_rollbacks") == 1
    data = rig.vfs.read_file(rig.ctx, "/m")
    assert data == b"a" * 8192


def test_undo_partial_eviction_still_rolls_back(rig):
    """Only SOME of the epoch's stores reached media: recovery must
    still produce the clean pre-epoch image (no blend)."""
    _fd, region = amap(rig, "/m", data=b"b" * 8192, policy="undo")
    region.store(rig.ctx, 0, b"X" * 64)
    region.store(rig.ctx, 4096, b"Y" * 64)
    evict = dirty_store_lines(rig, region)[:1]
    rig.crash_and_remount(evict_lines=evict)
    assert rig.vfs.read_file(rig.ctx, "/m") == b"b" * 8192


# -- redo policy ----------------------------------------------------------


def test_redo_store_stages_in_overlay_until_msync(rig):
    _fd, region = amap(rig, "/m", data=b"c" * 4096, policy="redo")
    region.store(rig.ctx, 10, b"STAGED")
    # The mapping's own loads see the overlay...
    assert region.load(rig.ctx, 10, 6) == b"STAGED"
    # ...and so does descriptor I/O (routed through the mapping).
    assert rig.vfs.read_file(rig.ctx, "/m")[10:16] == b"STAGED"
    # But in-place NVMM is untouched until the commit:
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m") == b"c" * 4096


def test_redo_msync_is_durable(rig):
    _fd, region = amap(rig, "/m", data=b"c" * 4096, policy="redo")
    region.store(rig.ctx, 10, b"STAGED")
    region.msync(rig.ctx)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m")[10:16] == b"STAGED"


def test_redo_committed_epoch_reapplies_after_crash_mid_apply(rig):
    """Crash between the commit word and the in-place apply: recovery
    must finish the apply from the redo entries."""
    _fd, region = amap(rig, "/m", data=b"d" * 8192, policy="redo")
    region.store(rig.ctx, 0, b"NEW" * 100)
    region.store(rig.ctx, 5000, b"TAIL")
    # Commit the epoch by hand -- entries are already persistent -- and
    # crash before any in-place apply runs.
    region.log.commit(rig.ctx, region.log.committed + 1)
    rig.crash_and_remount()
    assert rig.env.stats.count("mmio_recovered_applies") == 1
    data = rig.vfs.read_file(rig.ctx, "/m")
    assert data[:300] == b"NEW" * 100
    assert data[5000:5004] == b"TAIL"
    assert data[300:5000] == b"d" * 4700


# -- msync timing ---------------------------------------------------------


#: An 8 KB undo epoch's msync on the default config, recorded before the
#: redo apply was spread across the writer slots.
UNDO_MSYNC_NS = 26080


def msync_ns(rig, region):
    t0 = rig.ctx.now
    region.msync(rig.ctx)
    return rig.ctx.now - t0


def persist_log(rig, monkeypatch):
    """Record every ``write_persistent`` as (ctx, start, end, block)."""
    log = []
    real = rig.device.write_persistent

    def spy(ctx, addr, data, *args, **kwargs):
        start = ctx.now
        real(ctx, addr, data, *args, **kwargs)
        log.append((ctx, start, ctx.now, addr // BLOCK_SIZE))

    monkeypatch.setattr(rig.device, "write_persistent", spy)
    return log


def test_redo_msync_returns_at_the_commit_word(rig):
    """A redo msync costs its commit -- fence, one 8-byte persist,
    fence -- and returns with the apply still queued: the in-place bytes
    are the old ones until the applier runs."""
    _fd, region = amap(rig, "/m", data=b"o" * 12288, policy="redo")
    region.store(rig.ctx, 100, b"P" * 8192)
    commit_ns = 2 * rig.config.fence_ns + rig.config.nvmm_persist_cost_ns(1)
    assert msync_ns(rig, region) == commit_ns
    assert (region.log.committed, region.log.applied) == (1, 0)
    addr = block_addr(rig.fs._map(region.ino).get(1))
    assert rig.device.read_media(addr, 4096) == b"o" * 4096
    rig.env.background.advance_to(rig.ctx.now + 10 ** 9)
    assert region.log.applied == 1
    assert rig.device.read_media(addr, 4096) == b"P" * 4096


def test_the_apply_is_one_serial_stream(rig, monkeypatch):
    """The applier's chunks never overlap each other in virtual time:
    each starts where the last ended, one block piece per wake, and the
    ``applied`` word comes last."""
    log = persist_log(rig, monkeypatch)
    _fd, region = amap(rig, "/m", data=b"o" * 16384, policy="redo")
    region.store(rig.ctx, 100, b"P" * 12000)
    region.store(rig.ctx, 5000, b"Q" * 3000)
    region.msync(rig.ctx)
    rig.env.background.advance_to(rig.ctx.now + 10 ** 9)
    applied = [(start, end, block) for ctx, start, end, block in log
               if ctx is region.applier.ctx]
    data_blocks = [block for _s, _e, block in applied[:-1]]
    blockmap = rig.fs._map(region.ino)
    # 100..12100 spans three blocks, 5000..8000 one: four chunks.
    assert data_blocks == [blockmap.get(b) for b in (0, 1, 2, 1)]
    assert applied[-1][2] == region.log.head_block
    spans = [(start, end) for start, end, _b in applied]
    assert all(later[0] >= earlier[1]
               for earlier, later in zip(spans, spans[1:]))


def test_an_epoch_reuses_a_half_only_once_its_apply_is_durable(
        rig, monkeypatch):
    """Epoch 2 appends into the other half while epoch 1 applies; epoch
    3's first append reuses epoch 1's half and starts no earlier than
    epoch 1's ``applied`` persist."""
    log = persist_log(rig, monkeypatch)
    _fd, region = amap(rig, "/m", data=b"o" * 16384, policy="redo")
    half = region.log.half_lines // mmio.LINES_PER_BLOCK
    first = region.log.head_block + 1

    def appends(ctx_log, lo):
        return [start for ctx, start, _e, block in ctx_log
                if ctx is rig.ctx and lo <= block < lo + half]

    region.store(rig.ctx, 0, b"A" * 12288)          # epoch 1: half 1
    region.msync(rig.ctx)
    region.store(rig.ctx, 0, b"B" * 64)             # epoch 2: half 0
    region.msync(rig.ctx)
    region.store(rig.ctx, 64, b"C" * 64)            # epoch 3: half 1
    applied_at = {}
    for ctx, _start, end, block in log:
        if ctx is region.applier.ctx and block == region.log.head_block:
            applied_at[len(applied_at) + 1] = end
    epoch2_append, = appends(log, first)
    epoch1_append, epoch3_append = appends(log, first + half)
    assert epoch2_append < applied_at[1] <= epoch3_append
    assert epoch1_append < epoch2_append


@pytest.mark.parametrize("op", ["undo store", "truncate", "unlink",
                                "munmap"])
def test_no_apply_write_lands_after_its_block_was_given_up(
        rig, monkeypatch, op):
    """An epoch's apply is still queued when each of these ops starts.
    Each lets it land first: no apply write follows an undo store's
    in-place bytes or the free of its block, and the mapping holds
    nothing more to apply."""
    fd, region = amap(rig, "/m", data=b"o" * 12288, policy="auto")
    region.store(rig.ctx, 0, b"1")                  # epoch 1: undo
    region.msync(rig.ctx)
    region.store(rig.ctx, 10, b"R" * 12000)         # epoch 2: redo ...
    for _ in range(2):
        region.load(rig.ctx, 0, 1)                  # ... read-heavy
    region.msync(rig.ctx)
    assert region.applier.pending
    events = []
    applier = region.applier.ctx
    write_persistent = rig.device.write_persistent
    write_cached = rig.device.write_cached
    free = rig.fs.balloc.free
    free_many = rig.fs.balloc.free_many

    def persist(ctx, addr, data, *args):
        if ctx is applier:
            events.append(("apply", addr // BLOCK_SIZE))
        write_persistent(ctx, addr, data, *args)

    def store_in_place(ctx, addr, data, *args):
        events.append(("gone", addr // BLOCK_SIZE))
        write_cached(ctx, addr, data, *args)

    def give_up(block):
        events.append(("gone", block))
        free(block)

    def give_up_many(blocks):
        blocks = list(blocks)
        events.extend(("gone", block) for block in blocks)
        free_many(blocks)

    monkeypatch.setattr(rig.device, "write_persistent", persist)
    monkeypatch.setattr(rig.device, "write_cached", store_in_place)
    monkeypatch.setattr(rig.fs.balloc, "free", give_up)
    monkeypatch.setattr(rig.fs.balloc, "free_many", give_up_many)
    if op == "undo store":
        region.store(rig.ctx, 0, b"U" * 8192)       # epoch 3: undo
        assert region._epoch_policy == mmio.POLICY_UNDO
    elif op == "truncate":
        rig.vfs.truncate(rig.ctx, "/m", 100)
    elif op == "unlink":
        rig.vfs.unlink(rig.ctx, "/m")
        rig.vfs.close(rig.ctx, fd)
    else:
        region.munmap(rig.ctx)
    assert not region.applier.pending
    rig.env.background.advance_to(rig.ctx.now + 10 ** 9)
    gone = set()
    for kind, block in events:
        if kind == "gone":
            gone.add(block)
        else:
            assert block not in gone, (op, block)
    assert gone and ("apply", region.log.head_block) in events


def test_a_block_remapped_under_a_pending_epoch_gets_its_apply(rig):
    """The applier looks each block up at the wake that writes it: a
    block the scrubber remaps (``BlockMap.set``) after the commit and
    before the apply gets the epoch's bytes, and the old one none."""
    _fd, region = amap(rig, "/m", data=b"o" * 8192, policy="redo")
    region.store(rig.ctx, 0, b"N" * 8192)
    region.msync(rig.ctx)
    rig.ctx.now += 1
    rig.env.background.advance_to(rig.ctx.now)      # block 0 lands
    assert region.applier.pending
    blockmap = rig.fs._map(region.ino)
    old, new = blockmap.get(1), rig.fs.balloc.alloc()
    tx = rig.fs.journal.begin(rig.ctx)
    blockmap.set(rig.ctx, tx, 1, new)               # the scrubber's remap
    rig.fs.journal.commit(rig.ctx, tx)
    region.applier.wait(rig.ctx, region.log.committed)
    assert rig.device.mem.read(block_addr(new), BLOCK_SIZE) \
        == b"N" * BLOCK_SIZE
    assert rig.device.mem.read(block_addr(old), BLOCK_SIZE) \
        == b"o" * BLOCK_SIZE
    assert region.load(rig.ctx, 0, 8192) == b"N" * 8192


def test_loads_during_a_pending_apply_return_the_committed_bytes(rig):
    """Two committed epochs wait on the applier, the older one half
    applied: a load and a pread read through both overlays, oldest
    first, so the newer epoch's bytes win where they overlap."""
    fd, region = amap(rig, "/m", data=b"o" * 12288, policy="redo")
    region.store(rig.ctx, 0, b"A" * 8000)
    region.msync(rig.ctx)
    rig.ctx.now += 1
    rig.env.background.advance_to(rig.ctx.now)      # one chunk lands
    region.store(rig.ctx, 4000, b"B" * 6000)
    region.msync(rig.ctx)
    assert [p.epoch for p in region.applier.pending] == [1, 2]
    want = b"A" * 4000 + b"B" * 6000 + b"o" * 2288
    assert region.load(rig.ctx, 0, 12288) == want
    assert rig.vfs.pread(rig.ctx, fd, 0, 12288) == want
    rig.env.background.advance_to(rig.ctx.now + 10 ** 9)
    assert not region.applier.pending
    assert region.load(rig.ctx, 0, 12288) == want


def test_undo_msync_timing_is_unchanged(rig):
    """Undo epochs flush in place and never apply: their msync costs
    what it did before the redo apply went parallel."""
    _fd, region = amap(rig, "/m", data=b"s" * 8192, policy="undo")
    region.store(rig.ctx, 0, b"U" * 8192)
    assert msync_ns(rig, region) == UNDO_MSYNC_NS


# -- auto policy and log pressure -----------------------------------------


def test_auto_policy_tracks_previous_epoch_mix(rig):
    _fd, region = amap(rig, "/m", policy="auto")
    # First epoch defaults to undo (no history).
    region.store(rig.ctx, 0, b"w")
    assert region._epoch_policy == mmio.POLICY_UNDO
    region.msync(rig.ctx)
    # That epoch was store-heavy (1 store, 0 loads) -> next goes redo.
    region.store(rig.ctx, 0, b"w")
    assert region._epoch_policy == mmio.POLICY_REDO
    for _ in range(3):
        region.load(rig.ctx, 0, 1)
    region.msync(rig.ctx)
    # Read-heavy epoch -> back to undo.
    region.store(rig.ctx, 0, b"w")
    assert region._epoch_policy == mmio.POLICY_UNDO
    region.msync(rig.ctx)


def test_log_full_autocommits_and_retries():
    for policy in ("undo", "auto"):
        rig = PmfsRig()
        _fd, region = amap(rig, "/m", data=b"e" * 16384, policy=policy,
                           log_blocks=1)
        count = rig.env.stats.count
        # Each 2048-byte store costs 33 log lines; a 64-line half takes
        # one, so the second forces an automatic epoch commit.
        for i in range(4):
            region.store(rig.ctx, i * 2048, b"F" * 2048)
        assert count("mmio_autocommits") >= 1
        # An 8 KB store is three entries of at most 63 lines, each
        # filling a half: the epoch the autocommit opens mid-store keeps
        # the interrupted entry's policy for the entries that follow.
        before = count("mmio_autocommits")
        region.store(rig.ctx, 8192, b"G" * 8192)
        assert count("mmio_autocommits") - before >= 2
        region.msync(rig.ctx)
        rig.crash_and_remount()
        assert rig.vfs.read_file(rig.ctx, "/m") == \
            b"F" * 8192 + b"G" * 8192, policy


@pytest.mark.parametrize("fs_cls", [PMFS, HiNFS])
def test_an_extending_store_survives_an_autocommit_mid_store(fs_cls):
    """A redo store that grows an empty file fills a 1-block log on its
    third chunk.  The autocommit applies the chunks staged so far,
    clamped to the file's size: grown only after the last chunk, that
    size dropped them from the live file and from the media."""
    rig = PmfsRig(fs_cls=fs_cls)
    fd, region = amap(rig, "/m", data=b"", policy="redo", log_blocks=1)
    rig.vfs.pwrite(rig.ctx, fd, 0, b"\x01" * 12288)  # routed: a store
    assert rig.env.stats.count("mmio_autocommits") >= 1
    assert rig.vfs.read_file(rig.ctx, "/m") == b"\x01" * 12288
    region.msync(rig.ctx)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m") == b"\x01" * 12288


def test_stores_survive_autocommits_under_log_pressure():
    """A 2-block log under 4 KB stores autocommits ~170 times per run;
    every load and the final image must match a shadow buffer (an
    autocommit used to reset the epoch's policy mid-store, and a later
    overlapping store was lost)."""
    size = 64 << 10
    for seed in range(10):
        rig = PmfsRig()
        _fd, region = amap(rig, "/m", data=b"\0" * size, policy="auto",
                           log_blocks=2)
        shadow = bytearray(size)
        rng = random.Random(seed)
        for op in range(400):
            offset = rng.randrange(size - 4096)
            if rng.random() < 1 / 3:
                assert region.load(rig.ctx, offset, 4096) == \
                    shadow[offset:offset + 4096], (seed, op)
            else:
                data = bytes([rng.randrange(256)]) * 4096
                region.store(rig.ctx, offset, data)
                shadow[offset:offset + 4096] = data
            if (op + 1) % 32 == 0:
                region.msync(rig.ctx)
        assert rig.env.stats.count("mmio_autocommits") > 100
        assert region.load(rig.ctx, 0, size) == shadow, seed


def test_a_store_larger_than_a_half_is_split_into_entries_that_fit(rig):
    """One entry per store, unless the store outgrows half the log: a
    1-block log (63 payload lines a half) takes a 10 000-byte store as
    three entries, each in an epoch of its own."""
    _fd, region = amap(rig, "/m", data=b"s" * 12288, policy="redo",
                       log_blocks=1)
    log = region.log
    assert log.max_payload == 63 * CACHELINE_SIZE
    with pytest.raises(InvalidArgument):
        log.append(rig.ctx, mmio.KIND_REDO, 1, 0, b"x" * (log.max_payload + 1))
    count = rig.env.stats.count
    region.store(rig.ctx, 1000, b"T" * 10000)
    assert count("mmio_log_appends") == 3
    assert count("mmio_autocommits") == 2
    region.msync(rig.ctx)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m") == \
        b"s" * 1000 + b"T" * 10000 + b"s" * 1288


# -- syscall routing (POSIX coherence) ------------------------------------


def test_pwrite_on_mapped_file_routes_through_mapping(rig):
    fd, region = amap(rig, "/m", data=b"f" * 4096, policy="redo")
    routed = rig.env.stats.count("mmio_routed")
    rig.vfs.pwrite(rig.ctx, fd, 50, b"VIA-FD")
    assert rig.env.stats.count("mmio_routed") == routed + 1
    # The write joined the mapping's epoch: visible to loads, staged
    # (not yet in place) like any other redo store.
    assert region.load(rig.ctx, 50, 6) == b"VIA-FD"
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m") == b"f" * 4096


@pytest.mark.parametrize("kind", ["pmfs", "hinfs", "pmfs@2"])
def test_below_vfs_read_write_fsync_go_through_the_mapping(kind):
    """``fs.read``/``fs.write``/``fs.fsync`` enter through ``submit``
    like the VFS does, so they are as coherent with a live mapping as
    descriptor I/O -- on one device (PMFS, and HiNFS whose own sync body
    must not shadow the routing) and on shard 1 of a sharded mount."""
    if kind != "pmfs@2":
        rig = PmfsRig(fs_cls=HiNFS if kind == "hinfs" else PMFS)
        name = "m"
        crash = rig.crash_and_remount
    else:
        rig, name = ShardRig("pmfs", nshards=2), name_on(1, 2)
        crash = rig.remount  # from the persistent images: a power cut
    fd, region = amap(rig, "/" + name, data=b"c" * 4096, policy="redo")
    ino = rig.fs.lookup(rig.ctx, ROOT_INO, name)
    if kind == "pmfs@2":
        assert rig.fs._dec(ino)[0] == 1
    count = rig.env.stats.count
    region.store(rig.ctx, 100, b"STAGED")
    # A staged redo store is visible to a read below the VFS exactly as
    # it is to pread (the positional shim used to skip the routing).
    assert rig.vfs.pread(rig.ctx, fd, 100, 6) == b"STAGED"
    assert rig.fs.read(rig.ctx, ino, 100, 6) == b"STAGED"
    routed = count("mmio_routed")
    assert rig.fs.write(rig.ctx, ino, 200, b"BELOW") == 5
    assert count("mmio_routed") == routed + 1
    assert region.load(rig.ctx, 200, 5) == b"BELOW"
    epochs = count("mmio_epochs_committed")
    rig.fs.fsync(rig.ctx, ino)
    assert count("mmio_epochs_committed") == epochs + 1
    crash()
    data = rig.vfs.read_file(rig.ctx, "/" + name)
    assert data[100:106] == b"STAGED" and data[200:205] == b"BELOW"


def test_fsync_on_mapped_file_commits_the_epoch(rig):
    fd, region = amap(rig, "/m", data=b"g" * 4096, policy="redo")
    region.store(rig.ctx, 0, b"COMMIT-ME")
    epochs = rig.env.stats.count("mmio_epochs_committed")
    rig.vfs.fsync(rig.ctx, fd)
    assert rig.env.stats.count("mmio_epochs_committed") == epochs + 1
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m")[:9] == b"COMMIT-ME"


def test_read_on_mapped_file_sees_staged_stores(rig):
    fd, region = amap(rig, "/m", data=b"h" * 4096, policy="redo")
    region.store(rig.ctx, 4090, b"TAILBYTES")  # extends the file
    assert rig.vfs.stat(rig.ctx, "/m").size == 4099
    out = rig.vfs.pread(rig.ctx, fd, 4090, 100)
    assert out == b"TAILBYTES"


# -- lifecycle ------------------------------------------------------------


def test_munmap_commits_and_frees_log_blocks(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"i" * 4096)
    fd = rig.vfs.open(rig.ctx, "/m", f.O_RDWR)
    free0 = rig.fs.balloc.free_count
    region = rig.vfs.mmap(rig.ctx, fd, flags=f.MAP_ATOMIC, log_blocks=4)
    assert rig.fs.balloc.free_count == free0 - 9  # head + two 4-block halves
    region.store(rig.ctx, 0, b"LAST")
    region.munmap(rig.ctx)
    assert rig.fs.balloc.free_count == free0
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m")[:4] == b"LAST"
    assert rig.env.stats.count("mmio_logs_recovered") == 0


def test_a_detached_mapping_leaves_no_task_in_the_registry(rig):
    """Each atomic mapping registers its applier; munmap and unlink
    take it out again, with an apply still queued at the time."""
    rig.vfs.write_file(rig.ctx, "/m", b"i" * 4096)
    fd = rig.vfs.open(rig.ctx, "/m", f.O_RDWR)
    tasks = list(rig.env.background._tasks)
    for i in range(200):
        region = rig.vfs.mmap(rig.ctx, fd, flags=f.MAP_ATOMIC,
                              policy="redo")
        assert rig.env.background._tasks == tasks + [region.applier]
        region.store(rig.ctx, i, b"c")
        region.msync(rig.ctx)
        region.munmap(rig.ctx)
    region = rig.vfs.mmap(rig.ctx, fd, flags=f.MAP_ATOMIC, policy="redo")
    region.store(rig.ctx, 0, b"d")
    region.msync(rig.ctx)
    rig.vfs.unlink(rig.ctx, "/m")
    rig.vfs.close(rig.ctx, fd)
    assert region.closed
    assert rig.env.background._tasks == tasks


def test_unlink_of_mapped_file_invalidates_mapping(rig):
    fd, region = amap(rig, "/m")
    region.store(rig.ctx, 0, b"doomed")
    rig.vfs.unlink(rig.ctx, "/m")
    rig.vfs.close(rig.ctx, fd)  # last ref: _release invalidates
    assert region.closed
    with pytest.raises(InvalidArgument):
        region.store(rig.ctx, 0, b"nope")
    # Nothing dangles: a remount finds no log to recover.
    rig.crash_and_remount()
    assert rig.env.stats.count("mmio_logs_recovered") == 0


def test_double_atomic_map_rejected(rig):
    fd, _region = amap(rig, "/m")
    with pytest.raises(InvalidArgument):
        rig.vfs.mmap(rig.ctx, fd, flags=f.MAP_ATOMIC)


@pytest.mark.parametrize("fs_cls", [PMFS, HiNFS], ids=["pmfs", "hinfs"])
@pytest.mark.parametrize("first", ["atomic", "plain"])
def test_atomic_mapping_is_exclusive(fs_cls, first):
    """One registry, one rule: a MAP_ATOMIC mapping tolerates no other
    mapping of its inode, in either order.  (At the parent a plain
    mapping beside an atomic one was accepted and incoherent: under redo
    its loads missed the staged stores, and its msync'd bytes were
    overwritten by the next epoch commit.)"""
    rig = PmfsRig(fs_cls=fs_cls)
    rig.vfs.write_file(rig.ctx, "/m", b"x" * 8192)
    fd = rig.vfs.open(rig.ctx, "/m", f.O_RDWR)
    ino = rig.vfs.fstat(rig.ctx, fd).ino
    flags = (f.MAP_ATOMIC, 0) if first == "atomic" else (0, f.MAP_ATOMIC)
    kept = rig.vfs.mmap(rig.ctx, fd, flags=flags[0], policy="redo")
    maps = rig.env.stats.count("mmio_maps")
    free = rig.fs.balloc.free_count
    with pytest.raises(InvalidArgument):
        rig.vfs.mmap(rig.ctx, fd, flags=flags[1], policy="redo")
    # The refusal left nothing behind: no registry entry, no log blocks.
    assert rig.fs._live_mappings(ino) == [kept]
    assert rig.env.stats.count("mmio_maps") == maps
    assert rig.fs.balloc.free_count == free
    # The surviving mapping is untouched and still coherent with pread.
    kept.store(rig.ctx, 0, b"KEPT")
    assert kept.load(rig.ctx, 0, 4) == b"KEPT"
    assert rig.vfs.pread(rig.ctx, fd, 0, 4) == b"KEPT"
    # Once it is gone the other kind maps fine.
    kept.munmap(rig.ctx)
    other = rig.vfs.mmap(rig.ctx, fd, flags=flags[1], policy="redo")
    assert other.load(rig.ctx, 0, 4) == b"KEPT"


def test_atomic_map_needs_writable_fd(rig):
    rig.vfs.write_file(rig.ctx, "/m", b"j" * 64)
    fd = rig.vfs.open(rig.ctx, "/m", f.O_RDONLY)
    with pytest.raises(InvalidArgument):
        rig.vfs.mmap(rig.ctx, fd, flags=f.MAP_ATOMIC)


def test_atomic_map_unsupported_on_kernel_only_stacks(rig):
    from repro.bench.runner import build_stack

    from repro.engine.context import ExecContext
    from repro.engine.env import SimEnv
    from repro.nvmm.config import NVMMConfig

    env = SimEnv()
    ctx = ExecContext(env, "test")
    # ext4-dax inherits the PMFS data plane (Libnvmmio ran on ext4-DAX
    # in reality) -- the block-device stacks are the ones that cannot.
    _fs, vfs = build_stack(env, "ext2-nvmmbd", NVMMConfig(), 8 << 20)
    vfs.write_file(ctx, "/m", b"k" * 64)
    fd = vfs.open(ctx, "/m", f.O_RDWR)
    with pytest.raises(InvalidArgument):
        vfs.mmap(ctx, fd, flags=f.MAP_ATOMIC)


def test_truncate_trims_redo_overlay(rig):
    _fd, region = amap(rig, "/m", data=b"l" * 8192, policy="redo")
    region.store(rig.ctx, 0, b"KEEP")
    region.store(rig.ctx, 6000, b"CUT")
    rig.vfs.truncate(rig.ctx, "/m", 4096)
    assert [off for off, _data in region._overlay] == [0]
    region.msync(rig.ctx)
    data = rig.vfs.read_file(rig.ctx, "/m")
    assert data[:4] == b"KEEP" and len(data) == 4096


# -- fault injection and integrity knobs ----------------------------------


def test_fault_injector_arms_per_op(rig):
    _fd, region = amap(rig, "/m")
    plan = FaultPlan(rig.env)
    plan.arm("mmio:store", hits=1)
    with pytest.raises(MediaError):
        region.store(rig.ctx, 0, b"boom")
    # Budget exhausted: the next store goes through.
    region.store(rig.ctx, 0, b"fine")
    plan.arm("mmio:msync", region.ino)
    with pytest.raises(MediaError):
        region.msync(rig.ctx)
    plan.disarm("mmio:msync", region.ino)
    region.msync(rig.ctx)
    assert rig.env.stats.count("mmio_fault_injections") == 2


def test_checksums_off_still_works_without_crashes(rig):
    """log_checksums=False is the negative control for the crash
    explorer; on the happy path it must behave identically."""
    _fd, region = amap(rig, "/m", data=b"m" * 4096, log_checksums=False)
    region.store(rig.ctx, 0, b"UNSAFE")
    region.msync(rig.ctx)
    rig.crash_and_remount()
    assert rig.vfs.read_file(rig.ctx, "/m")[:6] == b"UNSAFE"


def test_stale_log_blocks_do_not_parse_after_reuse(rig):
    """A freed log block later re-allocated to a NEW mapping must never
    leak old entries into a recovery scan: the per-incarnation token
    makes prior-life bytes unparseable."""
    fd, region = amap(rig, "/m", data=b"n" * 4096, policy="undo")
    region.store(rig.ctx, 0, b"OLDLOG")
    region.munmap(rig.ctx)
    # Remap: very likely reuses the just-freed blocks.
    region2 = rig.vfs.mmap(rig.ctx, fd, flags=f.MAP_ATOMIC, policy="undo")
    assert region2.log.scan_media() == []
    region2.store(rig.ctx, 10, b"NEWLOG")
    entries = region2.log.scan_media()
    assert [e.file_offset for e in entries] == [10]
