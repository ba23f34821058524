"""The crash explorer's explored work, pinned as literals.

How a crash state is stored, hashed and mounted is an implementation
detail; *which* states are checked, how many collapse as duplicates and
what the checkers find is not.  Every row's summary is a literal and
must survive any change to that machinery.  Public API only.

What a row may follow is what the file system *persists*.  The tape is
the run's persist events, a boundary is a fence between them, and a
crash image is deduplicated by its bytes -- block numbers included (the
address-ordered allocator moved 11 rows by 1..8 states between
"checked" and "duplicate" for that reason alone).  These rows were
re-recorded when a write began to map its holes as one extent: the new
pointers of a run of adjacent slots are one journaled range (undo
entries of up to 40 bytes, one flush) instead of a fenced undo entry
and a flush per 8-byte pointer, so every sequence here -- each has a
write that lands on two fresh blocks -- issues 4..8 fewer persist
events and crosses 2..4 fewer boundaries, and the states between them
are gone with them.  ``BEFORE`` keeps each row's (tape events,
boundaries, eviction samples, torn samples, violations) from before
that change, and every row asserts that the samples drawn are still
those, that events and boundaries only fell, that the positive rows
still find nothing and that each checksums-off control finds at least
what it found (three of the four find one more: the same seeded draws
index a shorter tape, so they tear different records).

The two ``SHARD_OPS`` rows were re-recorded, with no ``BEFORE``, when a
rename stopped moving a file between shards: no copy into a hidden temp
file, no temp file, and no intent at all unless the victim lives on
another shard -- any other rename is one journal transaction.  The op
list changed with it (13 ops, two swaps over a victim on the other
shard), so ``BEFORE`` has nothing to compare against; the summary
literal pins them.

The six ``MMIO_OPS`` rows were re-recorded, also with no ``BEFORE``,
when the epoch log became two halves with a paced background apply.
The log's format changed (one entry per store, no pad entries, no
block table), a redo ``msync`` now returns at its commit word, and the
apply moved to the applier's own clock; the op list grew a tick inside
an apply and two more epochs, one committing while the last one's
apply is half done and one waiting to reuse its half (18 ops).
Nothing about the old tape carries over, so the summary literals pin
them; every other row is as it was.
"""

import pytest

from repro.core import HiNFS
from repro.faults.crashpoints import (
    DEFAULT_OPS,
    DEMAND_OPS,
    EAGER_OPS,
    MMIO_OPS,
    PRESSURE_OPS,
    PRESSURE_WARMUP,
    SHARD_OPS,
    WRAP_OPS,
    WRAP_WARMUP,
    CrashPointExplorer,
)
from repro.fs.pmfs import journal
from repro.io import mmio

#: The fault-plan sites of the cross-shard swap: SHARD_OPS must drive
#: the protocol through every step.
XMV_SITES = {"xmv:intent", "xmv:victim-unlinked", "xmv:linked"}

OPS_IDS = {DEFAULT_OPS: "default", MMIO_OPS: "mmio", SHARD_OPS: "shard"}

#: (fs kind, ops, explorer kwargs, BEFORE, summary).  BEFORE is (tape
#: events, boundaries, eviction samples, torn samples, violations) with
#: one journaled write per pointer, or None for a row recorded after
#: that change; the summary is the literal now.  The kwargs rows are the
#: checksums-off negative controls.
PINNED = [
    ("pmfs", DEFAULT_OPS, {}, (302, 137, 104, 104, 0),
     "pmfs: 15 ops, 298 tape events, 135 boundaries, "
     "185 states checked (325 duplicates skipped), "
     "104 eviction subsets sampled, 104 torn states sampled, 0 violations"),
    ("pmfs", MMIO_OPS, {}, None,
     "pmfs: 18 ops, 96 tape events, 44 boundaries, "
     "185 states checked (160 duplicates skipped), "
     "136 eviction subsets sampled, 136 torn states sampled, 0 violations"),
    ("pmfs", DEFAULT_OPS, {"journal_checksums": False},
     (302, 137, 104, 104, 5),
     "pmfs: 15 ops, 298 tape events, 135 boundaries, "
     "179 states checked (331 duplicates skipped), "
     "104 eviction subsets sampled, 104 torn states sampled, 6 violations"),
    ("pmfs", MMIO_OPS, {"mmio_log_checksums": False}, None,
     "pmfs: 18 ops, 96 tape events, 44 boundaries, "
     "185 states checked (160 duplicates skipped), "
     "136 eviction subsets sampled, 136 torn states sampled, 6 violations"),
    ("hinfs", DEFAULT_OPS, {}, (301, 137, 120, 120, 0),
     "hinfs: 15 ops, 297 tape events, 135 boundaries, "
     "212 states checked (327 duplicates skipped), "
     "120 eviction subsets sampled, 120 torn states sampled, 0 violations"),
    ("hinfs", MMIO_OPS, {}, None,
     "hinfs: 18 ops, 96 tape events, 44 boundaries, "
     "184 states checked (172 duplicates skipped), "
     "144 eviction subsets sampled, 144 torn states sampled, 0 violations"),
    ("hinfs", DEFAULT_OPS, {"journal_checksums": False},
     (301, 137, 120, 120, 5),
     "hinfs: 15 ops, 297 tape events, 135 boundaries, "
     "200 states checked (339 duplicates skipped), "
     "120 eviction subsets sampled, 120 torn states sampled, 5 violations"),
    ("hinfs", MMIO_OPS, {"mmio_log_checksums": False}, None,
     "hinfs: 18 ops, 96 tape events, 44 boundaries, "
     "184 states checked (172 duplicates skipped), "
     "144 eviction subsets sampled, 144 torn states sampled, 4 violations"),
    # The same explorer, op vocabulary and invariants through the same
    # VFS on two devices: the cross-shard rename protocols, the mixed
    # sequence, and MAP_ATOMIC epochs on a file living on shard 1.
    ("pmfs@2", SHARD_OPS, {}, None,
     "pmfs@2: 13 ops, 580 tape events, 266 boundaries, "
     "339 states checked (482 duplicates skipped), "
     "104 eviction subsets sampled, 104 torn states sampled, 0 violations"),
    ("hinfs@2", SHARD_OPS, {}, None,
     "hinfs@2: 13 ops, 579 tape events, 266 boundaries, "
     "348 states checked (478 duplicates skipped), "
     "104 eviction subsets sampled, 104 torn states sampled, 0 violations"),
    ("pmfs@2", DEFAULT_OPS, {}, (333, 151, 104, 104, 0),
     "pmfs@2: 15 ops, 329 tape events, 149 boundaries, "
     "218 states checked (325 duplicates skipped), "
     "104 eviction subsets sampled, 104 torn states sampled, 0 violations"),
    ("pmfs@2", MMIO_OPS, {}, None,
     "pmfs@2: 18 ops, 96 tape events, 44 boundaries, "
     "185 states checked (160 duplicates skipped), "
     "136 eviction subsets sampled, 136 torn states sampled, 0 violations"),
    ("hinfs@2", MMIO_OPS, {}, None,
     "hinfs@2: 18 ops, 96 tape events, 44 boundaries, "
     "184 states checked (172 duplicates skipped), "
     "144 eviction subsets sampled, 144 torn states sampled, 0 violations"),
]


#: The crash states each checksums-off control fails, as
#: ``(op, event, evicted, torn)``: a change to how a state is checked
#: may reword or regroup its messages, never move the set.
FAILING = {
    ("pmfs", DEFAULT_OPS): {
        (0, 26, (), ("persist", 67)),
        (7, 142, (), ("line", 110, 131)),
        (7, 142, (), ("persist", 239)),
        (9, 192, (), ("line", 125, 159)),
    },
    ("pmfs", MMIO_OPS): {
        (4, 49, (), ("persist", 8053063679)),
        (7, 60, (), ("persist", 37934651597356101886343485359)),
        (10, 81, (), ("persist",
                      1766847117434630599070066458578581537050804884648399154041860631061069832)),
        (14, 85, (), ("persist", 90)),
        (14, 85, (), ("persist", 8472)),
        (14, 85, (), ("persist", 12522)),
    },
    ("hinfs", DEFAULT_OPS): {
        (6, 112, (), ("line", 101, 167)),
        (9, 219, (), ("persist", 239)),
        (10, 230, (), ("persist", 47)),
        (13, 266, (), ("persist", 119)),
    },
    ("hinfs", MMIO_OPS): {
        (7, 60, (), ("persist", 59421084106766390091965264895)),
        (7, 60, (), ("persist", 79223326809832957572234084351)),
        (10, 81, (), ("persist",
                      6156509635978452026235442811650003837579803238728759514052320521386003089416622)),
        (14, 85, (), ("persist", 53244)),
    },
}


@pytest.mark.parametrize(
    "kind,ops,kwargs,before,summary", PINNED,
    ids=["%s-%s%s" % (kind, OPS_IDS[ops], "-csum-off" if kwargs else "")
         for kind, ops, kwargs, _b, _s in PINNED])
def test_exploration_is_pinned(kind, ops, kwargs, before, summary):
    report = CrashPointExplorer(kind, seed=3, eviction_samples_per_op=8,
                                torn_samples_per_op=8, **kwargs).explore(ops)
    assert report.summary() == summary
    if before is not None:
        events, boundaries, evictions, torn, violations = before
        # Range-logged pointer runs remove persist events, and only
        # that: the sampling budget per op is drawn in full, as before.
        assert report.events < events
        assert report.boundaries < boundaries
        assert sum(report.eviction_draws.values()) == evictions
        assert sum(report.torn_draws.values()) == torn
        # Only the negative controls find anything, and none finds less.
        assert len(report.failures) >= violations
        assert bool(violations) == bool(kwargs)
    assert bool(report.failures) == bool(kwargs)
    if kwargs:
        assert {(v.op_index, v.event_index, v.evicted, v.torn)
                for v in report.failures} == FAILING[kind, ops]
    if ops is SHARD_OPS:
        assert XMV_SITES <= set(report.sites)


def test_a_recovery_of_the_newest_epoch_alone_is_caught(monkeypatch):
    """Negative control: epoch 2 of the redo leg commits while epoch
    1's apply is half done.  A recovery that re-applies only the newest
    committed epoch leaves epoch 1's second chunk out."""
    from_media = mmio.MmioLog.from_media.__func__

    def newest_only(cls, fs, ino, head_block):
        log = from_media(cls, fs, ino, head_block)
        if log is not None:
            log.applied = max(log.applied, log.committed - 1)
        return log

    monkeypatch.setattr(mmio.MmioLog, "from_media",
                        classmethod(newest_only))
    report = CrashPointExplorer("pmfs", seed=3, eviction_samples_per_op=0,
                                torn_samples_per_op=0).explore(MMIO_OPS)
    epoch2 = MMIO_OPS.index(("msync_m", "/m"), 13)
    assert any(violation.op_index > epoch2 and
               "fsynced content of /m corrupted" in str(violation)
               for violation in report.failures)


# -- the journal ring across a wrap -------------------------------------------

#: ``WRAP_OPS`` behind ``WRAP_WARMUP`` (see their comment): the 511-slot
#: ring wraps inside the recorded window with a deferred transaction
#: open across it, after a remount whose recovery had a full ring to
#: invalidate.  The rows above never reach the last slot.
WRAP_PINNED = [
    ("pmfs",
     "pmfs: 8 ops, 209 tape events, 97 boundaries, "
     "125 states checked (200 duplicates skipped), "
     "56 eviction subsets sampled, 56 torn states sampled, 0 violations"),
    ("hinfs",
     "hinfs: 8 ops, 212 tape events, 98 boundaries, "
     "122 states checked (205 duplicates skipped), "
     "64 eviction subsets sampled, 64 torn states sampled, 0 violations"),
]


def _explore_wrap(kind, samples=8):
    return CrashPointExplorer(kind, seed=3, eviction_samples_per_op=samples,
                              torn_samples_per_op=samples,
                              warmup=WRAP_WARMUP).explore(WRAP_OPS)


@pytest.mark.parametrize("kind,summary", WRAP_PINNED,
                         ids=[kind for kind, _s in WRAP_PINNED])
def test_exploration_across_a_journal_wrap_is_pinned(kind, summary):
    report = _explore_wrap(kind)
    assert report.summary() == summary


def test_a_scan_of_the_current_generation_alone_loses_a_rename(monkeypatch):
    """Negative control: the rename that straddles the wrap logged its
    dirent removal under the previous generation.  A recovery that
    replays only the header's generation undoes half of it."""
    step = journal._step_gen
    monkeypatch.setattr(
        journal, "_step_gen",
        lambda gen, steps: gen if steps == -1 else step(gen, steps))
    report = _explore_wrap("hinfs", samples=0)  # plain prefixes show it
    # Inside ``rename /d/s -> /s2`` neither name is left: the tree is
    # the state before it but for /d/s, and the one after but for /s2.
    rename = WRAP_OPS.index(("rename", "/d/s", "/s2"))
    assert any(violation.op_index == rename
               and "path /s2 missing" in str(violation)
               for violation in report.failures)


def test_a_recovery_that_invalidates_nothing_replays_the_last_session(
        monkeypatch):
    """Negative control: leave the generation and the scanned slots as
    they were at the remount, and the first session's last transaction
    -- straddling the ring's end, its COMMIT since overwritten -- is
    rolled back over the second session's metadata at every mount."""
    step = journal._step_gen
    monkeypatch.setattr(
        journal, "_step_gen",
        lambda gen, steps: gen if steps == 2 else step(gen, steps))
    monkeypatch.setattr(journal, "_STAMPED_RUNS", lambda gens: ())
    report = _explore_wrap("pmfs", samples=0)
    assert any("path /w present" in str(violation)
               for violation in report.failures)


@pytest.mark.parametrize("kind", ["pmfs", "hinfs"])
def test_wrap_ops_do_what_their_comments_say(kind):
    """The recorded window is only worth its rows while it still makes
    room on HiNFS and wraps inside the second rename with ``/lazy2``'s
    commit deferred: watch the ring around each op of the recorded run."""
    seen = {}

    class Watching(CrashPointExplorer):
        def _execute(self, vfs, ctx, op, op_index):
            ring = vfs.fs.journal
            before = (ring.head // ring.capacity, ring.used_slots,
                      ring.open_transactions)
            super()._execute(vfs, ctx, op, op_index)
            seen[op_index] = before + (ring.head // ring.capacity,
                                       ring.used_slots)

    Watching(kind, warmup=WRAP_WARMUP)._run_ops(WRAP_OPS)
    capacity = 511
    # The first session wrapped before the remount; the second has not
    # when the recording starts.
    remount = WRAP_WARMUP.index(("remount",)) - len(WRAP_WARMUP)
    assert seen[remount - 1][3] == 1 and seen[-1][3] == 0
    passes, used, open_txs, passes_after, used_after = seen[5]
    assert (passes, passes_after) == (0, 1)  # the rename wraps the ring
    if kind == "hinfs":
        assert open_txs == 1 and used_after > 0  # /lazy2, still deferred
        _p, used, open_txs, _pa, used_after = seen[1]
        # The mkdir found the reserve short and closed the pinned tail.
        assert used + open_txs + 1 > capacity - capacity // 4
        assert used_after < 16


# -- paced pressure writeback -------------------------------------------------

#: ``PRESSURE_OPS`` behind ``PRESSURE_WARMUP`` (see their comment): three
#: paced pressure wakes of HiNFS's writeback timeline, each flushing one
#: warmup append and then appending its deferred commit, with a lazy
#: append between two wakes and an fsync before the last.  No row above
#: runs the background timelines at all.
PRESSURE_PINNED = (
    "hinfs: 6 ops, 65 tape events, 24 boundaries, "
    "78 states checked (86 duplicates skipped), "
    "48 eviction subsets sampled, 48 torn states sampled, 0 violations")


#: ``DEMAND_OPS`` behind the same warmup: an append that runs the
#: buffer dry and reclaims a batch on the foreground, then an fsync and
#: the paced wakes back up to ``High_f``.
DEMAND_PINNED = (
    "hinfs: 3 ops, 65 tape events, 20 boundaries, "
    "56 states checked (56 duplicates skipped), "
    "24 eviction subsets sampled, 24 torn states sampled, 0 violations")


def _explore_pressure(samples=8, ops=PRESSURE_OPS):
    return CrashPointExplorer("hinfs", seed=3,
                              eviction_samples_per_op=samples,
                              torn_samples_per_op=samples,
                              warmup=PRESSURE_WARMUP).explore(ops)


def test_exploration_of_paced_pressure_writeback_is_pinned():
    assert _explore_pressure().summary() == PRESSURE_PINNED


def test_exploration_of_a_demand_reclaim_is_pinned():
    assert _explore_pressure(ops=DEMAND_OPS).summary() == DEMAND_PINNED


@pytest.mark.parametrize("ops", [PRESSURE_OPS, DEMAND_OPS],
                         ids=["pressure", "demand"])
def test_a_commit_ahead_of_its_data_is_caught(monkeypatch, ops):
    """Negative control: a flush that appends the deferred commit before
    it persists the data leaves states whose size covers bytes that
    never reached NVMM -- zeroes where the append's payload should be.
    The paced wakes and the foreground's demand reclaim both show it."""
    flush = HiNFS.flush_blocks

    def commit_first(self, ctx, blocks, *args, **kwargs):
        self._complete_pending(ctx, blocks)
        return flush(self, ctx, blocks, *args, **kwargs)

    monkeypatch.setattr(HiNFS, "flush_blocks", commit_first)
    report = _explore_pressure(samples=0, ops=ops)  # plain prefixes show it
    assert any("/p0: size 16384 covers bytes that never persisted"
               in str(violation) for violation in report.failures)


def test_pressure_ops_do_what_their_comments_say():
    """Watch the buffer around each recorded op: one batch of four per
    tick, re-armed until the third reaches ``High_f``, and each batch
    closes one deferred commit."""
    seen = []

    class Watching(CrashPointExplorer):
        def _execute(self, vfs, ctx, op, op_index):
            super()._execute(vfs, ctx, op, op_index)
            fs, task = vfs.fs, vfs.fs.writeback
            seen.append((fs.buffer.free_blocks,
                         fs.env.stats.count("writeback_pressure_blocks"),
                         task.next_due_ns() < task.config.periodic_interval_ns,
                         fs.journal.open_transactions))

    Watching("hinfs", warmup=PRESSURE_WARMUP)._run_ops(PRESSURE_OPS)
    recorded = seen[len(PRESSURE_WARMUP):]
    assert seen[len(PRESSURE_WARMUP) - 1][:3] == (3, 0, False)
    assert [free for free, _b, _a, _o in recorded] == [2, 6, 5, 9, 10, 14]
    assert [b for _f, b, _a, _o in recorded] == [0, 4, 4, 8, 8, 12]
    assert [armed for _f, _b, armed, _o in recorded] == [
        True, True, True, True, True, False]
    opened = [o for _f, _b, _a, o in recorded]
    assert [opened[i] - opened[i + 1] for i in (0, 2, 4)] == [1, 1, 1]


def test_demand_ops_do_what_their_comments_say():
    """The append runs the buffer dry and stalls on one demand reclaim
    inside op 0; the fsync takes ``/a``'s blocks out, and the tick's
    paced wakes climb back to ``High_f``."""
    seen = []

    class Watching(CrashPointExplorer):
        def _execute(self, vfs, ctx, op, op_index):
            super()._execute(vfs, ctx, op, op_index)
            stats = vfs.fs.env.stats
            seen.append((vfs.fs.buffer.free_blocks,
                         stats.count("writeback_demand_stalls"),
                         stats.count("writeback_demand_blocks"),
                         stats.count("writeback_pressure_blocks")))

    Watching("hinfs", warmup=PRESSURE_WARMUP)._run_ops(DEMAND_OPS)
    recorded = seen[len(PRESSURE_WARMUP):]
    assert seen[len(PRESSURE_WARMUP) - 1] == (3, 0, 0, 0)
    assert recorded == [(2, 1, 4, 0), (7, 1, 4, 0), (15, 1, 4, 8)]


# -- an eager write over buffered blocks and a hole ---------------------------

#: ``EAGER_OPS`` (see its comment): the O_SYNC write lands on a file
#: with buffered blocks and a deferred commit, and maps a hole half-way
#: through.  Every ``sync_write`` above lands on a fresh file at 0.
EAGER_PINNED = (
    "hinfs: 2 ops, 59 tape events, 24 boundaries, "
    "44 states checked (54 duplicates skipped), "
    "16 eviction subsets sampled, 16 torn states sampled, 0 violations")


def test_exploration_of_an_eager_write_over_buffered_blocks_is_pinned():
    report = CrashPointExplorer("hinfs", seed=3, eviction_samples_per_op=8,
                                torn_samples_per_op=8).explore(EAGER_OPS)
    assert report.summary() == EAGER_PINNED


def test_eager_ops_do_what_their_comments_say():
    """Before the O_SYNC write blocks 0 and 1 are buffered and hold a
    deferred commit; after it nothing of the file is buffered, nothing
    is left open, and exactly one block -- the hole -- was mapped."""
    seen = []

    class Watching(CrashPointExplorer):
        def _execute(self, vfs, ctx, op, op_index):
            def state():
                fs = vfs.fs
                buffered = [(b.file_block, bool(b.pending_txs))
                            for b in fs.buffer.file_blocks(
                                vfs.stat(ctx, "/e").ino)] \
                    if vfs.exists(ctx, "/e") else []
                return (sorted(buffered), fs.balloc.used_count,
                        fs.journal.open_transactions)

            before = state()
            super()._execute(vfs, ctx, op, op_index)
            seen.append((before, state()))

    Watching("hinfs")._run_ops(EAGER_OPS)
    (_, appended), (before, after) = seen
    assert appended == before
    assert before[0] == [(0, True), (1, True)] and before[2] == 1
    assert after[0] == [] and after[2] == 0
    assert after[1] - before[1] == 1
