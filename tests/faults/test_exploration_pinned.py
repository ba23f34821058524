"""The crash explorer's explored work, pinned as literals.

How a crash state is stored, hashed and mounted is an implementation
detail; *which* states are checked, how many collapse as duplicates and
what the checkers find is not.  These values were recorded before crash
states became sparse deltas on one reusable image and must survive any
later change to that machinery.  (The ``@2`` rows were recorded when the
explorer learnt sharded mounts; the two ``journal_checksums=False`` rows
went 4 -> 5 violations with the stronger rename invariants, states and
duplicates unchanged.)  Public API only.

What a row may follow is *placement*.  A crash image is deduplicated by
its bytes, and the block numbers in its pointers and the blocks its data
sits on are part of them.  When the block allocator became
address-ordered (a recreated file lands on the blocks its predecessor
freed, not on the next never-used ones), 11 rows moved by 1..8 states
between "checked" and "duplicate", and the torn samples of the
``mmio_log_checksums=False`` control on pmfs tear one more record that
matters (1 -> 2 violations).  The explored work did not move: ``BEFORE``
keeps each row's counts from before that change and every row asserts
that ops, tape events, boundaries, both sample counts and
checked + duplicates are still those.
"""

import pytest

from repro.faults.crashpoints import (
    DEFAULT_OPS,
    MMIO_OPS,
    SHARD_OPS,
    CrashPointExplorer,
)

#: The fault-plan sites of the cross-shard migration: SHARD_OPS must
#: drive the protocol through every step.
XMV_SITES = {"xmv:intent", "xmv:copy", "xmv:copied", "xmv:victim-unlinked",
             "xmv:linked", "xmv:unlinked"}

OPS_IDS = {DEFAULT_OPS: "default", MMIO_OPS: "mmio", SHARD_OPS: "shard"}

#: (fs kind, ops, explorer kwargs, BEFORE, NOW, summary).  BEFORE and NOW
#: are (states checked, duplicates skipped, violations) under the
#: rotating-cursor allocator and under the address-ordered one; every
#: other number of the summary is the literal recorded with BEFORE.  The
#: kwargs rows are the checksums-off negative controls.
PINNED = [
    ("pmfs", DEFAULT_OPS, {}, (196, 324, 0), (198, 322, 0),
     "pmfs: 15 ops, 302 tape events, 137 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "104 eviction subsets sampled, 104 torn states sampled, %d violations"),
    ("pmfs", MMIO_OPS, {}, (167, 141, 0), (167, 141, 0),
     "pmfs: 15 ops, 98 tape events, 42 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "112 eviction subsets sampled, 112 torn states sampled, %d violations"),
    ("pmfs", DEFAULT_OPS, {"journal_checksums": False},
     (185, 335, 5), (187, 333, 5),
     "pmfs: 15 ops, 302 tape events, 137 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "104 eviction subsets sampled, 104 torn states sampled, %d violations"),
    ("pmfs", MMIO_OPS, {"mmio_log_checksums": False},
     (167, 141, 1), (167, 141, 2),
     "pmfs: 15 ops, 98 tape events, 42 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "112 eviction subsets sampled, 112 torn states sampled, %d violations"),
    ("hinfs", DEFAULT_OPS, {}, (212, 342, 0), (213, 341, 0),
     "hinfs: 15 ops, 301 tape events, 137 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "120 eviction subsets sampled, 120 torn states sampled, %d violations"),
    ("hinfs", MMIO_OPS, {}, (178, 143, 0), (176, 145, 0),
     "hinfs: 15 ops, 98 tape events, 42 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "120 eviction subsets sampled, 120 torn states sampled, %d violations"),
    ("hinfs", DEFAULT_OPS, {"journal_checksums": False},
     (201, 353, 5), (202, 352, 5),
     "hinfs: 15 ops, 301 tape events, 137 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "120 eviction subsets sampled, 120 torn states sampled, %d violations"),
    ("hinfs", MMIO_OPS, {"mmio_log_checksums": False},
     (178, 143, 1), (176, 145, 1),
     "hinfs: 15 ops, 98 tape events, 42 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "120 eviction subsets sampled, 120 torn states sampled, %d violations"),
    # The same explorer, op vocabulary and invariants through the same
    # VFS on two devices: the three cross-shard rename protocols, the
    # mixed sequence, and MAP_ATOMIC epochs on a file living on shard 1.
    ("pmfs@2", SHARD_OPS, {}, (493, 664, 0), (501, 656, 0),
     "pmfs@2: 14 ops, 918 tape events, 417 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "112 eviction subsets sampled, 112 torn states sampled, %d violations"),
    ("hinfs@2", SHARD_OPS, {}, (482, 662, 0), (489, 655, 0),
     "hinfs@2: 14 ops, 917 tape events, 417 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "112 eviction subsets sampled, 112 torn states sampled, %d violations"),
    ("pmfs@2", DEFAULT_OPS, {}, (210, 334, 0), (213, 331, 0),
     "pmfs@2: 15 ops, 333 tape events, 151 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "104 eviction subsets sampled, 104 torn states sampled, %d violations"),
    ("pmfs@2", MMIO_OPS, {}, (167, 141, 0), (167, 141, 0),
     "pmfs@2: 15 ops, 98 tape events, 42 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "112 eviction subsets sampled, 112 torn states sampled, %d violations"),
    ("hinfs@2", MMIO_OPS, {}, (178, 143, 0), (176, 145, 0),
     "hinfs@2: 15 ops, 98 tape events, 42 boundaries, "
     "%d states checked (%d duplicates skipped), "
     "120 eviction subsets sampled, 120 torn states sampled, %d violations"),
]


@pytest.mark.parametrize(
    "kind,ops,kwargs,before,now,summary", PINNED,
    ids=["%s-%s%s" % (kind, OPS_IDS[ops], "-csum-off" if kwargs else "")
         for kind, ops, kwargs, _b, _n, _s in PINNED])
def test_exploration_is_pinned(kind, ops, kwargs, before, now, summary):
    report = CrashPointExplorer(kind, seed=3, eviction_samples_per_op=8,
                                torn_samples_per_op=8, **kwargs).explore(ops)
    assert report.summary() == summary % now
    assert len(report.failures) == now[2]
    # Placement moves states between "checked" and "duplicate", never
    # in or out of the exploration, and costs no finding.
    assert (report.states_checked + report.states_deduped
            == before[0] + before[1])
    assert now[2] >= before[2]
    # Only the negative controls find anything.
    assert bool(now[2]) == bool(before[2]) == bool(kwargs)
    if ops is SHARD_OPS:
        assert XMV_SITES <= set(report.sites)
