"""The crash explorer's explored work, pinned as literals.

How a crash state is stored, hashed and mounted is an implementation
detail; *which* states are checked, how many collapse as duplicates and
what the checkers find is not.  These values were recorded before crash
states became sparse deltas on one reusable image and must survive any
later change to that machinery.  (The ``@2`` rows were recorded when the
explorer learnt sharded mounts; the two ``journal_checksums=False`` rows
went 4 -> 5 violations with the stronger rename invariants, states and
duplicates unchanged.)  Public API only.
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

#: (fs kind, ops, explorer kwargs, violations, summary).  The kwargs rows
#: are the checksums-off negative controls.
PINNED = [
    ("pmfs", DEFAULT_OPS, {}, 0,
     "pmfs: 15 ops, 302 tape events, 137 boundaries, 196 states checked "
     "(324 duplicates skipped), 104 eviction subsets sampled, "
     "104 torn states sampled, 0 violations"),
    ("pmfs", MMIO_OPS, {}, 0,
     "pmfs: 15 ops, 98 tape events, 42 boundaries, 167 states checked "
     "(141 duplicates skipped), 112 eviction subsets sampled, "
     "112 torn states sampled, 0 violations"),
    ("pmfs", DEFAULT_OPS, {"journal_checksums": False}, 5,
     "pmfs: 15 ops, 302 tape events, 137 boundaries, 185 states checked "
     "(335 duplicates skipped), 104 eviction subsets sampled, "
     "104 torn states sampled, 5 violations"),
    ("pmfs", MMIO_OPS, {"mmio_log_checksums": False}, 1,
     "pmfs: 15 ops, 98 tape events, 42 boundaries, 167 states checked "
     "(141 duplicates skipped), 112 eviction subsets sampled, "
     "112 torn states sampled, 1 violations"),
    ("hinfs", DEFAULT_OPS, {}, 0,
     "hinfs: 15 ops, 301 tape events, 137 boundaries, 212 states checked "
     "(342 duplicates skipped), 120 eviction subsets sampled, "
     "120 torn states sampled, 0 violations"),
    ("hinfs", MMIO_OPS, {}, 0,
     "hinfs: 15 ops, 98 tape events, 42 boundaries, 178 states checked "
     "(143 duplicates skipped), 120 eviction subsets sampled, "
     "120 torn states sampled, 0 violations"),
    ("hinfs", DEFAULT_OPS, {"journal_checksums": False}, 5,
     "hinfs: 15 ops, 301 tape events, 137 boundaries, 201 states checked "
     "(353 duplicates skipped), 120 eviction subsets sampled, "
     "120 torn states sampled, 5 violations"),
    ("hinfs", MMIO_OPS, {"mmio_log_checksums": False}, 1,
     "hinfs: 15 ops, 98 tape events, 42 boundaries, 178 states checked "
     "(143 duplicates skipped), 120 eviction subsets sampled, "
     "120 torn states sampled, 1 violations"),
    # The same explorer, op vocabulary and invariants through the same
    # VFS on two devices: the three cross-shard rename protocols, the
    # mixed sequence, and MAP_ATOMIC epochs on a file living on shard 1.
    ("pmfs@2", SHARD_OPS, {}, 0,
     "pmfs@2: 14 ops, 918 tape events, 417 boundaries, 493 states checked "
     "(664 duplicates skipped), 112 eviction subsets sampled, "
     "112 torn states sampled, 0 violations"),
    ("hinfs@2", SHARD_OPS, {}, 0,
     "hinfs@2: 14 ops, 917 tape events, 417 boundaries, 482 states checked "
     "(662 duplicates skipped), 112 eviction subsets sampled, "
     "112 torn states sampled, 0 violations"),
    ("pmfs@2", DEFAULT_OPS, {}, 0,
     "pmfs@2: 15 ops, 333 tape events, 151 boundaries, 210 states checked "
     "(334 duplicates skipped), 104 eviction subsets sampled, "
     "104 torn states sampled, 0 violations"),
    ("pmfs@2", MMIO_OPS, {}, 0,
     "pmfs@2: 15 ops, 98 tape events, 42 boundaries, 167 states checked "
     "(141 duplicates skipped), 112 eviction subsets sampled, "
     "112 torn states sampled, 0 violations"),
    ("hinfs@2", MMIO_OPS, {}, 0,
     "hinfs@2: 15 ops, 98 tape events, 42 boundaries, 178 states checked "
     "(143 duplicates skipped), 120 eviction subsets sampled, "
     "120 torn states sampled, 0 violations"),
]


@pytest.mark.parametrize(
    "kind,ops,kwargs,violations,summary", PINNED,
    ids=["%s-%s%s" % (kind, OPS_IDS[ops], "-csum-off" if kwargs else "")
         for kind, ops, kwargs, _v, _s in PINNED])
def test_exploration_is_pinned(kind, ops, kwargs, violations, summary):
    report = CrashPointExplorer(kind, seed=3, eviction_samples_per_op=8,
                                torn_samples_per_op=8, **kwargs).explore(ops)
    assert report.summary() == summary
    assert len(report.failures) == violations
    # Only the negative controls find anything.
    assert bool(violations) == bool(kwargs)
    if ops is SHARD_OPS:
        assert XMV_SITES <= set(report.sites)
