"""The crash explorer's explored work, pinned as literals.

How a crash state is stored, hashed and mounted is an implementation
detail; *which* states are checked, how many collapse as duplicates and
what the checkers find is not.  These values were recorded before crash
states became sparse deltas on one reusable image and must survive any
later change to that machinery.  Public API only.
"""

import pytest

from repro.faults.crashpoints import DEFAULT_OPS, MMIO_OPS, CrashPointExplorer

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
    ("pmfs", DEFAULT_OPS, {"journal_checksums": False}, 4,
     "pmfs: 15 ops, 302 tape events, 137 boundaries, 185 states checked "
     "(335 duplicates skipped), 104 eviction subsets sampled, "
     "104 torn states sampled, 4 violations"),
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
    ("hinfs", DEFAULT_OPS, {"journal_checksums": False}, 4,
     "hinfs: 15 ops, 301 tape events, 137 boundaries, 201 states checked "
     "(353 duplicates skipped), 120 eviction subsets sampled, "
     "120 torn states sampled, 4 violations"),
    ("hinfs", MMIO_OPS, {"mmio_log_checksums": False}, 1,
     "hinfs: 15 ops, 98 tape events, 42 boundaries, 178 states checked "
     "(143 duplicates skipped), 120 eviction subsets sampled, "
     "120 torn states sampled, 1 violations"),
]


@pytest.mark.parametrize(
    "kind,ops,kwargs,violations,summary", PINNED,
    ids=["%s-%s%s" % (kind, "mmio" if ops is MMIO_OPS else "default",
                      "-csum-off" if kwargs else "")
         for kind, ops, kwargs, _v, _s in PINNED])
def test_exploration_is_pinned(kind, ops, kwargs, violations, summary):
    report = CrashPointExplorer(kind, seed=3, eviction_samples_per_op=8,
                                torn_samples_per_op=8, **kwargs).explore(ops)
    assert report.summary() == summary
    assert len(report.failures) == violations
    # Only the negative controls find anything.
    assert bool(violations) == bool(kwargs)
