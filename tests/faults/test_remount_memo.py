"""Invariant 5, the post-recovery remount, mounted once per recovered image.

The second mount of a state runs in a fresh env on the image the first
recovery left durable, so its verdict is a function of that image and
the state's crash window: the explorer keeps it per exploration under
``(CrashArena.durable_key(), id(window))``.  Forcing that key to miss
(``cold``) mounts every state twice, as the explorer did before the
memo; every row here must report exactly the same either way.
"""

import pytest

from repro.faults.crashpoints import (
    DEFAULT_OPS,
    DEMAND_OPS,
    EAGER_OPS,
    PRESSURE_OPS,
    PRESSURE_WARMUP,
    WRAP_OPS,
    WRAP_WARMUP,
    CrashArena,
    CrashPointExplorer,
)
from repro.fs.pmfs.journal import ENTRY_SIZE, Journal
from repro.nvmm.device import NVMMDevice


def cold(monkeypatch):
    """Never hit: each call's key is a new object."""
    monkeypatch.setattr(CrashArena, "durable_key", lambda arena: object())


def count_remounts(monkeypatch):
    calls = []
    remount = CrashPointExplorer._remount

    def counted(explorer, window):
        calls.append(window)
        return remount(explorer, window)

    monkeypatch.setattr(CrashPointExplorer, "_remount", counted)
    return calls


def explored(monkeypatch, kind, ops, memo, **kwargs):
    """``(report, real remounts)`` of one exploration, with the memo
    warm or forced cold."""
    with monkeypatch.context() as patch:
        if not memo:
            cold(patch)
        calls = count_remounts(patch)
        report = CrashPointExplorer(kind, seed=3, eviction_samples_per_op=8,
                                    torn_samples_per_op=8,
                                    **kwargs).explore(ops)
    return report, len(calls)


ROWS = [
    ("pmfs", DEFAULT_OPS, {}),
    ("hinfs", DEFAULT_OPS, {}),
    ("pmfs@2", DEFAULT_OPS, {}),
    ("pmfs", WRAP_OPS, {"warmup": WRAP_WARMUP}),
    ("hinfs", WRAP_OPS, {"warmup": WRAP_WARMUP}),
    ("hinfs", PRESSURE_OPS, {"warmup": PRESSURE_WARMUP}),
    ("hinfs", DEMAND_OPS, {"warmup": PRESSURE_WARMUP}),
    ("hinfs", EAGER_OPS, {}),
]


@pytest.mark.parametrize("kind,ops,kwargs", ROWS, ids=[
    "pmfs-default", "hinfs-default", "pmfs@2-default", "pmfs-wrap",
    "hinfs-wrap", "hinfs-pressure", "hinfs-demand", "hinfs-eager"])
def test_a_warm_memo_reports_what_a_cold_one_does(monkeypatch, kind, ops,
                                                 kwargs):
    warm, warm_mounts = explored(monkeypatch, kind, ops, True, **kwargs)
    colder, cold_mounts = explored(monkeypatch, kind, ops, False, **kwargs)
    assert warm.as_dict() == colder.as_dict()
    assert [str(v) for v in warm.failures] == \
        [str(v) for v in colder.failures]
    # Cold, every state that passed its first mount is remounted.
    assert cold_mounts == warm.states_checked - len(warm.failures)
    assert 0 < warm_mounts < cold_mounts


def unflushed_rollback(monkeypatch):
    """A recovery that rolls its undo images back with cached stores and
    no flush: the first mount reads the rolled-back bytes, a crash drops
    them.  Its ring invalidation still persists, so the next mount has
    nothing left to roll back with."""
    recover = Journal.recover

    def recover_unflushed(journal, ctx):
        device = journal.device
        ring = range(journal.base_addr,
                     journal.base_addr + (journal.capacity + 1) * ENTRY_SIZE)

        def persist_cached(ctx, addr, data, *category):
            if addr in ring:
                return NVMMDevice.persist_cached(device, ctx, addr, data,
                                                 *category)
            device.write_cached(ctx, addr, data, *category)
            return 0

        device.persist_cached = persist_cached
        try:
            return recover(journal, ctx)
        finally:
            del device.persist_cached

    monkeypatch.setattr(Journal, "recover", recover_unflushed)


@pytest.mark.parametrize("kind", ["pmfs", "hinfs"])
def test_an_unflushed_rollback_fails_the_remount_alone(monkeypatch, kind):
    """Negative control for invariant 5: only the post-recovery remount
    can see this bug, and it does, warm or cold alike."""
    unflushed_rollback(monkeypatch)
    warm, warm_mounts = explored(monkeypatch, kind, DEFAULT_OPS, True)
    colder, _ = explored(monkeypatch, kind, DEFAULT_OPS, False)
    assert warm.failures
    assert [str(v) for v in warm.failures] == \
        [str(v) for v in colder.failures]
    assert 0 < warm_mounts
    # Every finding is the remount's: with it skipped there are none.
    with monkeypatch.context() as patch:
        patch.setattr(CrashPointExplorer, "_remount",
                      lambda explorer, window: [])
        skipped = CrashPointExplorer(kind, seed=3, eviction_samples_per_op=8,
                                     torn_samples_per_op=8).explore(
                                         DEFAULT_OPS)
    assert skipped.ok
    assert skipped.states_checked == warm.states_checked
