"""Crash-point explorer acceptance tests (deterministic, seeded)."""

import pytest

from repro.faults.crashpoints import (
    DEFAULT_OPS,
    EV_PERSIST,
    EV_STORE,
    CrashPointExplorer,
    ShadowImage,
    TapeRecorder,
)
from repro.mem.cpucache import CachedPersistentRegion
from repro.nvmm.config import CACHELINE_SIZE

SHORT_OPS = (
    ("create", "/a"),
    ("append", "/a", 1200),
    ("rename", "/a", "/b"),
    ("unlink", "/b"),
)


class TestShadowImage:
    def test_store_is_volatile_until_persist(self):
        shadow = ShadowImage(b"\0" * (4 * CACHELINE_SIZE))
        shadow.apply((EV_STORE, 10, b"xyz"))
        assert shadow.crash_image()[10:13] == b"\0\0\0"
        assert 0 in shadow.dirty
        shadow.apply((EV_PERSIST, 10, b"xyz"))
        assert shadow.crash_image()[10:13] == b"xyz"
        assert not shadow.dirty

    def test_eviction_overlays_dirty_line(self):
        shadow = ShadowImage(b"\0" * (4 * CACHELINE_SIZE))
        shadow.apply((EV_STORE, CACHELINE_SIZE, b"q" * 8))
        image = shadow.crash_image(evict_lines=(1,))
        assert image[CACHELINE_SIZE:CACHELINE_SIZE + 8] == b"q" * 8
        # The un-evicted view is unchanged.
        assert shadow.crash_image()[CACHELINE_SIZE] == 0

    def test_store_spanning_lines(self):
        shadow = ShadowImage(b"\0" * (4 * CACHELINE_SIZE))
        data = bytes(range(100))
        shadow.apply((EV_STORE, CACHELINE_SIZE - 20, data))
        assert sorted(shadow.dirty) == [0, 1, 2]
        image = shadow.crash_image(evict_lines=(0, 1, 2))
        assert image[CACHELINE_SIZE - 20:CACHELINE_SIZE + 80] == data


class TestTapeRecorder:
    def test_saves_each_line_once_before_its_first_durable_change(self):
        mem = CachedPersistentRegion(3 * CACHELINE_SIZE + 8)
        mem.write_nocache(0, b"A" * len(mem.read(0, mem.size)))
        tape = mem.observer = TapeRecorder(mem, base=CACHELINE_SIZE * 10)
        mem.write(CACHELINE_SIZE + 5, b"cached")   # no durable change yet
        assert tape.saved == {}
        mem.clflush(CACHELINE_SIZE, 1)              # line 1 persists
        mem.write_nocache(CACHELINE_SIZE * 3 - 4, b"x" * 12)  # 2 and tail
        mem.write_nocache(CACHELINE_SIZE, b"z")     # line 1 again: kept
        mem.write_nocache(0, b"y")
        # Keys are tape lines (shifted by ``base``); values the bytes a
        # crash would have left before the first change, the tail line
        # clamped to the region.
        assert tape.saved == {10: b"A" * CACHELINE_SIZE,
                              11: b"A" * CACHELINE_SIZE,
                              12: b"A" * CACHELINE_SIZE,
                              13: b"A" * 8}


class TestExplorerAcceptance:
    """Every flush/fence boundary of the mixed sequence recovers clean."""

    @pytest.mark.parametrize("fs_kind", ["pmfs", "hinfs"])
    def test_default_ops_all_states_consistent(self, fs_kind):
        explorer = CrashPointExplorer(fs_kind, seed=0,
                                      eviction_samples_per_op=64)
        report = explorer.explore(DEFAULT_OPS)
        report.raise_if_failed()
        assert report.events > 0
        assert report.boundaries > 0
        # The sequence exercises the op kinds the issue names.
        kinds = {op[0] for op in DEFAULT_OPS}
        assert {"create", "append", "rename", "unlink"} <= kinds
        # Every op whose window produced tape events drew its full quota
        # of sampled eviction subsets; ops that emit no events (a PMFS
        # fsync is a bare fence) legitimately draw zero.
        assert len(report.eviction_draws) == len(DEFAULT_OPS)
        for op_index, draws in report.eviction_draws.items():
            assert draws in (0, 64), (op_index, draws)
        assert sum(report.eviction_draws.values()) >= 64 * 10

    def test_same_seed_same_exploration(self):
        a = CrashPointExplorer("pmfs", seed=7,
                               eviction_samples_per_op=8).explore(SHORT_OPS)
        b = CrashPointExplorer("pmfs", seed=7,
                               eviction_samples_per_op=8).explore(SHORT_OPS)
        a.raise_if_failed()
        assert (a.events, a.boundaries, a.states_checked, a.states_deduped,
                a.eviction_draws) == (b.events, b.boundaries,
                                      b.states_checked, b.states_deduped,
                                      b.eviction_draws)

    def test_rejects_unknown_fs(self):
        with pytest.raises(ValueError):
            CrashPointExplorer("ext4")


class TestTornWrites:
    """Sub-cacheline (8-byte word) crash states."""

    def test_crash_image_applies_word_mask_to_dirty_line(self):
        shadow = ShadowImage(b"\0" * (2 * CACHELINE_SIZE))
        shadow.apply((EV_STORE, 0, b"\xff" * CACHELINE_SIZE))
        image = shadow.crash_image(torn={0: 0b101})  # words 0 and 2
        assert image[0:8] == b"\xff" * 8
        assert image[8:16] == b"\0" * 8
        assert image[16:24] == b"\xff" * 8
        assert image[24:CACHELINE_SIZE] == b"\0" * 40
        # The untorn view is untouched: stores stay volatile.
        assert shadow.crash_image()[0] == 0

    def test_torn_persist_image_tears_the_next_flush(self):
        from repro.faults.crashpoints import EV_PERSIST

        shadow = ShadowImage(b"\0" * (2 * CACHELINE_SIZE))
        event = (EV_PERSIST, 4, b"\xaa" * 20)  # words 0..2 of the line
        # Bit i selects the i-th word *overlapping the event*; unchosen
        # words keep their old persistent bytes entirely.
        image = shadow.torn_persist_image(event, 0b110)
        assert image[0:8] == b"\0" * 8  # word 0 not chosen
        assert image[8:16] == b"\xaa" * 8
        assert image[16:24] == b"\xaa" * 8
        assert image[24:CACHELINE_SIZE] == b"\0" * 40
        with pytest.raises(ValueError):
            shadow.torn_persist_image((EV_STORE, 0, b"x"), 1)

    def test_persist_word_count(self):
        from repro.faults.crashpoints import EV_PERSIST

        assert ShadowImage.persist_word_count((EV_PERSIST, 0, b"x" * 8)) == 1
        assert ShadowImage.persist_word_count((EV_PERSIST, 4, b"x" * 8)) == 2
        assert ShadowImage.persist_word_count((EV_PERSIST, 0, b"")) == 0
        assert ShadowImage.persist_word_count((EV_STORE, 0, b"x")) == 0

    @pytest.mark.parametrize("fs_kind", ["pmfs", "hinfs"])
    def test_torn_states_sampled_and_consistent(self, fs_kind):
        explorer = CrashPointExplorer(fs_kind, seed=0,
                                      eviction_samples_per_op=8,
                                      torn_samples_per_op=8)
        report = explorer.explore(SHORT_OPS)
        report.raise_if_failed()
        assert sum(report.torn_draws.values()) > 0

    @pytest.mark.parametrize("fs_kind", ["pmfs", "hinfs"])
    def test_negative_control_checksums_off_catches_torn_journal(
            self, fs_kind):
        """With entry CRCs disabled, recovery replays garbage undo
        records reconstructed from torn journal lines -- the explorer
        must catch the resulting corruption.  The same exploration with
        checksums on is the positive control above.  The prefix is
        long enough that the seeded draws do not all miss the journal:
        ``[:5]`` tore one of its lines on pmfs only while every fresh
        pointer had an entry of its own; ``[:8]`` finds 11 torn
        violations on pmfs and 16 on hinfs."""
        ops = DEFAULT_OPS[:8]
        clean = CrashPointExplorer(fs_kind, seed=0,
                                   eviction_samples_per_op=16,
                                   torn_samples_per_op=16,
                                   journal_checksums=True).explore(ops)
        clean.raise_if_failed()
        broken = CrashPointExplorer(fs_kind, seed=0,
                                    eviction_samples_per_op=16,
                                    torn_samples_per_op=16,
                                    journal_checksums=False).explore(ops)
        assert broken.failures, "torn journal replay went undetected"
        assert any(v.torn is not None for v in broken.failures)
