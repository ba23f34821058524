"""Sparse crash states equal the full images they stand for.

The explorer keeps a crash state as the bytes of the tape-touched line
extents and materialises it on the recorded run's own regions (the
arena), put back to the baseline from the lines the run saved before
changing them.  The reference here is the same :class:`ShadowImage`
with no extents -- the whole baseline, read off the adopted regions, as
one extent, i.e. a full device image per state, which is what the
explorer mounted before it went sparse.
"""

import hashlib
import random

import pytest

from repro.faults.crashpoints import (
    DEFAULT_OPS,
    EV_PERSIST,
    EV_STORE,
    MMIO_OPS,
    SHARD_OPS,
    WORDS_PER_LINE,
    CrashArena,
    CrashPointExplorer,
    ShadowImage,
    touched_extents,
)
from repro.fs.pmfs.journal import Journal
from repro.mem.cpucache import CachedPersistentRegion
from repro.nvmm.config import CACHELINE_SIZE

#: Small device: the reference copies and hashes a full image per state.
DEVICE_BYTES = 1 << 20


def durable(arena):
    return b"".join(mem.persistent_read(0, mem.size) for mem in arena.mems)


class CheckedExplorer(CrashPointExplorer):
    """An explorer that rebuilds every candidate state on a full-image
    reference shadow and compares it with what is about to be mounted."""

    def __init__(self, fs_kind, device_bytes=DEVICE_BYTES):
        super().__init__(fs_kind, seed=3, eviction_samples_per_op=8,
                         torn_samples_per_op=8, device_bytes=device_bytes)
        self.digests = []    # (sparse digest, reference digest) per candidate
        self.compared = 0    # states whose pre-mount media was compared
        self._pending = None

    def _run_ops(self, ops):
        self.tape, mems, checkpoints = super()._run_ops(ops)
        return self.tape, mems, checkpoints

    def _enumerate(self, report, tape, checkpoints):
        # The arena has just adopted the run's regions: the full image
        # it restored them to is the reference's baseline.
        self.baseline = durable(self._arena)
        super()._enumerate(report, tape, checkpoints)

    def _reference(self, k, evicted, torn):
        ref = ShadowImage(self.baseline)
        for event in self.tape.events[:k]:
            ref.apply(event)
        if torn is None:
            return ref.crash_image(evicted)
        if torn[0] == "persist":
            return ref.torn_persist_image(self.tape.events[k], torn[1])
        _, line, mask = torn
        return ref.crash_image(torn={line: mask})

    def _check_image(self, report, seen, image, k, window_at, evicted,
                     torn=None):
        self._pending = self._reference(k, evicted, torn)
        self.digests.append((hashlib.sha1(image).digest(),
                             hashlib.sha1(self._pending).digest()))
        super()._check_image(report, seen, image, k, window_at, evicted,
                             torn=torn)

    def _mount(self):
        # The first mount after a candidate is the one that sees the
        # materialised state; the second-crash mount sees recovery's output.
        if self._pending is not None:
            assert durable(self._arena) == self._pending
            self.compared += 1
            self._pending = None
        return super()._mount()


@pytest.mark.parametrize("fs_kind,ops", [
    ("pmfs", DEFAULT_OPS[:7]), ("pmfs", MMIO_OPS[:7]),
    ("hinfs", DEFAULT_OPS[:7]), ("hinfs", MMIO_OPS[:7]),
    # Two devices on one tape (mirrored mkdir, a file on shard 1): every
    # extent lands on the right region.
    ("pmfs@2", SHARD_OPS[:2]),
], ids=["pmfs-default", "pmfs-mmio", "hinfs-default", "hinfs-mmio",
        "pmfs@2-shard"])
def test_mounted_media_equals_reference_image(fs_kind, ops):
    explorer = CheckedExplorer(fs_kind)
    report = explorer.explore(ops)
    report.raise_if_failed()
    assert explorer.compared == report.states_checked > 0
    assert sum(report.eviction_draws.values()) > 0
    assert sum(report.torn_draws.values()) > 0
    # The states really are sparse: far smaller than the device.
    covered = sum(end - start for start, end in explorer._arena.extents)
    assert 0 < covered < DEVICE_BYTES // 8
    # ... and every device of the mount has some.
    assert {start // DEVICE_BYTES for start, _end in explorer._arena.extents} \
        == set(range(explorer.devices))
    # Same dedup key iff same full image: the digests pair off one to one.
    assert len(explorer.digests) == (report.states_checked
                                     + report.states_deduped)
    pairs = set(explorer.digests)
    assert len(pairs) == len({sparse for sparse, _ref in pairs})
    assert len(pairs) == len({ref for _sparse, ref in pairs})
    assert len(pairs) < len(explorer.digests)  # duplicates did occur


def test_restore_on_a_perfbench_sized_device():
    """4 MB, where restoring by extent is what makes a state cheap: the
    mounted media still equals the full-image reference, state by state."""
    explorer = CheckedExplorer("hinfs", device_bytes=4 << 20)
    report = explorer.explore(DEFAULT_OPS[:4])
    report.raise_if_failed()
    assert explorer.compared == report.states_checked > 20
    assert len(explorer.baseline) == 4 << 20


class DeafArenaExplorer(CheckedExplorer):
    """The negative control of the comparison above: the arena's
    watches (not the run's recorder) hear nothing, so no line a mount
    makes durable outside the extents is put back before the next
    state.  What a mount leaves volatile the arena's crash drops."""

    def _check_image(self, *args, **kwargs):
        for watch in self._arena.watches:
            watch.on_persist = lambda addr, data: None
        super()._check_image(*args, **kwargs)


def test_a_deaf_arena_recorder_fails_the_whole_arena_comparison():
    explorer = DeafArenaExplorer("pmfs")
    report = explorer.explore(DEFAULT_OPS[:7])
    # The first recovery's generation bump lies outside the run's
    # extents and leaks into every later state; the comparison's
    # AssertionError is that state's mount failure.
    leaked = [v for v in report.failures
              if v.message.startswith("mount failed: AssertionError")]
    assert len(leaked) == len(report.failures) == report.states_checked - 1
    assert explorer.compared == 1
    with pytest.raises(AssertionError, match="mount failed"):
        report.raise_if_failed()


# -- the slabs are released on time ------------------------------------------


class SlabWatcher(CrashPointExplorer):
    """Remembers the regions of the recorded run's devices, and can blow
    up in the middle of the enumeration."""

    def __init__(self, fs_kind, fail_at_state=None):
        super().__init__(fs_kind, seed=3, eviction_samples_per_op=2,
                         torn_samples_per_op=2, device_bytes=DEVICE_BYTES)
        self.fail_at_state = fail_at_state
        self.states = 0

    def _stack(self, mems, name, **fs_kwargs):
        shards, vfs, ctx = super()._stack(mems, name, **fs_kwargs)
        if mems is None:
            self.run_mems = [fs.device.mem for fs in shards]
        return shards, vfs, ctx

    def _check_state(self, image, window):
        self.states += 1
        if self.states == self.fail_at_state:
            raise RuntimeError("checker bug")
        return super()._check_state(image, window)


@pytest.mark.parametrize("fail_at_state", [None, 3])
def test_explore_releases_every_device_slab(fail_at_state):
    explorer = SlabWatcher("hinfs@2", fail_at_state)
    if fail_at_state is None:
        explorer.explore(SHARD_OPS[:2]).raise_if_failed()
    else:
        with pytest.raises(RuntimeError, match="checker bug"):
            explorer.explore(SHARD_OPS[:2])
    arena = explorer._arena
    assert len(arena.mems) == len(explorer.run_mems) == 2
    # The arena adopted the run's regions: no second device-sized slab.
    assert all(a is b for a, b in zip(arena.mems, explorer.run_mems))
    for mem in arena.mems + explorer.run_mems:
        assert mem.observer is None
        with pytest.raises(ValueError):
            mem.read(0, 1)
        with pytest.raises(ValueError):
            mem.write_nocache(0, b"x")
    assert arena.extents  # still readable
    with pytest.raises(ValueError):
        arena.load(bytes(sum(end - start for start, end in arena.extents)))


def test_unaligned_region_tail_line():
    """A region whose size is not a multiple of 64: the tail line is
    clamped in the image and zero-padded in the line buffers."""
    size = 4 * CACHELINE_SIZE + 24
    rng = random.Random(11)
    baseline = bytes(rng.randrange(256) for _ in range(size))
    tail = 4 * CACHELINE_SIZE
    tape = [
        (EV_STORE, tail + 4, b"T" * 20),                 # tail line only
        (EV_STORE, 3 * CACHELINE_SIZE + 50, b"S" * 30),  # lines 3 and tail
        (EV_PERSIST, tail, b"P" * 24),                   # whole tail line
        (EV_STORE, size - 3, b"xyz"),                    # last bytes
        (EV_STORE, 70, b"q" * 10),                       # line 1, far away
        (EV_PERSIST, 64, b"r" * 64),
    ]
    extents = touched_extents(tape, size)
    assert extents == [(64, 128), (3 * CACHELINE_SIZE, size)]
    mem = CachedPersistentRegion(size)
    mem.write_nocache(0, baseline)
    arena = CrashArena([mem], {}, extents)
    assert arena.baseline == baseline[64:128] + baseline[3 * CACHELINE_SIZE:]
    sparse, ref = ShadowImage(arena.baseline, extents), ShadowImage(baseline)

    def same(sparse_image, ref_image):
        arena.load(sparse_image)
        assert durable(arena) == ref_image

    for k in range(len(tape) + 1):
        assert sparse.dirty == ref.dirty
        assert all(len(buf) == CACHELINE_SIZE for buf in sparse.dirty.values())
        same(sparse.crash_image(), ref.crash_image())
        dirty = sorted(sparse.dirty)
        for n in range(1, len(dirty) + 1):
            evicted = tuple(sorted(rng.sample(dirty, n)))
            same(sparse.crash_image(evicted), ref.crash_image(evicted))
        for line in dirty:
            mask = rng.randrange(1, (1 << WORDS_PER_LINE) - 1)
            same(sparse.crash_image(torn={line: mask}),
                 ref.crash_image(torn={line: mask}))
        if k < len(tape):
            event = tape[k]
            for _ in range(4 if event[0] == EV_PERSIST else 0):
                nwords = ShadowImage.persist_word_count(event)
                mask = rng.randrange(1, (1 << nwords) - 1)
                same(sparse.torn_persist_image(event, mask),
                     ref.torn_persist_image(event, mask))
            sparse.apply(event)
            ref.apply(event)


def test_tape_outside_extents_is_rejected():
    with pytest.raises(ValueError):
        ShadowImage(b"\0" * 512, [(64, 128)])  # a full image, not compact
    shadow = ShadowImage(b"\0" * 64, [(64, 128)])
    with pytest.raises(ValueError):
        shadow.apply((EV_PERSIST, 256, b"x"))
    with pytest.raises(ValueError):
        shadow.apply((EV_STORE, 120, b"x" * 16))  # runs off the extent


# -- no leak between states ------------------------------------------------


def prepared(fs_kind, ops):
    """An explorer with its run recorded and its arena built, plus the
    compact crash image and crash window of every event prefix."""
    explorer = CrashPointExplorer(fs_kind, device_bytes=DEVICE_BYTES)
    tape, mems, checkpoints = explorer._run_ops(ops)
    extents = touched_extents(tape.events, DEVICE_BYTES)
    explorer._arena = CrashArena(mems, tape.saved, extents,
                                 explorer._key_lines)
    shadow = ShadowImage(explorer._arena.baseline, extents)
    states = []
    for k in range(len(tape.events) + 1):
        window = [cp[2] for cp in checkpoints if cp[0] <= k][-1]
        states.append((shadow.crash_image(), window))
        if k < len(tape.events):
            shadow.apply(tape.events[k])
    # Record the media each mount sees.
    explorer.mounted = []
    mount = explorer._mount

    def recording_mount():
        explorer.mounted.append(durable(explorer._arena))
        return mount()

    explorer._mount = recording_mount
    return explorer, states


@pytest.mark.parametrize("fs_kind", ["pmfs", "hinfs"])
def test_recovery_writes_do_not_leak_into_the_next_state(
        fs_kind, monkeypatch):
    ops = DEFAULT_OPS[:3]
    rollbacks = []
    recover = Journal.recover

    def counting_recover(journal, ctx):
        rollbacks.append(recover(journal, ctx))
        return rollbacks[-1]

    monkeypatch.setattr(Journal, "recover", counting_recover)
    # The remount memo forced cold: every state is mounted twice, and
    # both mounts' media are compared below.
    monkeypatch.setattr(CrashArena, "durable_key", lambda arena: object())

    first, states = prepared(fs_kind, ops)
    # Find a state whose recovery rolls a transaction back, and the next
    # prefix whose image differs from it.
    x = None
    for k, (image, window) in enumerate(states):
        del rollbacks[:]
        first._check_state(image, window)
        if rollbacks[0] > 0:
            x = k
            break
    assert x is not None, "no prefix needed a rollback"
    y = next(k for k in range(x + 1, len(states))
             if states[k][0] != states[x][0])

    del first.mounted[:]
    assert first._check_state(*states[x]) == []
    before_recovery, after_recovery = first.mounted
    # Recovery changed the media, and the second-crash mount saw that --
    # not a restored image.
    assert after_recovery != before_recovery
    del first.mounted[:]
    verdict_after_x = first._check_state(*states[y])

    fresh, fresh_states = prepared(fs_kind, ops)
    assert fresh_states[y][0] == states[y][0]
    verdict_alone = fresh._check_state(*fresh_states[y])
    assert verdict_after_x == verdict_alone == []
    assert first.mounted == fresh.mounted
    assert len(fresh.mounted) == 2
