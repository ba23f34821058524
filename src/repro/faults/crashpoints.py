"""Crash-point exploration for the NVMM file systems.

CrashMonkey-style, adapted to byte-addressable persistence: instead of
reordering bios, the explorer records the *persistence tape* of an
operation sequence -- every volatile (cached) store, every byte range
that actually reached the persistence domain (``clflush`` / non-temporal
store), and every flush/fence ordering boundary -- via the observer hook
on :class:`repro.mem.cpucache.CachedPersistentRegion`.

From the tape it reconstructs the NVMM image a power failure would leave
behind at **every** event prefix (which covers every clflush/mfence
boundary), plus, per operation, a seeded sample of *uncontrolled
eviction* states: the same prefix image with a random subset of the
then-dirty CPU-cache lines written back, modelling lines the cache
evicted on its own before the crash.

Every crash image of one recorded run equals the pre-run baseline
outside the cachelines some tape event touched, so a state is kept as a
*sparse delta*: the bytes of those line extents only.  The recorder
saves a line's durable bytes the first time the run changes them, so
the run's own regions, crashed and given those bytes back, hold the
baseline again (the arena).  Each state is written over it, power-cycled
-- a fresh env, device and file system on the surviving media -- and
the recovered file system is checked against the reference model
(:mod:`repro.faults.model`) stepped through the same operations:

1. recovery succeeds (journal replay / rollback is correct) and no
   device comes up degraded;
2. the recovered tree refines a state of the model the crash point
   allows -- after an op, the state it left; inside one, the state
   before it or after it, a file the op writes volatile in both (the
   second keeps the first's promise only if the op keeps one): the
   same paths, of the same kinds, and every file an fsync, O_SYNC write
   or msync acknowledged reads back at least those bytes, exactly while
   nothing has written it since.  So a rename shows one of its two
   names, never both or neither, a directory's subtree moves with it,
   and a mapping's epoch recovers exactly as committed or not at all;
3. every file's size matches its readable contents, and a file the ops
   only ever create, append to and fsync reads back a prefix of its
   final content: its size never covers a block whose data did not
   persist (the ordering promise of HiNFS's deferred commits);
4. each device's rebuilt allocator agrees exactly with the union of its
   block maps: no block referenced twice, none out of range, no orphans;
5. a second crash immediately after recovery mounts cleanly too --
   mounted once per distinct recovered image and crash window, since
   that mount sees nothing else.

The explored stack is any PMFS-layout name of :data:`repro.fs.STACKS`,
optionally sharded (``"pmfs@2"``): the M devices of a sharded mount
record onto one tape, device ``s`` at ``s * device_bytes + addr``, so a
crash state is one cut through all M persistence domains, and the same
op vocabulary and invariants run through the unchanged VFS on either.

Everything is deterministic: the only randomness is a seeded
``random.Random`` used for eviction-subset sampling.
"""

import hashlib
import random
from bisect import bisect_right

from repro.core import HiNFSConfig
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.faults.model import DIR, Model
from repro.faults.plan import FaultPlan
from repro.fs import flags as f
from repro.fs import make_fs
from repro.fs.errors import FSError
from repro.fs.shard import ShardedFS, check_pmfs_layout
from repro.fs.vfs import VFS
from repro.nvmm.config import CACHELINE_SIZE, NVMMConfig
from repro.nvmm.device import NVMMDevice
from repro.workloads.base import payload

EV_STORE = "store"      # volatile store into the CPU cache
EV_PERSIST = "persist"  # bytes reached the persistence domain

#: The architectural store-atomicity unit: an aligned 8-byte word always
#: persists or vanishes as a unit (the guarantee PMFS's in-place commit
#: relies on), but nothing larger does -- a crash mid-flush may leave any
#: word subset of a cacheline behind.  The torn-write model samples
#: exactly those states.
WORD_SIZE = 8
WORDS_PER_LINE = CACHELINE_SIZE // WORD_SIZE


def word_mask(rng, nwords):
    """A seeded proper, nonempty word subset as a bitmask (full and
    empty subsets are plain prefix states, already enumerated)."""
    count = rng.randint(1, nwords - 1)
    mask = 0
    for word in rng.sample(range(nwords), count):
        mask |= 1 << word
    return mask


def merge_words(old, new, mask):
    """A torn line: ``old`` with the aligned 8-byte words ``mask``
    selects (bit ``i`` = word ``i``) taken from ``new``.  Each word
    persists atomically; ``old`` may be a line clamped at the region's
    end."""
    out = bytearray(old)
    for word in range(WORDS_PER_LINE):
        if mask >> word & 1:
            lo = word * WORD_SIZE
            out[lo:lo + WORD_SIZE] = new[lo:min(lo + WORD_SIZE, len(old))]
    return bytes(out)


class TapeRecorder:
    """Observer that records the persistence tape of region ``mem``.

    Before a line's durable bytes first change -- a non-temporal store
    or a flush reaches it -- they go to ``saved`` (tape line index ->
    bytes): with those written back over the crashed region it holds
    the pre-run baseline again.

    ``TapeRecorder(mem, base, tape)`` is a second device's view of
    ``tape``: it appends to the same lists and saves to the same dict,
    its addresses shifted by ``base``.
    """

    def __init__(self, mem, base=0, tape=None):
        self.mem = mem
        self.base = base
        # (kind, addr, bytes), and event indices of clflush/fence points
        self.events = [] if tape is None else tape.events
        self.boundaries = [] if tape is None else tape.boundaries
        self.saved = {} if tape is None else tape.saved

    # -- CachedPersistentRegion observer protocol ----------------------

    def on_cached_write(self, addr, data):
        self.events.append((EV_STORE, self.base + addr, bytes(data)))

    def on_persist(self, addr, data):
        self.events.append((EV_PERSIST, self.base + addr, bytes(data)))
        if not data:
            return
        shift = self.base // CACHELINE_SIZE
        saved = self.saved
        new = [line for line in range(addr // CACHELINE_SIZE,
                                      (addr + len(data) - 1)
                                      // CACHELINE_SIZE + 1)
               if line + shift not in saved]
        if new:
            # Called before the change: these are still the old bytes.
            lo = new[0] * CACHELINE_SIZE
            durable = self.mem.persistent_read(
                lo, min((new[-1] + 1) * CACHELINE_SIZE, self.mem.size) - lo)
            for line in new:
                off = line * CACHELINE_SIZE - lo
                saved[line + shift] = durable[off:off + CACHELINE_SIZE]

    def on_flush_boundary(self, region):
        self.boundaries.append(len(self.events))

    def on_fence(self, region):
        self.boundaries.append(len(self.events))


def touched_extents(events, size, device_bytes=None):
    """Sorted, coalesced, line-aligned ``(start, end)`` byte extents
    covering every cacheline a tape event touches, in a region of
    ``size`` bytes (the tail line is clamped to the region).  No extent
    crosses a multiple of ``device_bytes``: each lies on one device.

    Stores and persists both count: evicted and torn lines come from
    stores.  Every crash image of the run equals the baseline outside
    these extents.
    """
    lines = set()
    for _kind, addr, data in events:
        if data:
            lines.update(range(addr // CACHELINE_SIZE,
                               (addr + len(data) - 1) // CACHELINE_SIZE + 1))
    return line_extents(lines, size, device_bytes)


def line_extents(lines, size, device_bytes=None):
    """:func:`touched_extents` of a set of cacheline indices."""
    extents = []
    for line in sorted(lines):
        base = line * CACHELINE_SIZE
        end = min(base + CACHELINE_SIZE, size)
        if extents and extents[-1][1] == base \
                and not (device_bytes and base % device_bytes == 0):
            extents[-1] = (extents[-1][0], end)
        else:
            extents.append((base, end))
    return extents


class ShadowImage:
    """Replays a tape, mirroring the cache model's crash semantics.

    Maintains the persistent image and the set of dirty (volatile)
    cachelines as they were at each point of the recorded run, so any
    prefix yields (a) the post-crash image and (b) the eviction
    candidates -- whole dirty lines that may additionally persist.

    Only the bytes inside ``extents`` are kept (see
    :func:`touched_extents`), concatenated in address order: ``baseline``
    is the pre-run image in that compact form, and images come back in
    it.  The tape must stay inside the extents.  Without ``extents``
    the whole baseline is one extent and the compact form *is* the full
    image.
    """

    def __init__(self, baseline, extents=None):
        if extents is None:
            extents = [(0, len(baseline))]
        self._starts = [start for start, _end in extents]
        self._ends = [end for _start, end in extents]
        self._offsets = []
        covered = 0
        for start, end in extents:
            self._offsets.append(covered)
            covered += end - start
        if covered != len(baseline):
            raise ValueError("a baseline of %d bytes for extents of %d"
                             % (len(baseline), covered))
        self.image = bytearray(baseline)
        self.dirty = {}  # line index -> bytearray(CACHELINE_SIZE)

    def _offset(self, addr, length):
        """Compact offset of ``[addr, addr+length)``, which one extent
        must hold (extents are coalesced, so a tape event never spans
        two)."""
        i = bisect_right(self._starts, addr) - 1
        if i < 0 or addr + length > self._ends[i]:
            raise ValueError(
                "range [%d, %d) lies outside the shadow's extents"
                % (addr, addr + length))
        return self._offsets[i] + addr - self._starts[i]

    def _line_span(self, line):
        """``(compact offset, length)`` of a line, clamped to the region
        (an extent ends at the region's end, or on a line boundary)."""
        base = line * CACHELINE_SIZE
        i = bisect_right(self._starts, base) - 1
        if i < 0 or base >= self._ends[i]:
            raise ValueError("line %d lies outside the shadow's extents"
                             % line)
        return (self._offsets[i] + base - self._starts[i],
                min(CACHELINE_SIZE, self._ends[i] - base))

    def _line_buf(self, line):
        buf = self.dirty.get(line)
        if buf is None:
            off, length = self._line_span(line)
            buf = bytearray(self.image[off:off + length])
            buf.extend(b"\0" * (CACHELINE_SIZE - length))
            self.dirty[line] = buf
        return buf

    def apply(self, event):
        kind, addr, data = event
        first = addr // CACHELINE_SIZE
        last = (addr + len(data) - 1) // CACHELINE_SIZE if data else first
        if kind == EV_STORE:
            pos = addr
            view = memoryview(data)
            while view:
                line = pos // CACHELINE_SIZE
                off = pos % CACHELINE_SIZE
                take = min(CACHELINE_SIZE - off, len(view))
                self._line_buf(line)[off:off + take] = view[:take]
                pos += take
                view = view[take:]
        else:
            for line in range(first, last + 1):
                self.dirty.pop(line, None)
            if data:  # an empty persist lies in no extent
                off = self._offset(addr, len(data))
                self.image[off:off + len(data)] = data

    def crash_image(self, evict_lines=(), torn=None):
        """Post-power-failure image; ``evict_lines`` persisted first.

        ``torn`` maps a dirty line index to an 8-word bitmask: only the
        selected aligned 8-byte words of that line reach persistence --
        the sub-cacheline crash state a power failure mid-writeback
        leaves behind.  Each word persists atomically; the rest of the
        line keeps its old persistent bytes.
        """
        if not evict_lines and not torn:
            return bytes(self.image)
        image = bytearray(self.image)
        for line in evict_lines:
            off, length = self._line_span(line)
            image[off:off + length] = self.dirty[line][:length]
        for line in sorted(torn or ()):
            off, length = self._line_span(line)
            image[off:off + length] = merge_words(
                image[off:off + length], self.dirty[line], torn[line])
        return bytes(image)

    def torn_persist_image(self, event, word_mask, evict_lines=()):
        """The crash state of ``event`` (the *next* EV_PERSIST on the
        tape) tearing mid-flight: only the aligned 8-byte words selected
        by ``word_mask`` (bit ``i`` = i-th word overlapping the event's
        range) become durable on top of this prefix's crash image."""
        kind, addr, data = event
        if kind != EV_PERSIST:
            raise ValueError("only persist events can tear")
        image = bytearray(self.crash_image(evict_lines))
        shift = self._offset(addr, len(data)) - addr
        first_word = addr // WORD_SIZE
        last_word = (addr + len(data) - 1) // WORD_SIZE
        for i, word in enumerate(range(first_word, last_word + 1)):
            if not word_mask >> i & 1:
                continue
            lo = max(addr, word * WORD_SIZE)
            hi = min(addr + len(data), (word + 1) * WORD_SIZE)
            image[shift + lo:shift + hi] = data[lo - addr:hi - addr]
        return bytes(image)

    @staticmethod
    def persist_word_count(event):
        """Aligned 8-byte words a persist event touches (tear candidates)."""
        kind, addr, data = event
        if kind != EV_PERSIST or not data:
            return 0
        return (addr + len(data) - 1) // WORD_SIZE - addr // WORD_SIZE + 1


class _MountWatch:
    """Observer of one arena region while a state is mounted: the lines
    outside the extents that a mount changes durably since the last
    load (``changed``), each one's baseline saved the first time any
    mount changes it -- before the change, as the run's recorder saves
    its own.  Cached stores need no note: a crash drops them."""

    def __init__(self, mem, base, extents):
        self.mem = mem
        #: Tape line index of the region's line 0.
        self.first = base // CACHELINE_SIZE
        #: One byte per line: 1 where the line lies in the extents.
        self.inside = bytearray(mem.num_lines)
        for start, end in extents:
            if base <= start < base + mem.size:
                first = (start - base) // CACHELINE_SIZE
                stop = (end - base - 1) // CACHELINE_SIZE + 1
                self.inside[first:stop] = b"\x01" * (stop - first)
        self.baseline = {}
        self.changed = set()

    def on_cached_write(self, addr, data):
        pass

    def on_persist(self, addr, data):
        if not data:
            return
        inside = self.inside
        stop = (addr + len(data) - 1) // CACHELINE_SIZE + 1
        line = inside.find(0, addr // CACHELINE_SIZE, stop)
        while line != -1:
            if line not in self.changed:
                self.changed.add(line)
                if line not in self.baseline:
                    base = line * CACHELINE_SIZE
                    self.baseline[line] = self.mem.persistent_read(
                        base, min(CACHELINE_SIZE, self.mem.size - base))
            line = inside.find(0, line + 1, stop)

    def on_flush_boundary(self, region):
        pass

    def on_fence(self, region):
        pass


class CrashArena:
    """The device regions every crash state of a run is mounted on: the
    recorded run's own, adopted rather than copied.

    Adopting crashes them (the run's volatile lines are dropped) and
    writes ``saved`` back -- each line's durable bytes from before the
    run first changed it, by tape line index (:class:`TapeRecorder`) --
    so they hold the baseline again; ``baseline`` is then its bytes over
    ``extents``, end to end, the compact form :class:`ShadowImage`
    replays from.  While a state is mounted, a :class:`_MountWatch` per
    region notes the lines outside the extents a mount changes durably.
    ``load`` crashes the regions, puts those lines' baseline back and
    writes a state's compact bytes at the extents, each on the device it
    lies on; the regions then hold exactly that state's durable image,
    at a cost that does not depend on the device size.

    ``key_lines`` are lines outside the extents that a mount changes
    whatever the state (a journal's header, the ring slots the baseline
    stamps): :meth:`durable_key` reads them with the extents, in a few
    slices, instead of line by line.  ``remounts`` is the explorer's
    memo of post-recovery verdicts by that key.
    """

    def __init__(self, mems, saved, extents, key_lines=()):
        self.mems = list(mems)
        self.extents = extents
        size = self.mems[0].size
        for mem in self.mems:
            mem.observer = None
            mem.crash()
        for line, data in saved.items():
            addr = line * CACHELINE_SIZE
            self.mems[addr // size].write_nocache(addr % size, data)
        self.baseline = b"".join(self._read(start, end)
                                 for start, end in extents)
        self.watches = [_MountWatch(mem, s * size, extents)
                        for s, mem in enumerate(self.mems)]
        self._key_lines = frozenset(key_lines)
        lines = set(key_lines)
        for start, end in extents:
            lines.update(range(start // CACHELINE_SIZE,
                               (end - 1) // CACHELINE_SIZE + 1))
        self._key_extents = line_extents(lines, size * len(self.mems), size)
        self.remounts = {}

    def _read(self, start, end):
        size = self.mems[0].size
        return self.mems[start // size].read(start % size, end - start)

    def load(self, compact):
        for mem, watch in zip(self.mems, self.watches):
            mem.observer = None
            mem.crash()
            for line in watch.changed:
                mem.write_nocache(line * CACHELINE_SIZE, watch.baseline[line])
            watch.changed.clear()
        size = self.mems[0].size
        view = memoryview(compact)
        off = 0
        for start, end in self.extents:
            self.mems[start // size].write_nocache(
                start % size, view[off:off + end - start])
            off += end - start
        for mem, watch in zip(self.mems, self.watches):
            mem.observer = watch

    def durable_key(self):
        """Digest of the regions' image, which must hold no volatile
        line: the bytes over the extents and ``key_lines``, then, with
        its tape line index, each line outside them that a mount changed
        and that no longer reads as the baseline.  Every other line *is*
        the baseline, so equal keys are equal images."""
        digest = hashlib.sha1()
        for start, end in self._key_extents:
            digest.update(self._read(start, end))
        for watch in self.watches:
            for line in sorted(watch.changed):
                if watch.first + line in self._key_lines:
                    continue
                old = watch.baseline[line]
                now = watch.mem.read(line * CACHELINE_SIZE, len(old))
                if now != old:
                    digest.update((watch.first + line).to_bytes(8, "little"))
                    digest.update(now)
        return digest.digest()

    def close(self):
        """Release the device-sized slabs now: the stacks mounted on
        them, the recorded run's among them, are cyclic garbage that
        would pin them until some later collection.  ``extents`` stays
        readable."""
        for mem in self.mems:
            mem.observer = None
            mem.close()


class Violation:
    """One invariant failure at one reconstructed crash state."""

    __slots__ = ("fs_kind", "op_index", "event_index", "evicted", "torn",
                 "message")

    def __init__(self, fs_kind, op_index, event_index, evicted, message,
                 torn=None):
        self.fs_kind = fs_kind
        self.op_index = op_index
        self.event_index = event_index
        self.evicted = tuple(evicted)
        #: Torn-write description, or None: ``("persist", word_mask)`` for
        #: a persist event torn mid-flight, ``("line", line, word_mask)``
        #: for a dirty line partially evicted at word granularity.
        self.torn = torn
        self.message = message

    def __str__(self):
        where = "%s op#%d event#%d" % (self.fs_kind, self.op_index,
                                       self.event_index)
        if self.evicted:
            where += " evicted=%s" % (list(self.evicted),)
        if self.torn is not None:
            where += " torn=%s" % (self.torn,)
        return "[%s] %s" % (where, self.message)


class ExplorationReport:
    """Outcome of one exploration run."""

    def __init__(self, fs_kind, ops):
        self.fs_kind = fs_kind
        self.ops = list(ops)
        self.events = 0
        self.boundaries = 0
        self.states_checked = 0
        self.states_deduped = 0
        self.eviction_draws = {}  # op index -> sampled eviction subsets
        self.torn_draws = {}      # op index -> sampled torn-write states
        #: op index -> (first_req_id, last_req_id) allocated while that
        #: op ran, so a crash point (or a ``writeback`` arm of a
        #: :class:`~repro.faults.plan.FaultPlan`) can be mapped back to
        #: the specific in-flight request.
        self.op_request_ids = {}
        #: Sorted names of the fault-plan sites the recorded run
        #: consulted: proof of which protocol steps (``xmv:*``, ...) the
        #: op sequence reached.
        self.sites = []
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def raise_if_failed(self):
        if self.failures:
            head = self.failures[:10]
            more = len(self.failures) - len(head)
            text = "\n".join(str(v) for v in head)
            if more:
                text += "\n... and %d more" % more
            raise AssertionError(
                "%d crash-state invariant violation(s):\n%s"
                % (len(self.failures), text)
            )

    def as_dict(self):
        """The run as plain JSON-able data (same seed, same dict)."""
        return {
            "fs_kind": self.fs_kind,
            "ops": len(self.ops),
            "events": self.events,
            "boundaries": self.boundaries,
            "states_checked": self.states_checked,
            "states_deduped": self.states_deduped,
            "eviction_draws": sum(self.eviction_draws.values()),
            "torn_draws": sum(self.torn_draws.values()),
            "sites": list(self.sites),
            "violations": [str(v) for v in self.failures],
        }

    def summary(self):
        return (
            "%s: %d ops, %d tape events, %d boundaries, %d states checked "
            "(%d duplicates skipped), %d eviction subsets sampled, %d torn "
            "states sampled, %d violations"
            % (self.fs_kind, len(self.ops), self.events, self.boundaries,
               self.states_checked, self.states_deduped,
               sum(self.eviction_draws.values()),
               sum(self.torn_draws.values()), len(self.failures))
        )


#: A representative mixed sequence used by ``repro crashcheck`` and the
#: examples: namespace churn, appends, overwrite, fsync, and the rename
#: patterns (plain move and replace-by-rename) crash tooling cares about.
DEFAULT_OPS = (
    ("mkdir", "/d"),
    ("create", "/a"),
    ("append", "/a", 5000),
    ("fsync", "/a"),
    ("create", "/d/b"),
    ("append", "/d/b", 1500),
    ("rename", "/d/b", "/b2"),
    ("write", "/a", 100, 900),
    ("sync_write", "/c", 0, 4096),
    ("rename", "/c", "/a"),
    ("append", "/a", 300),
    ("fsync", "/a"),
    ("unlink", "/b2"),
    ("truncate", "/a", 2000),
    ("create", "/d/e"),
)

#: Library-mode mmap sequence: map a stabilised file, store through the
#: mapping under both log policies, commit epochs with msync, and tear
#: the whole thing down -- every log-append, epoch-commit, apply and
#: checkpoint boundary becomes a crash point.  Stores stay inside the
#: preallocated extent so the strict pre-image invariant holds between
#: commits.  The redo leg's applier runs only when the tick lets
#: time pass or an op waits for it: the tick lands inside epoch 1's
#: apply, after the first of its two chunks; epoch 2 commits in the
#: other half of the log while the second is still queued; and epoch
#: 3's first append reuses epoch 1's half, so it waits for that apply.
MMIO_OPS = (
    ("create", "/m"),
    ("append", "/m", 8192),
    ("fsync", "/m"),
    ("mmap", "/m", "undo"),
    ("mstore", "/m", 0, 200),
    ("mstore", "/m", 4096, 64),
    ("msync_m", "/m"),
    ("mstore", "/m", 100, 700),
    ("munmap", "/m"),
    ("mmap", "/m", "redo"),
    ("mstore", "/m", 64, 2048),
    ("mstore", "/m", 5000, 1024),
    ("msync_m", "/m"),                   # epoch 1: its apply is queued
    ("tick", 1),                         # its first chunk lands
    ("mstore", "/m", 0, 64),             # epoch 2: the other half
    ("msync_m", "/m"),                   # commits over a half-done apply
    ("mstore", "/m", 400, 64),           # epoch 3: waits for epoch 1
    ("munmap", "/m"),
)

#: The shard layer's two intent-logged rename protocols and the plain
#: renames around them, for a ``base@M`` mount.  The root names are
#: picked so that those ending in an even digit hash to shard 0 and
#: those in an odd one to shard 1, at M=2 and M=4 alike; ``/d/f`` lands
#: on shard 1 at both (its placement hangs on the inode number ``/d``
#: gets, so the directory ops go first).  A renamed file keeps its
#: shard, so a name may end up on the other one.  ``[:3]`` drives
#: ``dirmv`` alone and ``[3:6]`` ``swap``, each from a blank mount.
SHARD_OPS = (
    ("mkdir", "/d"),
    ("sync_write", "/d/f", 0, 3000),
    ("rename", "/d", "/e"),              # dirmv: mirrors follow shard 0
    ("sync_write", "/b2", 0, 5000),
    ("sync_write", "/a1", 0, 1000),
    ("rename", "/b2", "/a1"),            # swap: stays on 0, victim on 1
    ("rename", "/e/f", "/b0"),           # stays on 1 under a shard-0 name
    ("sync_write", "/c6", 0, 2500),
    ("rename", "/c6", "/b0"),            # swap over the misplaced victim
    ("append", "/c4", 2000),             # lazy: in HiNFS's DRAM buffer
    ("rename", "/c4", "/a1"),            # one journal: the victim is on 0 too
    ("mkdir", "/e/g"),                   # mirrored below the moved mirrors
    ("unlink", "/a1"),
)

#: The journal ring across a wrap, on the explorer's 511-slot ring.
#: ``WRAP_WARMUP`` runs unrecorded (``CrashPointExplorer(warmup=...)``):
#: a first session fills every slot and wraps -- its last transaction
#: straddles the ring's end -- then a clean remount, whose recovery must
#: leave none of that replayable; the second session pins the tail with
#: one lazy append (a deferred commit on HiNFS) and churns the head up
#: to slot 463.  ``WRAP_OPS`` is the recorded window: on HiNFS the
#: ``mkdir`` finds the reserve short and makes room by closing the
#: pinned transaction on the foreground, ``/lazy2`` is a deferred
#: transaction open across the wrap, and the second rename straddles it
#: (its dirent removal is logged in the last slots of one pass, the
#: insertion in the first of the next), so recovery needs both live
#: generations to put the name back.
_CHURN = (("create", "/w"), ("unlink", "/w"))
WRAP_WARMUP = (
    ("sync_write", "/big", 0, 100),
    ("truncate", "/big", 50),
) + _CHURN * 34 + (
    ("remount",),
) + _CHURN * 5 + (
    ("append", "/lazy", 3000),
) + _CHURN * 25 + (
    ("truncate", "/big", 20),
)
WRAP_OPS = (
    ("create", "/k"),
    ("mkdir", "/d"),                     # HiNFS: make room, oldest first
    ("sync_write", "/s", 0, 3000),
    ("rename", "/s", "/d/s"),
    ("append", "/lazy2", 2500),          # lazy: open across the wrap
    ("rename", "/d/s", "/s2"),           # straddles the wrap
    ("fsync", "/lazy2"),
    ("unlink", "/k"),
)

#: HiNFS's paced pressure writeback, on the explorer's 64-block buffer
#: (``Low_f`` = 3 free, ``High_f`` = 12).  ``PRESSURE_WARMUP`` runs
#: unrecorded and leaves 3 blocks free: fifteen 4-block lazy appends,
#: one deferred commit each, queued per file, plus one more block.
#: ``("tick", ns)`` moves the foreground clock on by ``ns`` and lets the
#: background timelines catch up through the registry the scheduler
#: drives.  In the recorded window the first append takes the buffer
#: below ``Low_f``; each tick then runs one pressure wake, a batch of
#: four LRW victims -- one warmup append, whose commit follows its data
#: -- re-armed at the batch's end until the third reaches ``High_f``.
#: An append lands between two wakes and an fsync before the last.
PRESSURE_WARMUP = tuple(
    ("append", "/p%d" % (i % 3), 4 * 4096) for i in range(15)
) + (("append", "/q", 4096),)
PRESSURE_OPS = (
    ("append", "/a", 2000),              # 2 free: below Low_f, signals
    ("tick", 1),                         # wake 1: 6 free, re-armed
    ("append", "/p1", 3000),             # lazy, between two wakes
    ("tick", 30_000),                    # wake 2: 9 free, re-armed
    ("fsync", "/a"),
    ("tick", 30_000),                    # wake 3: High_f, relief, aged scan
)
#: HiNFS's demand reclaim, behind the same warmup: a five-block append
#: runs the buffer dry, so the foreground flushes a batch of LRW victims
#: itself and waits for it, the one time writeback enters the critical
#: path.
DEMAND_OPS = (
    ("append", "/a", 5 * 4096),          # 3 fit, then 4 demand-reclaimed
    ("fsync", "/a"),                     # /a's 5 blocks out: 7 free
    ("tick", 30_000),                    # 2 pressure wakes: 15 free, High_f
)

#: HiNFS's eager (O_SYNC) write over a file with buffered blocks: the
#: lazy append leaves blocks 0 and 1 in the DRAM buffer with their
#: commit deferred; the O_SYNC write over [3000, 12000) first flushes
#: them and closes that commit (the file barrier), then persists the
#: rest of block 0 and all of the mapped block 1 straight to NVMM and
#: maps block 2, a fresh hole, in the middle of the request: blocks 0
#: and 1 are durable before the hole's pointer is journaled, and all
#: three before the inode is.
EAGER_OPS = (
    ("append", "/e", 6000),              # lazy: blocks 0 and 1 buffered
    ("sync_write", "/e", 3000, 9000),    # barrier, 0-1 in place, 2 mapped
)


#: HiNFS on the explorer's stacks: a 64-block buffer, and a reclaim batch
#: cut down with it (four blocks; the default 16 goes with a 16 384-block
#: buffer), so a climb from ``Low_f`` to ``High_f`` takes more than one
#: wake.
_EXPLORED_HINFS = HiNFSConfig(buffer_bytes=256 << 10, reclaim_batch=4)


def _append_only(ops):
    """Paths ``ops`` only ever create, append to, fsync or tick past,
    sorted: each one's content at any point is a prefix of its last."""
    appended = {op[1] for op in ops if op[0] == "append"}
    touched = {arg for op in ops
               if op[0] not in ("create", "append", "fsync")
               for arg in op[1:] if isinstance(arg, str)}
    return sorted(path for path in appended
                  if not any(path == other or path.startswith(other + "/")
                             for other in touched))


#: The ops that write a file through a descriptor: a crash inside one
#: may leave any part of the write behind.
_WRITES = ("append", "write", "sync_write", "truncate")


def _window(before, after, op):
    """The model states a crash inside ``op`` may leave: the ones on
    either side of it, with the file a write targets volatile in both.
    The second keeps the first's promise for it only where the op keeps
    a promise at all.  Mapped stores and commits are never volatile: an
    epoch recovers exactly as ``before`` or as ``after``."""
    if op[0] not in _WRITES:
        return (before, after)
    before, after = before.copy(), after.copy()
    old, new = before.tree.get(op[1]), after.tree[op[1]]
    if old is not None:
        old.clean = False
    new.clean = False
    if new.synced is not None:
        new.synced = old.synced if old is not None else None
    return (before, after)


class CrashPointExplorer:
    """Run an op sequence, then test every crash state it could leave."""

    def __init__(self, fs_kind, seed=0, eviction_samples_per_op=64,
                 torn_samples_per_op=16, journal_checksums=True,
                 mmio_log_checksums=True, device_bytes=4 << 20, warmup=()):
        self.fs_kind = fs_kind
        #: ``base@M``: M devices behind one ShardedFS; else one device.
        self._base, self._sharded, count = fs_kind.partition("@")
        check_pmfs_layout(self._base)
        self.devices = int(count) if self._sharded else 1
        self.seed = seed
        self.eviction_samples_per_op = eviction_samples_per_op
        #: Sub-cacheline crash states sampled per op: torn persist events
        #: (a flush interrupted mid-line) and word-granular partial
        #: evictions of dirty lines.
        self.torn_samples_per_op = torn_samples_per_op
        #: Journal entry CRCs on the explored stack.  ``False`` is the
        #: negative control: the torn-write model must then catch
        #: replayed garbage undo entries.
        self.journal_checksums = journal_checksums
        #: Entry CRCs on the library-mode mmio epoch log.  ``False`` is
        #: the matching negative control for the ``mmap`` op family: a
        #: torn log append then parses as a valid record with garbage
        #: bytes, and recovery corrupts the mapped file.
        self.mmio_log_checksums = mmio_log_checksums
        self.device_bytes = device_bytes
        #: Ops run before the recording starts (``("remount",)`` among
        #: them power-cycles cleanly): they put the file system -- its
        #: journal ring above all -- where the explored ops should find
        #: it, without their own crash states being paid for.
        self.warmup = tuple(warmup)
        self._rng = random.Random(seed)
        #: The :class:`CrashArena` of the exploration in progress.
        self._arena = None

    # -- stack construction -------------------------------------------

    def _stack(self, mems, name, **fs_kwargs):
        """A fresh env with the explored stack on it -- formatted on
        blank devices when ``mems`` is None, else recovered from those
        surviving regions (the caller dropped their volatile lines).
        Returns ``(per-device file systems, vfs, ctx)``."""
        env = SimEnv()
        config = NVMMConfig()
        shards = []
        for s in range(self.devices):
            domain = "dev%d" % s if self._sharded else None
            if mems is None:
                device = NVMMDevice(env, config, self.device_bytes,
                                    domain=domain)
            else:
                device = NVMMDevice.on_region(env, config, mems[s],
                                              domain=domain)
            shards.append(make_fs(
                env, self._base, device, config, _EXPLORED_HINFS,
                mount=mems is not None,
                journal_checksums=self.journal_checksums, **fs_kwargs))
        fs = ShardedFS(env, shards, mounted=mems is not None) \
            if self._sharded else shards[0]
        return shards, VFS(env, fs, config), ExecContext(env, name)

    def _mount(self):
        """Power-cycle the arena: the stack recovered on the media as it
        stands."""
        return self._stack(self._arena.mems, "recovery")

    # -- the recorded run ---------------------------------------------

    def _run_ops(self, ops):
        """Execute ``self.warmup`` unrecorded, then ``ops``, recording the
        tape and the crash windows.

        Returns ``(tape, mems, checkpoints)`` where checkpoints is a
        list of ``(event_position, op_index, window)`` in tape order: a
        window is the tuple of model states a crash state there may
        refine (:func:`_window` at an op's start, the state it left at
        its end).  The first checkpoint is what the warmup left, and
        the baseline is the media as it left them: ``mems``, the run's
        regions as the run leaves them, with ``tape.saved`` what it
        takes to put them back (:class:`CrashArena`).  Sets
        ``self._key_lines`` to each journal's header line and the ring
        slots the baseline stamps, by tape line index.
        """
        # Small journal and inode table: every crash-state mount scans
        # the whole ring, so the defaults would dominate the run time.
        shards, vfs, ctx = self._stack(None, "crashpoints", journal_blocks=8,
                                       inode_count=64)
        #: path -> (fd, MmioMapping) for the mmap op family.
        self._mmaps = {}
        model = Model()
        for op_index, op in enumerate(self.warmup, -len(self.warmup)):
            if op == ("remount",):
                # Clean unmount, then the stack recovered on its media.
                vfs.fs.unmount(ctx)
                shards, vfs, ctx = self._stack(
                    [fs.device.mem for fs in shards], "crashpoints")
                continue
            self._execute(vfs, ctx, op, op_index)
            model.apply(op, op_index)
        env = vfs.env
        # Unarmed: only records which fault sites the sequence reached.
        plan = FaultPlan(env)
        mems = [fs.device.mem for fs in shards]
        self._key_lines = []
        for s, fs in enumerate(shards):
            # Every recovery steps the header's generation and zeroes the
            # stamped slots: whatever the state, mounts change these.
            journal = fs.journal
            first = (s * self.device_bytes + journal.base_addr) \
                // CACHELINE_SIZE
            ring = fs.device.mem.persistent_read(
                journal.base_addr, (journal.capacity + 1) * CACHELINE_SIZE)
            self._key_lines.append(first)
            self._key_lines.extend(
                first + slot for slot in range(1, journal.capacity + 1)
                if ring[slot * CACHELINE_SIZE:(slot + 1) * CACHELINE_SIZE]
                .strip(b"\0"))
        tape = mems[0].observer = TapeRecorder(mems[0])
        for s, mem in enumerate(mems[1:], 1):
            mem.observer = TapeRecorder(mem, s * self.device_bytes, tape)
        checkpoints = [(0, -1, (model,))]
        op_request_ids = {}
        for op_index, op in enumerate(ops):
            before, model = model, model.copy()
            model.apply(op, op_index)
            checkpoints.append((len(tape.events), op_index,
                                _window(before, model, op)))
            # Bracket the op with the env's request-id counter so every
            # tape event inside it maps to a request-id range.
            first_req = env.next_req_id()
            self._execute(vfs, ctx, op, op_index)
            last_req = env.next_req_id()
            if last_req - first_req > 1:
                op_request_ids[op_index] = (first_req + 1, last_req - 1)
            checkpoints.append((len(tape.events), op_index, (model,)))
        for mem in mems:
            mem.observer = None
        #: path -> final content of every append-only file: any crash
        #: state must read back a prefix of it.
        self._grown = {path: model.tree[path].data
                       for path in _append_only(self.warmup + tuple(ops))
                       if path in model.tree}
        self._op_request_ids = op_request_ids
        self._sites = sorted({site for site, _key in plan.observed})
        return tape, mems, checkpoints

    def _execute(self, vfs, ctx, op, op_index):
        kind = op[0]
        if kind == "create":
            vfs.close(ctx, vfs.open(ctx, op[1], f.O_CREAT | f.O_RDWR))
        elif kind == "mkdir":
            vfs.mkdir(ctx, op[1])
        elif kind == "append":
            fd = vfs.open(ctx, op[1], f.O_CREAT | f.O_RDWR)
            size = vfs.stat(ctx, op[1]).size
            vfs.pwrite(ctx, fd, size, payload(op[2], op_index))
            vfs.close(ctx, fd)
        elif kind == "write":
            fd = vfs.open(ctx, op[1], f.O_CREAT | f.O_RDWR)
            vfs.pwrite(ctx, fd, op[2], payload(op[3], op_index))
            vfs.close(ctx, fd)
        elif kind == "sync_write":
            fd = vfs.open(ctx, op[1], f.O_CREAT | f.O_RDWR | f.O_SYNC)
            vfs.pwrite(ctx, fd, op[2], payload(op[3], op_index))
            vfs.close(ctx, fd)
        elif kind == "fsync":
            fd = vfs.open(ctx, op[1], f.O_RDWR)
            vfs.fsync(ctx, fd)
            vfs.close(ctx, fd)
        elif kind == "rename":
            vfs.rename(ctx, op[1], op[2])
        elif kind == "unlink":
            vfs.unlink(ctx, op[1])
        elif kind == "truncate":
            vfs.truncate(ctx, op[1], op[2])
        elif kind == "mmap":
            # Stabilise first (fsync), then map: the pre-epoch image is
            # durable, so every crash state has a well-defined baseline.
            fd = vfs.open(ctx, op[1], f.O_CREAT | f.O_RDWR)
            vfs.fsync(ctx, fd)
            region = vfs.mmap(ctx, fd, flags=f.MAP_ATOMIC, policy=op[2],
                              log_blocks=4,
                              log_checksums=self.mmio_log_checksums)
            self._mmaps[op[1]] = (fd, region)
        elif kind == "mstore":
            _fd, region = self._mmaps[op[1]]
            region.store(ctx, op[2], payload(op[3], op_index))
        elif kind == "msync_m":
            _fd, region = self._mmaps[op[1]]
            region.msync(ctx)
        elif kind == "munmap":
            fd, region = self._mmaps.pop(op[1])
            region.munmap(ctx)
            vfs.close(ctx, fd)
        elif kind == "tick":
            ctx.now += op[1]
            vfs.env.background.advance_to(ctx.now)
        else:
            raise ValueError("unknown op kind %r" % (kind,))

    # -- state enumeration --------------------------------------------

    def explore(self, ops=DEFAULT_OPS):
        ops = list(ops)
        report = ExplorationReport(self.fs_kind, ops)
        tape, mems, checkpoints = self._run_ops(ops)
        extents = touched_extents(tape.events,
                                  self.devices * self.device_bytes,
                                  self.device_bytes)
        report.events = len(tape.events)
        report.boundaries = len(set(tape.boundaries))
        report.op_request_ids = dict(self._op_request_ids)
        report.sites = self._sites
        self._arena = CrashArena(mems, tape.saved, extents, self._key_lines)
        try:
            self._enumerate(report, tape, checkpoints)
        finally:
            self._arena.close()
        return report

    def _enumerate(self, report, tape, checkpoints):
        """Check every crash state of the recorded run on the arena."""
        baseline, extents = self._arena.baseline, self._arena.extents

        # Checkpoint lookup: for event prefix k, the newest checkpoint at
        # position <= k governs.
        def window_at(k):
            active = checkpoints[0]
            for cp in checkpoints:
                if cp[0] <= k:
                    active = cp
                else:
                    break
            return active[1], active[2]

        # Per-op event windows, for attributing eviction samples.
        op_windows = []
        starts = [cp for cp in checkpoints[1::2]]  # op-start checkpoints
        for i, (pos, op_index, _) in enumerate(starts):
            end = starts[i + 1][0] if i + 1 < len(starts) else len(tape.events)
            op_windows.append((op_index, pos, end))

        # Every event prefix (0 = crash before anything ran), and sampled
        # uncontrolled-eviction subsets, per op: rebuild the shadow
        # incrementally along the tape and, at randomly chosen points
        # inside each op's window, persist a random subset of the dirty
        # lines on top of the prefix image.
        seen = {}
        draw_points = {}  # event index -> list of draw ids
        for op_index, start, end in op_windows:
            report.eviction_draws[op_index] = 0
            if end <= start:
                continue
            for _ in range(self.eviction_samples_per_op):
                k = self._rng.randint(start, end)
                draw_points.setdefault(k, []).append(op_index)
        shadow = ShadowImage(baseline, extents)
        for k in range(len(tape.events) + 1):
            if k:
                shadow.apply(tape.events[k - 1])
            self._check_dedup(report, seen, shadow, k, window_at, ())
            for op_index in draw_points.get(k, ()):
                report.eviction_draws[op_index] += 1
                self._check_eviction_draw(report, seen, shadow, k, window_at)

        # Sub-cacheline (torn-write) states, per op: at seeded points
        # inside each op's window, tear the next persist event mid-flight
        # (a proper nonempty subset of its 8-byte words persists) and
        # partially evict one dirty line at word granularity.  Persists
        # of 8 bytes or less are atomic by architecture and never torn --
        # that is exactly the in-place-commit assumption under test.
        torn_points = {}
        for op_index, start, end in op_windows:
            report.torn_draws[op_index] = 0
            if end <= start:
                continue
            for _ in range(self.torn_samples_per_op):
                k = self._rng.randint(start, max(start, end - 1))
                torn_points.setdefault(k, []).append(op_index)
        shadow = ShadowImage(baseline, extents)
        for k in range(len(tape.events) + 1):
            for op_index in torn_points.get(k, ()):
                report.torn_draws[op_index] += 1
                self._check_torn_draw(report, seen, shadow, tape, k,
                                      window_at)
            if k < len(tape.events):
                shadow.apply(tape.events[k])

    def _check_torn_draw(self, report, seen, shadow, tape, k, window_at):
        event = tape.events[k] if k < len(tape.events) else None
        if event is not None:
            nwords = ShadowImage.persist_word_count(event)
            if nwords >= 2:
                mask = word_mask(self._rng, nwords)
                image = shadow.torn_persist_image(event, mask)
                self._check_image(report, seen, image, k, window_at, (),
                                  torn=("persist", mask))
        dirty = sorted(shadow.dirty)
        if dirty:
            line = self._rng.choice(dirty)
            mask = word_mask(self._rng, WORDS_PER_LINE)
            image = shadow.crash_image(torn={line: mask})
            self._check_image(report, seen, image, k, window_at, (),
                              torn=("line", line, mask))

    def _check_eviction_draw(self, report, seen, shadow, k, window_at):
        dirty = sorted(shadow.dirty)
        if dirty:
            nlines = self._rng.randint(1, len(dirty))
            evicted = tuple(sorted(self._rng.sample(dirty, nlines)))
        else:
            evicted = ()
        self._check_dedup(report, seen, shadow, k, window_at, evicted)

    def _check_dedup(self, report, seen, shadow, k, window_at, evicted):
        self._check_image(report, seen, shadow.crash_image(evicted), k,
                          window_at, evicted)

    def _check_image(self, report, seen, image, k, window_at, evicted,
                     torn=None):
        op_index, window = window_at(k)
        # ``image`` is compact (the touched extents only).  Baseline and
        # extents are fixed for the run, so two compact images are equal
        # exactly when the full device images are: the key is still exact.
        key = (hashlib.sha1(image).digest(), id(window))
        if key in seen:
            report.states_deduped += 1
            return
        seen[key] = True
        report.states_checked += 1
        for message in self._check_state(image, window):
            report.failures.append(
                Violation(self.fs_kind, op_index, k, evicted, message,
                          torn=torn)
            )

    # -- invariants -----------------------------------------------------

    def _check_state(self, image, window):
        self._arena.load(image)
        try:
            shards, vfs, ctx = self._mount()
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            return ["mount failed: %r" % (exc,)]
        degraded = {fs.degraded_reason for fs in [vfs.fs] + shards}
        degraded.discard(None)
        if degraded:
            return ["mount degraded: %s" % "; ".join(sorted(degraded))]
        problems = self._check_mounted(shards, vfs, ctx, window)
        if problems:
            return problems
        # Crash again right after recovery: remount must also be clean
        # (recovery itself only persists ordered, flushed state).  The
        # media is not restored in between -- the second mount sees
        # exactly what the first one's recovery left durable, in a
        # fresh env: its verdict depends on that image and ``window``
        # alone, so each pair is mounted once.
        for fs in shards:
            fs.device.crash()
        key = (self._arena.durable_key(), id(window))
        verdict = self._arena.remounts.get(key)
        if verdict is None:
            verdict = self._arena.remounts[key] = self._remount(window)
        return list(verdict)

    def _remount(self, window):
        """The post-recovery invariants on the arena as it stands."""
        try:
            shards, vfs, ctx = self._mount()
        except Exception as exc:  # noqa: BLE001
            return ["remount after recovery failed: %r" % (exc,)]
        return self._check_mounted(shards, vfs, ctx, window)

    def _check_mounted(self, shards, vfs, ctx, window):
        """Invariants 2 to 4 on a mounted state: the recovered tree, as
        one walk reads it, refines a state of ``window`` -- where none
        does, the reasons are the closest state's, the later on a tie --
        and each allocator agrees with its block maps."""
        tree = {}
        problems = self._check_files(vfs, ctx, tree)
        reasons = [state.mismatches(tree) for state in window]
        if all(reasons):
            problems += min(reversed(reasons), key=len)
        for fs in shards:
            problems.extend(self._check_allocator(fs))
        return problems

    def _check_files(self, vfs, ctx, tree, root="/"):
        """Every reachable file reads exactly stat.size bytes; ``tree``
        gets each reachable path's bytes, or DIR."""
        problems = []
        try:
            entries = vfs.readdir(ctx, root)
        except FSError as exc:
            return ["readdir(%s) failed: %r" % (root, exc)]
        for name, _ino in entries:
            path = root.rstrip("/") + "/" + name
            try:
                stat = vfs.stat(ctx, path)
            except FSError as exc:
                problems.append("stat(%s) failed: %r" % (path, exc))
                continue
            if stat.is_dir:
                tree[path] = DIR
                problems.extend(self._check_files(vfs, ctx, tree, path))
                continue
            try:
                contents = tree[path] = vfs.read_file(ctx, path)
            except FSError as exc:
                problems.append("read(%s) failed: %r" % (path, exc))
                continue
            if len(contents) != stat.size:
                problems.append(
                    "%s: size %d but %d readable bytes"
                    % (path, stat.size, len(contents))
                )
            final = self._grown.get(path)
            if final is not None and final[:len(contents)] != contents:
                problems.append(
                    "%s: size %d covers bytes that never persisted"
                    % (path, stat.size))
        return problems

    @staticmethod
    def _check_allocator(fs):
        """The rebuilt allocator agrees exactly with the block maps."""
        problems = []
        referenced = {}
        for inode in fs.itable.live_inodes():
            blockmap = fs._maps.get(inode.ino)
            if blockmap is None:
                continue
            for block in blockmap.all_physical_blocks():
                if block in referenced:
                    problems.append(
                        "block %d referenced by inodes %d and %d"
                        % (block, referenced[block], inode.ino)
                    )
                referenced[block] = inode.ino
                if not fs.sb.data_start <= block < fs.sb.total_blocks:
                    problems.append(
                        "inode %d references out-of-range block %d"
                        % (inode.ino, block)
                    )
                elif not fs.balloc.is_allocated(block):
                    problems.append(
                        "block %d referenced but free in the allocator"
                        % block
                    )
        in_range = [b for b in referenced
                    if fs.sb.data_start <= b < fs.sb.total_blocks]
        if fs.balloc.used_count != len(in_range):
            problems.append(
                "allocator bitmap has %d used blocks but %d are referenced "
                "(orphaned blocks)" % (fs.balloc.used_count, len(in_range))
            )
        return problems


def run_crashcheck(fs_kinds=("pmfs", "hinfs"), ops=DEFAULT_OPS,
                   **explorer_kwargs):
    """Explore every crash state of ``ops`` on each fs; returns reports."""
    return [CrashPointExplorer(kind, **explorer_kwargs).explore(ops)
            for kind in fs_kinds]
