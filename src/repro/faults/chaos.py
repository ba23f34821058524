"""Seeded chaos campaigns: faults mid-workload, then prove recovery.

One campaign drives a seeded workload against a live stack while
injecting every fault class the harness models --

- permanent media faults (poisoned cachelines) in allocated data blocks,
- transient persist failures (the device's retry policy absorbs them),
- ring-level EIO on specific SQEs (each fails once, and is reported),
- for the NVMM-native stacks, a torn-write power failure: volatile lines
  are lost, a seeded subset of one dirty line's 8-byte words persists,
  and the journal must recover the image --

then exercises the full recovery story: the mount-health FSM degrades
under the error threshold, a scrub pass repairs or isolates every bad
line, the FSM's recovery edge returns the mount to HEALTHY, and a
write + fsync + read afterwards must succeed.

Throughout, an in-DRAM reference model (path -> bytes) tracks what every
file must read back.  The oracle at each checkpoint: a file's content
matches the reference *unless the stack reported the loss* (a raised
EIO, or an errseq record the next fsync/close will surface).  Silent
divergence is a violation; a campaign must end with zero.

Everything is seeded and iteration-ordered, so the same seed reproduces
the same fault sites, the same recovery outcomes, and the same SimStats.
"""

import random

from repro.engine.background import BackgroundRegistry
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.faults.media import MediaFaultModel
from repro.faults.plan import FaultPlan
from repro.fs import flags as f
from repro.fs import make_fs
from repro.fs.errors import FSError, MediaError, ReadOnly
from repro.fs.health import HEALTHY
from repro.fs.vfs import VFS
from repro.mem.region import CACHELINE_SIZE
from repro.nvmm.config import BLOCK_SIZE, NVMMConfig

#: The paper's comparison set: every stack the campaign must survive on.
CHAOS_STACKS = ("hinfs", "pmfs", "ext4-dax", "ext2-nvmmbd", "ext4-nvmmbd")

#: Stacks whose persistent image lives in NVMM proper (PMFS layout with
#: an undo journal): these get the torn-write crash leg.  The NVMMBD
#: stacks keep all metadata in DRAM; power failure is out of their
#: contract, so they only run the media/ring/scrub legs.
TORN_CRASH_STACKS = ("hinfs", "pmfs")

LINES_PER_BLOCK = BLOCK_SIZE // CACHELINE_SIZE


class ChaosCampaign:
    """One seeded fault campaign against one file-system stack."""

    def __init__(self, fs_name, seed=0, config=None, device_size=32 << 20,
                 rounds=2, files=4, writes_per_round=6,
                 media_faults_per_round=2, transients_per_round=1,
                 media_error_threshold=3):
        self.fs_name = fs_name
        self.seed = seed
        self.config = config or NVMMConfig()
        self.device_size = device_size
        self.rounds = rounds
        self.files = ["/c%d" % i for i in range(files)]
        self.writes_per_round = writes_per_round
        self.media_faults_per_round = media_faults_per_round
        self.transients_per_round = transients_per_round
        self.media_error_threshold = media_error_threshold
        self._rng = random.Random("chaos:%s:%d" % (fs_name, seed))
        # -- live state (set by run) --
        self.env = None
        self.fs = None
        self.vfs = None
        self.ctx = None
        self.model = None
        # path -> bytearray of what the file must read back now
        self.reference = {}
        # paths with a reported (non-silent) error: raised EIO or errseq
        self.reported = set()
        # paths written since their last successful fsync (skip strict
        # content checks across a crash)
        self.dirty_since_sync = set()
        # -- results --
        self.fault_lines = []
        self.transient_lines = []
        self.ring_fault_seqs = []
        self.scrub_reports = []
        self.violations = []
        self.acknowledged_losses = 0

    # -- plumbing ---------------------------------------------------------

    def _device(self):
        bdev = getattr(self.fs, "bdev", None)
        return bdev.nvmm if bdev is not None else self.fs.device

    def _ino(self, path):
        return self.fs.lookup(self.ctx, 1, path.lstrip("/"))

    def _file_extents(self, path):
        """The file's ``(file_block, device_block)`` pairs, sorted."""
        ino = self._ino(path)
        if ino is None:
            return []
        if hasattr(self.fs, "_map"):
            return sorted(self.fs._map(ino).mapped_blocks())
        return sorted(self.fs._inodes[ino].blocks.items())

    def _data_blocks(self, path):
        """The file's physical blocks on the device, sorted."""
        return sorted(b for _fb, b in self._file_extents(path))

    def _mark_reported(self, path):
        if path not in self.reported:
            self.reported.add(path)

    def _violation(self, message):
        self.violations.append("%s: %s" % (self.fs_name, message))

    # -- workload ---------------------------------------------------------

    def _payload(self, length, tag):
        rng = random.Random("chaos-data:%s:%d:%d"
                            % (self.fs_name, self.seed, tag))
        return bytes(rng.randrange(256) for _ in range(length))

    def _apply_write(self, path, offset, data):
        buf = self.reference[path]
        if offset > len(buf):
            buf.extend(b"\0" * (offset - len(buf)))
        buf[offset:offset + len(data)] = data

    def _workload_round(self, round_index):
        """Seeded writes + fsyncs over the campaign files, with the
        reference model tracking every acknowledged byte."""
        for op in range(self.writes_per_round):
            path = self._rng.choice(self.files)
            offset = self._rng.randrange(0, 12 << 10)
            length = self._rng.randrange(64, 4096)
            tag = round_index * 1000 + op
            data = self._payload(length, tag)
            try:
                fd = self.vfs.open(self.ctx, path, f.O_RDWR | f.O_CREAT)
            except (MediaError, ReadOnly):
                self._mark_reported(path)
                continue
            try:
                self.vfs.pwrite(self.ctx, fd, offset, data)
                self.reference.setdefault(path, bytearray())
                self._apply_write(path, offset, data)
                self.dirty_since_sync.add(path)
                if self._rng.random() < 0.6:
                    self.vfs.fsync(self.ctx, fd)
                    self.dirty_since_sync.discard(path)
            except (MediaError, ReadOnly):
                # EIO was *raised*: the loss is reported, not silent.
                self._mark_reported(path)
            finally:
                try:
                    self.vfs.close(self.ctx, fd)
                except MediaError:
                    self._mark_reported(path)

    # -- fault injection --------------------------------------------------

    def _inject_media_faults(self, nfaults):
        """Poison seeded lines inside allocated data blocks of campaign
        files (where the loss is observable by the oracle)."""
        sites = []
        for path in self.files:
            for block in self._data_blocks(path):
                base = block * LINES_PER_BLOCK
                sites.extend(range(base, base + LINES_PER_BLOCK))
        injected = []
        while sites and len(injected) < nfaults:
            line = sites.pop(self._rng.randrange(len(sites)))
            if line in self.model.bad_lines:
                continue
            self.model.poison_line(line)
            injected.append(line)
        self.fault_lines.extend(sorted(injected))
        return sorted(injected)

    def _inject_transients(self, ntransients):
        """Schedule a transient persist failure, then immediately drive a
        full-block overwrite + fsync over the faulted line, so the
        device's retry policy is exercised deterministically (and must
        absorb the failure without surfacing an error)."""
        injected = []
        for n in range(ntransients):
            path = self._rng.choice(self.files)
            extents = self._file_extents(path)
            if not extents:
                continue
            fb, block = extents[self._rng.randrange(len(extents))]
            line = block * LINES_PER_BLOCK \
                + self._rng.randrange(LINES_PER_BLOCK)
            self.model.inject_transient(line, failures=1)
            injected.append(line)
            data = self._payload(BLOCK_SIZE,
                                 5000 + len(self.transient_lines) + n)
            try:
                fd = self.vfs.open(self.ctx, path, f.O_RDWR)
            except (MediaError, ReadOnly):
                self._mark_reported(path)
                continue
            try:
                self.vfs.pwrite(self.ctx, fd, fb * BLOCK_SIZE, data)
                self._apply_write(path, fb * BLOCK_SIZE, data)
                self.vfs.fsync(self.ctx, fd)
                self.dirty_since_sync.discard(path)
            except (MediaError, ReadOnly):
                self._mark_reported(path)
            finally:
                try:
                    self.vfs.close(self.ctx, fd)
                except MediaError:
                    self._mark_reported(path)
        self.transient_lines.extend(sorted(injected))

    def _arm_ring_faults(self):
        """Arm an EIO on an upcoming SQE of the next workload round: the
        SQE fails once, and the round marks its file reported."""
        ring = self.vfs.ring(self.ctx)
        seq = ring._seq + self._rng.randrange(1, self.writes_per_round)
        (self.env.faults or FaultPlan(self.env)).arm("ring", seq)
        self.ring_fault_seqs.append(seq)

    # -- oracle -----------------------------------------------------------

    def _refresh_reported(self):
        """Fold the errseq map into the reported set: an async loss the
        next fsync/close would surface counts as reported."""
        for path in sorted(self.reference):
            ino = self._ino(path)
            if ino is None:
                continue
            hit, _cursor = self.fs.wb_err.check(ino, 0)
            if hit:
                self._mark_reported(path)

    def _check_oracle(self, where, skip_dirty=False):
        """Every file matches the reference, or its loss was reported."""
        self._refresh_reported()
        for path in sorted(self.reference):
            if skip_dirty and path in self.dirty_since_sync:
                continue
            expect = bytes(self.reference[path])
            try:
                got = self.vfs.read_file(self.ctx, path)
            except MediaError:
                self._mark_reported(path)
                continue
            except FSError as exc:
                self._violation("%s unreadable at %s: %s"
                                % (path, where, exc))
                continue
            if got == expect:
                continue
            if path in self.reported:
                self.acknowledged_losses += 1
            else:
                self._violation(
                    "silent divergence on %s at %s (%d bytes vs %d)"
                    % (path, where, len(got), len(expect)))

    # -- recovery legs ----------------------------------------------------

    def _scrub_until_clean(self, where, max_passes=3):
        for _ in range(max_passes):
            report = self.vfs.scrub(self.ctx)
            self.scrub_reports.append(report)
            if report.clean:
                return report
        self._violation("scrub did not converge at %s (%d bad lines left)"
                        % (where, len(self.model.bad_lines)))
        return report

    def _degradation_leg(self):
        """Drop DRAM copies, poison a victim file, read it until the
        health FSM degrades, then recover via scrub."""
        self.fs.unmount(self.ctx)
        self.fs.drop_caches()
        self.dirty_since_sync.clear()
        victim = self.files[0]
        blocks = self._data_blocks(victim)
        if blocks:
            base = blocks[0] * LINES_PER_BLOCK
            for r in range(min(2, LINES_PER_BLOCK)):
                if base + r not in self.model.bad_lines:
                    self.model.poison_line(base + r)
                    self.fault_lines.append(base + r)
        attempts = 0
        while self.vfs.health.state == HEALTHY and attempts < \
                self.media_error_threshold * 3:
            attempts += 1
            try:
                self.vfs.read_file(self.ctx, victim)
            except MediaError:
                self._mark_reported(victim)
        if self.vfs.health.state == HEALTHY:
            self._violation("mount never degraded under repeated EIO")
            return
        # Degraded: mutations must be refused ...
        try:
            self.vfs.write_file(self.ctx, "/degraded-probe", b"x")
            self._violation("write succeeded on a degraded mount")
        except ReadOnly:
            pass
        # ... and a clean scrub must bring the mount back.
        self._scrub_until_clean("degradation leg")
        if self.vfs.health.state != HEALTHY:
            self._violation("mount did not recover after a clean scrub "
                            "(state=%s)" % self.vfs.health.state)

    def _post_recovery_probe(self):
        """After recovery the mount must be fully serviceable again."""
        try:
            self.vfs.write_file(self.ctx, "/recovered", b"alive" * 16,
                                sync=True)
            back = self.vfs.read_file(self.ctx, "/recovered")
        except FSError as exc:
            self._violation("post-recovery I/O failed: %s" % exc)
            return
        if back != b"alive" * 16:
            self._violation("post-recovery read returned wrong bytes")

    def _torn_crash_leg(self):
        """Power-fail with a torn line: volatile lines are lost, a seeded
        proper subset of one dirty line's 8-byte words persists, and
        journal recovery must produce a consistent image."""
        # Imported here like ``build_stack`` in ``run``: the explorer
        # imports ``repro.core``, which imports the device this package's
        # ``__init__`` is loaded from.
        from repro.faults.crashpoints import WORDS_PER_LINE, merge_words, \
            word_mask

        device = self._device()
        mem = device.mem
        # Leave some writes unsynced so the crash has volatile state.
        for op, path in enumerate(self.files[:2]):
            data = self._payload(1024, 9000 + op)[:1024]
            try:
                self.vfs.write_file(self.ctx, path, data)
            except (MediaError, ReadOnly):
                self._mark_reported(path)
                continue
            self.reference[path] = bytearray(data)
            self.dirty_since_sync.add(path)
        # PMFS persists data eagerly and HiNFS stages writes in DRAM, so
        # at a syscall boundary no NVMM store is ever pending.  Model
        # power failing in the *middle* of a data persist: issue the
        # stores for one more overwrite through the volatile cache and
        # cut power before any clflush retires.
        victim = self.files[0]
        blocks = self._data_blocks(victim)
        if blocks:
            block = blocks[self._rng.randrange(len(blocks))]
            pending = self._payload(4 * CACHELINE_SIZE, 9100)
            mem.write(block * BLOCK_SIZE, pending)
            self.dirty_since_sync.add(victim)
        dirty = mem.dirty_line_indices()
        torn = None
        if dirty:
            line = dirty[self._rng.randrange(len(dirty))]
            new = mem.dirty_lines_snapshot()[line]
            old = mem.persistent_read(line * CACHELINE_SIZE, CACHELINE_SIZE)
            # A proper nonempty word subset: genuinely torn, not a plain
            # lost-or-persisted line (the crash explorer's torn model).
            mask = word_mask(self._rng, WORDS_PER_LINE)
            evictable = [ln for ln in dirty if ln != line]
            nevict = self._rng.randint(0, len(evictable)) \
                if evictable else 0
            evicted = sorted(self._rng.sample(evictable, nevict))
            device.crash(evicted)
            mem.write_nocache(line * CACHELINE_SIZE,
                              merge_words(old, new, mask))
            torn = {"line": line,
                    "words": [w for w in range(WORDS_PER_LINE)
                              if mask >> w & 1],
                    "evicted": evicted}
        else:
            device.crash(())
        # Remount: fresh background timelines, journal recovery runs.
        self.env.background = BackgroundRegistry()
        self.fs = make_fs(self.env, self.fs_name, device, self.config,
                          mount=True)
        self.model = self.fs.device.fault_model
        self.vfs = VFS(self.env, self.fs, self.config,
                       media_error_threshold=self.media_error_threshold)
        self.ctx = ExecContext(self.env, "chaos", start_ns=self.ctx.now)
        if self.fs.degraded_reason is not None:
            # The journal itself was damaged; recovery must still have
            # produced a mountable (read-only) image.
            self._mark_reported("*mount*")
        # Unsynced files may have lost their tail (or a torn word); only
        # files quiescent since their last fsync are held to the oracle.
        self._check_oracle("after torn crash", skip_dirty=True)
        for path in sorted(self.dirty_since_sync):
            # Whatever survived, it must at least be readable.
            try:
                data = self.vfs.read_file(self.ctx, path)
            except FSError:
                data = None
            self.reference[path] = bytearray(data or b"")
        self.dirty_since_sync.clear()
        return torn

    # -- campaign ---------------------------------------------------------

    def run(self):
        self.env = SimEnv()
        from repro.bench.runner import build_stack

        self.fs, self.vfs = build_stack(self.env, self.fs_name, self.config,
                                        self.device_size)
        self.vfs.health.media_error_threshold = self.media_error_threshold
        self.model = self._device().attach_faults(
            MediaFaultModel(seed=self.seed))
        self.ctx = ExecContext(self.env, "chaos")

        # Seed every campaign file with synced content, so each one has
        # allocated blocks for the fault injectors to target.
        for i, path in enumerate(self.files):
            data = self._payload(6 << 10, 100 + i)
            self.vfs.write_file(self.ctx, path, data, sync=True)
            self.reference[path] = bytearray(data)

        self._workload_round(0)
        for r in range(1, self.rounds + 1):
            self._inject_transients(self.transients_per_round)
            self._arm_ring_faults()
            self._workload_round(r)
            self._inject_media_faults(self.media_faults_per_round)
            self._scrub_until_clean("round %d" % r)
            self._check_oracle("round %d" % r)

        torn = None
        if self.fs_name in TORN_CRASH_STACKS:
            torn = self._torn_crash_leg()
            self._scrub_until_clean("after crash")

        self._degradation_leg()
        self._check_oracle("after recovery")
        self._post_recovery_probe()
        return self._result(torn)

    def _result(self, torn):
        stats = self.env.stats
        mttr = self.vfs.health.mttr_ns()
        return {
            "fs": self.fs_name,
            "seed": self.seed,
            "fault_lines": sorted(self.fault_lines),
            "transient_lines": sorted(self.transient_lines),
            "ring_fault_seqs": list(self.ring_fault_seqs),
            "torn": torn,
            "scrub_passes": len(self.scrub_reports),
            "bad_lines_found": sum(r.bad_lines_found
                                   for r in self.scrub_reports),
            "repaired_lines": sum(r.repaired_lines
                                  for r in self.scrub_reports),
            "isolated_lines": sum(r.isolated_lines
                                  for r in self.scrub_reports),
            "quarantined_blocks": sorted(
                b for r in self.scrub_reports for b in r.quarantined_blocks),
            "mttr_ns": mttr,
            "health_history": list(self.vfs.health.history),
            "final_state": self.vfs.health.state,
            "acknowledged_losses": self.acknowledged_losses,
            "violations": list(self.violations),
            "stats": {
                name: stats.count(name)
                for name in ("media_read_errors", "media_persist_errors",
                             "media_retries", "media_lines_marked_bad",
                             "ring_fault_injections", "vfs_media_errors", "vfs_remount_ro",
                             "health_transitions", "health_recoveries",
                             "scrub_passes", "scrub_repaired_lines",
                             "scrub_isolated_lines",
                             "scrub_quarantined_blocks")
            },
        }


def run_campaign(fs_name, seed=0, **kwargs):
    """Run one campaign; returns its result dict."""
    return ChaosCampaign(fs_name, seed=seed, **kwargs).run()
