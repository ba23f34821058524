"""One VFS mount fanned out across M NVMM devices.

The paper treats NVMM as a single memory-bus device; production storage
scales out.  :class:`ShardedFS` keeps the dispatch layer untouched (the
formal VFS-switch model's argument): it implements the same inode-level
:class:`~repro.fs.base.FileSystem` interface the VFS already speaks,
composing M *shards* -- independent PMFS/HiNFS instances, one per
:class:`~repro.nvmm.device.NVMMDevice`, each device constructed with its
own resource ``domain`` so writer slots, media faults, errseq logs, and
(for HiNFS) write buffer + writeback timeline are all per-device.

Layout
------

- **Global inode numbers** interleave the per-shard local spaces:
  ``global = (local - 1) * M + shard + 1``.  Shard 0's local root (1)
  maps to the global root (1); with M=1 the encoding is the identity.
- **Directories are mirrored** on every shard (each shard holds the
  directory *skeleton* plus the dirents of its own files); shard 0 is
  canonical.  A directory's global ino is its shard-0 mirror's encoding,
  and ``_dir_locals`` translates it to the per-shard local inos.
- **Files live on exactly one shard**, chosen at create time by hashing
  the file name (``crc32(name) % M``), and stay there for life: like
  PMFS and HiNFS, a rename moves a dirent and never the inode.  Lookup
  probes the hash owner first and falls back to the other shards -- a
  renamed file may be *misplaced* relative to its current name.

Rename
------

A file rename is the inner rename on the file's own shard -- one
journal transaction, which also replaces a victim living on that shard.
Only a victim on *another* shard splits the rename across two journals
(the *swap*).  It is journaled as an *intent* in a hidden shard-0 file
(``.__shard_intents__``), each record length+CRC framed so a torn tail
parses as absent:

1. ``begin`` record (all locals + names), durable before anything moves;
2. unlink of the victim on its shard;
3. inner rename on the file's shard;
4. ``done`` record.

Recovery (a ``mounted=True`` construction, :func:`mount_sharded`)
replays incomplete intents: if the rename landed it makes sure the
victim is gone; if the victim is still there nothing moved; else it
redoes the rename.  Every crash point therefore recovers to *exactly
one name* for the moved file.  Directory renames are journaled the same
way (``dirmv``) with shard 0 as the commit shard.

Health is per mount: the VFS's one
:class:`~repro.fs.health.MountHealth` hears every media error on every
shard (the VFS's writeback hook is installed on each of them), and a
shard that fails recovery degrades the whole mount, so the mount is
exactly as writable as the state machine the VFS reads says.
"""

import json
import struct
import zlib

from repro.engine.context import FreeContext
from repro.fs import STACKS, make_fs
from repro.fs.base import FileStat, FileSystem, ROOT_INO
from repro.fs.errors import NotADirectory

#: Steps of :meth:`ShardedFS._rename_swap`, in protocol order: after
#: each, the fault site ``xmv:<step>``.
XMV_STEPS = ("intent", "victim-unlinked", "linked")

#: Namespace entries the shard layer keeps for itself (never listed).
HIDDEN_PREFIX = ".__"
INTENT_LOG_NAME = ".__shard_intents__"
_FRAME_HDR = struct.Struct("<II")


def shard_of(name, nshards, parent=ROOT_INO):
    """The hash-placement owner shard for a directory entry.

    The key is ``(parent global ino, name)`` -- hashing the name alone
    would pin every same-named file to one device (e.g. the tenant
    fleet's per-tenant ``/tNNNN/data`` files), defeating the scale-out.
    The parent's *global* ino is stable across remounts (directory
    globals always encode the canonical shard-0 local), so placement is
    deterministic and recoverable.
    """
    key = "%d/%s" % (parent, name)
    return zlib.crc32(key.encode("utf-8")) % nshards


class _ShardedErrseq:
    """Routes the VFS's errseq probes (global inos) to the owning
    shard's per-device map."""

    def __init__(self, owner):
        self._owner = owner

    def _route(self, gino):
        shard, local = self._owner._dec(gino)
        return self._owner.shards[shard].wb_err, local

    def sample(self, gino):
        errs, local = self._route(gino)
        return errs.sample(local)

    def check(self, gino, cursor):
        errs, local = self._route(gino)
        return errs.check(local, cursor)

    def drop(self, gino):
        errs, local = self._route(gino)
        return errs.drop(local)


class ShardedFS(FileSystem):
    """M per-device file systems behind one FileSystem interface."""

    name = "sharded"

    def __init__(self, env, shards, mounted=False):
        if not shards:
            raise ValueError("need at least one shard")
        self.env = env
        self.shards = list(shards)
        self.nshards = len(self.shards)
        self.name = "%s@%d" % (self.shards[0].name, self.nshards)
        self._wb_err_view = _ShardedErrseq(self)
        #: Per-device request counter names, by shard index.
        self._req_counters = ["sharded_reqs@dev%d" % s
                              for s in range(self.nshards)]
        #: global dir ino -> [local ino of the mirror on each shard].
        self._dir_locals = {}
        #: (shard, local ino) -> global dir ino, for every mirror.
        self._dir_gino = {}
        self._intent_seq = 0
        free = FreeContext(env)
        if mounted:
            self._mount(free)
        else:
            self._register_dir(ROOT_INO, [ROOT_INO] * self.nshards)
            self._intent_ino = self.shards[0].create_file(
                free, ROOT_INO, INTENT_LOG_NAME)
        self._intent_off = 0

    # -- construction helpers ---------------------------------------------

    def _register_dir(self, gino, locals_):
        self._dir_locals[gino] = locals_
        for s, local in enumerate(locals_):
            self._dir_gino[(s, local)] = gino

    # -- inode number codec -------------------------------------------------

    def _enc(self, local, shard):
        return (local - 1) * self.nshards + shard + 1

    def _dec(self, gino):
        return (gino - 1) % self.nshards, (gino - 1) // self.nshards + 1

    def _plocals(self, parent_gino):
        locals_ = self._dir_locals.get(parent_gino)
        if locals_ is None:
            raise NotADirectory("inode %d" % parent_gino)
        return locals_

    # -- mount / recovery ---------------------------------------------------

    def _mount(self, free):
        from repro.fs.errors import MediaError

        shard0 = self.shards[0]
        if shard0.degraded_reason:
            # The canonical shard could not recover: the whole namespace
            # is suspect, so the mount comes up degraded (VFS serves RO).
            self.degraded_reason = shard0.degraded_reason
        self._register_dir(ROOT_INO, [ROOT_INO] * self.nshards)
        try:
            self._intent_ino = shard0.lookup(free, ROOT_INO, INTENT_LOG_NAME)
            if self._intent_ino is None:
                if not self.degraded_reason:
                    self._intent_ino = shard0.create_file(
                        free, ROOT_INO, INTENT_LOG_NAME)
            elif not self.degraded_reason:
                self._recover_intents(free)
            self._reconcile(free)
            if not self.degraded_reason:
                shard0.truncate(free, self._intent_ino, 0)
        except MediaError as exc:
            # Recovery/reconcile walked onto bad media: serve what can be
            # read, read-only, rather than failing the mount outright.
            self.degraded_reason = "shard recovery hit bad media: %s" % exc
            self.env.stats.bump("mount_degraded")
        for inner in self.shards[1:]:
            # Any other shard that could not recover degrades the mount
            # too: there is one health record per mount.
            if inner.degraded_reason and not self.degraded_reason:
                self.degraded_reason = inner.degraded_reason

    def _recover_intents(self, free):
        pending = {}
        for rec in self._read_intents(free):
            kind = rec.get("kind")
            seq = rec.get("seq")
            if kind == "begin":
                pending[seq] = rec
            elif kind == "done":
                pending.pop(seq, None)
        for seq in sorted(pending):
            rec = pending[seq]
            if rec.get("op") == "dirmv":
                self._recover_dirmv(free, rec)
            else:
                self._recover_swap(free, rec)
            self.env.stats.bump("shard_intents_recovered")

    def _recover_swap(self, free, rec):
        """Finish or undo one interrupted rename over a victim on another
        shard."""
        s1fs = self.shards[rec["s1"]]
        srfs = self.shards[rec["sr"]]
        if s1fs.lookup(free, rec["p2l"], rec["new"]) == rec["l1"]:
            victim = srfs.lookup(free, rec["rp2l"], rec["new"])
            if victim == rec["lr"]:
                srfs.unlink(free, rec["rp2l"], rec["new"], victim)
            return
        victim = srfs.lookup(free, rec["rp2l"], rec["new"])
        if victim == rec["lr"]:
            return  # nothing moved yet: roll back (keep both names)
        old = s1fs.lookup(free, rec["p1l"], rec["old"])
        if old == rec["l1"]:
            s1fs.rename(free, rec["p1l"], rec["old"], rec["p2l"], rec["new"],
                        rec["l1"])

    def _recover_dirmv(self, free, rec):
        """Directory rename: shard 0 committed first; align the mirrors."""
        p1s, p2s, locs = rec["p1s"], rec["p2s"], rec["ds"]
        if self.shards[0].lookup(free, p2s[0], rec["new"]) != locs[0]:
            return  # shard 0 never committed -> no mirror moved either
        for s in range(1, self.nshards):
            if self.shards[s].lookup(free, p2s[s], rec["new"]) != locs[s]:
                self.shards[s].rename(free, p1s[s], rec["old"], p2s[s],
                                      rec["new"], locs[s])

    def _reconcile(self, free):
        """Rebuild the dir maps by walking canonical shard 0, creating
        missing mirrors and dropping empty orphan mirrors (the residue of
        a mkdir/rmdir that crashed between shards)."""
        visited = [set([ROOT_INO]) for _ in range(self.nshards)]
        queue = [ROOT_INO]
        while queue:
            gino = queue.pop()
            locals_ = self._dir_locals[gino]
            for name, l0 in self.shards[0].readdir(free, locals_[0]):
                if name.startswith(HIDDEN_PREFIX):
                    continue
                if not self.shards[0].getattr(free, l0).is_dir:
                    continue
                child = [l0] + [0] * (self.nshards - 1)
                visited[0].add(l0)
                for s in range(1, self.nshards):
                    local = self.shards[s].lookup(free, locals_[s], name)
                    if local is None:
                        local = self.shards[s].mkdir(free, locals_[s], name)
                        self.env.stats.bump("shard_mirrors_repaired")
                    child[s] = local
                    visited[s].add(local)
                cg = self._enc(l0, 0)
                self._register_dir(cg, child)
                queue.append(cg)
        for s in range(1, self.nshards):
            self._drop_orphans(free, s, ROOT_INO, visited[s])

    def _drop_orphans(self, free, s, dir_local, keep):
        inner = self.shards[s]
        for name, local in list(inner.readdir(free, dir_local)):
            if name.startswith(HIDDEN_PREFIX):
                continue
            if not inner.getattr(free, local).is_dir:
                continue
            self._drop_orphans(free, s, local, keep)
            if local not in keep and not inner.readdir(free, local):
                inner.rmdir(free, dir_local, name, local)
                self.env.stats.bump("shard_orphans_dropped")

    # -- the intent log -----------------------------------------------------

    def _append_intent(self, ctx, rec):
        payload = json.dumps(rec, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        frame = _FRAME_HDR.pack(len(payload),
                                zlib.crc32(payload) & 0xFFFFFFFF) + payload
        offset = self._intent_off
        self._intent_off = offset + len(frame)
        self.shards[0].write(ctx, self._intent_ino, offset, frame, eager=True)
        self.shards[0].fsync(ctx, self._intent_ino)

    def _read_intents(self, free):
        size = self.shards[0].getattr(free, self._intent_ino).size
        raw = self.shards[0].read(free, self._intent_ino, 0, size) \
            if size else b""
        records = []
        offset = 0
        while offset + _FRAME_HDR.size <= len(raw):
            length, crc = _FRAME_HDR.unpack_from(raw, offset)
            payload = raw[offset + _FRAME_HDR.size:
                          offset + _FRAME_HDR.size + length]
            if len(payload) < length or \
                    zlib.crc32(payload) & 0xFFFFFFFF != crc:
                break  # torn tail: the record never fully landed
            try:
                records.append(json.loads(payload.decode("utf-8")))
            except ValueError:
                break
            offset += _FRAME_HDR.size + length
        return records

    def _crash_point(self, step):
        """The ``xmv:<step>`` fault site (:mod:`repro.faults.plan`)."""
        plan = self.env.faults
        if plan is not None:
            plan.check("xmv:" + step)

    # -- namespace ----------------------------------------------------------

    def lookup(self, ctx, parent_ino, name):
        locals_ = self._plocals(parent_ino)
        owner = shard_of(name, self.nshards, parent=parent_ino)
        for s in self._probe_order(owner):
            local = self.shards[s].lookup(ctx, locals_[s], name)
            if local is not None:
                return self._dir_gino.get((s, local), self._enc(local, s))
        return None

    def _probe_order(self, owner):
        """Hash owner first, then the fallback probe of the other shards
        (misplaced files keep global lookup correct)."""
        yield owner
        for s in range(self.nshards):
            if s != owner:
                yield s

    def create_file(self, ctx, parent_ino, name):
        locals_ = self._plocals(parent_ino)
        owner = shard_of(name, self.nshards, parent=parent_ino)
        local = self.shards[owner].create_file(ctx, locals_[owner], name)
        return self._enc(local, owner)

    def mkdir(self, ctx, parent_ino, name):
        locals_ = self._plocals(parent_ino)
        # Mirrors first, canonical shard 0 LAST: an interrupted mkdir
        # leaves only orphan mirrors, which reconcile drops.
        child = [0] * self.nshards
        for s in range(self.nshards - 1, -1, -1):
            child[s] = self.shards[s].mkdir(ctx, locals_[s], name)
        gino = self._enc(child[0], 0)
        self._register_dir(gino, child)
        return gino

    def unlink(self, ctx, parent_ino, name, ino):
        locals_ = self._plocals(parent_ino)
        s, local = self._dec(ino)
        self.shards[s].unlink(ctx, locals_[s], name, local)

    def rmdir(self, ctx, parent_ino, name, ino):
        from repro.fs.errors import NotEmpty

        locals_ = self._plocals(parent_ino)
        child = self._plocals(ino)
        for s in range(self.nshards):
            for entry, _local in self.shards[s].readdir(ctx, child[s]):
                if not entry.startswith(HIDDEN_PREFIX):
                    raise NotEmpty(name)
        # Canonical shard 0 FIRST (the removal's commit point), mirrors
        # after: an interrupted rmdir leaves empty orphan mirrors only.
        for s in range(self.nshards):
            self.shards[s].rmdir(ctx, locals_[s], name, child[s])
        for s, local in enumerate(child):
            self._dir_gino.pop((s, local), None)
        del self._dir_locals[ino]

    def rename(self, ctx, old_parent, old_name, new_parent, new_name, ino,
               replaced_ino=None):
        """The file keeps its shard and its global ino, whatever shard
        the new name hashes to."""
        p1 = self._plocals(old_parent)
        p2 = self._plocals(new_parent)
        if ino in self._dir_locals:
            self._rename_dir(ctx, p1, old_name, p2, new_name,
                             self._dir_locals[ino])
            return
        s1, l1 = self._dec(ino)
        sr, lr = (s1, None) if replaced_ino is None else self._dec(replaced_ino)
        if sr == s1:
            self.shards[s1].rename(ctx, p1[s1], old_name, p2[s1], new_name,
                                   l1, replaced_ino=lr)
            return
        self._rename_swap(ctx, s1, l1, p1, old_name, p2, new_name, sr, lr)

    def _next_intent_seq(self):
        self._intent_seq += 1
        return self._intent_seq

    def _rename_dir(self, ctx, p1, old_name, p2, new_name, locs):
        seq = self._next_intent_seq()
        self._append_intent(ctx, {
            "kind": "begin", "op": "dirmv", "seq": seq, "old": old_name,
            "new": new_name, "p1s": list(p1), "p2s": list(p2),
            "ds": list(locs),
        })
        # Shard 0 commits the move; mirrors follow; recovery rolls the
        # stragglers forward iff shard 0's rename landed.
        for s in range(self.nshards):
            self.shards[s].rename(ctx, p1[s], old_name, p2[s], new_name,
                                  locs[s])
        self._append_intent(ctx, {"kind": "done", "seq": seq})

    def _rename_swap(self, ctx, s1, l1, p1, old_name, p2, new_name, sr, lr):
        """Rename over a victim living on a different shard."""
        seq = self._next_intent_seq()
        self._append_intent(ctx, {
            "kind": "begin", "op": "swap", "seq": seq, "s1": s1, "l1": l1,
            "p1l": p1[s1], "old": old_name, "p2l": p2[s1], "new": new_name,
            "sr": sr, "lr": lr, "rp2l": p2[sr],
        })
        self._crash_point("intent")
        self.shards[sr].unlink(ctx, p2[sr], new_name, lr)
        self._crash_point("victim-unlinked")
        self.shards[s1].rename(ctx, p1[s1], old_name, p2[s1], new_name, l1)
        self._crash_point("linked")
        self._append_intent(ctx, {"kind": "done", "seq": seq})

    def readdir(self, ctx, ino):
        locals_ = self._plocals(ino)
        merged = {}
        for s, inner in enumerate(self.shards):
            for name, local in inner.readdir(ctx, locals_[s]):
                if name.startswith(HIDDEN_PREFIX):
                    continue
                gino = self._dir_gino.get((s, local))
                if gino is not None:
                    merged[name] = gino  # same from every mirror
                else:
                    merged[name] = self._enc(local, s)
        return sorted(merged.items())

    def getattr(self, ctx, ino):
        s, local = self._dec(ino)
        st = self.shards[s].getattr(ctx, local)
        return FileStat(ino, st.kind, st.size, st.nlink, st.mtime_ns,
                        st.ctime_ns)

    # -- data path -----------------------------------------------------------

    def submit(self, ctx, req):
        gino = req.ino
        local, s = divmod(gino - 1, self.nshards)  # _dec, inline
        counters = self.env.stats.counters
        counters[self._req_counters[s]] += 1
        counters["sharded_reqs_total"] += 1
        req.ino = local + 1
        try:
            return self.shards[s].submit(ctx, req)
        finally:
            req.ino = gino

    def truncate(self, ctx, ino, new_size):
        s, local = self._dec(ino)
        self.shards[s].truncate(ctx, local, new_size)

    # -- memory-mapped I/O ---------------------------------------------------

    def mmap(self, ctx, ino, policy=None, log_blocks=4, log_checksums=True):
        s, local = self._dec(ino)
        return self.shards[s].mmap(ctx, local, policy, log_blocks,
                                   log_checksums)

    # -- health / errors -----------------------------------------------------

    @property
    def wb_err(self):
        return self._wb_err_view

    def _set_wb_error_hook(self, hook):
        """The VFS's async-error hook reaches every shard."""
        for inner in self.shards:
            inner.wb_error_hook = hook

    wb_error_hook = property(None, _set_wb_error_hook)

    def scrub(self, ctx):
        from repro.fs.scrub import ScrubReport

        merged = ScrubReport(self.name, started_ns=ctx.now)
        for inner in self.shards:
            report = inner.scrub(ctx)
            merged.scanned_lines += report.scanned_lines
            merged.bad_lines_found += report.bad_lines_found
            merged.repaired_lines += report.repaired_lines
            merged.isolated_lines += report.isolated_lines
            merged.quarantined_blocks.extend(report.quarantined_blocks)
            merged.unrecovered_lines += report.unrecovered_lines
        merged.finished_ns = ctx.now
        return merged

    # -- lifecycle -----------------------------------------------------------

    def unmount(self, ctx):
        for inner in self.shards:
            inner.unmount(ctx)

    def drop_caches(self):
        for inner in self.shards:
            inner.drop_caches()


def build_sharded(env, base_name, config, device_size, hinfs_config=None,
                  nshards=2):
    """Fresh M-device stack: one domain'd NVMMDevice + inner fs per shard.

    ``device_size`` is *per device* -- capacity and writer-slot bandwidth
    both scale with the shard count, which is the point of the refactor.
    """
    from repro.nvmm.device import NVMMDevice

    return ShardedFS(env, [
        _make_shard(env, base_name,
                    NVMMDevice(env, config, device_size, domain="dev%d" % s),
                    config, hinfs_config)
        for s in range(nshards)])


def mount_sharded(env, devices, base_name, config, hinfs_config=None):
    """Remount a sharded stack from M existing (crashed) devices: replay
    incomplete rename intents, then reconcile the mirrored directory
    skeleton against canonical shard 0."""
    return ShardedFS(env, [
        _make_shard(env, base_name, device, config, hinfs_config, mount=True)
        for device in devices], mounted=True)


def check_pmfs_layout(base_name):
    """Raise ValueError unless ``base_name`` is a stack of the one table
    on the PMFS on-media layout (PMFS, HiNFS and its ablations): what a
    shard can be, and what the crash explorer can recover and audit."""
    if STACKS.get(base_name, ("", ""))[1] not in ("HiNFS", "PMFS"):
        raise ValueError("%r is not a PMFS-layout stack of repro.fs.STACKS"
                         % base_name)


def _make_shard(env, base_name, device, config, hinfs_config, mount=False):
    """One inner file system from the stack table (``make_fs``)."""
    check_pmfs_layout(base_name)
    return make_fs(env, base_name, device, config, hinfs_config, mount=mount)
