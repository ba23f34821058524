"""Crash-point exploration for the cross-shard rename protocol.

The single-device explorer (:mod:`repro.faults.crashpoints`) enumerates
cacheline-granular crash states inside one journal; this module attacks
the seam the shard layer adds *between* journals: a cross-shard
``rename(2)`` is several independent per-shard transactions stitched
together by the intent log, and a crash may land between any two of
them.

For every protocol boundary (after the intent record, after the data
copy, after the ``copied`` record, after a cross-shard victim's unlink,
after the target-shard link, after the source-shard unlink) the explorer
runs the rename up to that boundary, power-cycles every device (whole
volatile cachelines lost, per the crash model; the media itself is kept,
not copied), remounts the sharded stack on it -- running intent recovery
and mirror reconciliation -- and checks the recovery contract:

- **exactly one name**: the moved file's content is reachable under
  exactly one of (old name, new name), never zero, never both;
- **no vanished destination**: when the rename was replacing an existing
  file, the destination name resolves at every crash point (to the old
  victim before the point of no return, to the moved file after);
- **content integrity**: whichever file survives reads back its full
  original payload.
"""

from repro.engine.env import SimEnv
from repro.fs.base import ROOT_INO
from repro.fs.shard import (
    _CrashRequested,
    build_sharded,
    mount_sharded,
    shard_of,
)
from repro.nvmm.config import NVMMConfig
from repro.nvmm.device import NVMMDevice
from repro.workloads.base import payload, prepare_context

#: Crash boundaries of :meth:`ShardedFS._rename_migrate`, in protocol
#: order ("victim-unlinked" only fires for a cross-shard replacement).
BOUNDARIES = ("intent", "copy", "copied", "victim-unlinked", "linked",
              "unlinked")

_DEVICE_SIZE = 8 << 20
_SRC_BYTES = 24 << 10


class ShardRenameViolation:
    """One broken recovery contract at one crash boundary."""

    def __init__(self, boundary, detail):
        self.boundary = boundary
        self.detail = detail

    def __repr__(self):
        return "ShardRenameViolation(%s: %s)" % (self.boundary, self.detail)


class ShardCrashReport:
    """Outcome of one exploration run."""

    def __init__(self, base, nshards, with_victim):
        self.base = base
        self.nshards = nshards
        self.with_victim = with_victim
        self.cases = []
        self.violations = []

    @property
    def passed(self):
        return not self.violations

    def raise_if_failed(self):
        if self.violations:
            raise AssertionError(
                "cross-shard rename recovery violated %d contract(s): %r"
                % (len(self.violations), self.violations))

    def as_dict(self):
        return {
            "base": self.base,
            "nshards": self.nshards,
            "with_victim": self.with_victim,
            "cases": list(self.cases),
            "violations": [repr(v) for v in self.violations],
            "passed": self.passed,
        }

    def __repr__(self):
        return "ShardCrashReport(%s@%d, victim=%s, %d cases, %s)" % (
            self.base, self.nshards, self.with_victim, len(self.cases),
            "PASS" if self.passed else "FAIL: %r" % self.violations)


def _pick_names(nshards):
    """A source and destination name owned by different shards."""
    src = next("src%d" % i for i in range(1000)
               if shard_of("src%d" % i, nshards, parent=ROOT_INO) == 0)
    dst = next("dst%d" % i for i in range(1000)
               if shard_of("dst%d" % i, nshards, parent=ROOT_INO) != 0)
    return src, dst


def _build(base, nshards):
    env = SimEnv()
    fs = build_sharded(env, base, NVMMConfig(), _DEVICE_SIZE,
                       nshards=nshards)
    return env, fs


def _remount(fs, base):
    """Power-cycle every device (volatile lines lost, media kept) and
    remount the sharded stack on a fresh env."""
    env = SimEnv()
    config = NVMMConfig()
    devices = []
    for s, inner in enumerate(fs.shards):
        inner.device.crash()
        devices.append(NVMMDevice.on_region(env, config, inner.device.mem,
                                            domain="dev%d" % s))
    return env, mount_sharded(env, devices, base, config)


def _resolve(fs, free, name):
    """(global ino, content bytes) for a root entry, or (None, None)."""
    gino = fs.lookup(free, ROOT_INO, name)
    if gino is None:
        return None, None
    size = fs.getattr(free, gino).size
    shard, local = fs._dec(gino)
    data = fs.shards[shard].read(free, local, 0, size) if size else b""
    return gino, data


def explore_cross_shard_rename(base="hinfs", nshards=2, with_victim=False):
    """Run the boundary sweep; returns a :class:`ShardCrashReport`.

    ``with_victim`` places an existing file at the destination name:
    ``"same"`` (or True) hash-places it on the target shard, so the
    inner journal replaces it atomically at the link step;
    ``"misplaced"`` parks it on the *source* shard -- the residue of an
    earlier in-place rename -- so the protocol must unlink it
    cross-shard, exercising the ``victim-unlinked`` boundary.
    """
    report = ShardCrashReport(base, nshards, with_victim)
    src_data = payload(_SRC_BYTES, tag=7)
    victim_data = payload(_SRC_BYTES // 2, tag=13)
    for boundary in BOUNDARIES:
        if boundary == "victim-unlinked" and with_victim != "misplaced":
            continue
        env, fs = _build(base, nshards)
        ctx = prepare_context(env)
        src_name, dst_name = _pick_names(nshards)
        src_g = fs.create_file(ctx, ROOT_INO, src_name)
        s, local = fs._dec(src_g)
        fs.shards[s].write(ctx, local, 0, src_data, eager=True)
        if with_victim:
            if with_victim == "misplaced":
                # Park the victim on the source shard (shard 0), where a
                # previous in-place rename would have left it.
                vlocal = fs.shards[0].create_file(ctx, ROOT_INO, dst_name)
                vic_g = fs._enc(vlocal, 0)
            else:
                vic_g = fs.create_file(ctx, ROOT_INO, dst_name)
            vs, vlocal = fs._dec(vic_g)
            fs.shards[vs].write(ctx, vlocal, 0, victim_data, eager=True)
        fired = []

        def hook(point, _want=boundary, _fired=fired):
            if point == _want:
                _fired.append(point)
                raise _CrashRequested(point)

        fs._xmv_hook = hook
        crashed = False
        try:
            fs.rename(ctx, ROOT_INO, src_name, ROOT_INO, dst_name, src_g,
                      replaced_ino=vic_g if with_victim else None)
        except _CrashRequested:
            crashed = True
        if not crashed or not fired:
            report.violations.append(ShardRenameViolation(
                boundary, "crash hook never fired (protocol path changed?)"))
            continue
        _env2, fs2 = _remount(fs, base)
        free2 = prepare_context(_env2)
        _old_g, old_data = _resolve(fs2, free2, src_name)
        _new_g, new_data = _resolve(fs2, free2, dst_name)
        holders = [nm for nm, data in ((src_name, old_data),
                                       (dst_name, new_data))
                   if data == src_data]
        outcome = {"boundary": boundary,
                   "old_present": old_data is not None,
                   "new_present": new_data is not None,
                   "recovered_to": holders[0] if len(holders) == 1 else None}
        report.cases.append(outcome)
        if len(holders) != 1:
            report.violations.append(ShardRenameViolation(
                boundary,
                "moved file reachable under %d names (%r)"
                % (len(holders), holders)))
            continue
        if with_victim:
            if new_data is None:
                report.violations.append(ShardRenameViolation(
                    boundary, "destination name vanished mid-replace"))
            elif new_data not in (src_data, victim_data):
                report.violations.append(ShardRenameViolation(
                    boundary, "destination content is neither old nor new"))
        else:
            if (old_data is None) == (new_data is None):
                report.violations.append(ShardRenameViolation(
                    boundary,
                    "expected exactly one of old/new, got old=%s new=%s"
                    % (old_data is not None, new_data is not None)))
    return report


def explore_all(bases=("hinfs", "pmfs"), shard_counts=(2, 4)):
    """The full sweep the bench gate runs: every base fs and shard
    count, with no victim, a hash-placed victim, and a misplaced one."""
    reports = []
    for base in bases:
        for nshards in shard_counts:
            for with_victim in (False, "same", "misplaced"):
                reports.append(explore_cross_shard_rename(
                    base, nshards, with_victim=with_victim))
    return reports

