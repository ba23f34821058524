"""Output checks, run after each measured phase and outside the timed region.

Each checker returns ``(checks attempted, [failure message, ...])``.  Any
failure makes the run incorrect (``fail_frac`` > 0, non-zero exit).
"""

import hashlib

from repro.faults.crashpoints import DEFAULT_OPS, CrashPointExplorer
from repro.workloads.base import payload, prepare_context


def fio_shadow(workload):
    """Expected final bytes of every fio file, and user bytes written.

    Replays the workload's own seeded RNG streams in its draw order
    (offset, then read-or-write) into plain bytearrays: a reference
    model that shares no code with the file systems.
    """
    max_offset = max(1, workload.file_size - workload.io_size)
    shadow = {}
    written = 0
    for tid in range(workload.threads):
        rng = workload.rng(tid)
        model = bytearray(payload(workload.file_size, tag=7))
        chunk = payload(workload.io_size, tag=tid + 1)
        for _ in range(workload.ops_per_thread):
            offset = rng.randrange(max_offset)
            if rng.random() >= workload.read_fraction:
                model[offset:offset + workload.io_size] = chunk
                written += workload.io_size
        shadow[workload.path(tid)] = model
    return shadow, written


def check_file_contents(vfs, env, shadow):
    """Every file read back under a free context equals its shadow."""
    ctx = prepare_context(env)
    failures = []
    for path, model in sorted(shadow.items()):
        got = vfs.read_file(ctx, path)
        if hashlib.sha256(got).digest() != hashlib.sha256(model).digest():
            failures.append("%s: contents differ from the shadow model "
                            "(%d vs %d bytes)" % (path, len(got), len(model)))
    return len(shadow), failures


def check_fileset(vfs, env, workload):
    """Each thread directory lists exactly the workload's fileset, and
    every file's stat size is what reading it returns."""
    ctx = prepare_context(env)
    failures = []
    checks = 0
    for tid in range(workload.threads):
        # The fileset has no public accessor; the workload's own record of
        # what it created and unlinked is the expectation.
        files = workload._fileset(tid)
        checks += 1
        listed = sorted("%s/%s" % (files.directory, name)
                        for name, _ino in vfs.readdir(ctx, files.directory))
        if listed != sorted(files.names):
            failures.append("%s: listing has %d entries, fileset has %d"
                            % (files.directory, len(listed),
                               len(files.names)))
        for path in files.names:
            checks += 1
            size = vfs.stat(ctx, path).size
            got = len(vfs.read_file(ctx, path))
            if size != got:
                failures.append("%s: stat size %d but %d bytes readable"
                                % (path, size, got))
    return checks, failures


def check_tenants(fleet, env):
    """No tenant lost an op, and per-device ledgers sum to the totals."""
    failures = []
    checks = 0
    for spec in fleet.specs:
        checks += 1
        result = fleet.results[spec.tenant_id]
        if result.ops_done + result.dropped != spec.ops:
            failures.append("tenant %d: %d done + %d dropped != %d ops"
                            % (spec.tenant_id, result.ops_done,
                               result.dropped, spec.ops))
    counters = env.stats.counters
    for prefix, total in (("sharded_reqs@", "sharded_reqs_total"),
                          ("nvmm_slot_grants@", "nvmm_slot_grants_total")):
        checks += 1
        per_device = sum(v for k, v in counters.items()
                         if k.startswith(prefix))
        if per_device != counters.get(total, 0) or per_device == 0:
            failures.append("%s* sums to %d, %s is %d"
                            % (prefix, per_device, total,
                               counters.get(total, 0)))
    return checks, failures


def check_crash(reports):
    """Every explored crash state satisfied every invariant."""
    failures = []
    for report in reports:
        failures.extend(str(v) for v in report.failures[:5])
        if not report.states_checked:
            failures.append("%s: no crash state checked" % report.fs_kind)
    return len(reports), failures


def crash_negative_control():
    """The explorer must catch a known-bad stack: without journal entry
    checksums a torn undo entry replays garbage.  Fixed inputs (not the
    run's seed): this tests the checker, it is not a workload."""
    report = CrashPointExplorer(
        "pmfs", seed=0, eviction_samples_per_op=0, torn_samples_per_op=16,
        journal_checksums=False).explore(DEFAULT_OPS[:7])
    if report.failures:
        return 1, []
    return 1, ["negative control: journal_checksums=False explored %d states "
               "and reported no violation" % report.states_checked]
