"""fio op stream issued through library-mode MAP_ATOMIC mappings.

:class:`MmapFioWorkload` issues the :class:`~repro.workloads.fio.
FioWorkload` op stream (same seed, same RNG key, hence the same
offsets, read:write mix and sync pacing) through an
:class:`~repro.io.mmio.MmioMapping` instead of syscalls: reads become
``load``, writes become ``store``, and the fsync pacing becomes
``msync`` epoch commits.  Once the mappings exist, the measured phase
performs **zero syscalls** -- the three-way bench (``hinfs-bench
mmap``) charges its steady state not a single ``T_syscall``.

The mappings are created by :meth:`MmapFioWorkload.attach`, designed to
be passed as ``run_workload(..., setup=workload.attach)``: it runs
after the stats reset under a free context and resolves inodes below
the VFS, so the measured ledger starts -- and stays -- empty.
"""

import random

from repro.fs.base import ROOT_INO
from repro.workloads.base import payload, prepare_context
from repro.workloads.fio import FioWorkload


class MmapFioWorkload(FioWorkload):
    """Random mixed I/O through an atomic mapping (zero syscalls)."""

    name = "fio-mmap"

    def __init__(self, policy="auto", log_blocks=8, **kwargs):
        super().__init__(**kwargs)
        self.policy = policy
        self.log_blocks = int(log_blocks)
        #: thread id -> MmioMapping, populated by :meth:`attach`.
        self.mappings = {}

    def rng(self, stream=0):
        """Mirror FioWorkload's stream exactly: same seed, same name
        key, so the sync and mmap legs execute identical op sequences
        and differ only in how each op enters the file system."""
        return random.Random("%s:%s:%s" % (FioWorkload.name, self.seed,
                                           stream))

    def attach(self, env, fs, vfs):
        """Create one ``MAP_ATOMIC`` mapping per thread (setup hook).

        Runs under a free context and resolves paths below the VFS:
        nothing here charges time, draws a syscall span, or leaves even
        a zero-valued entry in ``stats.syscall_time_ns``.
        """
        ctx = prepare_context(env)
        maps = env.stats.count("mmio_maps")
        for tid in range(self.threads):
            ino = fs.lookup(ctx, ROOT_INO, self.path(tid).lstrip("/"))
            self.mappings[tid] = fs.mmap(ctx, ino, self.policy,
                                         self.log_blocks)
        # Setup must not pollute the measured counters either.
        env.stats.counters["mmio_maps"] = maps

    def make_thread_body(self, vfs, thread_id):
        chunk = payload(self.io_size, tag=thread_id + 1)
        mapping = self.mappings[thread_id]

        def body(ctx):
            for offset, is_read, sync_due in self.ops(thread_id):
                if is_read:
                    mapping.load(ctx, offset, self.io_size)
                else:
                    mapping.store(ctx, offset, chunk)
                if sync_due:
                    mapping.msync(ctx)
                yield
            # Leave the mapping live: teardown is not part of the
            # measured steady state (munmap would be one final commit).

        return body


__all__ = ["MmapFioWorkload"]
