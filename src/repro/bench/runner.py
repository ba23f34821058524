"""Builds file-system stacks and runs workloads on simulated threads."""

from repro.engine.env import SimEnv
from repro.engine.scheduler import Scheduler
from repro.engine.stats import SimStats
from repro.fs import STACKS, fs_class, make_fs
from repro.fs.vfs import VFS
from repro.nvmm.config import NVMMConfig
from repro.nvmm.device import NVMMDevice
from repro.workloads.base import prepare_context

#: The paper's comparison set (Table 3) plus HiNFS and its ablations.
FS_NAMES = tuple(STACKS)


class RunResult:
    """Everything measured in one workload run."""

    def __init__(self, fs_name, workload_name, ops, elapsed_ns, stats, fs=None,
                 trace=None, op_latencies_ns=None):
        self.fs_name = fs_name
        self.workload_name = workload_name
        self.ops = ops
        self.elapsed_ns = elapsed_ns
        self.stats = stats
        #: The live file-system object (model-accuracy introspection).
        self.fs = fs
        #: The :class:`~repro.obs.trace.TraceRing` of the measured run
        #: (None unless ``run_workload(..., trace_capacity=...)``).
        self.trace = trace
        #: Per-op virtual latency samples across all threads (None unless
        #: ``run_workload(..., record_latencies=True)``); feed these to
        #: :func:`repro.engine.stats.percentiles` for exact tail numbers.
        self.op_latencies_ns = op_latencies_ns

    @property
    def fsync_byte_fraction(self):
        """Fraction of written bytes later covered by an fsync (Fig. 2)."""
        written = self.stats.count("app_bytes_written")
        if written == 0:
            return 0.0
        return self.stats.count("app_bytes_fsynced") / written

    @property
    def throughput(self):
        """Operations per simulated second."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.ops * 1e9 / self.elapsed_ns

    @property
    def nvmm_bytes_written(self):
        return self.stats.bytes_written_nvmm

    def __repr__(self):
        return "RunResult(%s/%s: %.0f ops/s, %.3f ms)" % (
            self.fs_name,
            self.workload_name,
            self.throughput,
            self.elapsed_ns / 1e6,
        )


def build_stack(env, fs_name, config, device_size, hinfs_config=None,
                cache_pages=None, sync_mount=False):
    """Construct (fs, vfs) for any comparison file system.

    A ``base@M`` name (e.g. ``hinfs@4``) builds a sharded mount: M
    independent NVMM devices, each in its own resource domain, behind
    one :class:`~repro.fs.shard.ShardedFS` and the unchanged VFS.
    ``device_size`` is then per device.
    """
    base, sep, nshards = fs_name.partition("@")
    if sep:
        from repro.fs.shard import build_sharded

        fs = build_sharded(env, base, config, device_size,
                           hinfs_config=hinfs_config, nshards=int(nshards))
    elif fs_name in ("ext2-nvmmbd", "ext4-nvmmbd"):
        # The block stacks own their NVMMBD device and a page cache.
        if cache_pages is None:
            # The paper gives them 3 GB of page cache next to a 5 GB
            # dataset; scale the same ratio to the device size.
            cache_pages = max(64, int(device_size * 0.6) // 4096)
        fs = fs_class(fs_name)(env, config, device_size,
                               cache_pages=cache_pages)
    else:
        fs = make_fs(env, fs_name, NVMMDevice(env, config, device_size),
                     config, hinfs_config)
    vfs = VFS(env, fs, config, sync_mount=sync_mount)
    return fs, vfs


def run_workload(fs_name, workload, config=None, device_size=96 << 20,
                 hinfs_config=None, cache_pages=None, duration_ns=None,
                 sync_mount=False, unmount=False, trace_capacity=None,
                 setup=None, record_latencies=False):
    """Run ``workload`` on ``fs_name``; returns a :class:`RunResult`.

    The fileset is pre-allocated under a free context (filebench-style);
    statistics are reset afterwards so only the measured run counts.
    ``duration_ns`` stops the run at a simulated-time deadline (the
    paper's 60-second filebench runs); without it the workload runs to
    completion (trace replay, macrobenchmarks).  ``trace_capacity``
    turns on the request-span trace ring for the measured phase only, so
    the exported spans and the run's stats describe the same requests.
    ``setup(env, fs, vfs)`` runs after the stats reset and before the
    measured threads spawn -- the hook QoS attachment uses.  With
    ``record_latencies`` every thread samples its per-op virtual
    latencies (see :attr:`RunResult.op_latencies_ns`).
    """
    config = config or NVMMConfig()
    env = SimEnv()
    fs, vfs = build_stack(env, fs_name, config, device_size,
                          hinfs_config=hinfs_config, cache_pages=cache_pages,
                          sync_mount=sync_mount)
    pctx = prepare_context(env)
    workload.prepare(vfs, pctx)
    fs.unmount(pctx)  # settle the fileset, like the paper's fresh mount
    fs.drop_caches()  # and clear the OS page cache before measuring
    env.quiesce()  # idle device + background timelines at t=0
    vfs.reset_accounting()
    env.stats = SimStats()  # measurement starts now
    if setup is not None:
        setup(env, fs, vfs)
    if trace_capacity:
        # After the stats reset, so span totals match stats.layer_time_ns.
        env.enable_tracing(trace_capacity)
    scheduler = Scheduler(env)
    for tid in range(workload.threads):
        scheduler.spawn("%s-%d" % (workload.name, tid),
                        workload.make_thread_body(vfs, tid),
                        record_latencies=record_latencies)
    elapsed = scheduler.run(until_ns=duration_ns)
    if duration_ns is not None:
        elapsed = max(elapsed, 1)
        elapsed = min(elapsed, max(t.now for t in scheduler.threads))
    if unmount:
        # Charge the final flush to the slowest thread's context.
        slowest = max(scheduler.threads, key=lambda t: t.now)
        vfs.unmount(slowest.ctx)
        elapsed = slowest.now
    return RunResult(fs_name, workload.name, env.stats.ops_completed,
                     elapsed, env.stats, fs=fs, trace=env.trace,
                     op_latencies_ns=(scheduler.op_latencies_ns()
                                      if record_latencies else None))
