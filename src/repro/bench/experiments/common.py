"""Shared scale presets for the experiments.

The paper runs 60-second filebench rounds against 5 GB filesets on a
16 GB machine.  A pure-Python simulation reproduces the *shapes* at a
fraction of that scale; these presets keep every experiment's
device : cache : buffer : fileset ratios equal to the paper's, scaled
down, and let the benchmark suite pick how long to run.
"""

import dataclasses

from repro.bench.runner import run_workload
from repro.core.config import HiNFSConfig
from repro.nvmm.config import NVMMConfig
from repro.workloads.filebench import PERSONALITIES


@dataclasses.dataclass(frozen=True)
class Scale:
    """Knobs shared by every experiment."""

    name: str
    device_size: int
    #: HiNFS DRAM write-buffer size (the paper: 2 GB against 5 GB data).
    buffer_bytes: int
    #: Page-cache pages for the NVMMBD baselines (paper: 3 GB memory).
    cache_pages: int
    #: Simulated run length for throughput experiments.
    duration_ns: int
    #: Filebench fileset size per thread.
    files_per_thread: int
    threads: int
    #: Trace length / macro transaction counts.
    trace_ops: int

    def hinfs_config(self, **overrides):
        overrides.setdefault("buffer_bytes", self.buffer_bytes)
        return HiNFSConfig(**overrides)

    def nvmm_config(self, **overrides):
        return NVMMConfig().replace(**overrides) if overrides else NVMMConfig()

    def run(self, fs_name, workload, **overrides):
        """:func:`run_workload` with the device, page cache and HiNFS
        buffer sized by this scale; ``overrides`` win."""
        kwargs = dict(device_size=self.device_size,
                      cache_pages=self.cache_pages,
                      hinfs_config=self.hinfs_config())
        kwargs.update(overrides)
        return run_workload(fs_name, workload, **kwargs)

    def personality(self, name, threads=None, **fileset_overrides):
        """The filebench personality ``name`` at this scale, bounded by
        the run's deadline rather than its op count; ``threads`` and the
        fileset knobs default to the scale's."""
        kwargs = personality_kwargs(self, name)
        kwargs.update(fileset_overrides)
        return PERSONALITIES[name](
            threads=self.threads if threads is None else threads,
            duration_ops=100_000, **kwargs)


#: Fast preset used by the test suite and default benchmarks.
SMALL = Scale(
    name="small",
    device_size=192 << 20,
    buffer_bytes=8 << 20,
    cache_pages=2048,
    duration_ns=300_000_000,
    files_per_thread=80,
    threads=2,
    trace_ops=2500,
)

#: Closer-to-paper preset (slower; used for the recorded EXPERIMENTS.md).
MEDIUM = Scale(
    name="medium",
    device_size=384 << 20,
    buffer_bytes=16 << 20,
    cache_pages=4096,
    duration_ns=600_000_000,
    files_per_thread=120,
    threads=4,
    trace_ops=4000,
)

SCALES = {"small": SMALL, "medium": MEDIUM}


def personality_kwargs(scale, personality):
    """Per-personality fileset knobs at a given scale (mirrors the
    filebench defaults' relative shapes)."""
    if personality == "fileserver":
        return dict(files_per_thread=scale.files_per_thread,
                    mean_file_size=64 << 10, io_size=64 << 10)
    if personality == "webserver":
        return dict(files_per_thread=int(scale.files_per_thread * 1.5),
                    mean_file_size=128 << 10, io_size=128 << 10)
    if personality == "webproxy":
        return dict(files_per_thread=scale.files_per_thread)
    if personality == "varmail":
        return dict(files_per_thread=scale.files_per_thread)
    raise ValueError(personality)
