"""HiNFS tunables, with the paper's defaults.

Section 3.2: ``Low_f`` = 5 % free blocks wakes the writeback threads,
which reclaim until ``High_f`` = 20 % are free, then keep flushing any
dirty block older than 30 seconds; an independent periodic wakeup fires
every 5 seconds.  Section 3.3.2: a block in the Eager-Persistent state
reverts to Lazy-Persistent after 5 seconds without a synchronization.
"""

import dataclasses

from repro.engine.clock import NS_PER_SEC


@dataclasses.dataclass(frozen=True)
class HiNFSConfig:
    #: DRAM write-buffer capacity in bytes (the paper mounts with 2 GB for
    #: microbenchmarks and workload-size fractions for trace replay).
    buffer_bytes: int = 64 << 20
    #: Wake writeback when free blocks fall below this fraction.
    low_watermark: float = 0.05
    #: Writeback reclaims until this fraction of blocks is free.
    high_watermark: float = 0.20
    #: Periodic writeback wakeup interval.
    periodic_interval_ns: int = 5 * NS_PER_SEC
    #: Age beyond which dirty blocks are flushed by the periodic scan.
    dirty_age_ns: int = 30 * NS_PER_SEC
    #: Eager-Persistent blocks revert to Lazy after this long with no sync.
    eager_reset_ns: int = 5 * NS_PER_SEC
    #: Cacheline-Level Fetch/Writeback; off = the HiNFS-NCLFW ablation.
    enable_clfw: bool = True
    #: The Eager-Persistent Write Checker; off = the HiNFS-WB ablation.
    enable_eager_checker: bool = True
    #: Number of buffer blocks reclaimed per demand-flush batch.
    reclaim_batch: int = 16
    #: Buffer replacement policy: "lrw" (the paper's default), or the
    #: alternatives the paper defers to future work: "lfu", "arc", "2q".
    replacement_policy: str = "lrw"

    def replace(self, **kwargs):
        return dataclasses.replace(self, **kwargs)

    @property
    def buffer_blocks(self):
        return max(8, self.buffer_bytes // 4096)

    @property
    def low_blocks(self):
        return max(1, int(self.buffer_blocks * self.low_watermark))

    @property
    def high_blocks(self):
        return max(2, int(self.buffer_blocks * self.high_watermark))
