"""The central cost model for the reproduction.

Every tunable the paper sweeps or fixes lives here:

- Table 2 fixes the emulated NVMM write latency at 200 ns and the write
  bandwidth at 1 GB/s (about 1/8 of DRAM bandwidth).
- Figure 11 sweeps the write latency from 50 ns to 800 ns.
- Section 5.1 models bandwidth by capping concurrent NVMM writers at
  ``N_w = B_nvmm * L_nvmm`` (Little's law applied to cacheline flushes).

Software-path costs (syscall entry, VFS file abstraction, the generic
block layer, page-cache management) are calibrated so that the Figure 1
breakdown fractions match the paper: with 1 read : 2 writes, the direct
write access accounts for over 80 % of time at I/O sizes >= 4 KB and
roughly 16 % at 64 B.
"""

import dataclasses

CACHELINE_SIZE = 64
BLOCK_SIZE = 4096
LINES_PER_BLOCK = BLOCK_SIZE // CACHELINE_SIZE


def lines_spanned(nbytes, offset=0):
    """Number of cachelines touched by ``nbytes`` starting at ``offset``."""
    if nbytes <= 0:
        return 0
    first = offset // CACHELINE_SIZE
    last = (offset + nbytes - 1) // CACHELINE_SIZE
    return last - first + 1


@dataclasses.dataclass(frozen=True)
class NVMMConfig:
    """All timing knobs, in nanoseconds and bytes-per-nanosecond."""

    # --- media (Table 2 defaults) ---------------------------------------
    #: Extra latency per flushed cacheline when persisting to NVMM.
    nvmm_write_latency_ns: int = 200
    #: Sustained aggregate NVMM write bandwidth, bytes per second.
    nvmm_write_bandwidth_bps: int = 1_000_000_000
    #: DRAM (and NVMM-load) copy speed, bytes per nanosecond (~8 GB/s).
    dram_bandwidth_bpns: float = 8.0
    #: Fixed DRAM access latency charged once per copy operation.
    dram_access_ns: int = 30
    #: Cost of an mfence / ordering point.
    fence_ns: int = 20

    # --- media fault handling ---------------------------------------------
    #: Persist retries attempted on a transiently-failing cacheline before
    #: the device gives up and marks the line permanently bad.
    media_retry_limit: int = 3
    #: Virtual-time backoff before the first persist retry; doubles on
    #: each subsequent attempt.
    media_retry_backoff_ns: int = 1_000

    # --- software paths ---------------------------------------------------
    #: User/kernel mode switch per syscall.
    syscall_ns: int = 350
    #: File abstraction work per syscall (fd lookup, inode locking, ...).
    vfs_op_ns: int = 250
    #: Flat per-index-lookup cost per touched block (stands in for a
    #: B-tree/radix descent; the simulator's indexes are dicts).
    index_lookup_ns: int = 60
    #: Generic block layer + driver cost per block I/O request.
    block_layer_ns: int = 2_000
    #: Page-cache lookup/insert cost per page.
    page_cache_op_ns: int = 120

    # --- derived ---------------------------------------------------------

    @property
    def nvmm_writer_slots(self):
        """The paper's ``N_w``: concurrent NVMM writers the bandwidth allows.

        A single writer streams one cacheline per ``L_nvmm``, i.e.
        ``64 B / L`` bytes per second; the configured bandwidth divided by
        that per-writer rate gives the slot count.

        Each *resource domain* gets its own ``N_w``-slot pool: a sharded
        mount over M devices constructed with distinct ``domain`` names
        owns M independent pools (aggregate bandwidth scales with device
        count), while devices sharing the default domain share one pool
        as before.
        """
        per_writer_bps = CACHELINE_SIZE * 1e9 / self.nvmm_write_latency_ns
        slots = round(self.nvmm_write_bandwidth_bps / per_writer_bps)
        return max(1, slots)

    # --- cost helpers ----------------------------------------------------

    def load_cost_ns(self, nbytes):
        """Cost of loading ``nbytes`` from DRAM *or* NVMM (paper: equal)."""
        if nbytes <= 0:
            return 0
        return self.dram_access_ns + int(nbytes / self.dram_bandwidth_bpns)

    def dram_store_cost_ns(self, nbytes):
        """Cost of storing ``nbytes`` to DRAM (or into the CPU cache)."""
        if nbytes <= 0:
            return 0
        return self.dram_access_ns + int(nbytes / self.dram_bandwidth_bpns)

    def nvmm_persist_cost_ns(self, nlines):
        """Occupancy of one writer slot while persisting ``nlines`` lines."""
        if nlines <= 0:
            return 0
        return nlines * self.nvmm_write_latency_ns

    def replace(self, **kwargs):
        """A copy of the config with some knobs overridden (for sweeps)."""
        return dataclasses.replace(self, **kwargs)
