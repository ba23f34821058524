"""HiNFS: the paper's contribution.

HiNFS buffers *lazy-persistent* file writes in DRAM to hide NVMM's long
write latency, while keeping *reads* and *eager-persistent* writes on the
direct single-copy path to avoid double-copy overheads:

- :mod:`repro.core.bitmap` -- the Cacheline Bitmap tracking which lines
  of a buffered block are valid in DRAM and which are dirty (Section
  3.2.1, CLFW).
- :mod:`repro.core.buffer` -- the DRAM write buffer (allocation,
  Low_f/High_f watermarks) and its per-file DRAM Block Index: Figure 5's
  B-tree, kept as a dict, since a lookup costs a flat charge and callers
  need only ascending offsets.
- :mod:`repro.core.policies` -- the victim order: the global
  Least-Recently-Written list, or LFU/2Q/ARC.
- :mod:`repro.core.benefit` -- the Buffer Benefit Model with its ghost
  buffer (Section 3.3.2) deciding eager- vs lazy-persistent block states.
- :mod:`repro.core.writeback` -- the background writeback timeline
  (5-second periodic wakeups, Low_f pressure flushes, 30-second age
  flushes), its batches spread over the NVMM writer slots.
- :mod:`repro.core.hinfs` -- the file system itself; the paper's
  ablation variants HiNFS-NCLFW (no cacheline-level fetch/writeback) and
  HiNFS-WB (no eager-persistent write checker) are
  :class:`~repro.core.config.HiNFSConfig` switches.
"""

from repro.core.config import HiNFSConfig
from repro.core.hinfs import HiNFS

__all__ = ["HiNFS", "HiNFSConfig"]
