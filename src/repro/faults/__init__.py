"""Deterministic fault injection for the simulated NVMM storage stack.

Cooperating pieces:

- :mod:`repro.faults.media` -- a seeded registry of bad / transiently
  failing NVMM cachelines, attached to :class:`repro.nvmm.device.NVMMDevice`;
  poisoned lines fail reads and persists with EIO
  (:class:`repro.fs.errors.MediaError`).
- :mod:`repro.faults.policy` -- :class:`RetryPolicy`, seeded
  exponential backoff with jitter, a bounded attempt budget, and a
  circuit breaker; the device's transient-persist loop and the tenant
  client's shed retries use it.  A media error is retried once, at the
  device: above it, an EIO is reported, never retried.
- :mod:`repro.faults.errseq` -- Linux ``errseq_t``-style tracking so an
  asynchronous writeback failure is reported by the *next* fsync/close of
  the file, exactly once per file descriptor.
- :mod:`repro.faults.crashpoints` -- the one CrashMonkey-style
  crash-state explorer: it records every persist event and flush/fence
  boundary of an operation sequence on any PMFS-layout stack, sharded
  (``"pmfs@2"``) or not, reconstructs the NVMM image a power failure
  would leave at each point (plus sampled uncontrolled-eviction subsets
  and torn lines where only some 8-byte words of a dirty cacheline
  persist), then replays recovery and checks file-system invariants.
- :mod:`repro.faults.model` -- the reference model of the namespace and
  file bytes, with what fsync, ``O_SYNC`` and msync promised durable:
  each recovered crash state must refine one of its states, and the
  differential oracle checks every stack's syscalls against it.
- :mod:`repro.faults.plan` -- the one :class:`FaultPlan` of named
  injection sites an environment carries (``env.faults``): fail the
  writeback of the blocks one :class:`repro.io.IORequest` wrote, the Nth
  SQE a ring executes, a mapping's load/store/msync/log append, or cut
  power (:class:`PowerCut`) after an SQE or at a step of the cross-shard
  rename protocol.
- :mod:`repro.faults.chaos` -- seeded chaos campaigns that combine all of
  the above against a live stack and prove recovery: scrub repairs or
  isolates every fault, the mount-health FSM returns to HEALTHY, and a
  differential oracle shows zero silent divergence.
"""

from repro.faults.chaos import ChaosCampaign, run_campaign
from repro.faults.errseq import ErrseqMap
from repro.faults.media import MediaFaultModel
from repro.faults.plan import FaultPlan, PowerCut
from repro.faults.policy import RetryPolicy

__all__ = ["ChaosCampaign", "ErrseqMap", "FaultPlan", "MediaFaultModel",
           "PowerCut", "RetryPolicy", "run_campaign"]
