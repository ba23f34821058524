"""Discrete-event simulation engine underlying the HiNFS reproduction.

The paper evaluates HiNFS on real hardware with a software NVMM emulator
(DRAM plus an injected per-``clflush`` delay, and a writer-concurrency cap
for bandwidth).  This package provides the virtual-time equivalent:

- :mod:`repro.engine.clock` -- virtual-time units (``format_ns``, ``NS_PER_*``).
- :mod:`repro.engine.context` -- execution contexts that charge simulated
  time to the simulated thread performing an operation.
- :mod:`repro.engine.resources` -- FCFS multi-server timed resources used
  to model the NVMM write-bandwidth cap (the paper's ``N_w`` writer slots).
- :mod:`repro.engine.thread` / :mod:`repro.engine.scheduler` -- simulated
  foreground threads and a min-clock-first scheduler.
- :mod:`repro.engine.background` -- lazily-advanced background timelines
  (HiNFS's writeback threads live here).
- :mod:`repro.engine.locks` -- virtual-time mutexes and reader/writer
  locks; contended acquisition advances the waiter's clock to the
  release point (per-inode VFS locking is built on these).
- :mod:`repro.engine.stats` -- counters and time breakdowns that feed the
  paper's figures.
"""

from repro.engine.background import BackgroundRegistry, BackgroundTask
from repro.engine.clock import NS_PER_SEC, format_ns
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.engine.errors import DeadlockError, SimulationError, ThreadDiagnostic
from repro.engine.locks import InodeLockTable, VMutex, VRWLock
from repro.engine.resources import FCFSServers
from repro.engine.scheduler import Scheduler
from repro.engine.stats import SimStats, TimeBreakdown
from repro.engine.thread import SimThread

__all__ = [
    "NS_PER_SEC",
    "BackgroundRegistry",
    "BackgroundTask",
    "DeadlockError",
    "ExecContext",
    "FCFSServers",
    "InodeLockTable",
    "Scheduler",
    "SimEnv",
    "SimStats",
    "SimThread",
    "SimulationError",
    "ThreadDiagnostic",
    "TimeBreakdown",
    "VMutex",
    "VRWLock",
    "format_ns",
]
