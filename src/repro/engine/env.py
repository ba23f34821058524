"""Simulation environment: the bag of shared state for one run.

A :class:`SimEnv` owns the statistics sink, the background-task registry,
and any named timed resources (the NVMM device registers its writer-slot
pool here).  Devices, file systems, workloads, and the scheduler all hang
off one environment, so constructing a fresh ``SimEnv`` gives a fully
isolated, reproducible run.
"""

import itertools
from typing import TYPE_CHECKING, Optional

from repro.engine.background import BackgroundRegistry
from repro.engine.errors import SimulationError
from repro.engine.resources import FCFSServers
from repro.engine.stats import SimStats

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan


class SimEnv:
    """Shared state for one simulation run."""

    #: The run's :class:`repro.faults.plan.FaultPlan` once one is
    #: attached (its constructor assigns this), else None: every
    #: injection site tests it first, so a run without a plan pays one
    #: attribute read per site.
    faults: Optional["FaultPlan"]

    def __init__(self):
        self.stats = SimStats()
        self.background = BackgroundRegistry()
        self._resources = {}
        #: Monotonic id source for :class:`repro.io.IORequest` objects.
        self._req_ids = itertools.count(1)
        #: Trace spine (:class:`repro.obs.trace.TraceRing`) when tracing
        #: is enabled, else None -- the data path checks this once per
        #: request, so the default costs nothing.
        self.trace = None
        self.faults = None

    def next_req_id(self):
        """Allocate the next request id (unique within this run)."""
        return next(self._req_ids)

    def enable_tracing(self, capacity=4096, layers=None):
        """Attach a bounded trace ring; returns it.

        Idempotent: a second call with the *same* ``capacity`` and
        ``layers`` returns the existing ring untouched -- spans already
        recorded survive, so two layers can both call this defensively
        without one silently discarding the other's history.  A call
        with a *different* configuration is an explicit reset: the old
        ring (and its spans) is replaced by a fresh one.

        ``layers`` restricts the ring to a subset of span layers --
        spans of other layers skip allocation entirely (the
        disabled-layer fast path).
        """
        from repro.obs.trace import TraceRing

        wanted = frozenset(layers) if layers is not None else None
        ring = self.trace
        if (ring is not None and ring.capacity == capacity
                and ring.enabled_layers == wanted):
            return ring
        self.trace = TraceRing(capacity, layers=layers)
        return self.trace

    def quiesce(self):
        """Rewind timed resources and background timelines to idle t=0.

        Benchmark runners call this between the free pre-allocation
        phase and the measured run (after unmount/drop_caches, so
        nothing holds in-flight state): pre-allocating a fileset larger
        than the DRAM buffer makes the background flushers book NVMM
        writer-slot time at the head of the timeline, and without this
        the measured run starts queued behind its own setup.
        """
        for resource in self._resources.values():
            resource.reset()
        self.background.quiesce()

    def add_resource(self, name, capacity):
        if name in self._resources:
            raise SimulationError("resource %r already registered" % name)
        resource = FCFSServers(capacity, name=name)
        self._resources[name] = resource
        return resource

    def resource(self, name):
        try:
            return self._resources[name]
        except KeyError:
            raise SimulationError("unknown resource %r" % name) from None

    def has_resource(self, name):
        return name in self._resources

    def resources(self):
        """Snapshot of the named-resource table (name -> FCFSServers).

        Benchmarks use this to cross-check per-device slot ledgers
        against the resource pools' own grant counters without poking at
        the private dict."""
        return dict(self._resources)
