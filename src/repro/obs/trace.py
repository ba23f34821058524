"""The cross-layer trace spine: per-request spans in a bounded ring.

Every syscall (and every writeback batch) opens one :class:`Span`; the
layers it crosses record enter/exit *virtual* timestamps as phases on
that span (``vfs`` -> ``fs`` -> ``writeback``/``nvmm``).  Completed
spans land in a bounded :class:`TraceRing` -- old spans are evicted,
never allocated without bound -- and can be exported as Chrome
trace-event JSON (`chrome://tracing` / Perfetto's ``legacy`` loader).

This replaces the scattered per-syscall accounting call sites with ONE
instrumentation point: :meth:`repro.engine.context.ExecContext.span`
closes the span, feeds :meth:`SimStats.add_layer_time` per phase, and
records it here, so the exported per-layer durations sum exactly to the
run's ``SimStats`` totals (``layer_time_ns`` and, for the ``vfs``
layer, ``syscall_time_ns``).
"""

import json
from collections import deque

#: Canonical layer names used by the spine.
LAYER_VFS = "vfs"
LAYER_FS = "fs"
LAYER_WRITEBACK = "writeback"
LAYER_NVMM = "nvmm"
#: Contended virtual-lock waits (see :mod:`repro.engine.locks`).
LAYER_LOCK = "lock"
#: The submission/completion ring (see :mod:`repro.io.ring`): batch
#: submission spans and reaper waits.  Sub-phases break a batched SQE's
#: life down into time queued in the SQ before execution, execution
#: itself, and time the reaper spent blocked on the CQ.
LAYER_RING = "ring"
#: Background integrity scrub passes (see :mod:`repro.fs.scrub`).
LAYER_SCRUB = "scrub"
#: Per-tenant QoS at the dispatch boundary (see :mod:`repro.fs.qos`):
#: token-bucket throttle waits and admission-control backpressure.
LAYER_QOS = "qos"
#: The library-mode mmap data plane (see :mod:`repro.io.mmio`):
#: zero-syscall load/store/msync spans and their epoch-log appends.
LAYER_MMIO = "mmio"
RING_SQ_WAIT = "ring.sq_wait"
RING_IN_FLIGHT = "ring.in_flight"
RING_CQ_WAIT = "ring.cq_wait"


class Span:
    """One request's (or writeback batch's) journey through the stack."""

    __slots__ = ("req_id", "name", "layer", "thread", "start_ns", "end_ns",
                 "phases", "meta")

    def __init__(self, req_id, name, thread, start_ns, layer=LAYER_VFS,
                 meta=None):
        self.req_id = req_id
        self.name = name
        #: Layer the span's own duration is accounted under.
        self.layer = layer
        self.thread = thread
        self.start_ns = start_ns
        self.end_ns = None
        #: Sub-layer visits: ``(layer, enter_ns, exit_ns)`` in entry order.
        self.phases = []
        #: Free-form annotations exported into the Chrome event ``args``
        #: (e.g. the request ids a writeback batch flushed).
        self.meta = meta

    def add_phase(self, layer, enter_ns, exit_ns):
        self.phases.append((layer, enter_ns, exit_ns))

    def close(self, end_ns):
        self.end_ns = end_ns

    @property
    def duration_ns(self):
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def layer_totals(self):
        """``{layer: ns}`` for this span: its own duration under
        ``self.layer`` plus every recorded sub-phase."""
        totals = {self.layer: self.duration_ns}
        for layer, enter_ns, exit_ns in self.phases:
            totals[layer] = totals.get(layer, 0) + (exit_ns - enter_ns)
        return totals

    def __repr__(self):
        return "Span(#%d %s/%s %d..%s, %d phases)" % (
            self.req_id, self.layer, self.name, self.start_ns,
            self.end_ns, len(self.phases),
        )


class TraceRing:
    """Bounded ring buffer of completed spans."""

    def __init__(self, capacity=4096, layers=None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._spans = deque(maxlen=capacity)
        #: Layers this ring accepts spans for; ``None`` = all.  Spans of
        #: a filtered-out layer take the instrumentation point's disabled
        #: fast path: no allocation, no ring traffic.
        self.enabled_layers = frozenset(layers) if layers is not None else None
        #: Spans recorded / evicted over the ring's lifetime.
        self.recorded = 0
        self.dropped = 0

    def __len__(self):
        return len(self._spans)

    def wants(self, layer):
        """Whether spans of ``layer`` should be materialised at all."""
        enabled = self.enabled_layers
        return enabled is None or layer in enabled

    def begin(self, name, thread, start_ns, req_id, layer=LAYER_VFS,
              meta=None):
        """Open a span.  Allocation only -- nothing is stored until the
        span completes and is handed back via :meth:`record`."""
        return Span(req_id, name, thread, start_ns, layer=layer, meta=meta)

    def record(self, span):
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        self.recorded += 1

    def spans(self):
        """Completed spans, oldest first."""
        return list(self._spans)


# -- Chrome trace-event export ------------------------------------------------


def chrome_trace_events(spans):
    """Flatten spans into Chrome trace-event dicts (``ph: "X"``).

    One complete event per span (cat = the span's own layer) plus one per
    recorded sub-phase (cat = the phase's layer).  Timestamps are
    microseconds as the format requires; the exact nanosecond duration is
    preserved in ``args.dur_ns`` so tooling can verify, without rounding
    error, that per-layer durations sum to the ``SimStats`` totals.
    """
    events = []
    tids = {}
    for span in spans:
        tid = tids.setdefault(span.thread, len(tids) + 1)
        args = {"req_id": span.req_id, "dur_ns": span.duration_ns}
        if span.meta:
            args.update(span.meta)
        events.append({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": span.start_ns / 1e3,
            "dur": span.duration_ns / 1e3,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
        for layer, enter_ns, exit_ns in span.phases:
            events.append({
                "name": layer,
                "cat": layer,
                "ph": "X",
                "ts": enter_ns / 1e3,
                "dur": (exit_ns - enter_ns) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"req_id": span.req_id,
                         "dur_ns": exit_ns - enter_ns},
            })
    for thread, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": thread},
        })
    return events


def chrome_trace(spans):
    """The full Chrome trace-event JSON object for ``spans``."""
    return {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ns",
        "otherData": {"clock": "virtual-ns", "source": "repro.obs.trace"},
    }


def dump_chrome_trace(spans, fileobj):
    json.dump(chrome_trace(spans), fileobj, indent=1)


def layer_duration_sums(events):
    """``{layer: ns}`` summed over exported events -- the verification
    half of the trace contract (compare against ``stats.layer_time_ns``)."""
    sums = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        cat = event["cat"]
        sums[cat] = sums.get(cat, 0) + event["args"]["dur_ns"]
    return sums
