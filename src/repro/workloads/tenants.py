"""Multi-tenant serving harness: hundreds of virtual-thread tenants.

The north-star workload shape -- "heavy traffic from millions of users"
-- scaled down to a simulable fleet: each tenant is one
:class:`~repro.engine.thread.SimThread` with its own namespace
(``/tNNNN/data``), its own seeded op stream, and one of three arrival
processes:

- **closed-loop** (``MODE_CLOSED``): issue, wait ``think_ns``, repeat --
  the classic benchmark client, self-throttling under load.
- **open-loop** (``MODE_OPEN``): arrivals on a fixed virtual-time
  schedule regardless of completions; latency is measured from the
  *scheduled* arrival (queue-inclusive), which is what makes overload
  collapse visible instead of self-hiding.
- **bursty** (``MODE_BURST``): open-loop with Markov on/off modulation
  -- after each op the source flips off with probability ``off_prob``
  (geometric on-period lengths) and stays off for a seeded
  exponentially-distributed gap, then resumes the schedule.

Every data op is a tenant-tagged SQE through the submission ring, so the
QoS layer (:mod:`repro.fs.qos`) sees and bills the right tenant.  When
the admission controller sheds an op with EAGAIN
(:class:`~repro.fs.errors.TryAgain`), the client retries it through a
per-tenant :class:`~repro.faults.policy.RetryPolicy` -- seeded
exponential backoff, bounded budget, circuit breaker -- and counts a
*drop* when the budget (or breaker) gives out.  Latency samples cover
admitted ops only; shed work shows up as drops, not as latency.
"""

from repro.engine.stats import percentiles
from repro.faults.policy import RetryPolicy
from repro.fs import flags as f
from repro.fs.errors import TryAgain
from repro.fs.qos import PRIO_BRONZE, PRIO_GOLD, PRIO_SILVER, PRIORITY_NAMES
from repro.io import ring as uring
from repro.workloads.base import Workload, payload

MODE_CLOSED = "closed"
MODE_OPEN = "open"
MODE_BURST = "burst"

#: Percentile set every tenant/class report uses (tail-latency SLOs).
LATENCY_PS = (50, 99, 99.9)


class TenantSpec:
    """Static description of one tenant's class and arrival process."""

    __slots__ = ("tenant_id", "weight", "priority", "mode", "ops",
                 "io_size", "read_fraction", "think_ns", "interval_ns",
                 "off_prob", "off_mean_ns", "sync", "batch")

    def __init__(self, tenant_id, weight=1, priority=PRIO_SILVER,
                 mode=MODE_CLOSED, ops=40, io_size=4096, read_fraction=0.5,
                 think_ns=200_000, interval_ns=250_000, off_prob=0.1,
                 off_mean_ns=2_000_000, sync=False, batch=1):
        self.tenant_id = int(tenant_id)
        self.weight = int(weight)
        self.priority = priority
        self.mode = mode
        self.ops = int(ops)
        self.io_size = int(io_size)
        self.read_fraction = float(read_fraction)
        self.think_ns = int(think_ns)
        self.interval_ns = int(interval_ns)
        #: MODE_BURST: chance of flipping off after an op (geometric
        #: on-period of mean ``1/off_prob`` ops) ...
        self.off_prob = float(off_prob)
        #: ... and the mean of the seeded-exponential off-period gap.
        self.off_mean_ns = int(off_mean_ns)
        #: Open the tenant's file O_SYNC: every write is eagerly
        #: persistent and occupies NVMM writer-slot time in the
        #: foreground -- the overload experiment's flooder knob.
        self.sync = bool(sync)
        #: Ring submissions coalesce up to ``batch`` SQEs (open/burst
        #: modes only): the client waits until the batch's last op is
        #: *scheduled*, then submits all of them in one ring entry --
        #: the io_uring amortization path, marked ``IOSQE_ASYNC`` so
        #: deferred completions are reaped rather than inlined.  Closed
        #: loops stay batch-of-one (each op gates the next think time).
        self.batch = max(1, int(batch))

    def __repr__(self):
        return "TenantSpec(#%d %s w=%d %s ops=%d)" % (
            self.tenant_id, PRIORITY_NAMES.get(self.priority, self.priority),
            self.weight, self.mode, self.ops,
        )


class TenantResult:
    """Mutable per-tenant outcome of one run."""

    __slots__ = ("tenant_id", "latencies_ns", "ops_done", "bytes_done",
                 "shed", "dropped")

    def __init__(self, tenant_id):
        self.tenant_id = tenant_id
        #: Queue-inclusive latency of each *admitted* op.
        self.latencies_ns = []
        self.ops_done = 0
        self.bytes_done = 0
        #: EAGAIN rejections observed (each adds one client retry unless
        #: the budget is spent) and ops abandoned after the budget.
        self.shed = 0
        self.dropped = 0


class TenantFleet(Workload):
    """A fleet of tenant threads, one :class:`TenantSpec` each."""

    name = "tenants"

    def __init__(self, specs, file_size=64 << 10, seed=42,
                 retry_max=6, retry_base_ns=50_000):
        super().__init__(seed=seed, threads=len(specs))
        self.specs = list(specs)
        self.file_size = int(file_size)
        self.retry_max = int(retry_max)
        self.retry_base_ns = int(retry_base_ns)
        self.results = {s.tenant_id: TenantResult(s.tenant_id)
                        for s in self.specs}

    # -- fleet construction ------------------------------------------------

    @classmethod
    def mixed(cls, n_tenants, ops=40, io_size=4096, read_fraction=0.5,
              think_ns=200_000, interval_ns=250_000, seed=42, sync=False,
              **kwargs):
        """The standard mixed fleet: a deterministic blend of priority
        classes and arrival modes by tenant index.

        Per 10 tenants: 5 bronze (weight 1), 3 silver (weight 2), 2 gold
        (weight 4); modes cycle closed/open/burst.  ``sync`` opens every
        tenant's file O_SYNC (see :class:`TenantSpec`).
        """
        specs = []
        for tid in range(n_tenants):
            slot = tid % 10
            if slot < 5:
                priority, weight = PRIO_BRONZE, 1
            elif slot < 8:
                priority, weight = PRIO_SILVER, 2
            else:
                priority, weight = PRIO_GOLD, 4
            mode = (MODE_CLOSED, MODE_OPEN, MODE_BURST)[tid % 3]
            specs.append(TenantSpec(
                tid, weight=weight, priority=priority, mode=mode, ops=ops,
                io_size=io_size, read_fraction=read_fraction,
                think_ns=think_ns, interval_ns=interval_ns, sync=sync,
            ))
        return cls(specs, seed=seed, **kwargs)

    def register_all(self, qos):
        """Register every tenant's weight/priority with a QoS controller."""
        for spec in self.specs:
            qos.register(spec.tenant_id, weight=spec.weight,
                         priority=spec.priority)

    # -- namespace / fileset ----------------------------------------------

    @staticmethod
    def dir_path(tenant_id):
        return "/t%04d" % tenant_id

    @classmethod
    def path(cls, tenant_id):
        return cls.dir_path(tenant_id) + "/data"

    def prepare(self, vfs, ctx):
        for spec in self.specs:
            vfs.mkdir(ctx, self.dir_path(spec.tenant_id))
            vfs.write_file(ctx, self.path(spec.tenant_id),
                           payload(self.file_size, tag=spec.tenant_id),
                           chunk=1 << 20)

    # -- the per-tenant thread body ----------------------------------------

    def make_thread_body(self, vfs, thread_id):
        spec = self.specs[thread_id]
        result = self.results[spec.tenant_id]
        rng = self.rng(spec.tenant_id)
        chunk = payload(spec.io_size, tag=spec.tenant_id + 1)
        max_offset = max(1, self.file_size - spec.io_size)
        policy = RetryPolicy(
            max_retries=self.retry_max, base_backoff_ns=self.retry_base_ns,
            multiplier=2.0, jitter_frac=0.25,
            seed="tenant:%d:%d" % (self.seed, spec.tenant_id),
            breaker_threshold=4,
        )
        tenant_kw = {"tenant": spec.tenant_id}

        def make_sqe(fd, flags=0):
            offset = rng.randrange(max_offset)
            if rng.random() < spec.read_fraction:
                return uring.prep_read(fd, spec.io_size, offset, flags=flags,
                                       **tenant_kw)
            return uring.prep_write(fd, chunk, offset, flags=flags,
                                    **tenant_kw)

        def shed_once(ring, sqe):
            """Run one SQE now; True when admission shed it (EAGAIN)."""
            try:
                ring.execute_one(sqe)
            except TryAgain:
                return True
            return False

        def settle(ctx, ring, sqe, scheduled, shed):
            """See one op through after its first attempt: retry while
            admission sheds it (one by one -- admission rejects per op)
            until the budget or the breaker gives out, a drop; then
            account the admitted op."""
            attempt = 0
            while shed:
                result.shed += 1
                attempt += 1
                if policy.circuit_open(ctx.now) or not policy.allows(attempt):
                    policy.record_failure(ctx.now)
                    result.dropped += 1
                    return
                policy.note_retry()
                ctx.charge(policy.backoff_ns(attempt))
                shed = shed_once(ring, sqe)
            policy.record_success()
            # Queue-inclusive for open/burst: time since the op was
            # *scheduled*, not since the client got around to
            # submitting it.
            result.latencies_ns.append(ctx.now - scheduled)
            result.ops_done += 1
            result.bytes_done += spec.io_size

        def batched_body(ctx, ring, fd):
            """Open/burst arrivals coalesced ``spec.batch`` SQEs per ring
            submission: one mode switch per batch, queue-inclusive
            latency still measured from each op's own scheduled time."""
            pending = []
            scheduled = ctx.now
            for i in range(spec.ops):
                if spec.mode == MODE_BURST and rng.random() < spec.off_prob:
                    scheduled += int(rng.expovariate(1.0 / spec.off_mean_ns))
                pending.append((make_sqe(fd, uring.IOSQE_ASYNC), scheduled))
                scheduled += spec.interval_ns
                if len(pending) >= spec.batch or i == spec.ops - 1:
                    if ctx.now < pending[-1][1]:
                        ctx.sync_to(pending[-1][1])
                    cqes = ring.submit_and_wait([s for s, _ in pending])
                    # Only this thread uses the ring, and reads and
                    # writes complete inline: the CQ holds exactly this
                    # batch, in submission order.
                    assert [c.seq for c in cqes] == list(
                        range(cqes[0].seq, cqes[0].seq + len(pending)))
                    for (sqe, sched), cqe in zip(pending, cqes):
                        if cqe.error is not None and \
                                not isinstance(cqe.error, TryAgain):
                            raise cqe.error
                        settle(ctx, ring, sqe, sched, cqe.error is not None)
                    pending = []
                    yield

        def body(ctx):
            flags = f.O_RDWR | (f.O_SYNC if spec.sync else 0)
            fd = vfs.open(ctx, self.path(spec.tenant_id), flags)
            ring = vfs.ring(ctx)
            closed = spec.mode == MODE_CLOSED
            if spec.batch > 1 and not closed:
                yield from batched_body(ctx, ring, fd)
                vfs.close(ctx, fd)
                return
            scheduled = ctx.now
            for _ in range(spec.ops):
                if closed:
                    scheduled = ctx.now
                else:
                    if spec.mode == MODE_BURST and \
                            rng.random() < spec.off_prob:
                        scheduled += int(
                            rng.expovariate(1.0 / spec.off_mean_ns))
                    if ctx.now < scheduled:
                        ctx.sync_to(scheduled)
                sqe = make_sqe(fd)
                settle(ctx, ring, sqe, scheduled, shed_once(ring, sqe))
                if closed:
                    if spec.think_ns:
                        ctx.charge(spec.think_ns)
                else:
                    scheduled += spec.interval_ns
                yield
            vfs.close(ctx, fd)

        return body

    # -- reporting ---------------------------------------------------------

    def class_latencies(self):
        """``{priority_name: [latency, ...]}`` pooled across tenants."""
        pooled = {}
        for spec in self.specs:
            name = PRIORITY_NAMES.get(spec.priority, str(spec.priority))
            pooled.setdefault(name, []).extend(
                self.results[spec.tenant_id].latencies_ns)
        return pooled

    def summarize(self):
        """Deterministic per-class + fleet-wide stats for one run."""
        from repro.engine.stats import fairness_spread, jain_index

        classes = {}
        for name, samples in sorted(self.class_latencies().items()):
            entry = {
                "ops": len(samples),
                "shed": sum(self.results[s.tenant_id].shed
                            for s in self.specs
                            if PRIORITY_NAMES.get(s.priority) == name),
                "dropped": sum(self.results[s.tenant_id].dropped
                               for s in self.specs
                               if PRIORITY_NAMES.get(s.priority) == name),
            }
            if samples:
                entry.update(
                    ("p%s" % str(p).replace(".", ""), v)
                    for p, v in percentiles(samples, LATENCY_PS).items())
            classes[name] = entry
        all_samples = [lat for r in self.results.values()
                       for lat in r.latencies_ns]
        # Fleet-wide fairness is over per-tenant *completion fractions*
        # (bytes done / bytes demanded): with fixed per-tenant demand,
        # spread 1.0 means nobody was starved of their asked-for share,
        # independent of how demands and weights differ across tenants.
        weighted = [self.results[s.tenant_id].bytes_done
                    / max(1, s.ops * s.io_size) for s in self.specs]
        summary = {
            "tenants": len(self.specs),
            "ops": len(all_samples),
            "shed": sum(r.shed for r in self.results.values()),
            "dropped": sum(r.dropped for r in self.results.values()),
            "fairness_spread": fairness_spread(weighted),
            "jain_index": jain_index(weighted),
            "classes": classes,
        }
        if all_samples:
            summary.update(
                ("p%s" % str(p).replace(".", ""), v)
                for p, v in percentiles(all_samples, LATENCY_PS).items())
        return summary
