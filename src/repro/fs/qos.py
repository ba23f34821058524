"""Per-tenant QoS at the VFS dispatch boundary (multi-tenant serving).

The north star is "heavy traffic from millions of users", and the real
failure mode there is not a slow syscall but *overload collapse*: once
the DRAM write buffer and the ``N_w`` NVMM writer slots saturate, every
tenant's tail latency grows without bound together.  KucoFS (PAPERS.md)
argues multi-user PM file systems need explicit per-tenant protection,
and the formal VFS-switch model argues the dispatch boundary -- where
every data syscall already funnels into one :class:`repro.io.IORequest`
-- is the one clean place to enforce it.  This module is that
enforcement point, two mechanisms deep:

- **Token-bucket throttling with weighted shares** (cgroup-io style):
  every registered tenant owns a :class:`TokenBucket` whose refill rate
  is its weighted share of the configured aggregate capacity.  A request
  that outruns its bucket is *delayed* (the wait is charged to the
  calling thread's virtual clock under ``LAYER_QOS``), smoothing each
  tenant to its share instead of letting one flood starve the rest.

- **Admission control with watermark hysteresis**: the controller
  derives a scalar *pressure* from the two saturating resources (DRAM
  buffer occupancy and writer-slot backlog).  When pressure crosses the
  high watermark the controller enters overload -- its ``overloaded``
  flag and ``qos_overload_enters``/``_exits`` counters are the mount's
  only overload record -- and requests from shed-class
  (lowest-priority) tenants are refused with ``EAGAIN``
  (:class:`repro.fs.errors.TryAgain`) instead of queueing behind a
  collapsing backlog; clients back off and retry through
  :class:`repro.faults.policy.RetryPolicy`.  Pressure falling below the
  low watermark exits overload (hysteresis prevents flapping).

Untenanted traffic (``IORequest.tenant is None``) bypasses both
mechanisms entirely, so every existing workload -- and the golden-seed
equivalence suite -- is bit-identical with a controller attached but no
tenants bound.

All bucket arithmetic is integer (token units of 1e-9 byte), so the same
seed always yields the same admission sequence and the same waits.
"""

from repro.fs.errors import TryAgain
from repro.nvmm.device import NVMM_WRITE_RESOURCE
from repro.obs.trace import LAYER_QOS

#: Priority classes, lowest first.  The admission controller sheds the
#: lowest class(es) first; GOLD is never shed by the default policy.
PRIO_BRONZE = 0
PRIO_SILVER = 1
PRIO_GOLD = 2

PRIORITY_NAMES = {PRIO_BRONZE: "bronze", PRIO_SILVER: "silver",
                  PRIO_GOLD: "gold"}

#: Token scale: buckets count in units of 1e-9 byte so that a rate in
#: bytes/second accrues exactly ``rate`` units per virtual nanosecond
#: with no rounding drift.
_SCALE = 1_000_000_000


class TokenBucket:
    """Deterministic integer token bucket (bytes against virtual time).

    ``rate_bps`` tokens-per-nanosecond accrue in units of 1e-9 byte (so
    the byte rate per *second* is exactly ``rate_bps``), capped at
    ``burst_bytes``.  :meth:`take` debits immediately and may go into
    debt; the returned wait is the exact time until accrual covers the
    debt, which is when the request is considered admitted.  Hence over
    any window ``W`` starting from a full bucket, bytes *admitted*
    (arrival + wait <= end of window) never exceed
    ``rate_bps * W / 1e9 + burst_bytes`` -- the bound the property test
    pins down.
    """

    __slots__ = ("rate_bps", "burst_bytes", "_tokens", "_last_ns")

    def __init__(self, rate_bps, burst_bytes, start_ns=0):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if burst_bytes < 0:
            raise ValueError("burst_bytes must be non-negative")
        self.rate_bps = int(rate_bps)
        self.burst_bytes = int(burst_bytes)
        self._tokens = self.burst_bytes * _SCALE
        self._last_ns = int(start_ns)

    def _refill(self, now_ns):
        elapsed = now_ns - self._last_ns
        if elapsed > 0:
            self._tokens = min(
                self.burst_bytes * _SCALE,
                self._tokens + self.rate_bps * elapsed,
            )
            self._last_ns = now_ns

    def peek_tokens(self, now_ns):
        """Bytes available at ``now_ns`` (may be negative while in debt)."""
        self._refill(now_ns)
        return self._tokens // _SCALE

    def take(self, now_ns, nbytes):
        """Debit ``nbytes`` at ``now_ns``; returns the wait in ns until
        the request counts as admitted (0 when tokens covered it)."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        self._refill(int(now_ns))
        self._tokens -= int(nbytes) * _SCALE
        if self._tokens >= 0:
            return 0
        # Exact time for the refill rate to pay off the debt:
        # ceil(-tokens / rate) == -floor(tokens / rate) for tokens < 0.
        return -(self._tokens // self.rate_bps)


class TenantState:
    """Registration record + accounting for one tenant."""

    __slots__ = ("tenant", "weight", "priority", "bucket",
                 "admitted_ops", "admitted_bytes", "shed_ops",
                 "throttle_ns")

    def __init__(self, tenant, weight, priority, bucket):
        self.tenant = tenant
        self.weight = weight
        self.priority = priority
        self.bucket = bucket
        self.admitted_ops = 0
        self.admitted_bytes = 0
        self.shed_ops = 0
        self.throttle_ns = 0

    def __repr__(self):
        return "TenantState(%r, w=%d, prio=%s, admitted=%d, shed=%d)" % (
            self.tenant, self.weight,
            PRIORITY_NAMES.get(self.priority, self.priority),
            self.admitted_ops, self.shed_ops,
        )


class QosController:
    """Weighted token-bucket throttle + watermark admission control.

    Attach to a VFS with :meth:`repro.fs.vfs.VFS.attach_qos`; the three
    data-path handlers call :meth:`admit` once per IORequest, right
    after the ring entry charge and before any inode lock is taken (a
    shed request must not queue on anything).
    """

    def __init__(self, env, capacity_bps, default_burst_bytes=1 << 16,
                 buffer=None, high_watermark=0.85, low_watermark=0.60,
                 shed_priority=PRIO_BRONZE, slot_ceiling_ns=2_000_000):
        if capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        if not 0.0 < low_watermark <= high_watermark:
            raise ValueError("need 0 < low_watermark <= high_watermark")
        self.env = env
        #: Aggregate byte rate split between tenants by weight.
        self.capacity_bps = int(capacity_bps)
        self.default_burst_bytes = int(default_burst_bytes)
        #: The DRAM write buffer watched for occupancy pressure (HiNFS);
        #: None for stacks without one -- slot backlog still applies.
        self.buffer = buffer
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        #: Tenants with priority <= this are shed while overloaded.
        self.shed_priority = shed_priority
        #: Writer-slot backlog (earliest_free - now) that counts as
        #: pressure 1.0; the slots are the paper's N_w bottleneck and
        #: exist in every stack, so this signal is stack-agnostic.
        self.slot_ceiling_ns = int(slot_ceiling_ns)
        self.overloaded = False
        self._tenants = {}
        self._total_weight = 0
        self._slots = (env.resource(NVMM_WRITE_RESOURCE)
                       if env.has_resource(NVMM_WRITE_RESOURCE) else None)

    # -- registration -----------------------------------------------------

    def register(self, tenant, weight=1, priority=PRIO_SILVER,
                 burst_bytes=None, start_ns=0):
        """Register ``tenant`` and (re)split capacity across all weights.

        Returns the tenant's :class:`TenantState`.
        """
        if weight <= 0:
            raise ValueError("weight must be positive")
        if tenant in self._tenants:
            raise ValueError("tenant %r already registered" % (tenant,))
        if burst_bytes is None:
            burst_bytes = self.default_burst_bytes
        bucket = TokenBucket(1, burst_bytes, start_ns=start_ns)
        state = TenantState(tenant, int(weight), priority, bucket)
        self._tenants[tenant] = state
        self._total_weight += state.weight
        self._rebalance()
        return state

    def _rebalance(self):
        """Recompute every bucket's rate as its weighted share."""
        total = self._total_weight
        for state in self._tenants.values():
            state.bucket.rate_bps = max(
                1, self.capacity_bps * state.weight // total)

    def tenant(self, tenant):
        return self._tenants[tenant]

    # -- pressure / overload ----------------------------------------------

    def pressure(self, now_ns):
        """Scalar saturation signal in [0, inf): max over the watched
        resources of how close each is to its ceiling."""
        p = 0.0
        buffer = self.buffer
        if buffer is not None and buffer.blocks_total:
            p = buffer.used_blocks / buffer.blocks_total
        slots = self._slots
        if slots is not None and self.slot_ceiling_ns > 0:
            backlog = slots.earliest_free_ns() - now_ns
            if backlog > 0:
                p = max(p, backlog / self.slot_ceiling_ns)
        return p

    def _update_overload(self, now_ns):
        p = self.pressure(now_ns)
        if not self.overloaded:
            if p >= self.high_watermark:
                self.overloaded = True
                self.env.stats.bump("qos_overload_enters")
        elif p <= self.low_watermark:
            self.overloaded = False
            self.env.stats.bump("qos_overload_exits")

    # -- the dispatch-boundary hook ---------------------------------------

    def admit(self, ctx, req):
        """Admission-check one IORequest on its way into the stack.

        Untenanted and unregistered traffic passes untouched.  A
        shed-class request during overload raises
        :class:`~repro.fs.errors.TryAgain` (EAGAIN) *before* taking any
        lock or bucket debit; otherwise the tenant's bucket is debited
        and any throttle wait is served here, charged under
        ``LAYER_QOS``.
        """
        tenant = req.tenant
        if tenant is None:
            return
        state = self._tenants.get(tenant)
        if state is None:
            return
        now = ctx.now
        self._update_overload(now)
        counters = self.env.stats.counters
        if self.overloaded and state.priority <= self.shed_priority:
            state.shed_ops += 1
            counters["qos_shed_ops"] += 1
            counters["qos_shed_ops_prio_%d" % state.priority] += 1
            raise TryAgain(
                "tenant %r shed under overload (%s class)"
                % (tenant, PRIORITY_NAMES.get(state.priority,
                                              state.priority)))
        nbytes = req.total_bytes
        wait = state.bucket.take(now, nbytes)
        if wait:
            with ctx.layer(LAYER_QOS):
                ctx.charge(wait)
            state.throttle_ns += wait
            counters["qos_throttle_ns"] += wait
        state.admitted_ops += 1
        state.admitted_bytes += nbytes
        counters["qos_admitted_ops"] += 1
        counters["qos_admitted_bytes"] += nbytes

    def __repr__(self):
        return "QosController(%d tenants, cap=%dB/s, overloaded=%s)" % (
            len(self._tenants), self.capacity_bps, self.overloaded,
        )
