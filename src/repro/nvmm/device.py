"""Timed NVMM and DRAM devices.

These combine the real data plane (:mod:`repro.mem`) with the cost model
(:mod:`repro.nvmm.config`).  Every access takes the :class:`ExecContext`
of the simulated thread performing it and charges that thread's clock,
tagged with a breakdown category so Figure 1 / Figure 12 can be rebuilt
from the stats.
"""

from repro.engine.stats import CAT_OTHERS, CAT_READ_ACCESS, CAT_WRITE_ACCESS
from repro.faults.policy import RetryPolicy
from repro.fs.errors import MediaError
from repro.mem.cpucache import CachedPersistentRegion
from repro.mem.region import MemoryRegion
from repro.nvmm.config import BLOCK_SIZE, CACHELINE_SIZE
from repro.obs.trace import LAYER_NVMM

NVMM_WRITE_RESOURCE = "nvmm_write_slots"

#: ``config -> store cost of 0..64 bytes`` (``NVMMConfig`` is frozen).
_STORE_NS = {}


class NVMMDevice:
    """Byte-addressable NVMM with slow, bandwidth-capped writes.

    Four store paths mirror the hardware:

    - :meth:`write_persistent` -- non-temporal store; pays the NVMM write
      latency per cacheline while holding a writer slot (mmio epoch-log
      appends, scrub repairs, metadata blocks); :meth:`persist_run` is
      the same store for each block-bounded piece of a request (PMFS
      data, HiNFS eager writes and writeback), and with ``wait=False``
      books the slots without waiting (HiNFS writeback overlapping
      many blocks across the ``N_w`` slots, synced to the last end).
    - :meth:`persist_cached` -- a cached store flushed in the same breath
      (``pmem_memcpy_persist``): every journaled metadata range and
      recovery rollback, i.e. all metadata of every PMFS-family stack;
      :meth:`persist_line` is its one-line form plus fences (journal
      entries and header, inode cores).
    - :meth:`write_cached`, later :meth:`clflush` + :meth:`fence` -- a
      store that stays volatile until a flush an epoch away; only mapped
      files (:mod:`repro.io.mmio`: store now, ``msync`` later) need the
      two apart.
    """

    def __init__(self, env, config, size, domain=None):
        self._bind(env, config, CachedPersistentRegion(size), domain)

    @classmethod
    def on_region(cls, env, config, mem, domain=None):
        """A device after a power cycle: the media (``mem``, an existing
        :class:`CachedPersistentRegion`) survives, everything bound to
        the old env -- stats, writer-slot pool, fault model -- is new.

        The region must hold no volatile lines (``crash()`` the old
        device first): a power failure cannot carry CPU-cache contents
        over, and a remount that saw them would test the wrong state.
        """
        if mem.dirty_line_indices():
            raise ValueError(
                "region still holds volatile lines; crash() or flush the "
                "old device before power-cycling its media")
        device = cls.__new__(cls)
        device._bind(env, config, mem, domain)
        return device

    def _bind(self, env, config, mem, domain):
        self.env = env
        self.config = config
        #: Resource-domain name for multi-device (sharded) stacks.  None
        #: keeps the historical behaviour: every device in the env shares
        #: one ``nvmm_write_slots`` pool.  A named domain gives this
        #: device its *own* writer-slot FCFS pool plus per-domain slot
        #: grant counters, so independent devices never queue behind each
        #: other's media.
        self.domain = domain
        self.mem = mem
        #: Optional :class:`~repro.faults.media.MediaFaultModel`; when
        #: attached, reads and persists of registered lines fail with
        #: :class:`~repro.fs.errors.MediaError` (EIO).
        self.fault_model = None
        #: Transient-persist retry schedule.  Jitter stays off here so the
        #: charged backoff is exactly ``media_retry_backoff_ns * 2**(n-1)``
        #: and identical across devices.  This is the stack's one media
        #: retry: a MediaError that leaves the device is permanent, and
        #: the layers above report it instead of retrying.
        self.retry_policy = RetryPolicy(
            max_retries=config.media_retry_limit,
            base_backoff_ns=config.media_retry_backoff_ns,
            multiplier=2.0, jitter_frac=0.0,
        )
        if domain is None:
            slot_name = NVMM_WRITE_RESOURCE
        else:
            slot_name = "%s@%s" % (NVMM_WRITE_RESOURCE, domain)
        if env.has_resource(slot_name):
            self.write_slots = env.resource(slot_name)
        else:
            self.write_slots = env.add_resource(
                slot_name, config.nvmm_writer_slots
            )
        #: Slot occupancy per persisted cacheline; the config method is
        #: the one formula (linear in lines), evaluated once.
        self._line_persist_ns = int(config.nvmm_persist_cost_ns(1))
        #: What loading a whole block costs (a run read's usual piece).
        self._block_load_ns = config.load_cost_ns(BLOCK_SIZE)
        #: What storing 0..64 bytes into the cache costs, by length --
        #: every journal entry and inode core -- evaluated once per
        #: config (the crash explorer binds a device per crash state).
        self._store_ns = _STORE_NS.get(config)
        if self._store_ns is None:
            self._store_ns = _STORE_NS[config] = tuple(
                config.dram_store_cost_ns(n)
                for n in range(CACHELINE_SIZE + 1))
        #: Per-domain slot-grant counter for sharded stacks.  Single-
        #: device stacks (domain None) have none, so their counter dicts
        #: -- and the golden-seed fingerprints pinned on them -- stay
        #: byte-identical.
        self._grant_counter = (
            None if domain is None else "nvmm_slot_grants@%s" % domain)

    @property
    def size(self):
        return self.mem.size

    def attach_faults(self, fault_model):
        """Install a media-fault model; returns it for chaining."""
        self.fault_model = fault_model.bind(self.env)
        return fault_model

    # -- fault guards ------------------------------------------------------

    def _trace_fault(self, ctx, kind, lines):
        """Drop a zero-duration marker span onto the trace spine.

        Zero duration keeps the exported per-layer sums equal to the
        ``SimStats`` totals (the spine's core invariant) while still
        making fault sites visible in `hinfs-bench trace`.

        Guards first -- tracing off, or the ``nvmm`` layer filtered out
        of the ring -- so the fault path shares the instrumentation
        point's disabled fast path: no span allocation, no ring traffic.
        """
        ring = self.env.trace
        if ring is None or not ring.wants(LAYER_NVMM):
            return
        if ctx is None:
            # read_media / flush_all(ctx=None): nobody to attribute to.
            name, now, req = "device", 0, None
        else:
            name, now, req = ctx.name, ctx.now, ctx.trace_span
        sp = ring.begin(
            "media_error:%s" % kind,
            name, now,
            req_id=req.req_id if req is not None else 0,
            layer=LAYER_NVMM,
            meta={"lines": sorted(lines)},
        )
        sp.close(now)
        ring.record(sp)

    def _guard_read(self, addr, length, ctx=None):
        if self.fault_model is None:
            return
        bad = self.fault_model.failing_read_lines(addr, length)
        if bad:
            self._trace_fault(ctx, "read", bad)
            raise MediaError(
                "uncorrectable NVMM read error at lines %s" % (bad,),
                addr=addr, length=length, lines=bad,
            )

    def _guard_persist(self, ctx, addr, length):
        """Fail, or retry-with-backoff, persists touching faulty lines
        (call only with a fault model attached).

        Transient faults are retried under :class:`RetryPolicy` (budget
        ``media_retry_limit``, exponential backoff charged in virtual
        time); lines still failing afterwards are marked permanently bad
        and the persist raises :class:`MediaError`.  Permanent faults
        raise immediately.  Runs *before* the data plane mutates, so a
        failed persist leaves nothing durable.
        """
        model = self.fault_model
        policy = self.retry_policy
        attempt = 0
        while True:
            permanent, transient = model.probe_persist(addr, length)
            if permanent:
                self._trace_fault(ctx, "persist", permanent)
                raise MediaError(
                    "NVMM persist failed on bad lines %s" % (permanent,),
                    addr=addr, length=length, lines=permanent,
                )
            if not transient:
                if attempt:
                    policy.record_success()
                return
            attempt += 1
            if not policy.allows(attempt):
                for line in transient:
                    model.mark_bad(line)
                policy.record_failure(ctx.now if ctx is not None else 0)
                self._trace_fault(ctx, "retries_exhausted", transient)
                raise MediaError(
                    "NVMM persist retries exhausted; lines %s marked bad"
                    % (transient,),
                    addr=addr, length=length, lines=transient,
                )
            model.note_retry()
            policy.note_retry()
            self.env.stats.bump("media_persist_retries")
            if ctx is not None:
                ctx.charge(policy.backoff_ns(attempt), CAT_WRITE_ACCESS)

    # -- loads ------------------------------------------------------------

    def read(self, ctx, addr, length, category=CAT_READ_ACCESS):
        """Load bytes; NVMM reads cost the same as DRAM reads."""
        span = ctx.trace_span
        start = ctx.now if span is not None else 0
        ctx.charge(self.config.load_cost_ns(length), category)
        if self.fault_model is not None:
            self._guard_read(addr, length, ctx)
        data = self.mem.read(addr, length)
        self.env.stats.bytes_read_nvmm += length
        if span is not None:
            span.add_phase(LAYER_NVMM, start, ctx.now)
        return data

    def read_run(self, ctx, blocks, in_off, length, out,
                 hole_category=CAT_READ_ACCESS):
        """:meth:`read` of each block-bounded piece of ``length`` bytes
        laid over ``blocks`` (NVMM block numbers, None for a hole) from
        ``in_off`` of the first, appended to ``out`` in order, in one
        frame: per piece the same charge, fault guard, byte count and
        ``nvmm`` phase.  A hole reads zeros and pays the same load
        charge, under ``hole_category``, with no phase."""
        span = ctx.trace_span
        stats = self.env.stats
        for block in blocks:
            take = BLOCK_SIZE - in_off
            if take > length:
                take = length
            ns = (self._block_load_ns if take == BLOCK_SIZE
                  else self.config.load_cost_ns(take))
            start = ctx.now
            if not ctx.free:
                ctx.now = start + ns
                stats.breakdown._ns[CAT_READ_ACCESS if block is not None
                                    else hole_category] += ns
            if block is None:
                out += bytes(take)
            else:
                addr = block * BLOCK_SIZE + in_off
                if self.fault_model is not None:
                    self._guard_read(addr, take, ctx)
                out += self.mem._mv[addr:addr + take]
                stats.bytes_read_nvmm += take
                if span is not None:
                    span.add_phase(LAYER_NVMM, start, ctx.now)
            length -= take
            in_off = 0

    def read_media(self, addr, length):
        """Fault-checked, untimed load (recovery scans: the data plane
        must still observe bad lines, but mount setup is not charged)."""
        self._guard_read(addr, length)
        return self.mem.read(addr, length)

    # -- stores -----------------------------------------------------------

    def _persist_lines(self, ctx, nlines, category):
        """Occupy a writer slot for ``nlines`` cacheline persists from
        ``ctx.now`` and wait for them, the wait charged to ``category``,
        in this one frame.

        Contexts marked ``free`` (mkfs, recovery setup) neither pay nor
        pollute the shared slot timeline.
        """
        if nlines <= 0 or ctx.free:
            return
        now = ctx.now
        duration = nlines * self._line_persist_ns
        end = self.write_slots.grant(now, duration) + duration
        stats = self.env.stats
        if self._grant_counter is not None:
            counters = stats.counters
            counters[self._grant_counter] += 1
            counters["nvmm_slot_grants_total"] += 1
        if end > now:
            ctx.now = end
            stats.breakdown._ns[category] += end - now

    def write_persistent(self, ctx, addr, data, category=CAT_WRITE_ACCESS):
        """Non-temporal store: durable on return, pays full NVMM cost.

        ``data`` may be any bytes-like object; the slab consumes it via
        the buffer protocol without an intermediate copy."""
        length = len(data)
        span = ctx.trace_span
        start = ctx.now if span is not None else 0
        if self.fault_model is not None:
            self._guard_persist(ctx, addr, length)
        self.mem.write_nocache(addr, data)
        if not ctx.free:
            if length:
                # lines_spanned(length, addr % CACHELINE_SIZE), inline.
                self._persist_lines(ctx, (addr % CACHELINE_SIZE + length - 1)
                                    // CACHELINE_SIZE + 1, category)
            self.env.stats.bytes_written_nvmm += length
        if span is not None:
            span.add_phase(LAYER_NVMM, start, ctx.now)

    def persist_run(self, ctx, blocks, in_off, data, stamps=None, wait=True):
        """:meth:`write_persistent` of each block-bounded piece of
        ``data`` laid over ``blocks`` (NVMM block numbers) from
        ``in_off`` of the first, in order, in one frame: per piece the
        same fault guard, store (``write_nocache`` whenever an observer
        or a volatile line could see it), one writer-slot grant
        requested at the clock the previous piece ended, charges, byte
        count and ``nvmm`` phase.  ``stamps``, if given, gets each
        piece's start clock as the piece begins -- a failing piece's
        too, before its guard raises.

        ``wait=False`` books each piece at ``ctx.now`` without waiting
        and returns the latest end (``ctx.now`` if nothing was booked);
        no phase is added.  The caller must ``ctx.sync_to`` that end
        before acting on the data's durability.
        """
        stats = self.env.stats
        breakdown = stats.breakdown._ns
        grant, line_ns, counter = (self.write_slots.grant,
                                   self._line_persist_ns, self._grant_counter)
        mem = self.mem
        # With no observer and no volatile line a non-temporal store is
        # a plain slab copy (else write_nocache, which the crash tape
        # sees); nothing in the run adds either.
        mv = None if mem.observer is not None or mem._saved else mem._mv
        span = ctx.trace_span if wait else None
        last = ctx.now
        size = len(data)
        pos = 0
        for block in blocks:
            take = BLOCK_SIZE - in_off
            if take > size - pos:
                take = size - pos
            addr = block * BLOCK_SIZE + in_off
            start = ctx.now
            if stamps is not None:
                stamps.append(start)
            if self.fault_model is not None:
                self._guard_persist(ctx, addr, take)
            if mv is not None:
                mv[addr:addr + take] = data[pos:pos + take]
            else:
                mem.write_nocache(addr, data[pos:pos + take])
            if take and not ctx.free:
                now = ctx.now
                # lines_spanned(take, addr % CACHELINE_SIZE), inline.
                duration = ((addr % CACHELINE_SIZE + take - 1)
                            // CACHELINE_SIZE + 1) * line_ns
                end = grant(now, duration) + duration
                if counter is not None:
                    counters = stats.counters
                    counters[counter] += 1
                    counters["nvmm_slot_grants_total"] += 1
                if not wait:
                    if end > last:
                        last = end
                elif end > now:
                    ctx.now = end
                    breakdown[CAT_WRITE_ACCESS] += end - now
                stats.bytes_written_nvmm += take
            if span is not None:
                span.add_phase(LAYER_NVMM, start, ctx.now)
            pos += take
            in_off = 0
        return last

    def persist_cached(self, ctx, addr, data, category=CAT_OTHERS):
        """Store through the cache and flush the same range at once
        (``pmem_memcpy_persist``).

        Charges what :meth:`write_cached` then :meth:`clflush` charge,
        in their order: the store lands in the cache and pays its DRAM
        cost first, so the writer slot is requested at the time the
        flush would start; only the flush is an ``nvmm`` phase.
        The fault guard sits between store and flush: a
        :class:`MediaError` leaves the bytes visible but volatile and
        nothing durable.  Returns the lines flushed.
        """
        mem = self.mem
        length = len(data)
        span = ctx.trace_span
        store_ns = (self._store_ns[length] if length <= CACHELINE_SIZE
                    else self.config.dram_store_cost_ns(length))
        if self.fault_model is None:
            flushed = mem.write_flush(addr, data)
            ctx.charge(store_ns, category)
            start = ctx.now
        else:
            mem.write(addr, data)
            ctx.charge(store_ns, category)
            start = ctx.now
            self._guard_persist(ctx, addr, length)
            flushed = mem.clflush(addr, length)
        if not ctx.free:
            self._persist_lines(ctx, flushed, category)
            self.env.stats.bytes_written_nvmm += flushed * CACHELINE_SIZE
        if span is not None:
            span.add_phase(LAYER_NVMM, start, ctx.now)
        return flushed

    def persist_line(self, ctx, addr, data, fences=1):
        """:meth:`persist_cached` of 1 to 64 bytes inside one aligned
        cacheline -- a journal entry, an inode core -- then ``fences``
        :meth:`fence` calls, in one frame: the same bytes, flags,
        charges (all ``CAT_OTHERS``), slot booking, ledger, ``nvmm``
        phase and observer events in the same order.  A journal entry
        takes one fence; a commit two, the entry's and its own.

        A fault model, an observer, a free context and a traced span
        are branches of this one body.
        """
        mem = self.mem
        length = len(data)
        if addr % CACHELINE_SIZE + length > CACHELINE_SIZE or not length:
            raise ValueError("persist_line of %d bytes at %#x is not inside "
                             "one cacheline" % (length, addr))
        free = ctx.free
        # The store lands in the cache and is charged first.
        now = ctx.now if free else ctx.now + self._store_ns[length]
        others = now - ctx.now
        start = now
        model = self.fault_model
        if model is None and mem.observer is None:
            # mem.write_flush of one line, inline: a clean line takes
            # the bytes, a volatile one becomes durable as it stands.
            mem._mv[addr:addr + length] = data
            if mem._saved:
                line = addr // CACHELINE_SIZE
                if mem._flags[line]:
                    mem._flags[line] = 0
                    del mem._saved[line]
        else:
            mem.write(addr, data)
            if model is not None:
                # Between store and flush, as in persist_cached: a
                # MediaError leaves the line volatile, nothing durable.
                ctx.now = now
                if others:
                    self.env.stats.breakdown._ns[CAT_OTHERS] += others
                    others = 0
                self._guard_persist(ctx, addr, length)
                now = ctx.now
            mem.clflush(addr, length)
        if not free:
            persist_ns = self._line_persist_ns
            end = self.write_slots.grant(now, persist_ns) + persist_ns
            stats = self.env.stats
            if self._grant_counter is not None:
                counters = stats.counters
                counters[self._grant_counter] += 1
                counters["nvmm_slot_grants_total"] += 1
            if end > now:
                others += end - now
                now = end
            stats.bytes_written_nvmm += CACHELINE_SIZE
        span = ctx.trace_span
        if span is not None:
            span.add_phase(LAYER_NVMM, start, now)
        if fences:
            if not free:
                fence_ns = fences * self.config.fence_ns
                others += fence_ns
                now += fence_ns
            observer = mem.observer
            if observer is not None:
                for _ in range(fences):
                    observer.on_fence(mem)
        ctx.now = now
        if others:
            self.env.stats.breakdown._ns[CAT_OTHERS] += others

    def write_cached(self, ctx, addr, data, category=CAT_OTHERS):
        """Ordinary store: lands in the CPU cache, volatile until flushed."""
        self.mem.write(addr, data)
        ctx.charge(self.config.dram_store_cost_ns(len(data)), category)

    def clflush(self, ctx, addr, length, category=CAT_WRITE_ACCESS):
        """Flush the lines covering the range; pays NVMM cost per dirty line."""
        span = ctx.trace_span
        start = ctx.now if span is not None else 0
        if self.fault_model is not None:
            self._guard_persist(ctx, addr, length)
        flushed = self.mem.clflush(addr, length)
        self._persist_lines(ctx, flushed, category)
        if not ctx.free:
            self.env.stats.bytes_written_nvmm += flushed * CACHELINE_SIZE
        if span is not None:
            span.add_phase(LAYER_NVMM, start, ctx.now)
        return flushed

    def fence(self, ctx, category=CAT_OTHERS):
        """mfence: an ordering point."""
        ctx.charge(self.config.fence_ns, category)
        self.mem.fence()

    # -- crash ------------------------------------------------------------

    def crash(self, evict_lines=()):
        """Drop volatile lines (power failure); see CachedPersistentRegion."""
        self.mem.crash(evict_lines)

    def flush_all(self, ctx=None, category=CAT_WRITE_ACCESS):
        """Flush the whole cache (unmount); charged if a context is given."""
        if self.fault_model is not None:
            for line in self.mem.dirty_line_indices():
                self._guard_persist(ctx, line * CACHELINE_SIZE, CACHELINE_SIZE)
        flushed = self.mem.flush_all()
        if ctx is not None:
            self._persist_lines(ctx, flushed, category)
        return flushed


class DRAMDevice:
    """Plain DRAM: fast, volatile, uncapped in concurrency.

    Backs HiNFS's write buffer and the page cache of the block-based file
    systems.  Contents do not survive :meth:`crash`.
    """

    def __init__(self, env, config, size):
        self.env = env
        self.config = config
        self.mem = MemoryRegion(size)

    @property
    def size(self):
        return self.mem.size

    def read(self, ctx, addr, length, category=CAT_READ_ACCESS):
        data = self.mem.read(addr, length)
        ctx.charge(self.config.load_cost_ns(length), category)
        return data

    def write(self, ctx, addr, data, category=CAT_WRITE_ACCESS):
        length = len(data)
        self.mem.write(addr, data)
        ctx.charge(self.config.dram_store_cost_ns(length), category)
        self.env.stats.bytes_written_dram += length

    def crash(self):
        """DRAM loses everything on power failure."""
        self.mem.fill(0, self.mem.size, 0)
