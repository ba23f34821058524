"""Counters and time breakdowns collected during a simulation run.

Two of the paper's figures are pure accounting artifacts:

- Figure 1 breaks PMFS run time into *Read Access*, *Write Access*, and
  *Others*; :class:`TimeBreakdown` accumulates exactly those categories.
- Figure 12 breaks trace-replay time into per-syscall buckets (read,
  write, unlink, fsync): ``syscall_time_ns`` / ``syscall_counts``,
  booked when a syscall span closes (:mod:`repro.engine.context`).
"""

from collections import defaultdict

from repro.engine.clock import format_ns

# Canonical breakdown categories used by Figure 1.
CAT_READ_ACCESS = "read_access"
CAT_WRITE_ACCESS = "write_access"
CAT_OTHERS = "others"


# -- exact percentiles and fairness metrics -----------------------------------


def percentile(samples, p):
    """Exact nearest-rank percentile of ``samples``.

    Deterministic and interpolation-free: the value at 1-based rank
    ``ceil(p/100 * n)`` of the sorted samples (the classic nearest-rank
    definition), so the result is always an element of ``samples`` and
    identical across platforms for identical inputs.  ``p`` in (0, 100];
    ``p=100`` is the maximum.  Raises ``ValueError`` on empty input.
    """
    return percentiles(samples, (p,))[p]


def percentiles(samples, ps=(50, 99, 99.9)):
    """``{p: nearest-rank value}`` for each ``p`` over one sort.

    The shared helper behind every latency report (tail-latency SLOs,
    fig11, the scale experiment): one deterministic definition instead
    of per-experiment ad-hoc math.
    """
    if not samples:
        raise ValueError("percentiles of empty sample set")
    ordered = sorted(samples)
    n = len(ordered)
    out = {}
    for p in ps:
        if not 0 < p <= 100:
            raise ValueError("p must be in (0, 100], got %r" % (p,))
        # Scale float ps (99.9, 99.99) to thousandths so the ceil stays
        # pure integer math: rank = ceil(p * n / 100).
        rank = -((-int(round(p * 1000)) * n) // 100_000)
        out[p] = ordered[max(1, rank) - 1]
    return out


def fairness_spread(values):
    """max/min ratio over per-tenant allocations (1.0 = perfectly fair).

    ``inf`` when any tenant got nothing while another got something;
    1.0 for the empty or all-zero set (nobody is ahead of anybody).
    """
    values = list(values)
    if not values:
        return 1.0
    hi, lo = max(values), min(values)
    if hi == 0:
        return 1.0
    if lo == 0:
        return float("inf")
    return hi / lo


def jain_index(values):
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)`` in (0, 1].

    1.0 when every tenant received the same amount; ``1/n`` when one
    tenant received everything.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (n * squares)


class TimeBreakdown:
    """Accumulates nanoseconds per category."""

    def __init__(self):
        self._ns = defaultdict(int)

    def add(self, category, ns):
        if ns:
            self._ns[category] += int(ns)

    def get(self, category):
        return self._ns.get(category, 0)

    def total(self):
        return sum(self._ns.values())

    def fractions(self):
        """Return ``{category: fraction_of_total}`` (empty if no time)."""
        total = self.total()
        if total == 0:
            return {}
        return {cat: ns / total for cat, ns in self._ns.items()}

    def as_dict(self):
        return dict(self._ns)

    def __repr__(self):
        parts = ", ".join(
            "%s=%s" % (cat, format_ns(ns)) for cat, ns in sorted(self._ns.items())
        )
        return "TimeBreakdown(%s)" % parts


class SimStats:
    """All statistics gathered during one simulation run."""

    def __init__(self):
        self.counters = defaultdict(int)
        self.bytes_written_nvmm = 0
        self.bytes_read_nvmm = 0
        self.bytes_written_dram = 0
        self.breakdown = TimeBreakdown()
        self.syscall_time_ns = defaultdict(int)
        self.syscall_counts = defaultdict(int)
        #: Nanoseconds per pipeline layer (vfs/fs/writeback/nvmm), fed by
        #: the trace spine's single instrumentation point at span close.
        self.layer_time_ns = defaultdict(int)
        self.ops_completed = 0

    # -- counters -------------------------------------------------------

    def bump(self, name, amount=1):
        self.counters[name] += amount

    def count(self, name):
        return self.counters.get(name, 0)

    # -- time accounting --------------------------------------------------

    def add_layer_time(self, layer, ns):
        if ns:
            self.layer_time_ns[layer] += int(ns)

    # -- reporting ------------------------------------------------------

    def summary(self):
        """A plain-dict snapshot suitable for printing or asserting on."""
        return {
            "ops_completed": self.ops_completed,
            "bytes_written_nvmm": self.bytes_written_nvmm,
            "bytes_read_nvmm": self.bytes_read_nvmm,
            "bytes_written_dram": self.bytes_written_dram,
            "breakdown": self.breakdown.as_dict(),
            "syscall_time_ns": dict(self.syscall_time_ns),
            "syscall_counts": dict(self.syscall_counts),
            "layer_time_ns": dict(self.layer_time_ns),
            "counters": dict(self.counters),
        }
