"""Virtual-time units.

All simulated time in the reproduction is integer nanoseconds.  The paper's
emulator injects delays measured with ``RDTSCP``; our equivalent is the
``now`` of each simulated thread's
:class:`~repro.engine.context.ExecContext`, which the thread advances as
it pays for memory traffic, syscall overhead, and resource waits.
"""

NS_PER_USEC = 1_000
NS_PER_MSEC = 1_000_000
NS_PER_SEC = 1_000_000_000


def format_ns(ns):
    """Render a nanosecond quantity with a human-friendly unit.

    >>> format_ns(1234)
    '1.234us'
    >>> format_ns(2_500_000_000)
    '2.500s'
    """
    if ns >= NS_PER_SEC:
        return "%.3fs" % (ns / NS_PER_SEC)
    if ns >= NS_PER_MSEC:
        return "%.3fms" % (ns / NS_PER_MSEC)
    if ns >= NS_PER_USEC:
        return "%.3fus" % (ns / NS_PER_USEC)
    return "%dns" % ns
