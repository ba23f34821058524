"""Workload protocol and deterministic helpers."""

import random

from repro.engine.context import FreeContext


def prepare_context(env):
    return FreeContext(env, "prepare")


#: Doubled base tile: the tile for any tag is a 251-byte window into it
#: (``(i + tag) % 251`` is a rotation of ``0..250``), so building a
#: payload is one slice instead of a 251-step generator per call.
_TILE2 = bytes(i % 251 for i in range(502))


def payload(length, tag=0):
    """Cheap deterministic bytes: a 251-byte tile offset by ``tag``.

    Avoids generating megabytes of random data in Python while still
    making blocks distinguishable for correctness checks.
    """
    if length <= 0:
        return b""
    start = tag % 251
    tile = _TILE2[start : start + 251]
    reps = -(-length // 251)
    return (tile * reps)[:length]


class Workload:
    """Base class: a named, seeded, multi-threaded operation stream."""

    name = "abstract"

    def __init__(self, seed=42, threads=1):
        self.seed = seed
        self.threads = threads

    def rng(self, stream=0):
        """A deterministic RNG, distinct per (seed, stream)."""
        return random.Random("%s:%s:%s" % (self.name, self.seed, stream))

    def prepare(self, vfs, ctx):
        """Pre-allocate the fileset (run under a FreeContext)."""

    def make_thread_body(self, vfs, thread_id):
        """Return ``body(ctx)``: a generator yielding once per operation."""
        raise NotImplementedError


def zipf_index(rng, n, skew=1.1):
    """A Zipf-ish index in [0, n): heavily favours low indexes.

    Uses the inverse-power method, cheap and deterministic; file-system
    workloads show exactly this kind of skewed popularity (papers cited
    in Section 3.2).
    """
    if n <= 1:
        return 0
    u = rng.random()
    # Inverse CDF of a bounded power-law; the +1 keeps even skew ~1
    # noticeably head-heavy (a third of picks land in the first decile).
    index = int(n * (u ** (1.0 + skew)) * 0.999)
    return min(n - 1, index)
