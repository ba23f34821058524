"""The retry policy: one seeded backoff/budget/breaker primitive.

A :class:`RetryPolicy` centralises the three decisions a retry loop
makes:

- **Budget** -- how many retries before giving up (``max_retries``).
- **Backoff** -- how long to wait (in *virtual* time) before attempt
  ``n``: exponential with an optional seeded jitter fraction, so two
  policies with the same seed back off identically and a run stays
  bit-for-bit deterministic.
- **Circuit breaker** -- after ``breaker_threshold`` *consecutive*
  exhausted budgets, the circuit opens for ``breaker_cooldown_ns`` of
  virtual time and every attempt fails fast; a success (or the cooldown
  expiring) closes it again.

It has two users.  The device (:meth:`repro.nvmm.device.NVMMDevice.
_guard_persist`) retries a transient persist failure and marks the
lines bad once the budget runs out, so a :class:`~repro.fs.errors.
MediaError` that leaves the device is permanent: the ring, the VFS and
the writeback task report it (``-EIO`` CQE, raised EIO, errseq) and
never retry it.  The tenant client (:mod:`repro.workloads.tenants`)
backs off and resubmits requests the QoS layer sheds.

The policy only *decides*; the caller charges the returned backoff to
its own :class:`~repro.engine.context.ExecContext` so the cost lands on
the right thread's clock and breakdown category.
"""

import random


class RetryPolicy:
    """Seeded exponential-backoff-with-jitter retry budget + breaker."""

    def __init__(self, max_retries=3, base_backoff_ns=1_000, multiplier=2.0,
                 jitter_frac=0.0, seed=0, breaker_threshold=None,
                 breaker_cooldown_ns=1_000_000):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if base_backoff_ns < 0:
            raise ValueError("base_backoff_ns must be >= 0")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= jitter_frac <= 1.0:
            raise ValueError("jitter_frac must be in [0, 1]")
        self.max_retries = int(max_retries)
        self.base_backoff_ns = int(base_backoff_ns)
        self.multiplier = float(multiplier)
        self.jitter_frac = float(jitter_frac)
        self._rng = random.Random(seed)
        #: Consecutive exhausted budgets that trip the breaker
        #: (``None`` disables the breaker entirely).
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_ns = int(breaker_cooldown_ns)
        self._consecutive_failures = 0
        self._open_until_ns = None
        #: Lifetime observability.
        self.retries = 0
        self.gave_up = 0
        self.breaker_trips = 0

    # -- budget / backoff --------------------------------------------------

    def allows(self, attempt):
        """May retry number ``attempt`` (1-based) run at all?"""
        return attempt <= self.max_retries

    def backoff_ns(self, attempt):
        """Virtual-time backoff before retry ``attempt`` (1-based).

        Exponential in the attempt number; jitter (when configured) adds
        a seeded fraction on top, never subtracts, so the deterministic
        floor ``base * multiplier**(attempt-1)`` is preserved.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        backoff = self.base_backoff_ns * self.multiplier ** (attempt - 1)
        if self.jitter_frac:
            backoff += backoff * self.jitter_frac * self._rng.random()
        return int(backoff)

    def note_retry(self):
        self.retries += 1

    # -- circuit breaker ---------------------------------------------------

    def circuit_open(self, now_ns):
        """Fail-fast gate: True while the breaker holds the circuit open."""
        if self._open_until_ns is None:
            return False
        if now_ns >= self._open_until_ns:
            # Cooldown expired: half-open; the next outcome decides.
            self._open_until_ns = None
            self._consecutive_failures = 0
            return False
        return True

    def record_success(self):
        """An attempt (or a retried attempt) succeeded: close the circuit."""
        self._consecutive_failures = 0
        self._open_until_ns = None

    def record_failure(self, now_ns):
        """A full retry budget was exhausted without success."""
        self.gave_up += 1
        self._consecutive_failures += 1
        if (self.breaker_threshold is not None
                and self._consecutive_failures >= self.breaker_threshold):
            self._open_until_ns = now_ns + self.breaker_cooldown_ns
            self.breaker_trips += 1

    def __repr__(self):
        return ("RetryPolicy(max_retries=%d, base=%dns, x%.1f, jitter=%.2f, "
                "retries=%d, gave_up=%d, trips=%d)") % (
            self.max_retries, self.base_backoff_ns, self.multiplier,
            self.jitter_frac, self.retries, self.gave_up, self.breaker_trips,
        )
