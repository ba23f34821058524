"""The mount-health state machine: degradation is no longer a latch.

PR 1's ``errors=remount-ro`` behaviour was a one-way boolean: enough
media errors and the mount stayed read-only until someone threw it away.
The formal VFS-switch model (PAPERS.md) argues mount health should be an
explicit state machine with *specified* transitions, including recovery.
This module provides it:

::

                 media/errseq errors >= threshold
      HEALTHY  ------------------------------------>  DEGRADED_RO
         ^                                              |      |
         |       clean scrub/repair pass                |      |  errors >=
         +----------------------------------------------+      |  isolate_
                                                               |  threshold
                                                               v
                                                           ISOLATED

- **HEALTHY**: reads and writes served.
- **DEGRADED_RO**: writes refused (EROFS), reads of good media served --
  the classic remount-ro posture, but now *exitable*: a scrub pass that
  repairs or isolates every bad line returns the mount to HEALTHY.
- **ISOLATED**: the error count kept climbing while degraded (the media
  is actively rotting); the mount refuses all I/O until a clean scrub.

Transitions are timestamped in virtual time, so mean-time-to-recovery is
directly measurable from the history (the chaos campaign's MTTR metric).
"""

HEALTHY = "healthy"
DEGRADED_RO = "degraded_ro"
ISOLATED = "isolated"


class MountHealth:
    """Threshold-driven health FSM for one mount."""

    def __init__(self, env, media_error_threshold=5):
        self.env = env
        if media_error_threshold <= 0:
            raise ValueError("media_error_threshold must be positive")
        self.media_error_threshold = media_error_threshold
        self.state = HEALTHY
        #: What the state allows, kept beside it so that every syscall's
        #: check is one attribute read: writes only while HEALTHY, reads
        #: until ISOLATED.
        self.writable = True
        self.readable = True
        #: Errors observed in the current HEALTHY/DEGRADED episode; reset
        #: by a clean scrub, not by time.
        self.media_errors = 0
        self.reason = None
        #: ``(from_state, to_state, at_ns, reason)`` in transition order.
        self.history = []

    # -- queries -----------------------------------------------------------

    @property
    def isolate_threshold(self):
        """Total errors (including those that caused degradation) at
        which a degraded mount is isolated: 4x the degradation one."""
        return self.media_error_threshold * 4

    def __repr__(self):
        return "MountHealth(%s, errors=%d, reason=%r)" % (
            self.state, self.media_errors, self.reason,
        )

    # -- transitions -------------------------------------------------------

    def _transition(self, to_state, now_ns, reason):
        self.history.append((self.state, to_state, now_ns, reason))
        self.state = to_state
        self.writable = to_state == HEALTHY
        self.readable = to_state != ISOLATED
        self.reason = reason
        self.env.stats.bump("health_transitions")

    def force_degraded(self, now_ns, reason):
        """An unconditional degradation (e.g. journal recovery failed at
        mount: the image itself is suspect, regardless of error counts)."""
        if self.state == HEALTHY:
            self._transition(DEGRADED_RO, now_ns, reason)
            self.env.stats.bump("vfs_remount_ro")

    def count_media_error(self, now_ns):
        """One EIO observed (sync read/write or async writeback).

        Returns the state after accounting, so callers can react without
        re-querying.
        """
        self.media_errors += 1
        self.env.stats.bump("vfs_media_errors")
        if self.state == HEALTHY and \
                self.media_errors >= self.media_error_threshold:
            self._transition(
                DEGRADED_RO, now_ns,
                "media error threshold (%d errors)" % self.media_errors)
            self.env.stats.bump("vfs_remount_ro")
        elif self.state == DEGRADED_RO and \
                self.media_errors >= self.isolate_threshold:
            self._transition(
                ISOLATED, now_ns,
                "errors kept climbing while degraded (%d)"
                % self.media_errors)
            self.env.stats.bump("vfs_isolated")
        return self.state

    def scrub_result(self, now_ns, report):
        """Feed a completed scrub pass into the FSM.

        A *clean* report (every bad line repaired or isolated, nothing
        unaccounted for) recovers a DEGRADED_RO or ISOLATED mount back to
        HEALTHY and resets the error count -- the recovery edge that
        makes remount-ro a state, not a latch.  A dirty report leaves the
        state alone.
        """
        if not report.clean:
            return self.state
        if self.state in (DEGRADED_RO, ISOLATED):
            self._transition(
                HEALTHY, now_ns,
                "clean scrub: %d lines repaired, %d isolated"
                % (report.repaired_lines, report.isolated_lines))
            self.env.stats.bump("health_recoveries")
        self.media_errors = 0
        if self.state == HEALTHY:
            self.reason = None
        return self.state

    # -- measurement -------------------------------------------------------

    def mttr_ns(self):
        """Mean virtual time from leaving HEALTHY to returning to it.

        ``None`` when the mount never degraded or never recovered.
        """
        outages = []
        left_at = None
        for src, dst, at_ns, _reason in self.history:
            if src == HEALTHY and dst != HEALTHY and left_at is None:
                left_at = at_ns
            elif dst == HEALTHY and left_at is not None:
                outages.append(at_ns - left_at)
                left_at = None
        if not outages:
            return None
        return sum(outages) // len(outages)
