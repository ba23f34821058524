"""errseq-style deferred-writeback error reporting.

When background writeback (HiNFS's flusher threads, pdflush for the
block-based baselines) hits a media error, the write has already been
acknowledged to the application -- the only honest thing left to do is
report the loss on the *next* ``fsync``/``close`` of that file.  Linux
solves this with ``errseq_t``: a per-mapping sequence that writeback
errors advance and every file description samples, so each fd sees a
given error exactly once.  This is the same mechanism in miniature:

- :meth:`ErrseqMap.record` advances the inode's sequence (a writeback
  error happened) and clears its SEEN mark.
- :meth:`ErrseqMap.sample` is taken at ``open`` time and stored on the
  open file.  Like Linux's ``errseq_sample``, an inode whose latest
  error nobody has reported yet samples as 0, so a descriptor opened
  *after* the error still observes it -- an unreported loss is never
  silently retired by the accident of when the fd was opened.
- :meth:`ErrseqMap.check` compares an fd's cursor against the current
  sequence, returning True (marking the error SEEN and advancing the
  cursor) when an error occurred that this fd has not yet reported.
"""


class ErrseqMap:
    """Per-inode writeback-error sequences for one file system."""

    def __init__(self):
        self._seq = {}
        # Inodes whose *latest* error some fd has already reported.
        self._seen = set()

    def record(self, ino):
        """A deferred writeback error occurred on ``ino``."""
        self._seq[ino] = self._seq.get(ino, 0) + 1
        self._seen.discard(ino)
        return self._seq[ino]

    def sample(self, ino):
        """Current sequence, stored on a freshly-opened fd as its cursor.

        While the latest error is unSEEN the sample is 0 (Linux
        ``errseq_sample`` semantics): the new fd's first check will
        report it.
        """
        if ino in self._seen:
            return self._seq.get(ino, 0)
        return 0

    def check(self, ino, cursor):
        """Has an error happened since ``cursor``?

        Returns ``(hit, new_cursor)``; the caller stores ``new_cursor``
        back on the fd so the same error is reported exactly once per fd.
        """
        seq = self._seq.get(ino, 0)
        if seq > cursor:
            self._seen.add(ino)
            return True, seq
        return False, cursor

    def drop(self, ino):
        """Forget an inode's history: a new inode took its number."""
        self._seq.pop(ino, None)
        self._seen.discard(ino)

    def pending(self):
        """Inodes with at least one recorded error (diagnostics)."""
        return sorted(ino for ino, seq in self._seq.items() if seq)

    def unseen(self):
        """Inodes whose latest error no descriptor has reported yet."""
        return sorted(ino for ino, seq in self._seq.items()
                      if seq and ino not in self._seen)
