"""The one fault plan: named injection sites, armed per run.

Every place the stack can be made to fail on purpose is a *site* that
asks the environment's plan ``plan = env.faults; if plan is not None:
plan.check(site, key)`` -- one attribute test when no plan is attached,
which is every benchmarked path.  An armed ``(site, key)`` -- or
``(site, None)``, any key -- with budget left raises EIO
(:class:`~repro.fs.errors.MediaError`), or, armed ``crash=True``,
:class:`PowerCut`: power failed *here*, and the harness that armed it
catches the cut and power-cycles the devices.

======================  =====================  ==========================
site                    key                    consulted by
======================  =====================  ==========================
``writeback``           request id that last   ``HiNFS.flush_blocks``,
                        wrote the block        once per block persisted
``ring``                SQE sequence number    ``IORing.execute_one``
                                               and ``IORing.submit``,
                                               before the SQE runs
``ring:after``          SQE sequence number    ``IORing``, after the SQE
                                               completed -- between it
                                               and what is linked behind
``mmio:load|store|``    inode of the mapping   ``MmioMapping``, first
``msync|append``                               step of the operation
``xmv:intent|victim-``  None                   ``ShardedFS._rename_swap``,
``unlinked|linked``                            after each protocol step
======================  =====================  ==========================
"""

from repro.fs.errors import MediaError

#: Site families; a site is ``family`` or ``family:step``.  An injected
#: EIO bumps ``<family>_fault_injections``.
FAMILIES = ("writeback", "ring", "mmio", "xmv")


class PowerCut(BaseException):
    """Power failed at an armed site.

    BaseException so no fs/VFS/ring handler swallows it on the way out
    to the harness that armed the plan."""

    def __init__(self, site, key):
        super().__init__("injected power cut at %s (key %s)" % (site, key))
        self.site = site
        self.key = key


class FaultPlan:
    """Armed sites and what every site saw, for one :class:`SimEnv`."""

    def __init__(self, env):
        self.env = env
        env.faults = self
        # (site, key or None) -> [remaining budget or None, crash]
        self._armed = {}
        self.hits = 0
        #: Every ``(site, key)`` consulted, armed or not, in order: which
        #: steps a run reached, and exactly what ran before a cut.
        self.observed = []

    def arm(self, site, key=None, hits=1, crash=False):
        """Fail ``site`` for ``key`` (any key with None) the next
        ``hits`` times (None keeps firing); returns self for chaining."""
        if site.partition(":")[0] not in FAMILIES:
            raise ValueError("unknown fault site %r" % (site,))
        self._armed[(site, key)] = [hits, crash]
        return self

    def disarm(self, site, key=None):
        self._armed.pop((site, key), None)

    def check(self, site, key=None):
        """Raise EIO -- or :class:`PowerCut` -- if ``site`` is armed for
        ``key`` with budget left."""
        self.observed.append((site, key))
        for armed in ((site, key), (site, None)):
            arm = self._armed.get(armed)
            if arm is None or arm[0] == 0:
                continue
            if arm[0] is not None:
                arm[0] -= 1
            self.hits += 1
            if arm[1]:
                raise PowerCut(site, key)
            self.env.stats.bump(site.partition(":")[0] + "_fault_injections")
            raise MediaError("injected fault at %s (key %s)" % (site, key))
