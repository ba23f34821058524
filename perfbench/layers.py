"""Layer attribution: which layer owns a source file, a profile row, a span.

Layers are module names of the program under test.  Every file under
``src/repro/`` maps to exactly one layer through :data:`FILE_RULES`
(``perfbench/tests`` fails when a new file matches no rule), host-side
self time and call counts come from a ``cProfile`` of the measured phase
(:func:`profile_by_layer`), and virtual self time comes from the trace
spine's spans (:func:`span_self_ns`).
"""

import os

#: Reported order.  ``python`` is stdlib/builtin self time plus the
#: harness's own slice loop; ``other`` is every file no perfbench
#: workload is meant to reach (block stacks, bench registry, CLI) --
#: a non-zero share there means a workload left its lane.
LAYERS = (
    "workloads", "fs.vfs", "io.ring", "io.request", "io.mmio", "fs.qos",
    "fs.shard", "fs.health", "engine", "core", "fs.pmfs", "nvmm", "mem",
    "faults", "obs", "other", "python",
)

#: ``(path prefix relative to src/repro, layer)``; the first match wins,
#: so exact files come before the directories that contain them.
FILE_RULES = (
    ("workloads/", "workloads"),
    ("fs/vfs.py", "fs.vfs"),
    # The inode-level FileSystem interface and its errno/flag tables are
    # the switch half of the VFS: FileSystem.submit is a sync-path frame.
    ("fs/base.py", "fs.vfs"),
    ("fs/errors.py", "fs.vfs"),
    ("fs/flags.py", "fs.vfs"),
    ("fs/__init__.py", "fs.vfs"),
    ("fs/qos.py", "fs.qos"),
    ("fs/shard.py", "fs.shard"),
    ("fs/health.py", "fs.health"),
    ("fs/scrub.py", "fs.health"),
    ("fs/pmfs/", "fs.pmfs"),
    ("fs/ext4dax.py", "other"),
    ("fs/extfs/", "other"),
    ("io/ring.py", "io.ring"),
    ("io/mmio.py", "io.mmio"),
    ("io/request.py", "io.request"),
    ("io/__init__.py", "io.request"),
    ("engine/", "engine"),
    ("core/", "core"),
    ("nvmm/", "nvmm"),
    ("mem/", "mem"),
    ("faults/", "faults"),
    ("obs/", "obs"),
    ("pagecache/", "other"),
    ("blockdev/", "other"),
    ("bench/", "other"),
    ("cli.py", "other"),
    ("tracetool.py", "other"),
    ("__init__.py", "other"),
)

_SRC_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_source(relpath):
    """Layer of ``relpath`` (relative to ``src/repro``), or None when no
    rule covers it."""
    relpath = relpath.replace(os.sep, "/")
    for prefix, layer in FILE_RULES:
        if relpath == prefix or (prefix.endswith("/")
                                 and relpath.startswith(prefix)):
            return layer
    return None


def layer_of_file(filename):
    """Layer of a profiler row's file: program files by rule, all else
    (stdlib, builtins, the harness) is ``python``."""
    at = filename.rfind(_SRC_MARKER)
    if at < 0:
        return "python"
    layer = layer_of_source(filename[at + len(_SRC_MARKER):])
    if layer is None:
        raise KeyError("no layer rule for %s" % filename)
    return layer


# -- pass T2: host self time and call counts from cProfile -------------------

#: Layer-boundary entry points: ``(class-or-module file suffix, function)``.
#: Their cumulative time per call is what crossing that boundary costs.
BOUNDARIES = (
    ("fs/vfs.py", ("pread", "pwrite", "fsync", "open", "close", "unlink",
                   "stat", "_syscall_entry")),
    ("io/ring.py", ("submit", "submit_and_wait", "submit_reaping")),
    ("fs/pmfs/pmfs.py", ("submit", "mount")),
    ("core/hinfs.py", ("submit", "mount")),
    ("fs/shard.py", ("submit",)),
    ("nvmm/device.py", ("read", "write", "write_persistent", "flush")),
    ("io/mmio.py", ("load", "store", "msync")),
    ("fs/qos.py", ("admit",)),
)


def profile_by_layer(stats, units):
    """Roll a ``pstats.Stats`` up by layer.

    Returns ``(self_frac, calls_per_op, boundaries)``: each layer's share
    of total self time, its call count per unit of work (counts repeat
    exactly across runs, shares do not), and the boundary table.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    boundaries = {}
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.stats.items():
        layer = layer_of_file(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        norm = filename.replace(os.sep, "/")
        for suffix, funcs in BOUNDARIES:
            if func in funcs and norm.endswith("/repro/" + suffix):
                boundaries["%s:%s" % (suffix, func)] = {
                    "layer": layer,
                    "calls_per_op": ncalls / units,
                    "cum_us_per_call": cumtime * 1e6 / ncalls,
                }
    total = sum(self_s.values())
    self_frac = {layer: s / total for layer, s in self_s.items()}
    calls_per_op = {layer: n / units for layer, n in calls.items()}
    return self_frac, calls_per_op, boundaries


# -- pass T1: virtual self time from the trace spine -------------------------

#: Trace-spine layer -> module layer.  ``fs`` is the mounted file system's
#: own code: ``core`` on a HiNFS stack, ``fs.pmfs`` otherwise.
SPINE = {
    "vfs": "fs.vfs", "ring": "io.ring", "qos": "fs.qos", "lock": "engine",
    "writeback": "core", "nvmm": "nvmm", "mmio": "io.mmio",
    "scrub": "fs.health",
}


def spine_layer(name, fs_layer):
    head = name.split(".", 1)[0]  # ring.sq_wait etc. belong to the ring
    return fs_layer if head == "fs" else SPINE[head]


def span_self_ns(spans, fs_layer):
    """``({module layer: self virtual ns}, misnested)`` over ``spans``.

    Per thread, spans and their phases are nested intervals on one
    clock (a ring batch span contains the request spans it executed);
    an interval's self time is its duration minus the intervals directly
    inside it.  The ring's dotted sub-phases (``ring.sq_wait`` ...) are
    per-SQE lifetimes that overlap each other, not thread time, and are
    left out.  ``misnested`` counts intervals that straddle their
    parent's end (clipped to it): 0 when the spine nests as documented.
    """
    by_thread = {}
    for order, span in enumerate(spans):
        intervals = by_thread.setdefault(span.thread, [])
        # Of two identical intervals the outer one sorts first: a span
        # recorded later closed later, and phases are listed in exit
        # order after their span's own interval.
        intervals.append((span.start_ns, -span.end_ns, -order,
                          -len(span.phases), span.layer))
        intervals.extend(
            (enter, -exit_, -order, -rank, layer)
            for rank, (layer, enter, exit_) in enumerate(span.phases)
            if "." not in layer)
    out = {}
    misnested = 0
    for intervals in by_thread.values():
        intervals.sort()
        stack = []  # [end, layer, self_ns]
        for start, neg_end, _order, _rank, layer in intervals:
            end = -neg_end
            while stack and stack[-1][0] <= start:
                done = stack.pop()
                out[done[1]] = out.get(done[1], 0) + done[2]
            if stack:
                if end > stack[-1][0]:
                    misnested += 1
                    end = stack[-1][0]
                stack[-1][2] -= end - start
            stack.append([end, spine_layer(layer, fs_layer), end - start])
        for done in stack:
            out[done[1]] = out.get(done[1], 0) + done[2]
    return out, misnested
