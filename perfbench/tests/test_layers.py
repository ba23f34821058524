"""Self time from nested spans."""

from repro.obs.trace import Span

from perfbench import layers


def span(thread, layer, start, end, phases=()):
    s = Span(1, "op", thread, start, layer=layer)
    for phase in phases:
        s.add_phase(*phase)
    s.close(end)
    return s


def test_self_time_is_duration_minus_direct_children():
    # Phases are recorded at exit: innermost first.
    s = span("t", "vfs", 0, 100,
             [("nvmm", 20, 50), ("lock", 60, 70), ("fs", 10, 80)])
    out, misnested = layers.span_self_ns([s], "fs.pmfs")
    assert misnested == 0
    assert out == {"fs.vfs": 30, "fs.pmfs": 30, "nvmm": 30, "engine": 10}


def test_identical_intervals_keep_the_outer_one_outside():
    s = span("t", "vfs", 0, 100, [("nvmm", 10, 40), ("fs", 0, 100)])
    out, _ = layers.span_self_ns([s], "core")
    assert out == {"fs.vfs": 0, "core": 70, "nvmm": 30}


def test_request_spans_nest_inside_their_ring_batch():
    requests = [span("t", "vfs", 0, 40, [("fs", 10, 40)]),
                span("t", "vfs", 40, 90, [("fs", 50, 90)])]
    batch = span("t", "ring", 0, 100, [("ring.sq_wait", 0, 40),
                                       ("ring.in_flight", 0, 40),
                                       ("ring.in_flight", 40, 90)])
    other = span("bg", "writeback", 0, 500)
    out, misnested = layers.span_self_ns(requests + [batch, other], "fs.pmfs")
    assert misnested == 0
    assert out == {"io.ring": 10, "fs.vfs": 20, "fs.pmfs": 70, "core": 500}


def test_straddling_interval_is_counted():
    s = span("t", "vfs", 0, 100, [("fs", 50, 120)])
    out, misnested = layers.span_self_ns([s], "fs.pmfs")
    assert misnested == 1 and sum(out.values()) == 100
