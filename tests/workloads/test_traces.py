"""Tests for trace format, synthesis, and replay."""

import io

import pytest

from repro.bench.runner import run_workload
from repro.workloads.traces import (
    SYNTHESIZERS,
    SyntheticTrace,
    TraceRecord,
    TraceReplayWorkload,
    dump_trace,
    load_trace,
    synthesize_facebook,
    synthesize_lasr,
    synthesize_usr0,
    synthesize_usr1,
)


def test_record_roundtrip():
    record = TraceRecord("write", "/a/b", 4096, 512)
    parsed = TraceRecord.from_line(record.to_line())
    assert (parsed.op, parsed.path, parsed.offset, parsed.size) == (
        "write", "/a/b", 4096, 512)


def test_record_rejects_unknown_op():
    with pytest.raises(ValueError):
        TraceRecord("mmap", "/x")


def test_record_rejects_malformed_line():
    with pytest.raises(ValueError):
        TraceRecord.from_line("write /x")


def test_dump_and_load_trace():
    records = [TraceRecord("write", "/f", 0, 10), TraceRecord("fsync", "/f")]
    buf = io.StringIO()
    dump_trace(records, buf)
    buf.seek(0)
    loaded = load_trace(buf)
    assert len(loaded) == 2
    assert loaded[1].op == "fsync"


def test_fsync_byte_stats():
    trace = SyntheticTrace("t", [
        TraceRecord("write", "/a", 0, 100),
        TraceRecord("write", "/b", 0, 50),
        TraceRecord("fsync", "/a"),
        TraceRecord("write", "/a", 0, 25),  # written after the sync
    ])
    total, fsynced = trace.fsync_byte_stats()
    assert total == 175
    assert fsynced == 100


def test_fsync_stats_unlink_discards_pending():
    trace = SyntheticTrace("t", [
        TraceRecord("write", "/a", 0, 100),
        TraceRecord("unlink", "/a"),
        TraceRecord("fsync", "/a"),
    ])
    assert trace.fsync_byte_stats() == (100, 0)


def test_synthesizers_are_deterministic():
    a = synthesize_usr0(ops=200)
    b = synthesize_usr0(ops=200)
    assert [r.to_line() for r in a.records] == [r.to_line() for r in b.records]


def _fsync_fraction(trace):
    """Share of the written bytes that a later fsync covers."""
    total, fsynced = trace.fsync_byte_stats()
    return 0.0 if total == 0 else fsynced / total


def test_lasr_has_no_fsync():
    trace = synthesize_lasr(ops=1000)
    assert _fsync_fraction(trace) == 0.0
    assert all(r.op != "fsync" for r in trace.records)


def test_facebook_small_and_synced():
    trace = synthesize_facebook(ops=1000)
    writes = [r for r in trace.records if r.op == "write"]
    assert max(r.size for r in writes) <= 1024
    assert _fsync_fraction(trace) > 0.6


def test_usr_traces_mixed_sync():
    for synth in (synthesize_usr0, synthesize_usr1):
        frac = _fsync_fraction(synth(ops=1500))
        assert 0.2 < frac < 0.9, frac


def test_all_synthesizers_produce_requested_ops():
    for name, synth in SYNTHESIZERS.items():
        trace = synth(ops=300)
        # fsyncs are injected inline, so at least `ops` records exist.
        assert len(trace.records) >= 300, name


def test_replay_runs_on_pmfs():
    trace = synthesize_usr0(ops=300)
    result = run_workload("pmfs", TraceReplayWorkload(trace),
                          device_size=64 << 20)
    assert result.ops > 300  # opens/closes add syscalls
    assert result.stats.syscall_time_ns.get("write", 0) > 0


def test_replay_unlinked_files_handled():
    trace = SyntheticTrace("t", [
        TraceRecord("write", "/t/f0", 0, 100),
        TraceRecord("unlink", "/t/f0"),
        TraceRecord("read", "/t/f0", 0, 100),  # recreated on demand
    ])
    result = run_workload("pmfs", TraceReplayWorkload(trace),
                          device_size=64 << 20)
    assert result.ops > 0
