"""Tests for the command-line entry points."""

import io
import os
import tempfile
from contextlib import redirect_stdout

import pytest

from repro import cli, tracetool


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_cli_list():
    code, out = run_cli(["--list"])
    assert code == 0
    for name in ("fig1", "fig7", "fig13", "abl-policy"):
        assert name in out


def test_cli_no_args_lists():
    code, out = run_cli([])
    assert code == 0
    assert "fig1" in out


def test_cli_unknown_experiment():
    code, _ = run_cli(["fig99"])
    assert code == 2


def test_cli_runs_smallest_experiment():
    code, out = run_cli(["fig2", "--no-check"])
    assert code == 0
    assert "Figure 2" in out
    assert "tpcc" in out


def test_cli_json_dumps_series_as_point_lists(tmp_path):
    """``--json`` must archive numbers a tool can diff, not repr strings
    (``"Series('hinfs', [(1, 218591.7..."`` is what it used to write)."""
    import json

    out_file = str(tmp_path / "ring.json")
    code, _ = run_cli(["ring", "--json", out_file])
    assert code == 0
    with open(out_file) as fileobj:
        doc = json.load(fileobj)

    def strings(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            for item in value:
                yield from strings(item)
        elif isinstance(value, str):
            yield value

    assert not [s for s in strings(doc) if s.startswith("Series(")]
    series = doc["experiments"]["ring"]["throughput"]["hinfs"]
    assert series["name"] == "hinfs"
    assert series["points"] and all(
        isinstance(x, int) and isinstance(y, float)
        for x, y in series["points"])


def test_cli_json_refuses_what_it_cannot_serialise():
    with pytest.raises(TypeError):
        cli._to_json(object())


def test_cli_trace_exports_chrome_json(tmp_path):
    import json

    out_file = str(tmp_path / "trace.json")
    code, out = run_cli(["trace", "--fs", "hinfs",
                         "--workload", "fileserver", "-o", out_file])
    assert code == 0
    assert "MISMATCH" not in out  # per-layer sums equal the stats totals
    with open(out_file) as fileobj:
        doc = json.load(fileobj)
    events = doc["traceEvents"]
    assert events
    assert {e["ph"] for e in events} <= {"X", "M"}
    for event in events:
        if event["ph"] == "X":
            assert event["cat"] in ("vfs", "fs", "writeback", "nvmm")
            assert event["args"]["dur_ns"] >= 0


def test_tracetool_synth_stats_roundtrip(tmp_path):
    trace_file = str(tmp_path / "t.trace")
    assert tracetool.main(["synth", "lasr", "-o", trace_file,
                           "--ops", "300"]) == 0
    out = io.StringIO()
    with redirect_stdout(out):
        assert tracetool.main(["stats", trace_file]) == 0
    assert "fsync bytes:    0.0%" in out.getvalue()


def test_tracetool_replay(tmp_path):
    trace_file = str(tmp_path / "t.trace")
    tracetool.main(["synth", "facebook", "-o", trace_file, "--ops", "200"])
    out = io.StringIO()
    with redirect_stdout(out):
        assert tracetool.main(["replay", trace_file, "--fs", "pmfs",
                               "--device-mb", "64"]) == 0
    assert "simulated elapsed" in out.getvalue()
