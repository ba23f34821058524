"""Tests for the command-line entry points."""

import glob
import io
import json
import os
import pathlib
import re
import types
from contextlib import redirect_stdout

import pytest

from repro import cli, tracetool
from repro.bench.registry import EXPERIMENTS
from repro.bench.report import Table

REPO = str(pathlib.Path(__file__).resolve().parents[2])


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


def test_cli_unknown_experiment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["fig99"], ["simspeed"], ["fig2", "nope"],
                 ["fig2", "nope", "--json", "unwritten"]):
        code, out = run_cli(argv)
        assert code == 2
        # Rejected before anything ran, not after fig2 did.
        assert out == ""
        assert os.listdir(str(tmp_path)) == []


def test_cli_runs_smallest_experiment():
    code, out = run_cli(["fig2", "--no-check"])
    assert code == 0
    assert "Figure 2" in out
    assert "tpcc" in out


def test_cli_json_dumps_series_as_point_lists(tmp_path):
    """``--json`` must archive numbers a tool can diff, not repr strings
    (``"Series('hinfs', [(1, 218591.7..."`` is what it used to write)."""
    out_file = str(tmp_path / "ring.json")
    code, _ = run_cli(["ring", "--json", out_file])
    assert code == 0
    with open(out_file) as fileobj:
        text = fileobj.read()
    # Virtual time is deterministic: the checked-in artifact reproduces
    # byte for byte (the same comparison CI's bench matrix makes).
    with open(os.path.join(REPO, "BENCH_ring.json")) as fileobj:
        assert text == fileobj.read()
    doc = json.loads(text)

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
    with pytest.raises(TypeError):
        cli._to_json({"nested": [object()]})


def _strict_loads(text):
    def refuse(token):
        raise ValueError("%s is not JSON" % token)

    return json.loads(text, parse_constant=refuse)


def test_checked_in_artifacts_are_strict_json():
    paths = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))
    assert len(paths) >= 7
    for path in paths:
        with open(path) as fileobj:
            doc = _strict_loads(fileobj.read())
        (name,) = doc["experiments"]
        assert os.path.basename(path) == "BENCH_%s.json" % name


def test_artifacts_that_record_placement_keep_what_placement_cannot_move():
    """``BENCH_shard.json``'s ``crashcheck`` block and the line / block
    numbers of ``BENCH_chaos.json`` follow the block allocator's
    placement (they were regenerated when it became address-ordered).
    The explored and injected work does not: the injected literals
    predate that change, and so do the explored draws; the tapes were
    re-recorded 8 events and 4 boundaries shorter per stack (917 / 417,
    1085 / 495, 918 / 417, 1086 / 495 before) when a run of fresh
    pointers became one journaled range, and the states between the
    persists that went away left the sums with them.  The shard rows
    were re-recorded once more when a rename stopped moving a file
    between shards: the sequence no longer copies into hidden temp
    files or logs a ``copied`` record, and it is 13 ops instead of 14
    (104 draws each instead of 112).  The chaos rows
    were re-pinned once more when an armed ring SQE began to fail once
    instead of being resubmitted: the campaign's later random draws
    shift, and with them the ext stacks' MTTR and one more
    acknowledged loss on ext4-dax; the counts injected stay."""
    def load(name):
        with open(os.path.join(REPO, "BENCH_%s.json" % name)) as fileobj:
            return json.load(fileobj)["experiments"][name]

    explored = [(r["fs_kind"], r["events"], r["boundaries"],
                 r["states_checked"] + r["states_deduped"],
                 r["eviction_draws"], r["torn_draws"], r["violations"])
                for r in load("shard")["crashcheck"]]
    assert explored == [("hinfs@2", 579, 266, 813, 104, 104, []),
                        ("hinfs@4", 747, 344, 961, 104, 104, []),
                        ("pmfs@2", 580, 266, 802, 104, 104, []),
                        ("pmfs@4", 748, 344, 963, 104, 104, [])]
    injected = {
        fs: (len(r["fault_lines"]), r["repaired_lines"], r["isolated_lines"],
             len(r["quarantined_blocks"]), r["acknowledged_losses"],
             r["mttr_ns"], r["violations"])
        for fs, r in load("chaos")["results"].items()}
    assert injected == {"ext2-nvmmbd": (6, 4, 2, 1, 1, 85410, []),
                        "ext4-dax": (6, 0, 6, 5, 5, 221105, []),
                        "ext4-nvmmbd": (6, 4, 2, 1, 1, 85410, []),
                        "hinfs": (6, 0, 6, 4, 4, 347057, []),
                        "pmfs": (6, 0, 6, 5, 5, 215985, [])}


def _fake_experiment(monkeypatch, run, check_shape=lambda data: None):
    monkeypatch.setitem(
        EXPERIMENTS, "fake",
        types.SimpleNamespace(run=run, check_shape=check_shape))


def test_cli_json_writes_non_finite_floats_as_null(tmp_path, monkeypatch):
    data = {"spread": float("inf"), "rows": [float("nan"), 1.5, 2]}
    _fake_experiment(monkeypatch, lambda scale: ([], data))
    out_file = str(tmp_path / "fake.json")
    assert run_cli(["fake", "--json", out_file])[0] == 0
    with open(out_file) as fileobj:
        doc = _strict_loads(fileobj.read())
    assert doc["experiments"]["fake"] == {"spread": None,
                                          "rows": [None, 1.5, 2]}
    assert data["spread"] == float("inf")  # the in-memory value is untouched


def test_cli_failed_shape_check_still_prints_and_archives(
        tmp_path, monkeypatch, capsys):
    table = Table("the run that most needs reading", ["x"])
    table.add_row(1)

    def check_shape(data):
        raise AssertionError("wrong shape")

    _fake_experiment(monkeypatch, lambda scale: ([table], {"x": 1}),
                     check_shape)
    out_file = str(tmp_path / "fake.json")
    code, out = run_cli(["fake", "--json", out_file])
    assert code == 1
    assert "the run that most needs reading" in out
    assert "SHAPE CHECK FAILED: wrong shape" in capsys.readouterr().err
    with open(out_file) as fileobj:
        assert json.load(fileobj)["experiments"] == {"fake": {"x": 1}}
    assert run_cli(["fake", "--no-check"])[0] == 0


def test_cli_assertion_inside_run_is_not_a_shape_failure(monkeypatch):
    def run(scale):
        raise AssertionError("a bug, not a shape")

    _fake_experiment(monkeypatch, run)
    with pytest.raises(AssertionError, match="a bug, not a shape"):
        run_cli(["fake"])


def test_ci_bench_matrix_gates_every_registered_experiment():
    with open(os.path.join(REPO, ".github", "workflows", "ci.yml")) as fileobj:
        text = fileobj.read()
    (matrix,) = re.findall(r"^\s*experiment: \[([^\]]*)\]", text, re.M)
    assert [name.strip() for name in matrix.split(",")] == sorted(EXPERIMENTS)


def test_cli_trace_exports_chrome_json(tmp_path):
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
