"""tools/history.py and the BENCH_history.jsonl rows it appends."""

import importlib.util
import json
import os

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "history", os.path.join(_ROOT, "tools", "history.py"))
history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(history)
_calls_spec = importlib.util.spec_from_file_location(
    "calls", os.path.join(_ROOT, "tools", "calls.py"))
calls = importlib.util.module_from_spec(_calls_spec)
_calls_spec.loader.exec_module(calls)


def _rows():
    with open(os.path.join(_ROOT, "BENCH_history.jsonl")) as fileobj:
        return [json.loads(line) for line in fileobj if line.strip()]


def test_every_history_row_parses_with_its_keys():
    rows = _rows()
    assert rows
    prs = [row["pr"] for row in rows]
    assert prs == sorted(set(prs))
    for row in rows:
        assert sorted(row) == sorted(history.ROW_KEYS)
        assert isinstance(row["pr"], int) and row["parent"]
        loc = dict(row["loc"])
        total = loc.pop("total")
        assert loc and total == sum(loc.values())
        # Rows older than the lifecycle or workload table lack it.
        assert {"mapped", "syscalls"} <= set(row["calls"]) \
            <= {"mapped", "syscalls", "lifecycle", "workloads"}
        for frames in row["calls"]["syscalls"].values():
            assert sorted(frames) == sorted(calls.SYSCALLS)
        for frames in row["calls"]["mapped"].values():
            assert set(frames) <= set(calls.MAPPED_OPS)
        for name, frames in row["calls"].get("lifecycle", {}).items():
            assert name in calls.LIFECYCLE_STACKS
            assert sorted(frames) == sorted(calls.LIFECYCLE_OPS)
        for name, per_op in row["calls"].get("workloads", {}).items():
            assert name in calls.WORKLOADS
            assert per_op > 0
        assert row["host_ops_per_s"]
        for key, ab in row["host_ops_per_s"].items():
            workload, seed = key.split("@")
            assert workload and int(seed) >= 0
            assert sorted(ab) == sorted(history.AB_KEYS)
            assert ab["parent"] > 0 and ab["change"] > 0
            assert 0 <= ab["better"] <= ab["pairs"]


def _record(rate):
    return json.dumps({"metrics": {"host_ops_per_s": {"value": rate,
                                                      "unit": "1/s"}}})


def test_the_ab_table_pairs_the_saved_runs_in_order(tmp_path):
    for side, rates in (("parent", [100, 120, 90, 110]),
                        ("change", [130, 110, 95, 140, 999])):
        (tmp_path / ("fio-mmap@42.%s.jsonl" % side)).write_text(
            "\n".join(_record(r) for r in rates) + "\n")
    table = history.ab_table(str(tmp_path))
    # The change's unpaired fifth run counts in no pair but in its median.
    assert table == {"fio-mmap@42": {"parent": 105.0, "change": 130.0,
                                     "pairs": 4, "better": 3}}


def test_the_tool_appends_one_row_per_call(tmp_path):
    out = tmp_path / "history.jsonl"
    history.append_row({"pr": 1}, str(out))
    history.append_row({"pr": 2}, str(out))
    assert [json.loads(line)["pr"] for line in
            out.read_text().splitlines()] == [1, 2]
