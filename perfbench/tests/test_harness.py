"""The harness measures what it says: determinism, checks, exit codes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, cli, harness, verify
from perfbench.cases import CASES, FioSync, crash_plan


def finished(case):
    case.setup()
    for _ in case.slices():
        pass
    return case


def test_sliced_run_equals_unsliced_run():
    sliced = finished(FioSync(42, quick=True))
    whole = FioSync(42, quick=True)
    whole.setup()
    whole.scheduler.run()
    assert sliced.virtual() == whole.virtual()
    assert sliced.env.stats.summary() == whole.env.stats.summary()


def test_shadow_checker_passes_then_catches_one_flipped_byte():
    case = finished(FioSync(42, quick=True))
    assert case.verify() == (2, [])
    model = case.shadow["/fio.1.dat"]
    model[12345] ^= 0x01
    checks, failures = case.verify()
    assert checks == 2 and len(failures) == 1
    assert "/fio.1.dat" in failures[0]


def test_seeds_give_different_op_streams():
    a, _ = verify.fio_shadow(FioSync(42, quick=True).make_workload())
    b, _ = verify.fio_shadow(FioSync(7, quick=True).make_workload())
    assert a != b
    assert crash_plan(42) != crash_plan(7)
    assert crash_plan(42) == crash_plan(42)


@pytest.mark.parametrize("name", sorted(CASES))
def test_quick_repeat_is_correct_and_deterministic(name):
    first = harness.run_repeat(CASES[name](42, quick=True))
    again = harness.run_repeat(CASES[name](42, quick=True))
    assert first["failures"] == [] and first["units"] > 0
    assert first["virtual"] == again["virtual"]
    assert first["counts"] == again["counts"]
    assert all(v > 0 for k, v in first["virtual"].items()
               if k not in ("virt_lat_p50_us", "virt_lat_p999_us"))


def test_call_counts_repeat_exactly_across_processes():
    runs = [harness.spawn_repeat("fio-sync", 42, "t2", quick=True)
            for _ in range(2)]
    assert runs[0]["t2"]["host_calls_per_op"] == \
        runs[1]["t2"]["host_calls_per_op"]
    assert runs[0]["virtual"] == runs[1]["virtual"]
    shares = runs[0]["t2"]["host_self_frac"]
    assert abs(sum(shares.values()) - 1.0) < 1e-3
    assert shares["fs.vfs"] > 0 and shares["core"] == 0


def test_traced_repeat_leaves_virtual_results_unchanged():
    plain = harness.run_repeat(FioSync(42, quick=True))
    traced = harness.run_repeat(FioSync(42, quick=True), "t1")
    assert traced["virtual"] == plain["virtual"]
    assert traced["t1"]["misnested"] == 0
    assert traced["t1"]["virt_closure_frac"] == pytest.approx(1.0)


def test_summarize_takes_each_slices_fastest_repeat():
    def record(slice_s, **extra):
        base = {"units": 100, "slice_s": slice_s, "virtual": {"v": 1.0},
                "setup_s": 1.0, "host_peak_rss_mb": 50.0, "checks": 1,
                "failures": []}
        base.update(extra)
        return base

    summary, attempted, failures, spread = harness.summarize([
        record([1.0, 3.0], setup_s=0.5), record([2.0, 1.0]),
        record([4.0, 4.0], setup_s=2.0)])
    assert summary["host_ops_per_s"] == 50.0 and summary["setup_s"] == 1.0
    assert attempted == 303 and failures == []
    assert sorted(spread["host_ops_per_s"]) == [
        25.0, pytest.approx(100 / 3), 50.0]
    _, _, failures, _ = harness.summarize([
        record([1.0]), record([1.0], virtual={"v": 2.0})])
    assert len(failures) == 1


def test_failed_check_fails_the_run(monkeypatch, capsys):
    bad = {"units": 10, "slice_s": [1.0], "setup_s": 1.0, "checks": 2,
           "host_peak_rss_mb": 1.0, "failures": ["/fio.0.dat: differs"],
           "virtual": dict.fromkeys(
               ("virt_ops_per_s", "virt_lat_mean_us", "virt_lat_p99_x_mean",
                "nvmm_write_amp"), 1.0)}
    monkeypatch.setattr(harness, "timed_set", lambda *a, **k: [bad])
    code = cli.run_main(["--workload", "fio-sync", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] == 12
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]


def test_verdicts():
    def steady(v):
        return v, [v * 0.99, v, v * 1.01]

    def noisy(v):
        return v, [v * 0.8, v, v * 1.2]

    assert cli.verdict("higher", 0.1, steady(100), steady(101)) == "unchanged"
    assert cli.verdict("higher", 0.1, steady(100), steady(80)) == "REGRESSION"
    assert cli.verdict("lower", 0.1, steady(100), steady(80)) == "improved"
    assert cli.verdict("lower", 0.1, steady(100), steady(120)) == "REGRESSION"
    assert cli.verdict("higher", 0.1, noisy(100), noisy(101)) == "unresolved"
    assert cli.verdict("higher", 0.1, noisy(100), noisy(200)) == "improved"


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fio-sync",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
