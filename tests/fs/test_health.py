"""Tests for the mount-health state machine (HEALTHY -> DEGRADED_RO ->
ISOLATED, with the clean-scrub recovery edge)."""

import pytest

from repro.engine.env import SimEnv
from repro.fs.health import DEGRADED_RO, HEALTHY, ISOLATED, MountHealth
from repro.fs.scrub import ScrubReport


def _health(**kwargs):
    return MountHealth(SimEnv(), **kwargs)


def _report(repaired=0, isolated=0, unrecovered=0):
    report = ScrubReport("t")
    report.repaired_lines = repaired
    report.isolated_lines = isolated
    report.unrecovered_lines = unrecovered
    report.bad_lines_found = repaired + isolated + unrecovered
    return report


def test_initial_state_serves_everything():
    health = _health()
    assert health.state == HEALTHY
    assert health.writable and health.readable
    assert health.mttr_ns() is None


def test_threshold_validation():
    with pytest.raises(ValueError):
        _health(media_error_threshold=0)
    assert _health(media_error_threshold=5).isolate_threshold == 20


def test_errors_below_threshold_stay_healthy():
    health = _health(media_error_threshold=3)
    assert health.count_media_error(10) == HEALTHY
    assert health.count_media_error(20) == HEALTHY
    assert health.history == []


def test_degrades_at_threshold_and_refuses_writes():
    health = _health(media_error_threshold=3)
    for at in (10, 20, 30):
        state = health.count_media_error(at)
    assert state == DEGRADED_RO
    assert not health.writable
    assert health.readable  # remount-ro posture: reads still served
    assert health.history[0][:3] == (HEALTHY, DEGRADED_RO, 30)


def test_isolates_when_errors_keep_climbing():
    health = _health(media_error_threshold=2)
    for at in range(1, 9):
        state = health.count_media_error(at)
    assert state == ISOLATED
    assert not health.readable
    transitions = [(src, dst) for src, dst, _at, _why in health.history]
    assert transitions == [(HEALTHY, DEGRADED_RO), (DEGRADED_RO, ISOLATED)]


def test_clean_scrub_recovers_degraded_mount():
    health = _health(media_error_threshold=2)
    health.count_media_error(100)
    health.count_media_error(200)
    assert health.state == DEGRADED_RO
    assert health.scrub_result(900, _report(repaired=2)) == HEALTHY
    assert health.writable
    assert health.media_errors == 0
    assert health.reason is None
    assert health.env.stats.count("health_recoveries") == 1
    # The error budget is fresh: one new error does not re-degrade.
    assert health.count_media_error(1000) == HEALTHY


def test_clean_scrub_recovers_isolated_mount():
    health = _health(media_error_threshold=1)
    for at in (10, 20, 30, 40):
        health.count_media_error(at)
    assert health.state == ISOLATED
    assert health.scrub_result(50, _report(isolated=4)) == HEALTHY


def test_dirty_scrub_changes_nothing():
    health = _health(media_error_threshold=1)
    health.count_media_error(10)
    assert health.scrub_result(20, _report(unrecovered=1)) == DEGRADED_RO
    assert health.media_errors == 1


def test_clean_scrub_while_healthy_resets_error_count():
    health = _health(media_error_threshold=3)
    health.count_media_error(10)
    health.scrub_result(20, _report())
    assert health.media_errors == 0
    assert health.history == []  # no transition recorded


def test_force_degraded_only_from_healthy():
    health = _health()
    health.force_degraded(5, "journal recovery failed")
    assert health.state == DEGRADED_RO
    assert health.reason == "journal recovery failed"
    history_len = len(health.history)
    health.force_degraded(6, "again")
    assert len(health.history) == history_len


def test_mttr_measures_outage_spans():
    health = _health(media_error_threshold=1)
    health.count_media_error(100)            # leaves HEALTHY at 100
    health.scrub_result(400, _report())      # back at 400 -> outage 300
    health.count_media_error(1000)           # leaves again at 1000
    health.scrub_result(1100, _report())     # back at 1100 -> outage 100
    assert health.mttr_ns() == 200
    # An open outage (degraded, not yet recovered) is not counted.
    health.count_media_error(5000)
    assert health.mttr_ns() == 200
