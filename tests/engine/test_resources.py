"""Unit tests for FCFS timed resources (the NVMM writer-slot model)."""

import pytest

from repro.engine.errors import SimulationError
from repro.engine.resources import FCFSServers


def test_single_server_serialises_requests():
    servers = FCFSServers(1)
    first = servers.reserve(0, 100)
    second = servers.reserve(0, 100)
    assert (first.start_ns, first.end_ns) == (0, 100)
    assert (second.start_ns, second.end_ns) == (100, 200)
    assert second.wait_ns == 100


def test_two_servers_run_in_parallel():
    servers = FCFSServers(2)
    first = servers.reserve(0, 100)
    second = servers.reserve(0, 100)
    assert first.start_ns == 0
    assert second.start_ns == 0


def test_third_request_queues_behind_two_servers():
    servers = FCFSServers(2)
    servers.reserve(0, 100)
    servers.reserve(0, 100)
    third = servers.reserve(0, 50)
    assert third.start_ns == 100
    assert third.end_ns == 150


def test_late_request_starts_at_request_time():
    servers = FCFSServers(1)
    servers.reserve(0, 10)
    grant = servers.reserve(500, 10)
    assert grant.start_ns == 500
    assert grant.wait_ns == 0


def test_zero_duration_reservation():
    servers = FCFSServers(1)
    grant = servers.reserve(5, 0)
    assert grant.start_ns == grant.end_ns == 5


def test_negative_duration_rejected():
    with pytest.raises(SimulationError):
        FCFSServers(1).reserve(0, -1)


def test_capacity_must_be_positive():
    with pytest.raises(SimulationError):
        FCFSServers(0)


def _utilisation(servers, horizon_ns):
    """Fraction of aggregate server time busy up to ``horizon_ns``."""
    if horizon_ns <= 0:
        return 0.0
    return min(1.0, servers.total_busy_ns / (horizon_ns * servers.capacity))


def test_utilisation_accounting():
    servers = FCFSServers(2)
    servers.reserve(0, 100)
    servers.reserve(0, 100)
    assert _utilisation(servers, 100) == pytest.approx(1.0)
    assert _utilisation(servers, 200) == pytest.approx(0.5)


def test_reset_clears_timeline():
    servers = FCFSServers(1)
    servers.reserve(0, 1000)
    servers.reset()
    grant = servers.reserve(0, 10)
    assert grant.start_ns == 0


def test_earliest_free_tracks_min_server():
    servers = FCFSServers(2)
    servers.reserve(0, 100)
    assert servers.earliest_free_ns() == 0
    servers.reserve(0, 50)
    assert servers.earliest_free_ns() == 50


def test_wait_accumulates():
    servers = FCFSServers(1)
    servers.reserve(0, 100)
    servers.reserve(0, 100)
    servers.reserve(0, 100)
    assert servers.total_wait_ns == 100 + 200
    assert servers.total_grants == 3
