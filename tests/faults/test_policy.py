"""Tests for the unified RetryPolicy primitive."""

import pytest

from repro.faults.policy import RetryPolicy


def test_budget_is_one_based_and_bounded():
    policy = RetryPolicy(max_retries=2)
    assert policy.allows(1)
    assert policy.allows(2)
    assert not policy.allows(3)
    assert not RetryPolicy(max_retries=0).allows(1)


def test_backoff_is_exponential_without_jitter():
    policy = RetryPolicy(base_backoff_ns=1_000, multiplier=2.0,
                         jitter_frac=0.0)
    assert [policy.backoff_ns(n) for n in (1, 2, 3)] == [1_000, 2_000, 4_000]
    with pytest.raises(ValueError):
        policy.backoff_ns(0)


def test_jitter_is_additive_and_seeded():
    def schedule(seed):
        policy = RetryPolicy(base_backoff_ns=1_000, multiplier=2.0,
                             jitter_frac=0.5, seed=seed)
        return [policy.backoff_ns(n) for n in (1, 2, 3)]

    first, second = schedule(7), schedule(7)
    assert first == second  # same seed, same schedule
    floor = [1_000, 2_000, 4_000]
    for got, base in zip(first, floor):
        assert base <= got <= int(base * 1.5)
    assert schedule(8) != first


def test_constructor_validates_knobs():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff_ns=-1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter_frac=1.5)


def test_breaker_trips_after_consecutive_exhaustions():
    policy = RetryPolicy(max_retries=0, breaker_threshold=3,
                         breaker_cooldown_ns=1_000_000)
    for _ in range(2):
        policy.record_failure(now_ns=0)
    assert not policy.circuit_open(0)
    policy.record_failure(now_ns=0)
    assert policy.circuit_open(0)
    assert policy.breaker_trips == 1
    # Cooldown expiry half-opens the circuit ...
    assert not policy.circuit_open(1_000_000)
    # ... and the consecutive count restarts from zero.
    policy.record_failure(now_ns=1_000_000)
    assert not policy.circuit_open(1_000_000)


def test_breaker_reopens_after_cooldown_when_failures_continue():
    policy = RetryPolicy(max_retries=0, breaker_threshold=2,
                         breaker_cooldown_ns=1_000)
    policy.record_failure(now_ns=0)
    policy.record_failure(now_ns=0)
    assert policy.circuit_open(500)
    # Cooldown expiry half-opens the circuit with a fresh budget of
    # consecutive failures ...
    assert not policy.circuit_open(1_000)
    policy.record_failure(now_ns=1_000)
    assert not policy.circuit_open(1_000)
    # ... but sustained failure trips it again, for a full new cooldown
    # window anchored at the re-tripping failure.
    policy.record_failure(now_ns=1_200)
    assert policy.breaker_trips == 2
    assert policy.circuit_open(2_100)
    assert not policy.circuit_open(2_200)


def test_success_closes_the_circuit():
    policy = RetryPolicy(max_retries=0, breaker_threshold=1)
    policy.record_failure(now_ns=0)
    assert policy.circuit_open(0)
    policy.record_success()
    assert not policy.circuit_open(0)

