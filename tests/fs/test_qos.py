"""Tests for the QoS layer: token buckets, admission control, overload
hysteresis -- including the two Hypothesis properties the design
document pins down (bucket admission bound, weighted-fairness spread)."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import run_workload
from repro.engine.env import SimEnv
from repro.engine.stats import fairness_spread, jain_index
from repro.fs.errors import TryAgain
from repro.fs.qos import (
    PRIO_BRONZE,
    PRIO_GOLD,
    PRIO_SILVER,
    QosController,
    TokenBucket,
    _SCALE,
)
from repro.workloads.tenants import MODE_OPEN, TenantFleet, TenantSpec


def _req(tenant, nbytes=4096):
    return types.SimpleNamespace(tenant=tenant, total_bytes=nbytes)


class _FakeBuffer:
    def __init__(self, used, total):
        self.used_blocks = used
        self.blocks_total = total


class _Ctx:
    """Minimal ExecContext stand-in for controller unit tests."""

    def __init__(self, now=0):
        self.now = now

    def charge(self, ns, category=None):
        if ns > 0:
            self.now += ns

    def layer(self, name):
        import contextlib
        return contextlib.nullcontext()


# -- TokenBucket -----------------------------------------------------------

def test_bucket_validates_knobs():
    with pytest.raises(ValueError):
        TokenBucket(0, 10)
    with pytest.raises(ValueError):
        TokenBucket(10, -1)
    with pytest.raises(ValueError):
        TokenBucket(100, 100).take(0, -5)


def test_bucket_burst_then_exact_debt_wait():
    # 1000 B/s, 100 B burst: the burst is free, the next 50 B wait
    # exactly 50/1000 s = 50 ms of virtual time.
    bucket = TokenBucket(1000, 100)
    assert bucket.take(0, 100) == 0
    assert bucket.take(0, 50) == 50_000_000
    # After the wait the debt is exactly paid: one more byte waits 1 ms.
    assert bucket.take(50_000_000, 1) == 1_000_000


def test_bucket_refill_caps_at_burst():
    bucket = TokenBucket(1000, 100)
    bucket.take(0, 100)
    # A long idle refills to the cap, not beyond.
    assert bucket.peek_tokens(10**12) == 100


def test_bucket_is_deterministic():
    def run_once():
        bucket = TokenBucket(12345, 4096)
        return [bucket.take(t * 1000, 512) for t in range(64)]

    assert run_once() == run_once()


@settings(max_examples=60)
@given(
    rate=st.integers(min_value=1, max_value=10**10),
    burst=st.integers(min_value=0, max_value=1 << 20),
    arrivals=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**7),   # gap ns
                  st.integers(min_value=0, max_value=1 << 16)),  # bytes
        min_size=1, max_size=64,
    ),
)
def test_bucket_never_admits_more_than_rate_window_plus_burst(
        rate, burst, arrivals):
    """The ISSUE's admission bound: over any window from t=0, admitted
    bytes never exceed rate x window + burst, for any arrival sequence.

    The client blocks for the returned wait (as ``QosController.admit``
    charges it), so the next take happens no earlier than the previous
    admission instant.
    """
    bucket = TokenBucket(rate, burst)
    now = 0
    admitted_bytes = 0
    for gap, nbytes in arrivals:
        now += gap
        wait = bucket.take(now, nbytes)
        assert wait >= 0
        now += wait
        admitted_bytes += nbytes
        # Exact integer bound in token units: everything admitted by
        # virtual time ``now`` fits in the initial burst plus accrual.
        assert admitted_bytes * _SCALE <= burst * _SCALE + rate * now


# -- QosController ---------------------------------------------------------

def test_controller_validates_knobs():
    env = SimEnv()
    with pytest.raises(ValueError):
        QosController(env, 0)
    with pytest.raises(ValueError):
        QosController(env, 100, high_watermark=0.5, low_watermark=0.8)
    qos = QosController(env, 100)
    with pytest.raises(ValueError):
        qos.register("t", weight=0)
    qos.register("t")
    with pytest.raises(ValueError):
        qos.register("t")  # duplicate


def test_weighted_shares_rebalance_on_registration():
    qos = QosController(SimEnv(), 1000)
    a = qos.register("a", weight=1)
    assert a.bucket.rate_bps == 1000
    b = qos.register("b", weight=3)
    assert a.bucket.rate_bps == 250
    assert b.bucket.rate_bps == 750


def test_untenanted_and_unregistered_traffic_bypasses():
    qos = QosController(SimEnv(), 1)  # 1 B/s: would throttle anything
    ctx = _Ctx()
    qos.admit(ctx, _req(None, 1 << 20))
    qos.admit(ctx, _req("ghost", 1 << 20))
    assert ctx.now == 0  # no wait charged, no shed


def test_throttle_wait_is_charged_and_counted():
    env = SimEnv()
    qos = QosController(env, 1000, default_burst_bytes=0)
    state = qos.register("t")
    ctx = _Ctx()
    qos.admit(ctx, _req("t", 500))
    assert ctx.now == 500_000_000  # 500 B at 1000 B/s
    assert state.throttle_ns == 500_000_000
    assert env.stats.count("qos_throttle_ns") == 500_000_000
    assert env.stats.count("qos_admitted_ops") == 1
    assert env.stats.count("qos_admitted_bytes") == 500


def test_overload_sheds_only_shed_class_with_hysteresis():
    env = SimEnv()
    buffer = _FakeBuffer(used=0, total=100)
    qos = QosController(env, 1 << 30, buffer=buffer,
                        high_watermark=0.85, low_watermark=0.60)
    qos.register("low", priority=PRIO_BRONZE)
    qos.register("mid", priority=PRIO_SILVER)
    qos.register("high", priority=PRIO_GOLD)
    ctx = _Ctx()
    # Below the high watermark: everyone admitted.
    buffer.used_blocks = 84
    qos.admit(ctx, _req("low"))
    # Crossing it: bronze shed, silver/gold pass.
    buffer.used_blocks = 90
    with pytest.raises(TryAgain):
        qos.admit(ctx, _req("low"))
    qos.admit(ctx, _req("mid"))
    qos.admit(ctx, _req("high"))
    # Hysteresis: between low and high watermarks, still overloaded.
    buffer.used_blocks = 70
    with pytest.raises(TryAgain):
        qos.admit(ctx, _req("low"))
    # Below the low watermark: overload exits, bronze admitted again.
    buffer.used_blocks = 10
    qos.admit(ctx, _req("low"))
    assert env.stats.count("qos_overload_enters") == 1
    assert env.stats.count("qos_overload_exits") == 1
    assert env.stats.count("qos_shed_ops") == 2
    assert env.stats.count("qos_shed_ops_prio_%d" % PRIO_BRONZE) == 2
    assert qos.tenant("low").shed_ops == 2


# -- weighted fairness on the full stack -----------------------------------

@settings(max_examples=6, deadline=None)
@given(n_tenants=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16))
def test_equal_weight_tenants_share_capacity_fairly(n_tenants, seed):
    """The ISSUE's fairness property: 2-8 equal-weight tenants writing
    disjoint files under a binding aggregate capacity end a fixed window
    with byte shares spread within a small bound of each other."""
    specs = [
        TenantSpec(tid, weight=1, priority=PRIO_SILVER, mode=MODE_OPEN,
                   ops=4000, io_size=4096, read_fraction=0.0,
                   interval_ns=20_000)
        for tid in range(n_tenants)
    ]
    fleet = TenantFleet(specs, seed=seed)
    holder = []

    def setup(env, fs, vfs):
        qos = QosController(env, 64 << 20)  # binding: demand is ~200 MB/s
        vfs.attach_qos(qos)
        fleet.register_all(qos)
        holder.append(qos)

    run_workload("hinfs", fleet, device_size=64 << 20, setup=setup,
                 duration_ns=30_000_000)
    shares = [fleet.results[s.tenant_id].bytes_done for s in specs]
    assert all(share > 0 for share in shares)
    assert fairness_spread(shares) <= 1.5, shares
    assert jain_index(shares) >= 0.95, shares
