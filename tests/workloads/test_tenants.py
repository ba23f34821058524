"""Fast smoke profile for the multi-tenant serving harness (tier-1).

The full 500-tenant experiment lives in ``hinfs-bench tenants`` (a leg of
CI's bench matrix); these tests run tens of tenants in a few seconds and
pin the harness's contracts: every arrival mode completes, summaries are
deterministic, shed traffic is retried and only the shed class pays.
"""

from repro.bench.experiments import tenants_overload
from repro.bench.experiments.common import SMALL
from repro.bench.runner import run_workload
from repro.fs.qos import PRIO_BRONZE, PRIO_GOLD, PRIO_SILVER, QosController
from repro.workloads.tenants import (
    MODE_BURST,
    MODE_CLOSED,
    MODE_OPEN,
    TenantFleet,
    TenantSpec,
)


def _run_mixed(n_tenants=30, seed=7, fs_name="hinfs", qos=True):
    fleet = TenantFleet.mixed(n_tenants, ops=8, think_ns=100_000,
                              interval_ns=300_000, seed=seed)
    holder = []

    def setup(env, fs, vfs):
        controller = QosController(env, 4 << 30,
                                   buffer=getattr(fs, "buffer", None))
        vfs.attach_qos(controller)
        fleet.register_all(controller)
        holder.append(controller)

    run_workload(fs_name, fleet, device_size=SMALL.device_size,
                 hinfs_config=SMALL.hinfs_config(),
                 setup=setup if qos else None)
    return fleet


def _reference_mixed(n_tenants, ops, seed, sync, file_size=64 << 10, **shape):
    """``shard_scaling._sync_fleet`` as it was before ``mixed`` took
    ``sync`` (and, with ``sync=False``, ``mixed`` itself as it was): the
    class/mode blend written out by hand."""
    specs = []
    for tid in range(n_tenants):
        slot = tid % 10
        if slot < 5:
            priority, weight = PRIO_BRONZE, 1
        elif slot < 8:
            priority, weight = PRIO_SILVER, 2
        else:
            priority, weight = PRIO_GOLD, 4
        mode = (MODE_CLOSED, MODE_OPEN, MODE_BURST)[tid % 3]
        specs.append(TenantSpec(
            tid, weight=weight, priority=priority, mode=mode, ops=ops,
            sync=sync, **shape))
    return TenantFleet(specs, file_size=file_size, seed=seed)


def _same_fleet(got, want):
    assert len(got.specs) == len(want.specs) == 500
    for mine, theirs in zip(got.specs, want.specs):
        for field in TenantSpec.__slots__:
            assert getattr(mine, field) == getattr(theirs, field), (
                mine, field)
    assert (got.seed, got.file_size, got.threads) == (
        want.seed, want.file_size, want.threads)


def test_mixed_sync_fleet_equals_the_shard_bench_reference():
    shape = dict(io_size=32 << 10, read_fraction=0.25, think_ns=10_000,
                 interval_ns=100_000)
    _same_fleet(
        TenantFleet.mixed(500, ops=6, seed=42, sync=True,
                          file_size=64 << 10, **shape),
        _reference_mixed(500, 6, 42, sync=True, file_size=64 << 10,
                         **shape))
    assert all(spec.sync for spec in TenantFleet.mixed(10, sync=True).specs)


def test_mixed_without_sync_is_unchanged():
    shape = dict(io_size=4096, read_fraction=0.5, think_ns=150_000,
                 interval_ns=400_000)
    _same_fleet(TenantFleet.mixed(500, ops=12, seed=0, **shape),
                _reference_mixed(500, 12, 0, sync=False, **shape))
    assert not any(spec.sync for spec in TenantFleet.mixed(10).specs)


def test_mixed_fleet_completes_every_mode():
    fleet = _run_mixed()
    summary = fleet.summarize()
    assert summary["tenants"] == 30
    assert summary["ops"] == 30 * 8
    assert summary["dropped"] == 0
    assert summary["p50"] <= summary["p99"] <= summary["p999"]
    assert set(summary["classes"]) == {"bronze", "silver", "gold"}
    modes = {s.mode for s in fleet.specs}
    assert modes == {MODE_CLOSED, MODE_OPEN, MODE_BURST}


def test_fleet_summary_is_deterministic():
    first = _run_mixed(seed=11).summarize()
    second = _run_mixed(seed=11).summarize()
    assert first == second
    assert _run_mixed(seed=12).summarize() != first


def test_fleet_runs_without_qos_attached():
    summary = _run_mixed(qos=False).summarize()
    assert summary["ops"] == 30 * 8
    assert summary["shed"] == 0


def test_overload_sheds_only_bronze_and_holds_gold():
    """Tiny overload leg: a bronze O_SYNC flood next to gold, admission
    control on -- bronze is shed, gold is untouched."""
    specs = [
        TenantSpec(tid, weight=1, priority=PRIO_BRONZE, mode=MODE_OPEN,
                   ops=40, io_size=32 << 10, read_fraction=0.0,
                   interval_ns=100_000, sync=True)
        for tid in range(12)
    ] + [
        TenantSpec(12 + tid, weight=4, priority=PRIO_GOLD, mode=MODE_OPEN,
                   ops=40, io_size=4096, read_fraction=0.5,
                   interval_ns=200_000, sync=True)
        for tid in range(4)
    ]
    fleet = TenantFleet(specs, seed=3)
    holder = []

    def setup(env, fs, vfs):
        controller = QosController(env, 32 << 30,
                                   buffer=getattr(fs, "buffer", None),
                                   slot_ceiling_ns=150_000)
        vfs.attach_qos(controller)
        fleet.register_all(controller)
        holder.append((controller, env))

    run_workload("hinfs", fleet, device_size=SMALL.device_size,
                 hinfs_config=SMALL.hinfs_config(buffer_bytes=2 << 20),
                 setup=setup)
    controller, env = holder[0]
    summary = fleet.summarize()
    assert env.stats.count("qos_overload_enters") > 0
    assert env.stats.count("qos_shed_ops_prio_%d" % PRIO_BRONZE) > 0
    assert summary["classes"]["gold"]["shed"] == 0
    assert summary["classes"]["gold"]["dropped"] == 0
    # Gold's tail stays orders of magnitude under the flood's self-damage.
    assert summary["classes"]["gold"]["p999"] \
        < summary["classes"]["bronze"]["p50"]


def test_experiment_shape_check_rejects_collapse_in_qos_on():
    """check_shape is a real gate: hand it a QoS-on gold tail above the
    SLO and it must fail."""
    import copy
    import pytest

    _tables, data = tenants_overload.run(
        scale=SMALL, file_systems=("hinfs",), n_tenants=20,
        overload_tenants=16)
    # The real (tiny) run may or may not hold the full-size shape; only
    # the mutation behaviour is under test here.
    broken = copy.deepcopy(data)
    broken["overload"]["qos_on"]["classes"]["gold"]["p999"] = 10**12
    with pytest.raises(AssertionError):
        tenants_overload.check_shape(broken)
