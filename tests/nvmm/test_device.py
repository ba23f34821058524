"""Unit tests for the timed NVMM and DRAM devices."""

import pytest

from repro.engine.context import ExecContext, FreeContext
from repro.engine.env import SimEnv
from repro.nvmm.config import NVMMConfig
from repro.nvmm.device import DRAMDevice, NVMMDevice


@pytest.fixture()
def env():
    return SimEnv()


@pytest.fixture()
def cfg():
    return NVMMConfig()


def make_nvmm(env, cfg, size=1 << 16):
    return NVMMDevice(env, cfg, size)


def test_persistent_write_roundtrip_and_cost(env, cfg):
    dev = make_nvmm(env, cfg)
    ctx = ExecContext(env, "t")
    dev.write_persistent(ctx, 0, b"x" * 4096)
    # 64 lines * 200 ns = 12.8 us on one writer slot.
    assert ctx.now == 64 * 200
    assert dev.read(ctx, 0, 4096) == b"x" * 4096
    assert env.stats.bytes_written_nvmm == 4096


def test_unaligned_persistent_write_pays_straddle(env, cfg):
    dev = make_nvmm(env, cfg)
    ctx = ExecContext(env, "t")
    dev.write_persistent(ctx, 60, b"ab cd efg")  # 9 bytes across 2 lines
    assert ctx.now == 2 * 200


def test_read_costs_dram_speed(env, cfg):
    dev = make_nvmm(env, cfg)
    ctx = ExecContext(env, "t")
    dev.read(ctx, 0, 4096)
    assert ctx.now == cfg.load_cost_ns(4096)
    assert env.stats.bytes_read_nvmm == 4096


def test_cached_write_is_cheap_but_volatile(env, cfg):
    dev = make_nvmm(env, cfg)
    ctx = ExecContext(env, "t")
    dev.write_cached(ctx, 0, b"y" * 64)
    assert ctx.now < cfg.nvmm_persist_cost_ns(1)
    dev.crash()
    assert dev.read(ctx, 0, 64) == b"\0" * 64


def test_clflush_persists_and_pays(env, cfg):
    dev = make_nvmm(env, cfg)
    ctx = ExecContext(env, "t")
    dev.write_cached(ctx, 0, b"y" * 64)
    before = ctx.now
    assert dev.clflush(ctx, 0, 64) == 1
    assert ctx.now == before + 200
    dev.crash()
    assert dev.read(ctx, 0, 64) == b"y" * 64


def test_clflush_clean_range_is_free(env, cfg):
    dev = make_nvmm(env, cfg)
    ctx = ExecContext(env, "t")
    before = ctx.now
    assert dev.clflush(ctx, 0, 4096) == 0
    assert ctx.now == before


def test_concurrent_writers_queue_for_slots(env, cfg):
    dev = make_nvmm(env, cfg)
    slots = cfg.nvmm_writer_slots
    ctxs = [ExecContext(env, "t%d" % i) for i in range(slots + 1)]
    for ctx in ctxs:
        dev.write_persistent(ctx, 0, b"z" * 64)
    times = sorted(c.now for c in ctxs)
    # The first `slots` writers finish together; the extra one queues.
    assert times[:slots] == [200] * slots
    assert times[-1] == 400


def test_async_persist_returns_the_end_without_waiting(env, cfg):
    dev = make_nvmm(env, cfg)
    ctx = ExecContext(env, "wb", start_ns=1_000)
    end = dev.write_persistent_async(ctx, 60, b"ab cd efg")  # 2 lines
    assert end == 1_000 + 2 * 200
    assert ctx.now == 1_000
    assert env.stats.bytes_written_nvmm == 9
    assert dev.mem.persistent_read(60, 9) == b"ab cd efg"
    assert dev.write_persistent_async(ctx, 0, b"") == ctx.now
    assert dev.write_slots.total_grants == 1


def test_async_persists_overlap_across_the_writer_slots(env, cfg):
    dev = make_nvmm(env, cfg)
    slots = cfg.nvmm_writer_slots
    ctx = ExecContext(env, "wb")
    block = b"z" * 4096
    ends = [dev.write_persistent_async(ctx, i * 4096, block)
            for i in range(slots + 1)]
    # One block per slot in parallel; the extra one queues behind the first.
    assert ends == [64 * 200] * slots + [2 * 64 * 200]
    assert ctx.now == 0
    assert dev.write_slots.total_wait_ns == 64 * 200
    assert env.stats.bytes_written_nvmm == (slots + 1) * 4096
    ctx.sync_to(max(ends))
    assert ctx.now == 2 * 64 * 200


def test_async_persist_on_a_free_context_books_nothing(env, cfg):
    dev = NVMMDevice(env, cfg, 1 << 16, domain="dev1")
    ctx = FreeContext(env, "mkfs", start_ns=500)
    assert dev.write_persistent_async(ctx, 0, b"q" * 4096) == 500
    assert dev.mem.persistent_read(0, 4096) == b"q" * 4096
    assert dev.write_slots.total_grants == 0
    assert env.stats.bytes_written_nvmm == 0
    assert env.stats.counters == {}
    # A paying context on the same device is counted per domain.
    dev.write_persistent_async(ExecContext(env, "wb"), 0, b"q" * 64)
    assert env.stats.count("nvmm_slot_grants@dev1") == 1
    assert env.stats.count("nvmm_slot_grants_total") == 1


def test_fence_charges_fixed_cost(env, cfg):
    dev = make_nvmm(env, cfg)
    ctx = ExecContext(env, "t")
    dev.fence(ctx)
    assert ctx.now == cfg.fence_ns


def test_flush_all_persists_everything(env, cfg):
    dev = make_nvmm(env, cfg)
    ctx = ExecContext(env, "t")
    dev.write_cached(ctx, 0, b"a")
    dev.write_cached(ctx, 4096, b"b")
    dev.flush_all(ctx)
    dev.crash()
    assert dev.read(ctx, 0, 1) == b"a"
    assert dev.read(ctx, 4096, 1) == b"b"


def test_dram_device_roundtrip_and_volatility(env, cfg):
    dram = DRAMDevice(env, cfg, 8192)
    ctx = ExecContext(env, "t")
    dram.write(ctx, 100, b"hello")
    assert dram.read(ctx, 100, 5) == b"hello"
    assert env.stats.bytes_written_dram == 5
    dram.crash()
    assert dram.read(ctx, 100, 5) == b"\0" * 5


def test_dram_write_much_cheaper_than_nvmm(env, cfg):
    dram = DRAMDevice(env, cfg, 1 << 20)
    nvmm = make_nvmm(env, cfg, 1 << 20)
    c1 = ExecContext(env, "dram")
    c2 = ExecContext(env, "nvmm")
    dram.write(c1, 0, b"x" * 4096)
    nvmm.write_persistent(c2, 0, b"x" * 4096)
    assert c2.now > 5 * c1.now


def test_two_devices_share_slots_in_same_env(env, cfg):
    first = make_nvmm(env, cfg)
    second = NVMMDevice(env, cfg, 4096)
    assert first.write_slots is second.write_slots


# -- power cycle: a new device on surviving media ---------------------------


def test_on_region_power_cycles_the_media(env, cfg):
    old = make_nvmm(env, cfg)
    ctx = ExecContext(env, "t")
    old.write_cached(ctx, 0, b"kept" * 16)
    old.clflush(ctx, 0, 64)
    old.write_cached(ctx, 4096, b"lost" * 16)  # never flushed
    old.crash()

    env2 = SimEnv()
    new = NVMMDevice.on_region(env2, cfg, old.mem)
    assert new.mem is old.mem and new.size == old.size
    ctx2 = ExecContext(env2, "t")
    assert new.read(ctx2, 0, 64) == b"kept" * 16
    assert new.read(ctx2, 4096, 64) == b"\0" * 64
    # Env-bound state is new: own slot pool, zeroed stats, no fault model.
    assert new.env is env2
    assert new.write_slots is not old.write_slots
    assert new.write_slots is env2.resource("nvmm_write_slots")
    assert env.stats.bytes_written_nvmm == 64
    assert env2.stats.bytes_written_nvmm == 0
    assert new.fault_model is None
    new.write_persistent(ctx2, 8192, b"z" * 64)
    assert env2.stats.bytes_written_nvmm == 64
    assert env.stats.bytes_written_nvmm == 64


def test_on_region_honours_domain(env, cfg):
    old = NVMMDevice(env, cfg, 1 << 16, domain="dev1")
    env2 = SimEnv()
    new = NVMMDevice.on_region(env2, cfg, old.mem, domain="dev1")
    assert new.domain == "dev1"
    assert new.write_slots is env2.resource("nvmm_write_slots@dev1")
    assert not env2.has_resource("nvmm_write_slots")
    new.write_persistent(ExecContext(env2, "t"), 0, b"x" * 64)
    assert env2.stats.count("nvmm_slot_grants@dev1") == 1
    assert env2.stats.count("nvmm_slot_grants_total") == 1
    assert env.stats.count("nvmm_slot_grants_total") == 0


def test_on_region_rejects_volatile_lines(env, cfg):
    old = make_nvmm(env, cfg)
    old.write_cached(ExecContext(env, "t"), 0, b"dirty")
    with pytest.raises(ValueError):
        NVMMDevice.on_region(SimEnv(), cfg, old.mem)
