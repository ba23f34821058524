"""Chaos campaign engine: zero unrecovered violations, full recovery,
and seed-for-seed determinism of fault sites and outcomes."""

import pytest

from repro.faults.chaos import (
    CHAOS_STACKS,
    TORN_CRASH_STACKS,
    run_campaign,
)


@pytest.mark.parametrize("fs_name", CHAOS_STACKS)
def test_campaign_recovers_every_stack(fs_name):
    result = run_campaign(fs_name, seed=0, rounds=1)
    assert result["violations"] == []
    assert result["final_state"] == "healthy"
    # The degradation leg forced remount-ro and a clean scrub recovered.
    transitions = [(frm, to) for frm, to, _at, _why in
                   result["health_history"]]
    assert ("healthy", "degraded_ro") in transitions
    assert ("degraded_ro", "healthy") in transitions
    assert result["mttr_ns"] is not None and result["mttr_ns"] > 0
    # Every bad line the scrubber found was either repaired or isolated.
    assert result["bad_lines_found"] > 0
    handled = result["repaired_lines"] + result["isolated_lines"]
    assert handled == result["bad_lines_found"]
    # Injected faults actually exercised the device's retry loop, and
    # every armed SQE fired exactly once.
    assert result["fault_lines"] and result["transient_lines"]
    assert result["stats"]["media_retries"] > 0
    assert result["stats"]["ring_fault_injections"] > 0
    assert result["stats"]["ring_fault_injections"] == \
        len(result["ring_fault_seqs"])


@pytest.mark.parametrize("fs_name", TORN_CRASH_STACKS)
def test_torn_crash_leg_runs_on_persistent_memory_stacks(fs_name):
    result = run_campaign(fs_name, seed=0, rounds=1)
    torn = result["torn"]
    assert torn is not None
    assert torn["words"]  # a strict subset of the line's words persisted
    assert result["violations"] == []


def test_block_stacks_skip_the_torn_leg():
    result = run_campaign("ext2-nvmmbd", seed=0, rounds=1)
    assert result["torn"] is None


@pytest.mark.parametrize("fs_name", ["pmfs", "hinfs"])
def test_same_seed_reproduces_sites_outcomes_and_stats(fs_name):
    a = run_campaign(fs_name, seed=11, rounds=1)
    b = run_campaign(fs_name, seed=11, rounds=1)
    # The whole result is reproducible: fault sites, torn-line choice,
    # recovery outcomes, health history, and every stats counter.
    assert a == b


def test_bench_experiment_runs_and_shape_checks():
    from repro.bench.experiments import chaos_campaign

    tables, data = chaos_campaign.run(file_systems=("pmfs", "ext2-nvmmbd"),
                                      rounds=1)
    chaos_campaign.check_shape(data)
    (table,) = tables
    assert [row[0] for row in table.rows] == ["pmfs", "ext2-nvmmbd"]


def test_different_seed_diverges():
    a = run_campaign("pmfs", seed=0, rounds=1)
    b = run_campaign("pmfs", seed=1, rounds=1)
    assert (a["fault_lines"], a["transient_lines"], a["torn"]) != (
        b["fault_lines"], b["transient_lines"], b["torn"])
