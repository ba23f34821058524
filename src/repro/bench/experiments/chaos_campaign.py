"""Chaos campaign: seeded faults mid-workload, recovery proven per stack.

Every comparison stack runs the same seeded :class:`ChaosCampaign`
(:mod:`repro.faults.chaos`): rounds of writes with permanent media
faults, transient persist failures (the device retries them), and
ring-level EIO (each armed SQE fails once, and is reported) injected
between oracle checkpoints; a torn-write power failure for the NVMM-native
stacks; then a forced degradation into ``degraded_ro`` that a scrub
pass must repair back to ``healthy``.

Expected shape:

- Zero unrecovered violations on every stack: each divergence from the
  reference model was *reported* (raised EIO or errseq) before it was
  observed.
- Every stack completes a full HEALTHY -> DEGRADED_RO -> HEALTHY cycle,
  so MTTR is defined, and ends the campaign healthy with a working
  write + fsync + read path.
- Scrub accounting balances: lines found bad are either repaired (a
  clean copy existed in DRAM or could be rebuilt from mirrors) or
  isolated with their block quarantined -- never silently dropped.
- The NVMMBD stacks repair more than they isolate (the page cache holds
  clean copies); the DAX stacks isolate more (no DRAM copy to heal
  from).
"""

from repro.bench.report import Table
from repro.bench.experiments.common import SMALL
from repro.faults.chaos import CHAOS_STACKS, TORN_CRASH_STACKS, run_campaign

FILE_SYSTEMS = CHAOS_STACKS


def run(scale=SMALL, file_systems=FILE_SYSTEMS, seed=0, rounds=2):
    config = scale.nvmm_config()

    table = Table(
        "Chaos campaign (seed %d, %d rounds): faults injected, recovery "
        "outcome, and MTTR per stack" % (seed, rounds),
        ["fs", "bad_lines", "repaired", "isolated", "ring_faults",
         "mttr_ns", "final_state", "violations"],
    )
    results = {}
    for fs_name in file_systems:
        result = run_campaign(fs_name, seed=seed, config=config,
                              rounds=rounds)
        results[fs_name] = result
        stats = result["stats"]
        table.add_row(
            fs_name,
            result["bad_lines_found"],
            result["repaired_lines"],
            result["isolated_lines"],
            stats["ring_fault_injections"],
            result["mttr_ns"],
            result["final_state"],
            len(result["violations"]),
        )

    data = {"seed": seed, "results": results}
    return [table], data


def check_shape(data):
    """The acceptance shape for the recovery story."""
    results = data["results"]
    for fs_name, result in results.items():
        # The whole point: no silent divergence anywhere, ever.
        assert result["violations"] == [], (fs_name, result["violations"])
        # Every stack ends the campaign healthy and writable again ...
        assert result["final_state"] == "healthy", (fs_name, result)
        # ... after a full degradation/recovery cycle, so MTTR is defined.
        assert result["mttr_ns"] is not None and result["mttr_ns"] > 0, \
            (fs_name, result["mttr_ns"])
        states = [(frm, to) for frm, to, _at, _why in
                  result["health_history"]]
        assert ("healthy", "degraded_ro") in states, (fs_name, states)
        assert ("degraded_ro", "healthy") in states, (fs_name, states)
        # Scrub accounting: every bad line the scrubber found was either
        # repaired or isolated (never silently dropped), every injected
        # permanent fault was found, and isolation always quarantined
        # the containing block.
        stats = result["stats"]
        found = result["bad_lines_found"]
        handled = result["repaired_lines"] + result["isolated_lines"]
        assert handled == found, (fs_name, found, handled)
        assert found >= len(result["fault_lines"]), (fs_name, result)
        if result["isolated_lines"]:
            assert result["quarantined_blocks"], (fs_name, result)
        # Faults were actually injected on every leg: the device's retry
        # policy absorbed the transient ones, and every armed SQE fired
        # exactly once (``violations == []`` shows its EIO was reported).
        assert result["fault_lines"], fs_name
        assert result["transient_lines"], fs_name
        assert stats["media_retries"] > 0, (fs_name, stats)
        assert stats["ring_fault_injections"] > 0, (fs_name, stats)
        assert stats["ring_fault_injections"] == \
            len(result["ring_fault_seqs"]), (fs_name, stats)
    # The torn-write leg ran (and recovered) on the NVMM-native stacks.
    for fs_name in TORN_CRASH_STACKS:
        if fs_name in results:
            torn = results[fs_name]["torn"]
            assert torn is not None and torn["words"], (fs_name, torn)
