"""Device-scaling of the sharded namespace: one mount, 1..8 NVMM devices.

The single-device HiNFS stack is bounded by the paper's ``N_w`` writer
slots -- Little's law applied to the one memory-bus device.  The shard
layer (:mod:`repro.fs.shard`) fans one VFS mount out over M devices,
each with its *own* resource domain (writer-slot pool, media-fault
model, errseq log), so aggregate write bandwidth should scale with
device count while the namespace, the syscall surface, and every client
stay unchanged.

This experiment drives the 500-tenant mixed fleet -- the five
priority/weight blends and three arrival modes of the serving harness,
opened O_SYNC so every write eagerly persists and the writer slots are
the binding resource -- against ``hinfs@M`` for M in 1, 2, 4, 8, and
checks three contracts:

- **monotone scaling**: aggregate mixed ops/s never decreases with
  device count (the whole point of sharding);
- **exact ledgers**: the per-device request ledger
  (``sharded_reqs@devN``) and writer-slot grant ledger
  (``nvmm_slot_grants@devN``) each sum *exactly* to their SimStats
  totals, and every per-device grant count equals the grant counter of
  that device's own ``FCFSServers`` pool -- no request and no slot
  grant is lost or double-billed by the routing layer;
- **crash safety rides along**: the crash-point explorer
  (:mod:`repro.faults.crashpoints`) runs ``SHARD_OPS`` -- both
  cross-shard rename protocols (a directory move and a rename over a
  victim on another shard) and the one-journal renames around them --
  on both journaling bases at M=2 and M=4, and must find no violation
  in any crash state while reaching every swap step.
"""

from repro.bench.report import Table
from repro.bench.experiments.common import SMALL
from repro.faults.crashpoints import SHARD_OPS, run_crashcheck
from repro.fs.shard import XMV_STEPS
from repro.workloads.tenants import TenantFleet

#: Shard counts swept; "hinfs@1" runs the same ShardedFS routing layer
#: over a single device, so the sweep isolates device count, not stack.
DEVICE_COUNTS = (1, 2, 4, 8)

#: The sharded stacks the crash explorer rides along on.
CRASHCHECK_STACKS = ("hinfs@2", "hinfs@4", "pmfs@2", "pmfs@4")

#: Fault-plan sites of ``ShardedFS._rename_swap``: the explored
#: sequence must reach every step of the protocol.
XMV_SITES = tuple("xmv:" + step for step in XMV_STEPS)

#: The scaling bar check_shape holds the 8-device mount to, relative to
#: one device.  The recorded run scales ~6x; 2x is the red line under
#: which "sharding" would just be routing overhead.
MIN_SPEEDUP_8DEV = 2.0


def _ledgers(run, ndevices):
    """Per-device ledgers + exactness flags for one run."""
    stats = run.stats
    reqs = {("dev%d" % s): stats.count("sharded_reqs@dev%d" % s)
            for s in range(ndevices)}
    grants = {("dev%d" % s): stats.count("nvmm_slot_grants@dev%d" % s)
              for s in range(ndevices)}
    resources = run.fs.env.resources()
    pool_grants = {("dev%d" % s):
                   resources["nvmm_write_slots@dev%d" % s].total_grants
                   for s in range(ndevices)}
    return {
        "sharded_reqs": reqs,
        "sharded_reqs_total": stats.count("sharded_reqs_total"),
        "slot_grants": grants,
        "slot_grants_total": stats.count("nvmm_slot_grants_total"),
        "pool_grants": pool_grants,
        "reqs_exact": sum(reqs.values())
        == stats.count("sharded_reqs_total"),
        "grants_exact": sum(grants.values())
        == stats.count("nvmm_slot_grants_total"),
        "pools_exact": grants == pool_grants,
    }


def run(scale=SMALL, seed=42, n_tenants=500, ops_per_tenant=6):
    scaling = []
    for ndevices in DEVICE_COUNTS:
        # The mixed serving fleet, durable-write edition: every tenant
        # opens O_SYNC with 32 KB writes, so the fleet is bounded by NVMM
        # writer-slot bandwidth rather than by its own think time.
        fleet = TenantFleet.mixed(
            n_tenants, ops=ops_per_tenant, io_size=32 << 10,
            read_fraction=0.25, think_ns=10_000, interval_ns=100_000,
            seed=seed, sync=True, file_size=64 << 10,
        )
        # device_size is per device: scaling adds media.
        result = scale.run("hinfs@%d" % ndevices, fleet)
        entry = {
            "devices": ndevices,
            "ops": result.ops,
            "elapsed_ns": result.elapsed_ns,
            "ops_per_s": result.throughput,
        }
        entry.update(_ledgers(result, ndevices))
        scaling.append(entry)

    # The crash-safety gate rides with the bench: every crash state of
    # the cross-shard rename protocols, both bases.
    crash_reports = [r.as_dict() for r in run_crashcheck(
        CRASHCHECK_STACKS, ops=SHARD_OPS, seed=seed,
        eviction_samples_per_op=8, torn_samples_per_op=8)]

    base = scaling[0]["ops_per_s"]
    scaling_table = Table(
        "Aggregate mixed throughput of the %d-tenant O_SYNC fleet, one "
        "sharded HiNFS mount over 1..8 NVMM devices" % n_tenants,
        ["devices", "ops", "elapsed_ms", "agg_kops_s", "speedup",
         "ledgers"],
    )
    for entry in scaling:
        exact = (entry["reqs_exact"] and entry["grants_exact"]
                 and entry["pools_exact"])
        scaling_table.add_row(
            entry["devices"], entry["ops"],
            "%.2f" % (entry["elapsed_ns"] / 1e6),
            "%.1f" % (entry["ops_per_s"] / 1e3),
            "%.2fx" % (entry["ops_per_s"] / base if base else 0.0),
            "exact" if exact else "MISMATCH",
        )

    crash_table = Table(
        "Crash-point explorer over the cross-shard rename protocols "
        "(remount + recovery of every crash state)",
        ["stack", "tape_events", "states", "duplicates", "xmv_sites",
         "result"],
    )
    for report in crash_reports:
        crash_table.add_row(
            report["fs_kind"], report["events"], report["states_checked"],
            report["states_deduped"],
            sum(site in report["sites"] for site in XMV_SITES),
            "FAIL" if report["violations"] else "PASS",
        )

    data = {
        "seed": seed,
        "n_tenants": n_tenants,
        "ops_per_tenant": ops_per_tenant,
        "device_counts": list(DEVICE_COUNTS),
        "min_speedup_8dev": MIN_SPEEDUP_8DEV,
        "scaling": scaling,
        "crashcheck": crash_reports,
    }
    return [scaling_table, crash_table], data


def check_shape(data):
    """Acceptance shape: monotone scaling, exact ledgers, crash-safe."""
    scaling = data["scaling"]
    assert [e["devices"] for e in scaling] == list(data["device_counts"])
    # Every sweep point completed the identical fleet of work.
    ops = {e["ops"] for e in scaling}
    assert len(ops) == 1 and ops.pop() > 0, scaling
    # Aggregate mixed ops/s is monotone non-decreasing in device count,
    # and 8 devices clear the real-scaling bar over 1.
    rates = [e["ops_per_s"] for e in scaling]
    assert all(b >= a for a, b in zip(rates, rates[1:])), rates
    assert rates[-1] >= data["min_speedup_8dev"] * rates[0], rates
    # Per-device ledgers: one entry per device, each summing *exactly*
    # to the SimStats total, and each device's slot-grant count equal to
    # its own FCFSServers pool's grant counter.
    for entry in scaling:
        ndevices = entry["devices"]
        assert len(entry["sharded_reqs"]) == ndevices, entry
        assert len(entry["slot_grants"]) == ndevices, entry
        assert sum(entry["sharded_reqs"].values()) \
            == entry["sharded_reqs_total"], entry
        assert sum(entry["slot_grants"].values()) \
            == entry["slot_grants_total"], entry
        assert entry["slot_grants"] == entry["pool_grants"], entry
        assert entry["sharded_reqs_total"] > 0, entry
        assert entry["slot_grants_total"] > 0, entry
    # Crash-point explorer: no violation in any crash state, and the
    # sequence drove the swap protocol through every step.
    assert [r["fs_kind"] for r in data["crashcheck"]] \
        == list(CRASHCHECK_STACKS), data["crashcheck"]
    for report in data["crashcheck"]:
        assert not report["violations"], report
        assert report["states_checked"] > 0, report
        assert set(XMV_SITES) <= set(report["sites"]), report
