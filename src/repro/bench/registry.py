"""Experiment registry: figure id -> module with ``run(scale)`` returning
``(list_of_tables, data)`` and ``check_shape(data)``."""

from repro.bench.experiments import (
    ablation_policies,
    ablation_watermarks,
    chaos_campaign,
    fig01_breakdown,
    fig02_fsync_bytes,
    fig06_model_accuracy,
    fig07_overall,
    fig08_scalability,
    fig09_iosize,
    fig10_buffersize,
    fig11_latency,
    fig12_traces,
    fig13_macro,
    mmap_threeway,
    ring_batch,
    scale_threads,
    shard_scaling,
    tenants_overload,
)

EXPERIMENTS = {
    "fig1": fig01_breakdown,
    "fig2": fig02_fsync_bytes,
    "fig6": fig06_model_accuracy,
    "fig7": fig07_overall,
    "fig8": fig08_scalability,
    "fig9": fig09_iosize,
    "fig10": fig10_buffersize,
    "fig11": fig11_latency,
    "fig12": fig12_traces,
    "fig13": fig13_macro,
    # Extensions: ablations of design choices the paper fixes or defers,
    # and the concurrency layer's thread-scalability sweep.
    "abl-policy": ablation_policies,
    "abl-watermark": ablation_watermarks,
    "scale": scale_threads,
    "ring": ring_batch,
    "mmap": mmap_threeway,
    "chaos": chaos_campaign,
    "tenants": tenants_overload,
    "shard": shard_scaling,
}

