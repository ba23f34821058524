"""Tests for the experiment runner and registry plumbing."""

import ast
import inspect
import pkgutil

import pytest

from repro.bench.experiments.common import SCALES, SMALL, personality_kwargs
from repro.bench.registry import EXPERIMENTS
from repro.bench.runner import FS_NAMES, build_stack, run_workload
from repro.engine.env import SimEnv
from repro.nvmm.config import NVMMConfig
from repro.bench import experiments
from repro.workloads.filebench import (
    PERSONALITIES, Fileserver, Varmail, Webproxy, Webserver,
)
from repro.workloads.fio import FioWorkload


@pytest.mark.parametrize("fs_name", FS_NAMES)
def test_build_stack_every_fs(fs_name):
    env = SimEnv()
    fs, vfs = build_stack(env, fs_name, NVMMConfig(), 32 << 20)
    from repro.engine.context import ExecContext

    ctx = ExecContext(env, "t")
    vfs.write_file(ctx, "/x", b"hello")
    assert vfs.read_file(ctx, "/x") == b"hello"


def test_build_stack_unknown_fs():
    with pytest.raises(ValueError):
        build_stack(SimEnv(), "zfs", NVMMConfig(), 32 << 20)


def test_run_workload_measures_only_after_prepare():
    workload = FioWorkload(io_size=4096, file_size=1 << 20, ops_per_thread=50)
    result = run_workload("pmfs", workload, device_size=32 << 20)
    # Prepare wrote 1 MiB but measurement starts afterwards: the measured
    # NVMM write bytes reflect only the fio ops (plus journaling).
    assert result.stats.bytes_written_nvmm < 1 << 20
    assert result.ops >= 50
    assert result.elapsed_ns > 0
    assert result.throughput > 0


def test_run_workload_duration_deadline():
    workload = Fileserver(threads=1, files_per_thread=5,
                          duration_ops=1_000_000)
    result = run_workload("pmfs", workload, device_size=64 << 20,
                          duration_ns=20_000_000)
    assert result.elapsed_ns <= 40_000_000  # one op past the deadline


def test_run_workload_deterministic():
    def once():
        workload = Fileserver(threads=2, files_per_thread=5, duration_ops=10)
        return run_workload("hinfs", workload, device_size=64 << 20)

    first, second = once(), once()
    assert first.ops == second.ops
    assert first.elapsed_ns == second.elapsed_ns
    assert first.stats.bytes_written_nvmm == second.stats.bytes_written_nvmm


def test_run_workload_unmount_drains():
    workload = Fileserver(threads=1, files_per_thread=5, duration_ops=5)
    kept = run_workload("hinfs", workload, device_size=64 << 20)
    workload = Fileserver(threads=1, files_per_thread=5, duration_ops=5)
    drained = run_workload("hinfs", workload, device_size=64 << 20,
                           unmount=True)
    assert drained.stats.bytes_written_nvmm >= kept.stats.bytes_written_nvmm


def test_sync_mount_makes_writes_eager():
    workload = Fileserver(threads=1, files_per_thread=5, duration_ops=5)
    result = run_workload("hinfs", workload, device_size=64 << 20,
                          sync_mount=True)
    assert result.stats.count("hinfs_sync_writes") > 0
    assert result.stats.count("hinfs_lazy_writes") == 0


def test_registry_lists_every_paper_figure():
    assert set(EXPERIMENTS) == {
        "fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "abl-policy", "abl-watermark", "scale", "ring",
        "mmap", "chaos", "tenants", "shard",
    }
    for module in EXPERIMENTS.values():
        assert hasattr(module, "run")
        assert hasattr(module, "check_shape")


def test_every_experiment_module_is_registered_exactly_once():
    on_disk = {info.name for info in pkgutil.iter_modules(experiments.__path__)}
    registered = [module.__name__.rpartition(".")[2]
                  for module in EXPERIMENTS.values()]
    assert sorted(registered) == sorted(on_disk - {"common"})
    for module in EXPERIMENTS.values():
        # ``hinfs-bench --list`` prints the docstring's first line.
        assert module.__doc__.strip().splitlines()[0].strip()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_run_returns_a_list_of_tables(name):
    """Read off the source (running all 18 takes a quarter of an hour):
    ``run`` ends in ``return [table, ...], data`` or ``return tables,
    data``.  The runs tier-1 does make (fig2 and ring through the CLI,
    chaos and tenants in their own suites) print through the same loop."""
    tree = ast.parse(inspect.getsource(EXPERIMENTS[name]))
    (run,) = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "run"]
    last = run.body[-1]
    assert isinstance(last, ast.Return)
    tables, _data = last.value.elts
    assert isinstance(tables, ast.List) or (
        isinstance(tables, ast.Name) and tables.id == "tables")


def _same_run(got, want):
    assert got.ops == want.ops
    assert got.elapsed_ns == want.elapsed_ns
    assert got.stats.summary() == want.stats.summary()


@pytest.mark.parametrize("fs_name", ["hinfs", "pmfs", "ext2-nvmmbd"])
def test_scale_run_is_run_workload_sized_by_the_scale(fs_name):
    def workload():
        return Fileserver(threads=2, files_per_thread=8, duration_ops=12)

    _same_run(
        SMALL.run(fs_name, workload(), unmount=True),
        run_workload(fs_name, workload(), device_size=SMALL.device_size,
                     cache_pages=SMALL.cache_pages,
                     hinfs_config=SMALL.hinfs_config(), unmount=True))
    # Overrides win over the scale's sizing.
    tight = SMALL.hinfs_config(buffer_bytes=1 << 20)
    overridden = SMALL.run(fs_name, workload(), cache_pages=512,
                           hinfs_config=tight, device_size=64 << 20)
    _same_run(
        overridden,
        run_workload(fs_name, workload(), device_size=64 << 20,
                     cache_pages=512, hinfs_config=tight))
    if fs_name == "hinfs":
        assert overridden.fs.hconfig == tight != SMALL.hinfs_config()
    if fs_name == "ext2-nvmmbd":
        assert overridden.fs.cache.capacity == 512


#: fig8's and fig10's fileset overrides, spelled out as they were.
_FILESERVER_FIG8 = dict(files_per_thread=16, mean_file_size=32 << 10,
                        io_size=32 << 10)
_FILESERVER_FIG10 = dict(files_per_thread=24, mean_file_size=32 << 10,
                         io_size=32 << 10)


@pytest.mark.parametrize("name, threads, overrides, reference", [
    ("fileserver", None, {},
     lambda s: Fileserver(threads=s.threads, duration_ops=100_000,
                          files_per_thread=s.files_per_thread,
                          mean_file_size=64 << 10, io_size=64 << 10)),
    ("webserver", None, {},
     lambda s: Webserver(threads=s.threads, duration_ops=100_000,
                         files_per_thread=int(s.files_per_thread * 1.5),
                         mean_file_size=128 << 10, io_size=128 << 10)),
    ("webproxy", None, {},
     lambda s: Webproxy(threads=s.threads, duration_ops=100_000,
                        files_per_thread=s.files_per_thread)),
    ("varmail", 1, {},
     lambda s: Varmail(threads=1, duration_ops=100_000,
                       files_per_thread=s.files_per_thread)),
    ("fileserver", 10, _FILESERVER_FIG8,
     lambda s: Fileserver(threads=10, duration_ops=100_000,
                          **_FILESERVER_FIG8)),
    ("fileserver", None, _FILESERVER_FIG10,
     lambda s: Fileserver(threads=s.threads, duration_ops=100_000,
                          **_FILESERVER_FIG10)),
    ("webproxy", 8, dict(files_per_thread=30),
     lambda s: Webproxy(threads=8, duration_ops=100_000,
                        files_per_thread=30)),
    ("fileserver", None, dict(mean_file_size=1024, io_size=64),
     lambda s: Fileserver(threads=s.threads, duration_ops=100_000,
                          files_per_thread=s.files_per_thread,
                          mean_file_size=1024, io_size=64)),
])
@pytest.mark.parametrize("scale", SCALES.values(), ids=list(SCALES))
def test_scale_personality_equals_the_hand_written_constructor(
        scale, name, threads, overrides, reference):
    built = scale.personality(name, threads=threads, **overrides)
    want = reference(scale)
    assert type(built) is type(want) is PERSONALITIES[name]
    assert vars(built) == vars(want)


def test_scales_expose_paper_ratios():
    assert set(SCALES) == {"small", "medium"}
    for scale in SCALES.values():
        assert scale.buffer_bytes < scale.device_size
        assert scale.hinfs_config().buffer_bytes == scale.buffer_bytes


def test_personality_kwargs_cover_all():
    for name in ("fileserver", "webserver", "webproxy", "varmail"):
        kwargs = personality_kwargs(SMALL, name)
        assert kwargs["files_per_thread"] > 0
    with pytest.raises(ValueError):
        personality_kwargs(SMALL, "dbserver")


def test_fsync_byte_fraction_zero_without_writes():
    workload = FioWorkload(io_size=64, file_size=1 << 20, read_fraction=1.0,
                           ops_per_thread=10)
    result = run_workload("pmfs", workload, device_size=32 << 20)
    assert result.fsync_byte_fraction == 0.0
