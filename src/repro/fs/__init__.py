"""File systems of the reproduction.

Five concrete file systems, matching the paper's Table 3 plus HiNFS:

- :mod:`repro.fs.pmfs` -- PMFS: direct access to NVMM, cacheline-granular
  metadata undo journal (the paper's primary baseline; HiNFS is built on
  top of its structures).
- :mod:`repro.fs.ext4dax` -- EXT4 with the DAX patch: direct data access,
  cache-oriented journaled metadata.
- :mod:`repro.fs.extfs` -- EXT2/EXT4 on the NVMMBD block-device emulator,
  going through the page cache and the generic block layer.
- :mod:`repro.core` -- HiNFS itself (the paper's contribution).

All of them sit under :class:`repro.fs.vfs.VFS`, the syscall surface that
workloads drive.  :data:`STACKS` is the one table that turns a stack
name into a class -- for a fresh format and for a remount alike
(:func:`make_fs`) -- so the bench runner, the shard layer, the crash
explorer and the chaos campaign cannot disagree about what
``"hinfs-wb"`` means.
"""

from importlib import import_module

from repro.fs.base import FileSystem
from repro.fs.errors import (
    FSError,
    BadFileDescriptor,
    ExistsError,
    IsADirectory,
    NoSpace,
    NotADirectory,
    NotFound,
)
from repro.fs.flags import O_CREAT, O_RDONLY, O_RDWR, O_SYNC, O_TRUNC, O_WRONLY
from repro.fs.vfs import VFS

#: name -> (module, class, HiNFSConfig overrides or None): the paper's
#: comparison set (Table 3) plus HiNFS and its two ablations -- NCLFW is
#: block-granular fetch/writeback (Figure 9), WB a plain DRAM write
#: buffer with no Eager-Persistent checker (Figures 12/13).  Dotted
#: names, not classes: HiNFS is built on ``repro.fs.pmfs``, so importing
#: it here would be a cycle.
STACKS = {
    "hinfs": ("repro.core.hinfs", "HiNFS", {}),
    "hinfs-nclfw": ("repro.core.hinfs", "HiNFS", {"enable_clfw": False}),
    "hinfs-wb": ("repro.core.hinfs", "HiNFS",
                 {"enable_eager_checker": False}),
    "pmfs": ("repro.fs.pmfs", "PMFS", None),
    "ext4-dax": ("repro.fs.ext4dax", "Ext4Dax", None),
    "ext2-nvmmbd": ("repro.fs.extfs", "Ext2", None),
    "ext4-nvmmbd": ("repro.fs.extfs", "Ext4", None),
}


def fs_class(name):
    """The file-system class behind a stack name."""
    if name not in STACKS:
        raise ValueError("unknown file system %r" % name)
    module, cls_name, _ = STACKS[name]
    return getattr(import_module(module), cls_name)


def make_fs(env, name, device, config, hinfs_config=None, mount=False,
            **kwargs):
    """Format -- or with ``mount``, remount from a (crashed) image --
    the NVMM file system ``name`` on ``device``.  Format and mount
    resolve the name the same way, so an ablation survives a remount
    with its switch still off."""
    cls = fs_class(name)
    overrides = STACKS[name][2]
    if overrides is not None:
        from repro.core.config import HiNFSConfig

        kwargs["hconfig"] = (hinfs_config or HiNFSConfig()).replace(
            **overrides)
    fs = (cls.mount if mount else cls)(env, device, config, **kwargs)
    fs.name = name
    return fs

__all__ = [
    "BadFileDescriptor",
    "ExistsError",
    "FSError",
    "FileSystem",
    "IsADirectory",
    "NoSpace",
    "NotADirectory",
    "NotFound",
    "O_CREAT",
    "O_RDONLY",
    "O_RDWR",
    "O_SYNC",
    "O_TRUNC",
    "O_WRONLY",
    "STACKS",
    "VFS",
    "fs_class",
    "make_fs",
]
