"""Differential test of what a mapped load reads (repro.io.mmio).

A redo store is staged in a DRAM overlay and reaches its block only when
the mapping's applier puts its epoch in place, so until then every load
and routed read must find it.  Random sequences of stores, loads, routed
preads, msyncs, background ticks and shrinking truncates run on ``redo``
and ``auto`` mappings beside a ``bytearray`` model of the file: offsets
straddle block edges, stores overlap within and across epochs, and a
1-block log autocommits mid-store.  Every read must equal the model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import flags as f
from repro.nvmm.config import BLOCK_SIZE

from tests.fs.conftest import PmfsRig

_BLOCKS = 5

#: Mostly within 64 bytes of a block edge, where a range straddles two
#: blocks; sometimes anywhere in the file.
_OFFSET = st.one_of(
    st.builds(lambda block, delta: max(0, block * BLOCK_SIZE + delta),
              st.integers(0, _BLOCKS - 1), st.integers(-64, 64)),
    st.integers(0, _BLOCKS * BLOCK_SIZE - 1),
)
_LENGTH = st.one_of(st.integers(1, 200), st.integers(1, 2 * BLOCK_SIZE + 64))

_OP = st.one_of(
    st.tuples(st.just("store"), _OFFSET, _LENGTH, st.integers(1, 255)),
    st.tuples(st.just("store"), _OFFSET, _LENGTH, st.integers(1, 255)),
    st.tuples(st.just("load"), _OFFSET, _LENGTH),
    st.tuples(st.just("load"), _OFFSET, _LENGTH),
    st.tuples(st.just("pread"), _OFFSET, _LENGTH),
    st.tuples(st.just("msync")),
    st.tuples(st.just("tick"), st.integers(1, 40_000)),
    st.tuples(st.just("truncate"), st.integers(0, 2 ** 20)),
)


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(["redo", "auto"]),
       log_blocks=st.sampled_from([1, 4]),
       ops=st.lists(_OP, min_size=1, max_size=40))
def test_every_read_through_a_mapping_equals_the_model(policy, log_blocks,
                                                       ops):
    rig = PmfsRig()
    model = bytearray(bytes(range(256)) * (3 * BLOCK_SIZE // 256))
    rig.vfs.write_file(rig.ctx, "/m", bytes(model))
    fd = rig.vfs.open(rig.ctx, "/m", f.O_RDWR)
    region = rig.vfs.mmap(rig.ctx, fd, flags=f.MAP_ATOMIC, policy=policy,
                          log_blocks=log_blocks)
    ctx = rig.ctx
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "store":
            _kind, offset, length, byte = op
            data = bytes([byte]) * length
            region.store(ctx, offset, data)
            if offset + length > len(model):
                model.extend(bytes(offset + length - len(model)))
            model[offset:offset + length] = data
        elif kind == "load":
            _kind, offset, length = op
            want = bytes(model[offset:offset + length])
            want += bytes(length - len(want))
            assert region.load(ctx, offset, length) == want, step
        elif kind == "pread":
            _kind, offset, length = op
            assert rig.vfs.pread(ctx, fd, offset, length) \
                == bytes(model[offset:offset + length]), step
        elif kind == "msync":
            region.msync(ctx)
        elif kind == "tick":
            ctx.now += op[1]
            rig.env.background.advance_to(ctx.now)
        elif model:
            new_size = op[1] % len(model)
            rig.vfs.truncate(ctx, "/m", new_size)
            del model[new_size:]
    assert region.load(ctx, 0, len(model)) == model
    region.msync(ctx)
    rig.env.background.advance_to(ctx.now + 10 ** 9)
    assert not region.applier.pending and not region._index
    assert rig.vfs.read_file(ctx, "/m") == model
