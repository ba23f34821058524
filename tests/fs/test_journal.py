"""Journal unit tests and crash-recovery tests."""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.fs.pmfs.journal import (
    ENTRY_FMT,
    ENTRY_MAGIC,
    ENTRY_PAYLOAD_MAX,
    ENTRY_SIZE,
    GEN_MODULUS,
    HEADER_FMT,
    HEADER_MAGIC,
    KIND_COMMIT,
    KIND_UNDO,
    Journal,
    JournalFullError,
    Transaction,
    entry_checksum,
)
from repro.fs.pmfs.layout import Superblock, block_addr
from repro.nvmm.config import NVMMConfig
from repro.nvmm.device import NVMMDevice


@pytest.fixture()
def setup():
    env = SimEnv()
    cfg = NVMMConfig()
    device = NVMMDevice(env, cfg, 8 << 20)
    sb = Superblock.compute(device.size // 4096, journal_blocks=4)
    journal = Journal(env, device, sb, cfg)
    ctx = ExecContext(env, "t")
    data_addr = block_addr(sb.data_start)
    return env, device, journal, ctx, data_addr


def test_committed_tx_survives_recovery(setup):
    env, device, journal, ctx, addr = setup
    device.mem.write_nocache(addr, b"old-value")
    tx = journal.begin(ctx)
    journal.journaled_write(ctx, tx, addr, b"new-value")
    journal.commit(ctx, tx)
    device.crash()
    journal.recover(ctx)
    assert device.mem.read(addr, 9) == b"new-value"


def test_uncommitted_tx_rolled_back(setup):
    env, device, journal, ctx, addr = setup
    device.mem.write_nocache(addr, b"old-value")
    tx = journal.begin(ctx)
    journal.journaled_write(ctx, tx, addr, b"new-value")
    # No commit; crash loses the cached metadata write but the undo
    # entries were flushed.
    device.crash()
    assert journal.recover(ctx) == 1
    assert device.mem.read(addr, 9) == b"old-value"


def test_uncommitted_tx_with_evicted_metadata_rolled_back(setup):
    """The dangerous case: the cache evicted the new metadata before the
    commit was written.  Undo must restore the old bytes."""
    env, device, journal, ctx, addr = setup
    device.mem.write_nocache(addr, b"old-value")
    tx = journal.begin(ctx)
    journal.journaled_write(ctx, tx, addr, b"new-value")
    # Evict everything (worst case) then crash pre-commit.
    device.crash(evict_lines=device.mem.dirty_line_indices())
    journal.recover(ctx)
    assert device.mem.read(addr, 9) == b"old-value"


def test_multiple_txs_mixed_commit_states(setup):
    env, device, journal, ctx, addr = setup
    device.mem.write_nocache(addr, b"AAAA")
    device.mem.write_nocache(addr + 4096, b"BBBB")
    tx1 = journal.begin(ctx)
    journal.journaled_write(ctx, tx1, addr, b"1111")
    journal.commit(ctx, tx1)
    tx2 = journal.begin(ctx)
    journal.journaled_write(ctx, tx2, addr + 4096, b"2222")
    device.crash()
    journal.recover(ctx)
    assert device.mem.read(addr, 4) == b"1111"
    assert device.mem.read(addr + 4096, 4) == b"BBBB"


def test_large_range_splits_entries(setup):
    env, device, journal, ctx, addr = setup
    old = bytes(range(200))
    device.mem.write_nocache(addr, old)
    tx = journal.begin(ctx)
    journal.journaled_write(ctx, tx, addr, b"\xff" * 200)
    assert tx.entries == -(-200 // ENTRY_PAYLOAD_MAX)
    device.crash()
    journal.recover(ctx)
    assert device.mem.read(addr, 200) == old


def test_undo_applied_in_reverse_order(setup):
    """Two updates to the same range in one tx: rollback must restore the
    original (first-logged) value, not the intermediate one."""
    env, device, journal, ctx, addr = setup
    device.mem.write_nocache(addr, b"v0")
    tx = journal.begin(ctx)
    journal.journaled_write(ctx, tx, addr, b"v1")
    journal.journaled_write(ctx, tx, addr, b"v2")
    device.crash()
    journal.recover(ctx)
    assert device.mem.read(addr, 2) == b"v0"


def test_commit_closes_tx(setup):
    env, device, journal, ctx, addr = setup
    tx = journal.begin(ctx)
    journal.commit(ctx, tx)
    with pytest.raises(ValueError):
        journal.commit(ctx, tx)
    with pytest.raises(ValueError):
        journal.log_undo(ctx, tx, addr, 8)


def test_ring_wraps_when_full(setup):
    env, device, journal, ctx, addr = setup
    # 4 blocks * 64 slots = 256 slots; each tx = 1 undo + 1 commit.
    for i in range(400):
        tx = journal.begin(ctx)
        journal.journaled_write(ctx, tx, addr, b"%04d" % i)
        journal.commit(ctx, tx)
    assert device.mem.read(addr, 4) == b"0399"
    device.crash()
    journal.recover(ctx)
    assert device.mem.read(addr, 4) == b"0399"


def test_wrap_with_open_tx_needs_barrier(setup):
    env, device, journal, ctx, addr = setup
    hung = journal.begin(ctx)
    journal.log_undo(ctx, hung, addr, 8)
    with pytest.raises(JournalFullError):
        for i in range(400):
            tx = journal.begin(ctx)
            journal.journaled_write(ctx, tx, addr, b"%04d" % i)
            journal.commit(ctx, tx)


def test_wrap_barrier_closes_open_txs(setup):
    env, device, journal, ctx, addr = setup
    hung = journal.begin(ctx)
    journal.log_undo(ctx, hung, addr, 8)

    def barrier(bctx, limit):
        assert journal.used_slots > limit
        journal.commit(bctx, hung)

    journal.make_room = barrier
    for i in range(400):
        tx = journal.begin(ctx)
        journal.journaled_write(ctx, tx, addr, b"%04d" % i)
        journal.commit(ctx, tx)
    assert not hung.open


def test_journal_costs_time(setup):
    env, device, journal, ctx, addr = setup
    before = ctx.now
    tx = journal.begin(ctx)
    journal.journaled_write(ctx, tx, addr, b"x" * 8)
    journal.commit(ctx, tx)
    # 1 undo entry flush + metadata flush + commit entry flush: >= 3 lines.
    assert ctx.now - before >= 3 * 200


# -- the ring: a tail, two live generations, a reserve ------------------------


def _churn(journal, ctx, addr, count):
    for i in range(count):
        tx = journal.begin(ctx)
        journal.journaled_write(ctx, tx, addr, b"%04d" % i)
        journal.commit(ctx, tx)


def test_used_slots_is_the_distance_from_the_oldest_open_tx(setup):
    env, device, journal, ctx, addr = setup
    _churn(journal, ctx, addr, 5)
    assert journal.head == 10 and journal.used_slots == 0
    older, newer = journal.begin(ctx), journal.begin(ctx)
    assert journal.oldest_open is None  # neither holds log space yet
    journal.log_undo(ctx, newer, addr, 8)      # first entry: slot 10
    journal.log_undo(ctx, older, addr + 8, 8)  # first entry: slot 11
    assert journal.oldest_open is newer and newer.first == 10
    _churn(journal, ctx, addr + 64, 3)
    assert journal.used_slots == journal.head - 10 == 8
    journal.commit(ctx, newer)  # out of order: the tail moves to ``older``
    assert journal.oldest_open is older
    assert journal.used_slots == journal.head - 11 == 8
    journal.commit(ctx, older)
    assert journal.oldest_open is None and journal.used_slots == 0


def test_the_head_passes_the_last_slot_with_a_transaction_open(setup):
    """Nothing has to be closed to wrap: the generation steps in the
    header, the head carries on at slot 0, and a crash on either side
    rolls the open transaction back from the previous pass's entries."""
    env, device, journal, ctx, addr = setup
    device.mem.write_nocache(addr + 4096, b"keep")
    _churn(journal, ctx, addr, 100)  # the tail at slot 200
    hung = journal.begin(ctx)
    journal.journaled_write(ctx, hung, addr + 4096, b"lost")
    assert journal.gen == 1
    _churn(journal, ctx, addr, 40)   # 80 more entries: past slot 254
    assert journal.gen == 2 and env.stats.count("journal_wraps") == 1
    assert hung.open and journal.used_slots == 81
    assert journal.head == 281 and journal.head % journal.capacity == 26
    scanned = journal.scan()
    assert [tx_id for tx_id, record in scanned.items()
            if not record["committed"]] == [hung.tx_id]
    assert list(scanned) == sorted(scanned)  # previous pass first
    device.crash()
    assert journal.recover(ctx) == 1
    assert device.mem.read(addr + 4096, 4) == b"keep"
    assert device.mem.read(addr, 4) == b"0039"


def test_recovery_zeroes_what_it_scanned_and_steps_two_generations(setup):
    env, device, journal, ctx, addr = setup
    _churn(journal, ctx, addr, 150)  # 300 entries: a pass and 45 slots
    assert journal.gen == 2
    journal.recover(ctx)
    ring = device.mem.persistent_read(journal._slot_addr(0),
                                      journal.capacity * ENTRY_SIZE)
    assert ring == bytes(len(ring))
    assert journal.gen == journal._read_header_gen() == 4
    assert journal.head == 0 and journal.scan() == {}
    # Generations cycle in [1, 255]: two steps from 254 land on 1.
    journal.gen = 254
    journal._write_header(ctx)
    journal.recover(ctx)
    assert journal.gen == 1


def test_uncommitted_transactions_roll_back_newest_first(setup):
    """Two open transactions over the same bytes (a HiNFS file's chained
    deferred commits): the older one's image must win."""
    env, device, journal, ctx, addr = setup
    device.mem.write_nocache(addr, b"v0")
    older, newer = journal.begin(ctx), journal.begin(ctx)
    journal.journaled_write(ctx, older, addr, b"v1")
    journal.journaled_write(ctx, newer, addr, b"v2")
    device.crash()
    assert journal.recover(ctx) == 2
    assert device.mem.read(addr, 2) == b"v0"


def test_one_transaction_larger_than_the_ring_is_refused(setup):
    env, device, journal, ctx, addr = setup
    tx = journal.begin(ctx)
    with pytest.raises(JournalFullError):
        journal.log_undo(ctx, tx, addr, ENTRY_PAYLOAD_MAX * journal.capacity)
    # It stopped one slot short, and that slot takes its COMMIT.
    assert tx.entries == journal.capacity - 1
    journal.commit(ctx, tx)
    assert journal.used_slots == 0


def test_commit_slots_are_held_back_from_undo_entries(setup):
    """The reserve invariant: every open transaction can always append
    its COMMIT -- here a hundred of them, whatever else fills the ring."""
    env, device, journal, ctx, addr = setup
    waiting = [journal.begin(ctx) for _ in range(100)]
    for tx in waiting:
        journal.log_undo(ctx, tx, addr, 8)
    hog = journal.begin(ctx)
    with pytest.raises(JournalFullError):
        journal.log_undo(ctx, hog, addr, ENTRY_PAYLOAD_MAX * journal.capacity)
    assert journal.used_slots + journal.open_transactions == journal.capacity
    with pytest.raises(JournalFullError):
        journal.begin(ctx)  # its COMMIT would have no slot
    for tx in reversed(waiting):
        journal.commit(ctx, tx)
    journal.commit(ctx, hog)
    assert journal.used_slots == 0 and journal.open_transactions == 0


def test_generation_stamps_do_not_alias_after_255_mounts():
    """A stale undo entry in a slot later sessions never reach must not
    come back to life when the one-byte generation comes round."""
    from repro.fs import flags as f
    from tests.fs.conftest import PmfsRig

    rig = PmfsRig(size=4 << 20, journal_blocks=8, inode_count=64)
    for name in ["/f%d" % i for i in range(13)] + ["/victim"]:
        rig.vfs.write_file(rig.ctx, name, b"x" * 100)
    assert rig.fs.journal.head > 150
    inode = rig.fs._inode(rig.vfs.stat(rig.ctx, "/victim").ino)
    tx = rig.fs.journal.begin(rig.ctx)
    inode.size = 5
    rig.fs.itable.write_core(rig.ctx, tx, inode)  # never committed
    rig.crash_and_remount()
    assert rig.vfs.stat(rig.ctx, "/victim").size == 100
    fd = rig.vfs.open(rig.ctx, "/victim", f.O_RDWR)
    rig.vfs.pwrite(rig.ctx, fd, 100, b"y" * 2900)
    rig.vfs.close(rig.ctx, fd)
    for _ in range(2 * GEN_MODULUS):
        rig.fs.unmount(rig.ctx)
        rig.remount()
        assert rig.vfs.stat(rig.ctx, "/victim").size == 3000


# -- scan: one guarded read of the whole ring --------------------------------


def test_scan_fails_on_any_bad_ring_line(setup):
    from repro.faults.media import MediaFaultModel
    from repro.fs.errors import MediaError
    from repro.nvmm.config import CACHELINE_SIZE

    env, device, journal, ctx, addr = setup
    tx = journal.begin(ctx)
    journal.journaled_write(ctx, tx, addr, b"new-value")
    model = device.attach_faults(MediaFaultModel())
    bad = [journal._slot_addr(slot) // CACHELINE_SIZE
           for slot in (3, journal.capacity - 1)]
    for line in bad:
        model.poison_line(line)
    with pytest.raises(MediaError) as excinfo:
        journal.scan()
    assert list(excinfo.value.lines) == bad
    assert model.read_errors == 1
    # A bad line just past the ring is not the journal's problem.
    for line in bad:
        model.heal_line(line)
    model.poison_line(journal._slot_addr(journal.capacity) // CACHELINE_SIZE)
    assert list(journal.scan()) == [tx.tx_id]


def test_scan_drops_corrupt_entries_and_keeps_append_order(setup):
    env, device, journal, ctx, addr = setup
    device.mem.write_nocache(addr, b"A" * 100)
    txs = []
    for i in range(3):
        tx = journal.begin(ctx)
        journal.journaled_write(ctx, tx, addr, bytes([i]) * 100)
        txs.append(tx)
    journal.commit(ctx, txs[1])
    # Corrupt the payload of the second transaction's first undo entry
    # (three entries per 100-byte write): its CRC no longer matches.
    device.mem.write_nocache(journal._slot_addr(3) + 30, b"\xff" * 8)
    scanned = journal.scan()
    assert env.stats.count("journal_csum_drops") == 1
    assert list(scanned) == [tx.tx_id for tx in txs]
    assert [len(scanned[tx.tx_id]["undo"]) for tx in txs] == [3, 2, 3]
    assert [scanned[tx.tx_id]["committed"] for tx in txs] == [False, True,
                                                              False]
    offsets = [a - addr for a, _old in scanned[txs[0].tx_id]["undo"]]
    assert offsets == [0, ENTRY_PAYLOAD_MAX, 2 * ENTRY_PAYLOAD_MAX]


# -- scan: the stride filter equals the per-slot loop it replaced ---------------


def _reference_scan(journal):
    """``Journal.scan`` one slot at a time: every slot unpacked and
    tested in Python, once for the previous generation and once for the
    current one.  Returns ``(transactions, csum drops)``."""
    current_gen = journal._read_header_gen()
    transactions, drops = {}, 0
    ring = journal.device.read_media(journal._slot_addr(0),
                                     journal.capacity * ENTRY_SIZE)
    for live_gen in ((current_gen - 2) % GEN_MODULUS + 1, current_gen):
        if current_gen > 0xFF:
            break
        for slot, (magic, tx_id, kind, gen, length, addr, csum, payload) \
                in enumerate(struct.iter_unpack(ENTRY_FMT, ring)):
            if magic != ENTRY_MAGIC or gen != live_gen:
                continue
            if journal.checksums and csum != entry_checksum(
                    ring[slot * ENTRY_SIZE:(slot + 1) * ENTRY_SIZE]):
                drops += 1
                continue
            record = transactions.setdefault(
                tx_id, {"undo": [], "committed": False})
            if kind == KIND_COMMIT:
                record["committed"] = True
            elif kind == KIND_UNDO:
                record["undo"].append((addr, payload[:length]))
    return transactions, drops


def _one_block_journal(checksums):
    """``(env, device, journal)`` with a 63-slot ring."""
    env = SimEnv()
    cfg = NVMMConfig()
    device = NVMMDevice(env, cfg, 1 << 20)
    sb = Superblock.compute(device.size // 4096, journal_blocks=1)
    return env, device, Journal(env, device, sb, cfg, checksums=checksums)


#: Byte offsets of the csum field and the payload inside a packed entry.
_CSUM_AT = struct.calcsize("<4sIBBHQ")
_PAYLOAD_AT = _CSUM_AT + 4

#: What a ring slot can hold, relative to the header's generation byte:
#: a valid entry, a valid one of the pass before, one of a generation
#: that is not live, the right generation byte under a wrong magic, a
#: valid entry with one payload word flipped after its CRC was taken,
#: or nothing (never written).
_SLOT_SHAPES = ("valid", "previous", "stale", "bad-magic", "flipped", "blank")

_slots = st.lists(st.tuples(
    st.sampled_from(_SLOT_SHAPES),
    st.integers(1, 4),                                  # tx_id: they interleave
    st.sampled_from((KIND_UNDO, KIND_UNDO, KIND_COMMIT, 3)),
    st.integers(0, 2**64 - 1),                          # addr
    st.binary(max_size=ENTRY_PAYLOAD_MAX),
    st.integers(0, ENTRY_PAYLOAD_MAX // 8 - 1),         # word to flip
), max_size=63)


@settings(max_examples=150, deadline=None)
@given(slots=_slots, checksums=st.booleans(),
       header_gen=st.sampled_from((0, 1, 7, 255, 256, 2**40)))
def test_scan_equals_the_per_slot_reference(slots, checksums, header_gen):
    env, device, journal = _one_block_journal(checksums)
    assert journal.capacity == 63
    device.mem.write_nocache(
        journal.base_addr,
        struct.pack(HEADER_FMT, HEADER_MAGIC, header_gen).ljust(ENTRY_SIZE,
                                                                b"\0"))
    # The byte an entry of "this" generation carries: for a header value
    # past one byte, its low byte -- which must still match nothing.
    gen_byte = header_gen & 0xFF
    for slot, (shape, tx_id, kind, addr, payload, word) in enumerate(slots):
        if shape == "blank":
            continue
        magic = b"JNL?" if shape == "bad-magic" else ENTRY_MAGIC
        gen = {"stale": (gen_byte + 1) % 256,
               "previous": (gen_byte - 2) % GEN_MODULUS + 1}.get(shape,
                                                                  gen_byte)
        entry = bytearray(struct.pack(ENTRY_FMT, magic, tx_id, kind, gen,
                                      len(payload), addr, 0, payload))
        struct.pack_into("<I", entry, _CSUM_AT, zlib.crc32(entry))
        if shape == "flipped":
            entry[_PAYLOAD_AT + word * 8] ^= 0x40
        device.mem.write_nocache(journal._slot_addr(slot), entry)

    expected, drops = _reference_scan(journal)
    scanned = journal.scan()
    assert scanned == expected
    assert list(scanned) == list(expected)  # transactions in ring order
    assert env.stats.count("journal_csum_drops") == drops
    if header_gen > 255:
        assert scanned == {}


def test_scan_reference_sees_every_slot_shape():
    """The property above is not vacuous: on a ring with one slot of
    each shape the reference keeps, drops and skips as labelled."""
    shapes = {}
    for checksums in (True, False):
        env, device, journal = _one_block_journal(checksums)
        ctx = ExecContext(env, "t")
        for tx_id in (1, 2):
            journal._append(ctx, Transaction(tx_id), KIND_UNDO, 64, b"u" * 8)
        device.mem.write_nocache(journal._slot_addr(1) + _PAYLOAD_AT, b"X")
        shapes[checksums] = (_reference_scan(journal), journal.scan())
    (kept, drops), scanned = shapes[True]
    assert list(kept) == list(scanned) == [1] and drops == 1
    (kept, drops), scanned = shapes[False]
    assert list(kept) == list(scanned) == [1, 2] and drops == 0
    assert scanned[2]["undo"] == [(64, b"Xuuuuuuu")]


# -- the entry image ------------------------------------------------------------


def _double_packed(tx_id, kind, gen, addr, payload, checksums):
    """The previous ``_append`` image: pad, pack with csum 0, CRC, repack."""
    padded = payload.ljust(ENTRY_PAYLOAD_MAX, b"\0")
    entry = struct.pack(ENTRY_FMT, ENTRY_MAGIC, tx_id, kind, gen,
                        len(payload), addr, 0, padded)
    if checksums:
        csum = zlib.crc32(entry) & 0xFFFFFFFF
        entry = struct.pack(ENTRY_FMT, ENTRY_MAGIC, tx_id, kind, gen,
                            len(payload), addr, csum, padded)
    return entry


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.tuples(
        st.integers(0, 2**32 - 1), st.integers(0, 255), st.integers(1, 255),
        st.integers(0, 2**64 - 1), st.binary(max_size=ENTRY_PAYLOAD_MAX)),
        min_size=1, max_size=4),
    checksums=st.booleans(),
)
def test_entry_packed_once_equals_the_double_pack(entries, checksums):
    """Several appends through the one scratch buffer: each slot holds
    exactly what packing twice produced, and the scan-side checksum of
    the stored entry is its csum field."""
    env = SimEnv()
    cfg = NVMMConfig()
    device = NVMMDevice(env, cfg, 1 << 20)
    sb = Superblock.compute(device.size // 4096, journal_blocks=4)
    journal = Journal(env, device, sb, cfg, checksums=checksums)
    ctx = ExecContext(env, "t")
    for slot, (tx_id, kind, gen, addr, payload) in enumerate(entries):
        journal.gen = gen
        journal._append(ctx, Transaction(tx_id), kind, addr, payload)
        stored = device.mem.persistent_read(journal._slot_addr(slot),
                                            ENTRY_SIZE)
        assert stored == _double_packed(tx_id, kind, gen, addr, payload,
                                        checksums)
        csum = struct.unpack(ENTRY_FMT, stored)[6]
        assert csum == (entry_checksum(stored) if checksums else 0)


def test_oversized_payload_is_refused_not_truncated(setup):
    env, device, journal, ctx, addr = setup
    tx = journal.begin(ctx)
    with pytest.raises(ValueError):
        journal._append(ctx, tx, 1, addr, b"x" * (ENTRY_PAYLOAD_MAX + 1))
    assert journal.used_slots == 0 and tx.entries == 0
    assert device.mem.dirty_line_indices() == []
