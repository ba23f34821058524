"""Property tests for the undo journal: recovery vs a shadow model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.fs.pmfs.journal import ENTRY_PAYLOAD_MAX, Journal, JournalFullError
from repro.fs.pmfs.layout import Superblock, block_addr
from repro.nvmm.config import NVMMConfig
from repro.nvmm.device import NVMMDevice


def build(journal_blocks=8):
    env = SimEnv()
    config = NVMMConfig()
    device = NVMMDevice(env, config, 8 << 20)
    sb = Superblock.compute(device.size // 4096, journal_blocks=journal_blocks)
    journal = Journal(env, device, sb, config)
    ctx = ExecContext(env, "t")
    return device, journal, ctx, block_addr(sb.data_start)


@settings(max_examples=50, deadline=None)
@given(
    txs=st.lists(
        st.tuples(
            st.booleans(),  # committed?
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=40),  # slot
                          st.binary(min_size=1, max_size=24)),
                min_size=1, max_size=4,
            ),
        ),
        min_size=1,
        max_size=10,
    ),
    data=st.data(),
)
def test_recovery_restores_exactly_committed_state(txs, data):
    """Shadow model: apply committed transactions' final effects only.

    Writes target 64-byte-aligned slots (like real metadata records), so
    transactions on different slots never interleave on one cacheline;
    transactions are applied sequentially, each fully before the next,
    and the LAST tx may be left uncommitted -- the realistic single-FS
    discipline (concurrent uncommitted txs never touch the same bytes;
    ordering across them is the commit-chain's job, tested separately).
    """
    device, journal, ctx, base = build()
    shadow = {}
    open_tx = None
    for i, (committed, writes) in enumerate(txs):
        tx = journal.begin(ctx)
        staged = {}
        for slot, payload in writes:
            addr = base + slot * 64
            journal.journaled_write(ctx, tx, addr, payload)
            staged[slot] = payload
        last = i == len(txs) - 1
        if committed or not last:
            journal.commit(ctx, tx)
            shadow.update(staged)
        else:
            open_tx = tx  # crash with this one in flight
    # Possibly evict arbitrary cache lines, then crash and recover.
    dirty = device.mem.dirty_line_indices()
    evict = data.draw(st.sets(st.sampled_from(dirty)) if dirty else st.just(set()))
    device.crash(evict_lines=evict)
    journal.recover(ctx)
    for slot in range(41):
        expected = shadow.get(slot)
        if expected is None:
            continue
        assert device.mem.read(base + slot * 64, len(expected)) == expected


@settings(max_examples=30, deadline=None)
@given(n_txs=st.integers(min_value=1, max_value=120))
def test_ring_wraps_preserve_last_committed_value(n_txs):
    device, journal, ctx, base = build(journal_blocks=2)
    for i in range(n_txs):
        tx = journal.begin(ctx)
        journal.journaled_write(ctx, tx, base, b"%06d" % i)
        journal.commit(ctx, tx)
    device.crash()
    journal.recover(ctx)
    assert device.mem.read(base, 6) == b"%06d" % (n_txs - 1)


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from("buuuucc"), st.integers(0, 15)),
        min_size=100, max_size=200),
)
def test_ring_accounting_over_random_schedules(steps):
    """Begin / append / out-of-order commit against a model of the ring,
    then filler until the head has passed the last slot three times.

    At every step ``used_slots`` is the distance from the oldest open
    transaction's first entry to the head and at most ``capacity``; an
    undo entry is refused exactly when it would take a slot held back
    for a COMMIT, a ``begin`` exactly when its COMMIT would have none,
    and a COMMIT never; a crash at the end scans to exactly the open
    transactions' undo entries, in append order.
    """
    device, journal, ctx, base = build(journal_blocks=1)
    capacity = journal.capacity
    assert capacity == 63
    open_txs = []  # [tx, [(addr, payload), ...]] in begin order
    head = 0

    def used():
        firsts = [tx.first for tx, _undo in open_txs if tx.first is not None]
        return head - min(firsts) if firsts else 0

    def step(kind, pick):
        nonlocal head
        payload = bytes([head % 251]) * (1 + head % ENTRY_PAYLOAD_MAX)
        if kind == "b" or not open_txs:
            if used() + len(open_txs) >= capacity:
                try:
                    journal.begin(ctx)
                except JournalFullError:
                    return
                raise AssertionError("begin with no slot for its COMMIT")
            open_txs.append([journal.begin(ctx), []])
            return
        entry = open_txs[pick % len(open_txs)]
        tx, undo = entry
        if kind == "u":
            addr = base + 64 * (pick + 16 * len(undo))
            device.mem.write_nocache(addr, payload)
            if used() + len(open_txs) >= capacity:
                try:
                    journal.log_undo(ctx, tx, addr, len(payload))
                except JournalFullError:
                    return
                raise AssertionError("an undo entry took a COMMIT's slot")
            journal.log_undo(ctx, tx, addr, len(payload))
            undo.append((addr, payload))
        else:
            journal.commit(ctx, tx)  # never JournalFullError
            open_txs.remove(entry)
        head += 1

    def check():
        assert journal.head == head
        assert journal.used_slots == used() <= capacity
        assert used() + len(open_txs) <= capacity  # the reserve invariant
        assert journal.open_transactions == len(open_txs)

    for kind, pick in steps:
        step(kind, pick)
        check()
    filler = 0
    while head < 3 * capacity:
        # Mostly appends and commits; a begin now and then.
        step("buuc"[filler % 4], filler)
        check()
        filler += 1

    device.crash()
    scanned = journal.scan()
    logged = sorted((entry for entry in open_txs if entry[1]),
                    key=lambda entry: entry[0].first)
    uncommitted = [tx_id for tx_id, record in scanned.items()
                   if not record["committed"]]
    assert uncommitted == [tx.tx_id for tx, _undo in logged]
    for tx, undo in logged:
        assert scanned[tx.tx_id]["undo"] == undo
