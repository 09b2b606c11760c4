import contextlib
import dataclasses
import errno
import os
import pathlib
import random
import re
import resource
import tempfile
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindpay import cli, wire
from blindpay.cards import CardLedger, CardStatus, SpendReceipt, checked_card_id
from blindpay.errors import BlindpayError, CardError, ConnectionClosed, LedgerCorrupt


@contextlib.contextmanager
def refused(code):
    """Expect a CardError with this code; yields pytest's ExceptionInfo."""
    with pytest.raises(CardError) as exc:
        yield exc
    assert exc.value.code == code


@pytest.fixture()
def ledger():
    return CardLedger(rng=random.Random(42))


def issue_and_distribute(ledger, count, value=1, store="store-1"):
    cards = ledger.issue_cards(count, value)
    ledger.distribute([c.card_id for c in cards], store)
    return cards


def test_issue_zero_is_noop(ledger):
    assert ledger.issue_cards(0, 1) == []
    assert ledger.cards == {}


def test_issue_unique_ids(ledger):
    cards = ledger.issue_cards(5, 1)
    assert len({c.card_id for c in cards}) == 5
    assert all(c.status is CardStatus.GENERATED for c in cards)


def test_issue_bulk_no_collisions(ledger):
    cards = ledger.issue_cards(10**4, 1)
    ids = [c.card_id for c in cards]
    assert len(set(ids)) == len(ids)
    assert all(len(i) == 32 for i in ids)  # 128 bits, hex encoded


def test_issue_rejects_bad_value(ledger):
    with pytest.raises(ValueError):
        ledger.issue_cards(1, 0)
    with pytest.raises(ValueError):
        ledger.issue_cards(-1, 1)


def test_distribute_lifecycle(ledger):
    (card,) = ledger.issue_cards(1, 1)
    ledger.distribute([card.card_id], "store-1")
    assert card.status is CardStatus.DISTRIBUTED
    with refused("already-distributed"):
        ledger.distribute([card.card_id], "store-2")
    with refused("unknown-card"):
        ledger.distribute(["deadbeef"], "store-1")


def test_distribute_preserves_card_count(ledger):
    before = ledger.issue_cards(100, 1)
    ledger.distribute([c.card_id for c in before], "store-1")
    assert len(ledger.cards) == 100


def test_spend_happy_path(ledger):
    (card,) = issue_and_distribute(ledger, 1)
    (receipt,) = ledger.spend_atomic([card.card_id], "seller-1")
    assert receipt.value == 1
    assert ledger.balance("seller-1") == 1
    assert card.status is CardStatus.SPENT


def test_double_spend_detected(ledger):
    (card,) = issue_and_distribute(ledger, 1)
    (first,) = ledger.spend_atomic([card.card_id], "seller-1")
    with refused("already-spent") as exc:
        ledger.spend_atomic([card.card_id], "seller-2")
    assert exc.value.prior_seq == first.seq
    assert ledger.balance("seller-2") == 0


def test_spend_unknown_and_undistributed(ledger):
    with refused("unknown-card"):
        ledger.spend_atomic(["not-a-card"], "seller-1")
    (card,) = ledger.issue_cards(1, 1)
    with refused("not-distributed"):
        ledger.spend_atomic([card.card_id], "seller-1")


def test_balance_defaults_to_zero(ledger):
    assert ledger.balance("nobody") == 0


def test_balance_accumulates_unit_cards(ledger):
    p = 7
    cards = issue_and_distribute(ledger, p)
    for c in cards:
        ledger.spend_atomic([c.card_id], "seller-1")
    assert ledger.balance("seller-1") == p


def test_balance_multi_value(ledger):
    for value in (1, 2, 4):
        (card,) = issue_and_distribute(ledger, 1, value=value)
        ledger.spend_atomic([card.card_id], "seller-1")
    assert ledger.balance("seller-1") == 7


def test_spend_atomic_all_or_nothing(ledger):
    good = issue_and_distribute(ledger, 2)
    (burned,) = issue_and_distribute(ledger, 1)
    ledger.spend_atomic([burned.card_id], "seller-0")
    with refused("already-spent"):
        ledger.spend_atomic([good[0].card_id, burned.card_id], "seller-1")
    # nothing was charged: both good cards still spendable
    assert good[0].status is CardStatus.DISTRIBUTED
    assert ledger.balance("seller-1") == 0
    receipts = ledger.spend_atomic([c.card_id for c in good], "seller-1")
    assert len(receipts) == 2
    assert ledger.balance("seller-1") == 2


def test_spend_atomic_rejects_duplicate_in_one_request(ledger):
    (card,) = issue_and_distribute(ledger, 1)
    with refused("already-spent"):
        ledger.spend_atomic([card.card_id, card.card_id], "seller-1")
    assert card.status is CardStatus.DISTRIBUTED


def test_a_card_named_twice_in_one_change_is_refused_before_any_write(tmp_path):
    # before, distribute wrote two DIST records for it, and spend_atomic
    # named the card's DIST record as its earlier spend
    path = tmp_path / "ledger.tsv"
    ledger = CardLedger(path=str(path), rng=random.Random(3))
    (card,) = ledger.issue_cards(1, 1)
    before = path.read_bytes()
    with refused("already-distributed"):
        ledger.distribute([card.card_id, card.card_id], "store-1")
    assert (path.read_bytes(), ledger._seq, card.status) == (before, 1, CardStatus.GENERATED)
    ledger.distribute([card.card_id], "store-1")
    before = path.read_bytes()
    with refused("already-spent") as exc:
        ledger.spend_atomic([card.card_id, card.card_id], "seller-1")
    assert exc.value.prior_seq == 0
    assert (path.read_bytes(), ledger._seq, ledger.accounts) == (before, 2, {})
    ledger.close()


def test_receipt_sequence_strictly_increases(ledger):
    cards = issue_and_distribute(ledger, 10)
    seqs = [ledger.spend_atomic([c.card_id], "seller-1")[0].seq for c in cards]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_concurrent_spend_exactly_once(ledger):
    (card,) = issue_and_distribute(ledger, 1)
    barrier = threading.Barrier(64)
    results = []

    def attempt():
        barrier.wait()
        try:
            results.append(("ok", ledger.spend_atomic([card.card_id], "seller-1")[0]))
        except CardError as exc:
            results.append((exc.code, exc.prior_seq))

    threads = [threading.Thread(target=attempt) for _ in range(64)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wins = [r for r in results if r[0] == "ok"]
    assert len(wins) == 1
    assert len(results) == 64
    assert {r[0] for r in results} == {"ok", "already-spent"}
    assert ledger.balance("seller-1") == 1
    ledger.check_conservation()


def test_conservation_invariant(ledger):
    cards = issue_and_distribute(ledger, 5)
    for c in cards[:3]:
        ledger.spend_atomic([c.card_id], "seller-1")
        ledger.check_conservation()
    ledger.accounts["seller-1"] += 1  # corrupt on purpose
    with pytest.raises(LedgerCorrupt):
        ledger.check_conservation()


def test_receipt_and_errors_carry_no_buyer_fields(ledger):
    field_names = {f.name for f in dataclasses.fields(SpendReceipt)}
    assert field_names == {"card_id", "seller_account", "value", "seq"}
    (card,) = issue_and_distribute(ledger, 1)
    ledger.spend_atomic([card.card_id], "seller-1")
    try:
        ledger.spend_atomic([card.card_id], "seller-2")
    except CardError as exc:
        # prior seq yes, prior seller no
        assert exc.code == "already-spent"
        assert "seller-1" not in str(exc)
        assert exc.prior_seq > 0
        assert not hasattr(exc, "account")


def test_ledger_file_replay(tmp_path):
    path = str(tmp_path / "ledger.tsv")
    ledger = CardLedger(path=path, rng=random.Random(3))
    cards = issue_and_distribute(ledger, 4)
    ledger.spend_atomic([cards[0].card_id], "seller-1")
    ledger.spend_atomic([cards[1].card_id, cards[2].card_id], "seller-2")
    ledger.close()

    replayed = CardLedger.replay(path)
    assert {cid: (c.value, c.status, c.spent_by) for cid, c in replayed.cards.items()} == \
        {cid: (c.value, c.status, c.spent_by) for cid, c in ledger.cards.items()}
    assert replayed.accounts == ledger.accounts
    assert replayed._seq == ledger._seq
    replayed.check_conservation()
    with refused("already-spent"):
        replayed.spend_atomic([cards[0].card_id], "seller-9")


def test_ledger_replay_attach_continues(tmp_path):
    # a writer reopening its file continues the sequence it holds
    path = str(tmp_path / "ledger.tsv")
    ledger = CardLedger(path=path, rng=random.Random(3))
    cards = issue_and_distribute(ledger, 2)
    ledger.close()
    resumed = CardLedger(path=path, rng=random.Random(3))
    assert resumed._seq == ledger._seq
    # the same seed draws the ids already in the file first; they are skipped
    more = resumed.issue_cards(2)
    assert not {c.card_id for c in more} & {c.card_id for c in cards}
    (receipt,) = resumed.spend_atomic([cards[0].card_id], "seller-1")
    assert receipt.seq == ledger._seq + 3
    resumed.close()
    again = CardLedger.replay(path)
    assert (len(again.cards), again._seq, again.balance("seller-1")) == (4, receipt.seq, 1)


def test_ledger_replay_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.tsv"
    text = "1\tISSUE\tabc\t1\t-\n5\tSPEND\tabc\t1\tseller-1\n"
    path.write_text(text)
    with pytest.raises(LedgerCorrupt):
        CardLedger.replay(str(path))
    with pytest.raises(LedgerCorrupt):  # only a line without its newline is torn
        CardLedger(path=str(path))
    assert path.read_text() == text


def test_ledger_second_writer_is_refused(tmp_path):
    path = str(tmp_path / "ledger.tsv")
    first = CardLedger(path=path)
    try:
        with pytest.raises(BlindpayError, match=re.escape(path)):
            CardLedger(path=path)  # flock locks each open file: this process too
    finally:
        first.close()
    CardLedger(path=path).close()


@pytest.mark.parametrize("torn", ["3\tSPE", "3\tSPEND\t{cid}\t1\tsell",
                                  "3\tISSUE\t" + "cd" * 16 + " " + "ef" * 16 + "\t2 2\t-"],
                         ids=["short", "five-fields", "two-cards"])
def test_ledger_torn_last_line_is_dropped(tmp_path, torn):
    # a crash cut the third record short: it has no newline
    path = tmp_path / "ledger.tsv"
    ledger = CardLedger(path=str(path), rng=random.Random(3))
    (card,) = issue_and_distribute(ledger, 1)
    ledger.close()
    intact = path.read_text()
    path.write_text(intact + torn.format(cid=card.card_id))
    replayed = CardLedger.replay(str(path))
    assert (replayed._seq, replayed.accounts) == (2, {})
    resumed = CardLedger(path=str(path))
    assert path.read_text() == intact
    resumed.spend_atomic([card.card_id], "seller-1")
    resumed.close()
    assert CardLedger.replay(str(path)).accounts == {"seller-1": 1}


def test_closed_ledger_refuses_changes(tmp_path):
    # a server's connection thread may still spend after its bank closed the
    # ledger; the spend must fail, not succeed unrecorded
    path = tmp_path / "ledger.tsv"
    ledger = CardLedger(path=str(path), rng=random.Random(3))
    (card,) = issue_and_distribute(ledger, 1)
    ledger.close()
    with pytest.raises(ConnectionClosed, match="^the ledger is closed$"):
        ledger.spend_atomic([card.card_id], "seller-1")
    assert (ledger._seq, ledger.cards[card.card_id].status) == (2, CardStatus.DISTRIBUTED)
    assert CardLedger.replay(str(path))._seq == 2


@contextlib.contextmanager
def write_fails(fault, path):
    """Make the next write to the ledger file at path fail partway: "enospc"
    lets the first 20 bytes through, then raises ENOSPC; "fsize" caps this
    process's file size 80 bytes past the file's end, so the kernel takes
    the first record of a change and cuts the second short."""
    if fault == "enospc":
        real_write, ledger_ino = os.write, os.stat(path).st_ino

        def write(fd, data):
            if os.fstat(fd).st_ino != ledger_ino:
                return real_write(fd, data)
            real_write(fd, data[:20])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "write", write)
            yield
    else:
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (os.path.getsize(path) + 80, hard))
        try:  # Python ignores SIGXFSZ, so the write fails with EFBIG
            yield
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))


@pytest.mark.parametrize("fault", ["enospc", "fsize"])
@pytest.mark.parametrize("op", ["spend", "distribute"])
def test_a_change_whose_write_fails_changes_nothing(tmp_path, op, fault):
    # before, each card's record was its own write: card 1 stayed changed,
    # and a byte of card 2's record could still reach the file at close
    def run(path, failing):
        ledger = CardLedger(path=str(path), rng=random.Random(3))
        issued = ledger.issue_cards(3, 1)
        ids = [c.card_id for c in issued]
        if op == "spend":
            ledger.distribute(ids, "store-1")
            change = lambda: [r.seq for r in ledger.spend_atomic(ids, "seller-1")]
        else:
            change = lambda: ledger.distribute(ids, "store-1")
        state = lambda: ([c.status for c in issued], dict(ledger.accounts), ledger._seq,
                         path.read_bytes())
        before = state()
        if failing:
            with pytest.raises(OSError), write_fails(fault, path):
                change()
            assert state() == before
        result = change()  # the retry gets the seqs it would have had
        ledger.close()
        replayed = CardLedger.replay(str(path))
        return result, path.read_bytes(), replayed.accounts, replayed._seq

    assert run(tmp_path / "failed.tsv", True) == run(tmp_path / "clean.tsv", False)


def test_a_name_that_is_not_a_plain_token_is_refused_before_any_change(tmp_path):
    path = tmp_path / "ledger.tsv"
    ledger = CardLedger(path=str(path), rng=random.Random(3))
    (card,) = ledger.issue_cards(1, 1)
    before = path.read_bytes()
    for name in ("", "seller 1", "a\tb", "a\nb", "é", "x" * 65):
        with pytest.raises(ValueError, match="is not 1 to 64 of"):
            ledger.distribute([card.card_id], name)
    ledger.distribute([card.card_id], "Store_1.b-" + "x" * 54)
    for name in ("seller 1", "a\rb", "a\x85b", "seller-1\n3\tISSUE\tcd\t9\t-"):
        with pytest.raises(ValueError, match="is not 1 to 64 of"):
            ledger.spend_atomic([card.card_id], name)
    assert (ledger._seq, card.status, ledger.accounts) == (2, CardStatus.DISTRIBUTED, {})
    ledger.close()
    assert path.read_bytes().startswith(before) and CardLedger.replay(str(path))._seq == 2


def test_a_name_already_on_file_still_loads(tmp_path):
    # the rule holds for what the writer writes; records on file load as they are
    path = tmp_path / "ledger.tsv"
    path.write_bytes(b"1\tISSUE\tab\t2\t-\n2\tDIST\tab\t2\tstore 1\n"
                     b"3\tSPEND\tab\t2\tseller 1\n")
    assert CardLedger.replay(str(path)).accounts == {"seller 1": 2}
    ledger = CardLedger(path=str(path))
    assert (ledger._seq, ledger.balance("seller 1")) == (3, 2)
    ledger.close()


# Written with one line per card, before a change of several cards became one
# line: CardLedger(path, rng=random.Random(7)) issued 3 cards of value 1 and 2
# of value 2, distributed two cards and then two more, spent three as one
# change, was refused a spend of an unspent and a spent card, and was
# reopened to spend one more.
ONE_LINE_PER_CARD = (
    b"1\tISSUE\t6513270e269e0d37f2a74de452e6b438\t1\t-\n"
    b"2\tISSUE\td23f0824128b2f330c5c7fd0a6a3a450\t1\t-\n"
    b"3\tISSUE\t9531985d5d9dc9f81818e811892f902b\t1\t-\n"
    b"4\tISSUE\t36f675cc81e74ef5e8e25d940ed90475\t2\t-\n"
    b"5\tISSUE\t6b0d549b6f03675a1600a35a099950d8\t2\t-\n"
    b"6\tDIST\t6513270e269e0d37f2a74de452e6b438\t1\tstore-1\n"
    b"7\tDIST\td23f0824128b2f330c5c7fd0a6a3a450\t1\tstore-1\n"
    b"8\tDIST\t9531985d5d9dc9f81818e811892f902b\t1\tstore-2\n"
    b"9\tDIST\t36f675cc81e74ef5e8e25d940ed90475\t2\tstore-2\n"
    b"10\tSPEND\t6513270e269e0d37f2a74de452e6b438\t1\tseller-1\n"
    b"11\tSPEND\td23f0824128b2f330c5c7fd0a6a3a450\t1\tseller-1\n"
    b"12\tSPEND\t36f675cc81e74ef5e8e25d940ed90475\t2\tseller-1\n"
    b"13\tSPEND\t9531985d5d9dc9f81818e811892f902b\t1\tseller-2\n")


def test_a_ledger_of_one_line_per_card_replays_and_takes_appends(tmp_path, monkeypatch):
    live = CardLedger(rng=random.Random(7))  # the same calls, in memory
    a = [c.card_id for c in live.issue_cards(3, 1)]
    b = [c.card_id for c in live.issue_cards(2, 2)]
    live.distribute(a[:2], "store-1")
    live.distribute([a[2], b[0]], "store-2")
    assert [r.seq for r in live.spend_atomic([a[0], a[1], b[0]], "seller-1")] == [10, 11, 12]
    with refused("already-spent"):
        live.spend_atomic([a[2], a[0]], "seller-2")
    live.spend_atomic([a[2]], "seller-2")

    path = tmp_path / "ledger.tsv"
    path.write_bytes(ONE_LINE_PER_CARD)
    commits = []
    real_commit = CardLedger._commit
    monkeypatch.setattr(CardLedger, "_commit",
                        lambda self, *args: commits.append(args) or real_commit(self, *args))
    replayed = CardLedger.replay(str(path))
    assert len(commits) == 13  # one _commit per line
    assert _state(replayed) == _state(live)
    assert replayed.accounts == {"seller-1": 4, "seller-2": 1}

    writer = CardLedger(path=str(path), rng=random.Random(7))
    more = [c.card_id for c in writer.issue_cards(2, 3)]
    writer.distribute([b[1]] + more, "store-3")
    assert [r.seq for r in writer.spend_atomic(more, "seller-3")] == [19, 20]
    writer.close()
    appended = path.read_bytes()
    assert appended.startswith(ONE_LINE_PER_CARD)
    assert appended[len(ONE_LINE_PER_CARD):].count(b"\n") == 3  # one line per change
    del commits[:]
    assert _state(CardLedger.replay(str(path))) == _state(writer)
    assert [len(card_ids) for _, card_ids, _, _ in commits] == [1] * 13 + [2, 3, 2]


ISSUE_AB = b"1\tISSUE\tab\t1\t-\n"
SPENT_AB = ISSUE_AB + b"2\tDIST\tab\t1\tstore-1\n3\tSPEND\tab\t1\tseller-1\n"
UNAPPLIABLE = {
    "not-utf8": (b"1\tISSUE\t\xff\t1\t-\n", "not five UTF-8 fields"),
    "unknown-op": (ISSUE_AB + b"2\tBURN\tab\t1\t-\n", "unknown op 'BURN'"),
    "unknown-card": (ISSUE_AB + b"2\tDIST\tcd\t1\tstore-1\n", "DIST of unknown card"),
    "second-spend": (SPENT_AB + b"4\tSPEND\tab\t1\tseller-1\n",
                     "ledger.tsv:4: SPEND of card 'ab' already spent"),
    # each of these loaded before replay checked the one life cycle
    "dist-after-spend": (SPENT_AB + b"4\tDIST\tab\t1\tstore-1\n",
                         "ledger.tsv:4: DIST of card 'ab' already spent"),
    "second-dist": (ISSUE_AB + b"2\tDIST\tab\t1\tstore-1\n3\tDIST\tab\t1\tstore-1\n",
                    "ledger.tsv:3: DIST of card 'ab' already distributed"),
    "spend-unsold": (ISSUE_AB + b"2\tSPEND\tab\t1\tseller-1\n",
                     "ledger.tsv:2: SPEND of card 'ab' was never sold to a store"),
    "reissue-spent": (SPENT_AB + b"4\tISSUE\tab\t1\t-\n",
                      "ledger.tsv:4: ISSUE of card 'ab' already issued"),
    "spend-wrong-value": (ISSUE_AB + b"2\tDIST\tab\t1\tstore-1\n3\tSPEND\tab\t9\tseller-1\n",
                          "ledger.tsv:3: SPEND of card 'ab' with the wrong value 9"),
    "dist-wrong-value": (ISSUE_AB + b"2\tDIST\tab\t2\tstore-1\n",
                         "ledger.tsv:2: DIST of card 'ab' with the wrong value 2"),
    "issue-zero": (b"1\tISSUE\tab\t0\t-\n", "ledger.tsv:1: ISSUE of card 'ab' with the wrong value 0"),
    "issue-negative": (b"1\tISSUE\tab\t-3\t-\n", "ledger.tsv:1: not five UTF-8 fields"),
    "signed-seq": (SPENT_AB + b"+4\tDIST\tab\t1\tstore-1\n", "ledger.tsv:4: not five UTF-8 fields"),
    "non-ascii-digit": ("1\tISSUE\tab\t\u0665\t-\n".encode(), "ledger.tsv:1: not five UTF-8 fields"),
    # a change of several cards is one line, applied whole
    "value-count": (b"1\tISSUE\tab cd\t1\t-\n", "ledger.tsv:1: not five UTF-8 fields"),
    "second-card-unknown": (ISSUE_AB + b"2\tDIST\tab cd\t1 1\tstore-1\n",
                            "ledger.tsv:2: DIST of unknown card 'cd'"),
    # an ISSUE creates only what cards.checked_card_id passes, as issue_cards does
    "empty-id": (b"1\tISSUE\t\t1\t-\n", "ledger.tsv:1: ISSUE of card id '' is not"),
    "upper-id": (b"1\tISSUE\tAB\t1\t-\n", "ledger.tsv:1: ISSUE of card id 'AB' is not"),
    "odd-id": (b"1\tISSUE\tabc\t1\t-\n", "ledger.tsv:1: ISSUE of card id 'abc' is not"),
    "doubled-space": (b"1\tISSUE\tab  cd\t1 1 1\t-\n",
                      "ledger.tsv:1: ISSUE of card id '' is not"),
}


@pytest.mark.parametrize("lines", UNAPPLIABLE)
def test_a_ledger_line_the_replay_cannot_apply_is_corrupt(tmp_path, lines):
    text, problem = UNAPPLIABLE[lines]
    path = tmp_path / "ledger.tsv"
    path.write_bytes(text)
    with pytest.raises(LedgerCorrupt, match=problem):
        CardLedger.replay(str(path))
    with pytest.raises(LedgerCorrupt, match=problem):  # the writer loads by the same rule
        CardLedger(path=str(path))
    assert path.read_bytes() == text


def _state(ledger):
    return ({cid: dataclasses.astuple(c) for cid, c in ledger.cards.items()},
            dict(ledger.accounts), ledger._seq)


UNKNOWN_ID = "00" * 16
CALLS = st.lists(st.one_of(
    st.tuples(st.just("issue"), st.integers(0, 4), st.integers(1, 3)),
    st.tuples(st.just("dist"), st.lists(st.integers(0, 4), max_size=2),
              st.sampled_from(["store-1", "store-2"])),
    st.tuples(st.just("spend"), st.lists(st.integers(0, 4), min_size=1, max_size=2),
              st.sampled_from(["seller-1", "seller-2"])),
), max_size=30)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(calls=CALLS)
def test_live_changes_and_their_replay_agree(calls):
    # indices pick from the issued ids, newest first, and one unknown id,
    # so repeats, unknown, undistributed and spent cards all come up
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "ledger.tsv")
        ledger = CardLedger(path=str(path), rng=random.Random(5))
        ids, records = [], 0
        for op, arg, extra in calls:
            before = (_state(ledger), path.read_bytes())
            try:
                if op == "issue":
                    ids += [c.card_id for c in ledger.issue_cards(arg, extra)]
                    moved = arg
                else:
                    picked = [(ids[::-1] + [UNKNOWN_ID])[i % (len(ids) + 1)] for i in arg]
                    if op == "dist":
                        ledger.distribute(picked, extra)
                    else:
                        ledger.spend_atomic(picked, extra)
                    moved = len(picked)
            except CardError:
                assert (_state(ledger), path.read_bytes()) == before
            else:
                records += moved > 0
        ledger.close()
        # one line per accepted change of at least one card, however many it moved
        assert path.read_bytes().count(b"\n") == records
        # each record moves one card one status along its life cycle
        moves = {CardStatus.GENERATED: 1, CardStatus.DISTRIBUTED: 2, CardStatus.SPENT: 3}
        assert ledger._seq == sum(moves[c.status] for c in ledger.cards.values())
        replayed = CardLedger.replay(str(path))
        assert _state(replayed) == _state(ledger)
        replayed.check_conservation()


def _accepts(read, text: str) -> bool:
    try:
        read(text)
    except (ValueError, BlindpayError):
        return False
    return True


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=st.text(alphabet="0123456789abcdefABCDEFg", max_size=6))
@example(text="")
@example(text="AB")
@example(text="abc")
def test_one_rule_decides_a_card_id_for_the_wire_replay_and_the_cards_file(text):
    # before, the wire sent "AB" as ab, replay loaded an ISSUE of "" or
    # "AB", and the cards file ran a hex check of its own
    with tempfile.TemporaryDirectory() as tmp:
        ledger, cards = pathlib.Path(tmp, "ledger.tsv"), pathlib.Path(tmp, "cards.txt")
        ledger.write_text(f"1\tISSUE\t{text}\t1\t-\n")
        cards.write_text(f"{text}\n")
        rule = _accepts(checked_card_id, text)
        assert rule == (text != "" and len(text) % 2 == 0 and set(text) <= set("0123456789abcdef"))
        assert _accepts(lambda t: wire.encode(wire.StepReq(card_ids=(t,), m=1)), text) == rule
        assert _accepts(CardLedger.replay, str(ledger)) == rule
        # the cards file lowercases an id first; an empty line names no card
        try:
            read = cli._read_cards(str(cards))
        except BlindpayError:
            read = None
        assert (read == [(text.lower(), 1)]) == _accepts(checked_card_id, text.lower())
