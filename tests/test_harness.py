import random
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blindpay.purchase
from blindpay import wire
from blindpay.cards import CardLedger, CardStatus
from blindpay.encoding import enc_bytes, enc_str, enc_u32
from blindpay.dispute import (
    BUYER_CLAIM_REJECTED,
    SELLER_AT_FAULT,
    SELLER_MUST_RESIGN,
    SellerDisputeAgent,
    answer_case,
    build_type_d_case,
    parse_case,
    resolve_type_c,
    resolve_type_d_method1,
    resolve_type_d_method2,
    write_case,
)
from blindpay.errors import CardError, ConnectionClosed, ScenarioInvalid, StepRejected
from blindpay.harness import (
    FAULTS,
    Metrics,
    RemoteBank,
    Scenario,
    make_bank_handler,
    make_seller_handler,
    parse_scenario,
    remote_step,
    report_tables,
    run_scenario,
    run_sweep,
    step_reply,
)
from blindpay.purchase import SellerStepHandler

from conftest import make_catalog
from test_dispute import completed_session, type_c_evidence, type_d_evidence
from test_purchase import fund


# --- scenario plumbing ------------------------------------------------------------

def test_scenario_parse_defaults_and_comments():
    sc = parse_scenario("# demo\nprice: 3\nseed: 5\n")
    assert sc.mode == "basic" and sc.price == 3 and sc.seed == 5
    assert parse_scenario("# only\n\n# comments\n") == Scenario()


@pytest.mark.parametrize("group_bits", ["8", "64", "ffdhe2048", "ffdhe3072"])
def test_scenario_group_bits_takes_what_seller_init_takes(group_bits):
    assert parse_scenario(f"group_bits: {group_bits}\n").group_bits == group_bits


@pytest.mark.parametrize("text", [
    "mode: turbo\n",
    "price: 0\n",
    "transport: pigeon\n",
    "fault: gremlins\n",
    "fault: wrong-s\n",  # needs fault_step
    "price: x\n",
    "prcie: 5\n",  # an unknown key, which would leave the price at 1
    "refresh: yes\n",  # neither on nor off
    "group_bits: 65\n",  # above the desk groups
    "group_bits: 4\n",  # below them
    "group_bits: ffdhe1024\n",  # not a named group
    "group_bits: 3_2\n",  # not ASCII digits
    "price: 3\nprice: 5\n",  # a repeated key, which would run at the last price
])
def test_scenario_parse_rejects(text):
    with pytest.raises(ScenarioInvalid):
        parse_scenario(text)


def test_metrics_records_and_tsv():
    metrics = Metrics()
    metrics.actor("buyer").exponentiations = 2
    metrics.actor("seller").signings = 4
    tsv = metrics.render_tsv()
    assert "buyer\texponentiations\t2\n" in tsv
    assert "seller\tsignings\t4\n" in tsv


# --- operation counts (the complexity tables) ------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 4, 8, 16, 31])
def test_basic_mode_operation_counts_exact(p):
    rep = run_scenario(Scenario(mode="basic", price=p, refresh=False, seed=3))
    buyer = rep.metrics.actor("buyer")
    seller = rep.metrics.actor("seller")
    assert buyer.exponentiations == 2
    assert buyer.divisions == p
    assert buyer.signings == 0
    assert buyer.table_total() == p + 2
    assert seller.exponentiations == p
    assert seller.divisions == 0
    assert seller.signings == p
    assert seller.table_total() == 2 * p
    assert buyer.messages_sent == p


@pytest.mark.parametrize("p", [2, 4, 8, 16, 31])
def test_enhanced_mode_bounds(p):
    rep = run_scenario(Scenario(mode="enhanced", price=p, refresh=False, seed=3))
    buyer = rep.metrics.actor("buyer")
    ceil_log = (p - 1).bit_length()
    assert buyer.table_total() <= 1 + 2 * ceil_log
    assert buyer.messages_sent == bin(p).count("1")
    assert buyer.messages_sent <= ceil_log + 1


def test_enhanced_price_one_degenerates_to_basic():
    basic = run_scenario(Scenario(mode="basic", price=1, refresh=False, seed=3))
    enhanced = run_scenario(Scenario(mode="enhanced", price=1, refresh=False, seed=3))
    for rep in (basic, enhanced):
        assert rep.metrics.actor("buyer").table_total() == 3  # p + 2
        assert rep.metrics.actor("buyer").messages_sent == 1


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16, 31])
def test_payload_bits_formulas(p):
    beta = 128
    basic = run_scenario(Scenario(mode="basic", price=p, refresh=False,
                                  group_bits="64", seed=3))
    gamma = 64
    assert basic.metrics.actor("buyer").payload_bits == p * (beta + gamma)
    assert basic.metrics.actor("seller").payload_bits == 2 * p * gamma
    enhanced = run_scenario(Scenario(mode="enhanced", price=p, refresh=False,
                                     group_bits="64", seed=3))
    msgs = bin(p).count("1")
    assert enhanced.metrics.actor("buyer").payload_bits == msgs * (beta + gamma)
    assert enhanced.metrics.actor("seller").payload_bits == 2 * msgs * gamma


def test_wire_bytes_exceed_payload_bits():
    rep = run_scenario(Scenario(mode="basic", price=4, refresh=False, seed=3))
    buyer = rep.metrics.actor("buyer")
    assert buyer.wire_bytes * 8 > buyer.payload_bits  # framing overhead is real


def test_counter_soundness_against_call_counting(monkeypatch, params64):
    # independent oracle: count actual invocations of both exponentiation
    # functions inside the purchase module and compare with the billed counter
    calls = {"n": 0}

    def counting(real):
        def wrapper(*args):
            calls["n"] += 1
            return real(*args)
        return wrapper

    for name in ("pow_mod", "pow_fast"):
        monkeypatch.setattr(blindpay.purchase, name,
                            counting(getattr(blindpay.purchase, name)))

    keys, cat = make_catalog(params64, prices=(5,))
    bank = CardLedger(rng=random.Random(4))
    cards = fund(bank, [1] * 5)
    metrics = Metrics()
    handler = SellerStepHandler(keys, params64, bank, "seller-1",
                                ops=metrics.actor("seller"))
    session = blindpay.purchase.buyer_begin(cat, "lic-5", cards, refresh_blinding=False,
                                            rng=random.Random(5),
                                            ops=metrics.actor("buyer"))
    blindpay.purchase.run_purchase(session, handler.handle)
    billed = (metrics.actor("buyer").exponentiations
              + metrics.actor("seller").exponentiations)
    assert calls["n"] == billed == 2 + 5


# --- reports -----------------------------------------------------------------------------------

def test_report_deterministic_byte_identical():
    sc = Scenario(mode="enhanced", price=11, refresh=True, seed=21,
                  fault="wrong-s", fault_step=2)
    assert run_scenario(sc).render() == run_scenario(sc).render()


def test_report_lists_verdicts():
    rep = run_scenario(Scenario(mode="basic", price=3, seed=2,
                                fault="corrupt-signature", fault_step=2))
    text = rep.render()
    assert "outcome: aborted:bad-step-signature" in text
    assert f"verdict: C {SELLER_MUST_RESIGN}" in text


def test_double_spend_scenario_conserves_and_stops():
    rep = run_scenario(Scenario(mode="basic", price=4, seed=6,
                                fault="double-spend", fault_step=3))
    assert rep.outcome == "aborted:already-spent"
    seller = rep.metrics.actor("seller")
    # two good steps were paid and exponentiated; the replayed card was not
    assert seller.exponentiations == 2
    assert rep.verdicts == []


def test_wrong_terms_scenario_type_b():
    rep = run_scenario(Scenario(mode="basic", price=2, seed=7, fault="wrong-terms"))
    assert rep.outcome == "completed"
    assert rep.terms_match == "no"
    assert rep.verdicts[0][0] == "B"
    assert rep.verdicts[0][1].outcome == SELLER_AT_FAULT


def test_wrong_s_scenario_all_three_methods():
    rep = run_scenario(Scenario(mode="basic", price=4, seed=8,
                                fault="wrong-s", fault_step=2))
    assert rep.outcome == "key-unusable"
    labels = [label for label, _ in rep.verdicts]
    assert labels == ["D-method1", "D-method2", "D-method3"]
    assert all(v.outcome == SELLER_AT_FAULT for _, v in rep.verdicts)


def test_false_claim_scenario_rejected_everywhere():
    rep = run_scenario(Scenario(mode="basic", price=3, seed=9, fault="false-claim"))
    assert rep.outcome == "completed"
    assert all(v.outcome == BUYER_CLAIM_REJECTED for _, v in rep.verdicts)
    assert len(rep.verdicts) == 3


def test_socket_scenario_matches_memory():
    mem = run_scenario(Scenario(mode="enhanced", price=6, seed=5, transport="memory"))
    sock = run_scenario(Scenario(mode="enhanced", price=6, seed=5, transport="socket"))
    assert mem.outcome == sock.outcome == "completed"
    assert mem.metrics.records() == sock.metrics.records()


def test_memory_and_socket_reports_agree():
    # both transports answer steps through the one make_seller_handler
    for mode in ("basic", "enhanced"):
        for fault in FAULTS:
            for refresh in (False, True):
                step = 2 if fault in ("corrupt-signature", "wrong-s", "double-spend") else 0
                sc = Scenario(mode=mode, price=5, refresh=refresh, seed=0, fault=fault,
                              fault_step=step)
                mem = run_scenario(sc).render()
                sock = run_scenario(replace(sc, transport="socket")).render()
                assert sock == mem.replace("transport=memory", "transport=socket"), sc


def test_run_sweep_tables_all_pass():
    table = report_tables(run_sweep(prices=(1, 2, 4, 8, 16, 31), seed=7))
    assert "FAIL" not in table
    assert "operation counts, basic mode" in table
    assert "payload bits, enhanced mode" in table


def _cells(table: str) -> dict[tuple[str, int], str]:
    """Each body cell of the tables, keyed by its table's title and column."""
    cells = {}
    for block in table.strip("\n").split("\n\n"):
        title, _, *rows = block.splitlines()
        for row in rows:
            cells.update(((title, col), cell) for col, cell in enumerate(row.split("\t")))
    return cells


# At p = 2, one check or (where marked) two: the mode and counter bumped,
# by how much, the table, and the columns that change (the counter's cell,
# then its ok cells).
FLAGGED = [
    ("basic", "buyer", "exponentiations", 1, "operation counts", [1, 3]),
    ("basic", "seller", "signings", 1, "operation counts", [4, 6]),
    ("basic", "buyer", "payload_bits", 1, "payload bits", [1, 3]),
    ("basic", "seller", "payload_bits", 1, "payload bits", [4, 6]),
    ("enhanced", "buyer", "divisions", 1, "operation counts", [1, 3]),
    ("enhanced", "buyer", "messages_sent", 1, "operation counts", [4, 6]),
    ("enhanced", "buyer", "messages_sent", 2, "operation counts", [4, 6, 8]),  # two checks
    ("enhanced", "buyer", "payload_bits", 1, "payload bits", [1, 3]),
    ("enhanced", "seller", "payload_bits", 1, "payload bits", [4, 6]),
]


@pytest.mark.parametrize("mode, actor, counter, bump, table, columns", FLAGGED,
                         ids=[f"{m}-{a}-{c}+{b}" for m, a, c, b, _, _ in FLAGGED])
def test_report_tables_flags_failures(mode, actor, counter, bump, table, columns):
    sweep = run_sweep(prices=(2,), seed=7)
    before = _cells(report_tables(sweep))
    c = sweep[mode][0].metrics.actor(actor)
    setattr(c, counter, getattr(c, counter) + bump)
    after = _cells(report_tables(sweep))
    title = next(title for title, _ in after if title.startswith(f"{table}, {mode} mode"))
    assert {key for key in after if after[key] != before[key]} == {
        (title, col) for col in columns}
    assert {key for key, cell in after.items() if cell == "FAIL"} == {
        (title, col) for col in columns[1:]}


# --- remote bank and seller over the wire --------------------------------------------------

def test_remote_bank_over_a_bank_server():
    ledger = CardLedger(rng=random.Random(11))
    cards = ledger.issue_cards(2, 1)
    ledger.distribute([c.card_id for c in cards], "store-1")
    srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    remote = RemoteBank(wire.connect(*srv.address))
    try:
        receipts = remote.spend_atomic([cards[0].card_id], "seller-1")
        assert receipts[0].value == 1
        with pytest.raises(CardError) as exc:
            remote.spend_atomic([cards[0].card_id], "seller-1")
        assert (exc.value.code, exc.value.prior_seq) == ("already-spent", receipts[0].seq)
    finally:
        remote.close()
        srv.stop()
    assert ledger.balance("seller-1") == 1


def test_stopped_bank_server_closes_its_connections():
    ledger = CardLedger(rng=random.Random(15))
    cards = ledger.issue_cards(2, 1)
    ledger.distribute([c.card_id for c in cards], "store-1")
    srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    remote = RemoteBank(wire.connect(*srv.address))
    try:
        remote.spend_atomic([cards[0].card_id], "seller-1")
        time.sleep(0.1)  # the bank has sent its reply and waits for the next frame
        srv.stop()
        with pytest.raises(ConnectionClosed):
            remote.spend_atomic([cards[1].card_id], "seller-1")
    finally:
        remote.close()
    assert ledger.cards[cards[1].card_id].status is CardStatus.DISTRIBUTED


class FirstReplyHeldBack:
    """Endpoint wrapper that holds the first reader back until another
    reader has taken a reply (or half a second has passed): the interleaving
    two seller connection threads sharing one bank link can produce."""

    def __init__(self, inner):
        self.inner = inner
        self.first_waiting = threading.Event()
        self.replied = threading.Event()
        self._readers = 0
        self._count_lock = threading.Lock()

    def send(self, msg):
        self.inner.send(msg)

    def peer_closed(self):
        return self.inner.peer_closed()

    def recv(self):
        with self._count_lock:
            self._readers += 1
            first = self._readers == 1
        if first:
            self.first_waiting.set()
            self.replied.wait(timeout=0.5)
        reply = self.inner.recv()
        self.replied.set()
        return reply


def test_shared_remote_bank_keeps_replies_apart():
    ledger = CardLedger(rng=random.Random(12))
    cards = ledger.issue_cards(2, 1)
    ledger.distribute([c.card_id for c in cards], "store-1")
    srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    endpoint = FirstReplyHeldBack(wire.connect(*srv.address))
    remote = RemoteBank(endpoint)
    got = {}

    def spend(card_id):
        receipts = remote.spend_atomic([card_id], "seller-1")
        got[card_id] = [r.card_id for r in receipts]

    first = threading.Thread(target=spend, args=(cards[0].card_id,))
    first.start()
    assert endpoint.first_waiting.wait(timeout=2.0)
    second = threading.Thread(target=spend, args=(cards[1].card_id,))
    second.start()
    first.join(timeout=5)
    second.join(timeout=5)
    endpoint.inner.close()
    srv.stop()
    assert got == {c.card_id: [c.card_id] for c in cards}


def test_bank_rejects_bad_request_and_keeps_the_connection():
    ledger = CardLedger(rng=random.Random(13))
    (card,) = ledger.issue_cards(1, 1)
    ledger.distribute([card.card_id], "store-1")
    srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    ep = wire.connect(*srv.address)
    try:
        ep.send(wire.CardSpend(card_ids=(), account="seller-1"))
        reply = ep.recv()
        assert isinstance(reply, wire.SpendErr) and reply.code == "bad-request"
        ep.send(wire.CardSpend(card_ids=(card.card_id,), account="seller-1"))
        reply = ep.recv()
        assert isinstance(reply, wire.SpendOk) and len(reply.receipts) == 1
    finally:
        ep.close()
        srv.stop()


def _filed_bank(path, values, seed):
    """A bank on a ledger file holding distributed cards of the given values."""
    ledger = CardLedger(path=str(path), rng=random.Random(seed))
    cards = [ledger.issue_cards(1, value)[0] for value in values]
    ledger.distribute([c.card_id for c in cards], "store-1")
    return ledger, make_bank_handler(ledger), cards


def test_an_account_that_ends_its_record_is_refused_and_the_bank_restarts(tmp_path):
    # before, the forged record took the next seq, the next spend took it
    # again, and the reopened ledger refused its file with a sequence gap
    path = tmp_path / "ledger.tsv"
    ledger, handle, (card, other) = _filed_bank(path, [1, 1], 23)
    forged = f"seller-1\n{ledger._seq + 2}\tISSUE\t{'ab' * 16}\t1\t-"
    reply = handle(wire.CardSpend(card_ids=(card.card_id,), account=forged))
    assert isinstance(reply, wire.SpendErr) and reply.code == "bad-request", reply
    assert isinstance(handle(wire.CardSpend(card_ids=(other.card_id,), account="seller-1")),
                      wire.SpendOk)
    ledger.close()
    reopened = CardLedger(path=str(path))
    assert (reopened._seq, reopened.accounts) == (ledger._seq, {"seller-1": 1})
    assert reopened.cards[card.card_id].status is CardStatus.DISTRIBUTED
    reopened.close()


def test_an_account_cannot_mint_a_card_through_the_ledger_file(tmp_path):
    # before, the holder of one 1-unit card had a 1000-unit card issued and
    # distributed by its account text, spent it after the bank reopened its
    # ledger, and check_conservation passed
    path = tmp_path / "ledger.tsv"
    ledger, handle, (card,) = _filed_bank(path, [1], 24)
    minted, seq = "cd" * 16, ledger._seq + 1
    account = (f"seller-1\n{seq + 1}\tISSUE\t{minted}\t1000\t-\n"
               f"{seq + 2}\tDIST\t{minted}\t1000\tstore-1")
    reply = handle(wire.CardSpend(card_ids=(card.card_id,), account=account))
    assert isinstance(reply, wire.SpendErr) and reply.code == "bad-request", reply
    ledger.close()
    reopened = CardLedger(path=str(path))
    reply = make_bank_handler(reopened)(wire.CardSpend(card_ids=(minted,), account="seller-1"))
    reopened.check_conservation()
    reopened.close()
    assert isinstance(reply, wire.SpendErr) and reply.code == "unknown-card", reply
    assert sum(c.value for c in reopened.cards.values()) == 1


def test_a_spend_on_a_closed_ledger_is_refused_bank_unavailable(tmp_path, params64):
    # before, the closed file's ValueError came back bad-request, blaming the
    # request for the bank's own shutdown, with the file's error as detail
    ledger, handle, (card,) = _filed_bank(tmp_path / "ledger.tsv", [1], 26)
    ledger.close()
    unavailable = ("bank-unavailable", "the bank did not answer")
    reply = handle(wire.CardSpend(card_ids=(card.card_id,), account="seller-1"))
    assert reply == wire.SpendErr(*unavailable), reply
    # a seller whose bank is that ledger in memory refuses the buyer alike
    keys, cat = make_catalog(params64)
    seller = make_seller_handler(SellerStepHandler(keys, params64, ledger, "seller-1"), cat)
    m = blindpay.purchase.pow_mod(params64.g, 777, params64)
    assert seller(wire.StepReq(card_ids=(card.card_id,), m=m)) == wire.StepErr(*unavailable)
    assert CardLedger.replay(str(tmp_path / "ledger.tsv")).accounts == {}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(st.text(max_size=70), st.text(alphabet="a1._-\t\n\r \x85\u2028")))
def test_any_account_is_refused_or_replays_as_it_was_spent(account):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.tsv"
        ledger, handle, (card,) = _filed_bank(path, [3], 25)
        reply = handle(wire.CardSpend(card_ids=(card.card_id,), account=account))
        ledger.close()
        if isinstance(reply, wire.SpendErr):
            assert reply.code == "bad-request"
            assert ledger.cards[card.card_id].status is CardStatus.DISTRIBUTED
        replayed = CardLedger.replay(str(path))
        assert (replayed.cards, replayed.accounts, replayed._seq) == (
            ledger.cards, ledger.accounts, ledger._seq)


def test_bank_answers_a_request_it_does_not_serve_and_keeps_the_connection():
    ledger = CardLedger(rng=random.Random(26))
    (card,) = ledger.issue_cards(1, 1)
    ledger.distribute([card.card_id], "store-1")
    srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    ep = wire.connect(*srv.address)
    try:
        ep.send(wire.CatalogGet())
        assert ep.recv() == wire.SpendErr(code="unsupported", detail="CatalogGet", prior_seq=0)
        ep.send(wire.CardSpend(card_ids=(card.card_id,), account="seller-1"))
        assert isinstance(ep.recv(), wire.SpendOk)
    finally:
        ep.close()
        srv.stop()


def test_seller_answers_a_request_it_does_not_serve_and_keeps_the_connection(params64):
    keys, cat = make_catalog(params64)
    ledger = CardLedger(rng=random.Random(27))
    (card,) = ledger.issue_cards(1, 1)
    ledger.distribute([card.card_id], "store-1")
    handler = SellerStepHandler(keys, params64, ledger, "seller-1")
    srv = wire.Server("127.0.0.1", 0, make_seller_handler(handler, cat)).start()
    ep = wire.connect(*srv.address)
    try:
        ep.send(wire.CardSpend(card_ids=(card.card_id,), account="seller-1"))
        assert ep.recv() == wire.StepErr(code="unsupported", detail="CardSpend")
        assert ledger.cards[card.card_id].status is CardStatus.DISTRIBUTED
        ep.send(wire.CatalogGet())
        assert isinstance(ep.recv(), wire.CatalogDoc)
    finally:
        ep.close()
        srv.stop()


def test_bank_listener_neither_issues_nor_distributes():
    # tags 1 and 2 once minted cards and sold them to a store for any
    # client; they are reserved now and, like any tag the bank cannot
    # decode, get the bank's own error reply
    ledger = CardLedger(rng=random.Random(14))
    sold, unsold = ledger.issue_cards(2, 1)
    ledger.distribute([sold.card_id], "store-1")
    seq = ledger._seq
    srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    sock = socket.create_connection(srv.address)
    ep = wire.SocketEndpoint(sock)
    try:
        for raw in (bytes([1]) + enc_u32(1) + enc_u32(1),
                    bytes([2]) + enc_u32(1) + enc_bytes(bytes.fromhex(unsold.card_id))
                    + enc_str("store-1"),
                    bytes([99])):
            sock.sendall(wire.frame(raw))
            reply = ep.recv()
            assert isinstance(reply, wire.SpendErr) and reply.code == "malformed", reply
        assert (ledger._seq, len(ledger.cards)) == (seq, 2)
        assert ledger.cards[unsold.card_id].status is CardStatus.GENERATED
        ep.send(wire.CardSpend(card_ids=(sold.card_id,), account="seller-1"))
        assert isinstance(ep.recv(), wire.SpendOk)
    finally:
        ep.close()
        srv.stop()


def test_seller_refuses_bad_query_and_keeps_the_connection(params64):
    keys, cat = make_catalog(params64)
    ledger = CardLedger(rng=random.Random(19))
    handler = SellerStepHandler(keys, params64, ledger, "seller-1")
    srv = wire.Server("127.0.0.1", 0, make_seller_handler(handler, cat)).start()
    sock = socket.create_connection(srv.address)
    ep = wire.SocketEndpoint(sock)
    m = blindpay.purchase.pow_mod(params64.g, 777, params64)
    try:
        sock.sendall(wire.frame(bytes([99])))
        reply = ep.recv()
        assert isinstance(reply, wire.StepErr) and reply.code == "malformed"
        ep.send(wire.StepReq(card_ids=("00" * 16,), m=m))
        reply = ep.recv()
        assert isinstance(reply, wire.StepErr) and reply.code == "unknown-card"
        ep.send(wire.StepReq(card_ids=("00" * 16,), m=params64.n - 1))
        reply = ep.recv()
        assert isinstance(reply, wire.StepErr) and reply.code == "malformed-element"
        ep.send(wire.CatalogGet())
        assert isinstance(ep.recv(), wire.CatalogDoc)
    finally:
        ep.close()
        srv.stop()


def test_seller_refuses_a_step_its_bank_cannot_take_and_keeps_the_connection(params64):
    keys, cat = make_catalog(params64)
    ledger = CardLedger(rng=random.Random(20))
    paid, card = ledger.issue_cards(2, 1)
    ledger.distribute([paid.card_id, card.card_id], "store-1")
    bank_srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    bank = RemoteBank(wire.connect(*bank_srv.address))
    handler = SellerStepHandler(keys, params64, bank, "seller-1")
    srv = wire.Server("127.0.0.1", 0, make_seller_handler(handler, cat)).start()
    ep = wire.connect(*srv.address)
    m = blindpay.purchase.pow_mod(params64.g, 777, params64)
    try:
        ep.send(wire.StepReq(card_ids=(paid.card_id,), m=m))
        assert isinstance(ep.recv(), wire.StepResp)
        time.sleep(0.1)  # the bank has sent its reply and waits for the next frame
        bank_srv.stop()
        ep.send(wire.StepReq(card_ids=(card.card_id,), m=m))
        reply = ep.recv()
        assert isinstance(reply, wire.StepErr) and reply.code == "bank-unavailable"
        host, port = bank_srv.address
        assert host not in reply.detail and str(port) not in reply.detail
        ep.send(wire.CatalogGet())
        assert isinstance(ep.recv(), wire.CatalogDoc)
    finally:
        ep.close()
        srv.stop()
        bank.close()
    assert ledger.cards[card.card_id].status is CardStatus.DISTRIBUTED


def test_seller_refuses_a_step_without_cards_as_a_bad_request(params64):
    keys, cat = make_catalog(params64)
    ledger = CardLedger(rng=random.Random(27))
    seller = make_seller_handler(SellerStepHandler(keys, params64, ledger, "seller-1"), cat)
    m = blindpay.purchase.pow_mod(params64.g, 777, params64)
    assert seller(wire.StepReq(card_ids=(), m=m)) == wire.StepErr(
        "bad-request", "step request carries no cards")


@pytest.mark.parametrize("reply", [wire.CatalogGet(), wire.CatalogDoc(text="")])
def test_a_step_reply_of_another_type_is_a_protocol_refusal(reply):
    with pytest.raises(StepRejected) as exc:
        step_reply(reply)
    assert exc.value.code == "protocol"
    assert type(reply).__name__ in exc.value.detail


def test_seller_redials_a_bank_that_is_back_on_its_address(params64):
    keys, cat = make_catalog(params64)
    ledger = CardLedger(rng=random.Random(21))
    paid, refused, later = ledger.issue_cards(3, 1)
    ledger.distribute([c.card_id for c in (paid, refused, later)], "store-1")
    bank_srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    bank = RemoteBank(wire.connect(*bank_srv.address))
    handler = make_seller_handler(SellerStepHandler(keys, params64, bank, "seller-1"), cat)
    m = blindpay.purchase.pow_mod(params64.g, 777, params64)

    def step(card):
        return handler(wire.StepReq(card_ids=(card.card_id,), m=m))

    try:
        assert isinstance(step(paid), wire.StepResp)
        time.sleep(0.1)  # the bank has sent its reply and waits for the next frame
        bank_srv.stop()
        reply = step(refused)
        assert isinstance(reply, wire.StepErr) and reply.code == "bank-unavailable"
        bank_srv = wire.Server(*bank_srv.address, make_bank_handler(ledger)).start()
        assert isinstance(step(later), wire.StepResp)
    finally:
        bank_srv.stop()
        bank.close()
    assert ledger.cards[refused.card_id].status is CardStatus.DISTRIBUTED
    assert ledger.cards[later.card_id].spent_by == "seller-1"
    assert ledger.balance("seller-1") == 2


def test_seller_redials_a_bank_link_closed_while_idle(params64, monkeypatch):
    # the bank closes a link idle past IDLE_SECONDS; the next step must not
    # be refused for it, and must be credited once
    monkeypatch.setattr(wire, "IDLE_SECONDS", 0.2)
    keys, cat = make_catalog(params64)
    ledger = CardLedger(rng=random.Random(22))
    first, second = ledger.issue_cards(2, 1)
    ledger.distribute([first.card_id, second.card_id], "store-1")
    bank_srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    bank = RemoteBank(wire.connect(*bank_srv.address))
    handler = make_seller_handler(SellerStepHandler(keys, params64, bank, "seller-1"), cat)
    m = blindpay.purchase.pow_mod(params64.g, 777, params64)
    try:
        assert isinstance(handler(wire.StepReq(card_ids=(first.card_id,), m=m)), wire.StepResp)
        link = bank.endpoint
        time.sleep(0.6)  # the bank closes the idle link
        assert isinstance(handler(wire.StepReq(card_ids=(second.card_id,), m=m)), wire.StepResp)
        assert bank.endpoint is not link
    finally:
        bank.close()
        bank_srv.stop()
    assert ledger.cards[second.card_id].spent_by == "seller-1"
    assert ledger.balance("seller-1") == 2


class CardErrorsSeen:
    """A seller's bank link that keeps each CardError it raises."""

    def __init__(self, bank):
        self.bank, self.raised = bank, []

    def spend_atomic(self, card_ids, account):
        try:
            return self.bank.spend_atomic(card_ids, account)
        except CardError as exc:
            self.raised.append(exc)
            raise


def test_each_ledger_refusal_reaches_the_buyer_with_its_code(params64):
    # ledger -> bank handler -> RemoteBank -> seller handler -> remote_step
    keys, cat = make_catalog(params64)
    ledger = CardLedger(rng=random.Random(29))
    spent, unsold = ledger.issue_cards(2, 1)
    ledger.distribute([spent.card_id], "store-1")
    (first,) = ledger.spend_atomic([spent.card_id], "seller-0")
    bank_srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    bank = RemoteBank(wire.connect(*bank_srv.address))
    seen = CardErrorsSeen(bank)
    srv = wire.Server("127.0.0.1", 0, make_seller_handler(
        SellerStepHandler(keys, params64, seen, "seller-1"), cat)).start()
    m = blindpay.purchase.pow_mod(params64.g, 777, params64)
    cases = [("00" * 16, "unknown-card", 0), (unsold.card_id, "not-distributed", 0),
             (spent.card_id, "already-spent", first.seq)]
    try:
        for card_id, code, prior_seq in cases:
            with pytest.raises(StepRejected) as rej:
                remote_step(srv.address, wire.StepReq(card_ids=(card_id,), m=m))
            assert (rej.value.code, rej.value.detail) == (code, card_id)
            exc = seen.raised[-1]
            assert (exc.card_id, exc.code, exc.prior_seq) == (card_id, code, prior_seq)
            with pytest.raises(CardError) as at_the_bank:
                ledger.spend_atomic([card_id], "seller-1")
            assert str(exc) == str(at_the_bank.value)
    finally:
        srv.stop()
        bank.close()
        bank_srv.stop()
    assert len(seen.raised) == 3 and ledger.balance("seller-1") == 0


@dataclass(frozen=True)
class Reserved(wire.Message):
    """A reply under a reserved tag: a frame no reader decodes."""
    TYPE: ClassVar[int] = 99
    WIRE: ClassVar[tuple[str, ...]] = ()


@pytest.mark.parametrize("reply", [
    wire.StepErr(code="unsupported", detail="CardSpend"),  # what a seller answers a spend
    Reserved(),
    *(wire.SpendErr(code=code, detail="not a card", prior_seq=0)
      for code in ("busy", "malformed", "unsupported", "bad-request")),
], ids=["a-seller", "undecodable", "busy", "malformed", "unsupported", "bad-request"])
def test_a_spend_the_bank_did_not_serve_is_refused_bank_unavailable(params64, reply):
    # before, a reply of another type or one that did not decode dropped the
    # buyer's connection, and a SpendErr that refuses no card reached the
    # buyer as card-error
    keys, cat = make_catalog(params64)
    bank_srv = wire.Server("127.0.0.1", 0, lambda msg: reply).start()
    bank = RemoteBank(wire.connect(*bank_srv.address))
    srv = wire.Server("127.0.0.1", 0, make_seller_handler(
        SellerStepHandler(keys, params64, bank, "seller-1"), cat)).start()
    ep = wire.connect(*srv.address)
    m = blindpay.purchase.pow_mod(params64.g, 777, params64)
    try:
        for _ in range(2):  # the next step dials the bank again
            ep.send(wire.StepReq(card_ids=("ab" * 16,), m=m))
            refused = ep.recv()
            assert refused == wire.StepErr(code="bank-unavailable",
                                           detail="the bank did not answer"), refused
        ep.send(wire.CatalogGet())
        assert isinstance(ep.recv(), wire.CatalogDoc)
    finally:
        ep.close()
        srv.stop()
        bank.close()
        bank_srv.stop()


# --- remote prover: the seller answers the case record apart from the arbitrator -----------

def _answer_apart(case, cat, agent):
    """The seller answers the case record on its own side (answer_case, as
    ``blindpay seller answer`` does); the arbitrator gets back only the
    answered record."""
    return parse_case(write_case(answer_case(parse_case(write_case(case)), cat, agent)))


RESOLVERS = {
    # type C's resolver reads a record only: its local answer is answer_case's in memory
    "C": lambda case, cat, seller: resolve_type_c(answer_case(case, cat, seller) if seller
                                                  else case),
    "D-method1": lambda case, cat, seller: resolve_type_d_method1(case, seller),
    "D-method2": lambda case, cat, seller: resolve_type_d_method2(case, cat, seller,
                                                                  random.Random(16)),
}


def test_remote_prover_method1(params64):
    keys, cat, bank, session = completed_session(params64, price=3, seed=70)
    agent = SellerDisputeAgent(keys, cat, random.Random(12))
    record = _answer_apart(build_type_d_case(cat, session), cat, agent)
    assert record.step_proofs is not None
    verdict = resolve_type_d_method1(record)
    assert verdict.outcome == BUYER_CLAIM_REJECTED


@pytest.mark.parametrize("label, evidence", [
    ("C", "t=1"), ("C", "t=4"),
    ("D-method1", "honest"), ("D-method1", "wrong-s"),
    ("D-method2", "honest"), ("D-method2", "wrong-s"),
])
def test_remote_prover_reaches_local_verdict(params64, label, evidence):
    # method 3 needs the generation factor, which the case record never carries
    if label == "C":
        keys, cat, new_case = type_c_evidence(params64, int(evidence[2:]))
        expected = SELLER_MUST_RESIGN
    else:
        keys, cat, new_case = type_d_evidence(params64, 2 if evidence == "wrong-s" else None)
        expected = SELLER_AT_FAULT if evidence == "wrong-s" else BUYER_CLAIM_REJECTED
    resolve = RESOLVERS[label]
    local = resolve(new_case(), cat, SellerDisputeAgent(keys, cat, random.Random(17)))
    record = _answer_apart(new_case(), cat, SellerDisputeAgent(keys, cat, random.Random(18)))
    remote = resolve(record, cat, None)
    assert local.outcome == expected
    assert remote == local
