import json
import os
import pathlib
import pkgutil
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blindpay
from blindpay import wire
from blindpay.cards import CardLedger, SpendReceipt
from blindpay.catalog import LicensePlaintext
from blindpay.errors import (
    ConnectionClosed,
    MalformedMessage,
    OversizeFrame,
)
from blindpay.harness import make_bank_handler, make_seller_handler
from blindpay.purchase import SellerStepHandler

from conftest import make_catalog

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

CARD_A = "00112233445566778899aabbccddeeff"
CARD_B = "ffeeddccbbaa99887766554433221100"


def sample_messages():
    return [
        wire.CardSpend(card_ids=(CARD_A, CARD_B), account="seller-1"),
        wire.SpendOk(receipts=(SpendReceipt(seq=7, card_id=CARD_A, value=1,
                                            seller_account="seller-1"),)),
        wire.SpendErr(code="already-spent", detail=CARD_A, prior_seq=7),
        wire.StepReq(card_ids=(CARD_A, CARD_B), m=39997),
        wire.StepResp(m_out=40085, signature=bytes(range(64))),
        wire.StepErr(code="already-spent", detail=CARD_A),
        wire.CatalogGet(),
        wire.CatalogDoc(text="blindpay-catalog: v1\nn: 40087\n"),
    ]


# --- codec ---------------------------------------------------------------------

def test_every_type_round_trips():
    for msg in sample_messages():
        data = wire.encode(msg)
        back = wire.decode(data)
        assert back == msg
        assert wire.encode(back) == data


def test_every_type_declares_its_layout():
    for cls in (*wire.MESSAGE_TYPES.values(), SpendReceipt, LicensePlaintext):
        assert "WIRE" in vars(cls), cls.__name__
        assert len(cls.WIRE) == len(fields(cls)), cls.__name__
        assert set(cls.WIRE) <= set(wire.FIELD_KINDS), cls.__name__


def test_golden_vectors():
    vectors = {v["name"]: v["hex"]
               for v in json.loads((FIXTURES / "golden_vectors.json").read_text())}
    assert len(vectors) == len(wire.MESSAGE_TYPES)
    by_name = {type(m).__name__: m for m in sample_messages()}
    name_map = {
        "card_spend": "CardSpend", "spend_ok": "SpendOk", "spend_err": "SpendErr",
        "step_req": "StepReq", "step_resp": "StepResp", "step_err": "StepErr",
        "catalog_get": "CatalogGet", "catalog_doc": "CatalogDoc",
    }
    for name, hexdata in vectors.items():
        msg = by_name[name_map[name]]
        assert wire.encode(msg).hex() == hexdata, name
        assert wire.decode(bytes.fromhex(hexdata)) == msg, name


@pytest.mark.parametrize("module", sorted(m.name for m in
                                          pkgutil.iter_modules(blindpay.__path__)))
def test_each_module_imports_on_its_own(module):
    # catalog imports wire, which imports cards: an import cycle that only
    # one import order triggers would pass unseen in a shared interpreter
    src = pathlib.Path(blindpay.__file__).parent.parent
    subprocess.run([sys.executable, "-c", f"import blindpay.{module}"], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)


def test_decode_empty_is_malformed_at_offset_zero():
    with pytest.raises(MalformedMessage) as exc:
        wire.decode(b"")
    assert exc.value.offset == 0


@pytest.mark.parametrize("tag", [1, 2, *range(16, 24), 99])  # 1, 2, 16 to 23 reserved
def test_decode_unknown_type(tag):
    with pytest.raises(MalformedMessage, match=f"unknown message type {tag}$"):
        wire.decode(bytes([tag]))


def test_decode_trailing_bytes_rejected():
    data = wire.encode(wire.CatalogGet()) + b"x"
    with pytest.raises(MalformedMessage):
        wire.decode(data)


def test_decode_truncated_field_reports_offset():
    data = wire.encode(wire.StepResp(m_out=40085, signature=b"sig"))
    with pytest.raises(MalformedMessage) as exc:
        wire.decode(data[:-2])
    assert exc.value.offset > 0


def test_decode_non_minimal_int_rejected():
    # hand-build a StepResp whose m_out has a leading zero byte
    bad = bytes([7]) + (2).to_bytes(4, "big") + b"\x00\x05" + (0).to_bytes(4, "big")
    with pytest.raises(MalformedMessage):
        wire.decode(bad)


def test_fuzz_decode_never_crashes():
    rng = random.Random(1234)
    outcomes = {"ok": 0, "err": 0}
    for _ in range(10**5):
        blob = rng.randbytes(rng.randrange(0, 40))
        try:
            msg = wire.decode(blob)
            assert isinstance(msg, wire.Message)
            outcomes["ok"] += 1
        except MalformedMessage:
            outcomes["err"] += 1
    assert outcomes["err"] > 0  # random bytes are mostly garbage
    assert outcomes["ok"] + outcomes["err"] == 10**5


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**256))
def test_step_req_round_trip_property(raw_ids, m):
    msg = wire.StepReq(card_ids=tuple(b.hex() for b in raw_ids), m=m)
    assert wire.decode(wire.encode(msg)) == msg


@pytest.mark.parametrize("card_id", ["AB", "ab cd", "", "abc"])
def test_encode_refuses_a_text_that_is_not_a_card_id(card_id):
    # before, "AB" went out as ab and "ab cd" as abcd, so the bank was asked
    # about another id than the one the sender named
    for msg in (wire.StepReq(card_ids=("ab", card_id), m=1),
                wire.CardSpend(card_ids=(card_id,), account="seller-1"),
                wire.SpendOk(receipts=(SpendReceipt(1, card_id, 1, "seller-1"),))):
        with pytest.raises(ValueError, match="card id"):
            wire.encode(msg)


# --- unlinkability at the format level ------------------------------------------------

def message_field_names() -> dict[str, tuple[str, ...]]:
    """Field vocabulary of every message type, for schema audits."""
    return {cls.__name__: tuple(f.name for f in fields(cls))
            for cls in wire.MESSAGE_TYPES.values()}


def test_no_message_carries_identity_fields():
    forbidden = {"buyer", "buyer_id", "identity", "user", "user_id", "name",
                 "session", "session_id", "step_index", "counter", "timestamp"}
    for cls_name, names in message_field_names().items():
        assert not forbidden & set(names), cls_name


def test_step_req_shape_is_step_independent():
    # the first and the fortieth request of a purchase are structurally
    # identical: same fields, same layout, no sequence data anywhere
    assert message_field_names()["StepReq"] == ("card_ids", "m")
    first = wire.StepReq(card_ids=(CARD_A,), m=0x1234)
    later = wire.StepReq(card_ids=(CARD_B,), m=0xBEEF)
    enc_first, enc_later = wire.encode(first), wire.encode(later)
    # same-width values produce byte-for-byte equal layouts
    assert len(enc_first) == len(enc_later)
    assert enc_first[0] == enc_later[0] == wire.StepReq.TYPE
    # the only differing bytes are the card id and the element value
    diff = [i for i, (x, y) in enumerate(zip(enc_first, enc_later)) if x != y]
    assert diff  # values differ
    assert all(i >= 9 for i in diff)  # tag + list count + length prefix identical


# --- framing ----------------------------------------------------------------------------

def test_frame_roundtrip_single():
    payload = wire.encode(wire.CatalogGet())
    dec = wire.FrameDecoder()
    assert dec.feed(wire.frame(payload)) == [payload]


def test_frame_rejects_oversize():
    with pytest.raises(OversizeFrame):
        wire.frame(b"x" * (wire.MAX_FRAME + 1))
    dec = wire.FrameDecoder()
    with pytest.raises(OversizeFrame):
        dec.feed((wire.MAX_FRAME + 1).to_bytes(4, "big"))


def test_frame_reassembly_across_arbitrary_chunks():
    rng = random.Random(77)
    payloads = [wire.encode(m) for m in sample_messages()] * 3
    stream = b"".join(wire.frame(p) for p in payloads)
    for _ in range(50):
        dec = wire.FrameDecoder()
        got = []
        pos = 0
        while pos < len(stream):
            step = rng.randrange(1, 9)
            got.extend(dec.feed(stream[pos:pos + step]))
            pos += step
        assert got == payloads


# --- transports ------------------------------------------------------------------------------

def test_socket_loopback_soak():
    def echo(msg):
        return wire.StepResp(m_out=msg.m, signature=b"ok")

    srv = wire.Server("127.0.0.1", 0, echo).start()
    try:
        ep = wire.connect(*srv.address)
        for i in range(1000):
            ep.send(wire.StepReq(card_ids=(CARD_A,), m=i))
            resp = ep.recv()
            assert resp.m_out == i  # strict ordering, zero loss
        ep.close()
    finally:
        srv.stop()


def test_server_survives_hostile_clients():
    import socket as socketlib

    def answer(msg):
        if isinstance(msg, MalformedMessage):
            return wire.StepErr(code="malformed", detail=str(msg))
        return wire.StepResp(m_out=1, signature=b"x")

    srv = wire.Server("127.0.0.1", 0, answer).start()
    try:
        # garbage payload inside a valid frame: handed to the handler, which
        # answers it, then the connection keeps serving
        s = socketlib.create_connection(srv.address)
        s.settimeout(2)
        s.sendall(wire.frame(b"\xff\xff\xff"))
        dec = wire.FrameDecoder()
        frames = []
        while not frames:
            frames = dec.feed(s.recv(4096))
        reply = wire.decode(frames[0])
        assert isinstance(reply, wire.StepErr) and reply.code == "malformed"
        s.sendall(wire.frame(wire.encode(wire.StepReq(card_ids=(), m=5))))
        frames = []
        while not frames:
            frames = dec.feed(s.recv(4096))
        assert isinstance(wire.decode(frames[0]), wire.StepResp)
        s.close()

        # oversize frame header: the server drops the connection quietly
        s2 = socketlib.create_connection(srv.address)
        s2.settimeout(2)
        s2.sendall((wire.MAX_FRAME + 5).to_bytes(4, "big"))
        assert s2.recv(10) == b""
        s2.close()
    finally:
        srv.stop()


def test_socket_concurrent_connections():
    def echo(msg):
        return wire.StepResp(m_out=msg.m, signature=b"ok")

    srv = wire.Server("127.0.0.1", 0, echo).start()
    errors = []

    def client(base):
        try:
            ep = wire.connect(*srv.address)
            for i in range(50):
                ep.send(wire.StepReq(card_ids=(CARD_A,), m=base + i))
                assert ep.recv().m_out == base + i
            ep.close()
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(1000 * k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    srv.stop()
    assert errors == []


def test_stop_wakes_an_idle_accept_at_once():
    import socket as socketlib
    import time

    srv = wire.Server("127.0.0.1", 0, lambda msg: msg).start()
    address = srv.address
    time.sleep(0.05)  # let the accept loop block in accept()
    t0 = time.perf_counter()
    srv.stop()
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, f"stop() took {elapsed:.3f} s"
    assert not srv._thread.is_alive()
    with pytest.raises(OSError):
        socketlib.create_connection(address, timeout=1).close()


def test_a_receive_timeout_closes_the_endpoint():
    # a reply that arrives after the timeout must not answer the next request
    import socket as socketlib

    listener = socketlib.create_server(("127.0.0.1", 0))
    ep = wire.connect(*listener.getsockname(), timeout=0.2)
    peer, _ = listener.accept()
    try:
        ep.send(wire.CatalogGet())
        with pytest.raises(ConnectionClosed, match="receive timed out"):
            ep.recv()
        peer.sendall(wire.frame(wire.encode(wire.CatalogDoc(text="late"))))
        with pytest.raises(ConnectionClosed):
            ep.send(wire.CatalogGet())
            ep.recv()
    finally:
        ep.close()
        peer.close()
        listener.close()


def test_stop_may_come_before_start():
    # a serve command's start() can still be under way when another thread
    # stops its server
    srv = wire.Server("127.0.0.1", 0, lambda msg: msg)
    address = srv.address
    srv.stop()
    srv.start()
    srv._thread.join(timeout=2)
    assert not srv._thread.is_alive()
    assert srv.address == address


# --- the server loop: one thread, bounded connections, idle close ---------------------------

def _echo(msg):
    return wire.StepResp(m_out=msg.m, signature=b"ok")


def _step(m):
    return wire.frame(wire.encode(wire.StepReq(card_ids=(CARD_A,), m=m)))


def _reply(sock):
    """The next message the server sends on a raw socket."""
    dec, frames = wire.FrameDecoder(), []
    while not frames:
        chunk = sock.recv(4096)
        assert chunk, "the server closed the connection"
        frames = dec.feed(chunk)
    return wire.decode(frames[0])


def _closed_by_server(sock) -> bool:
    try:
        return sock.recv(16) == b""
    except ConnectionResetError:  # a byte sent after the close drew a reset
        return True


def _bank_listener(params):
    """A listener's handler, its error reply type and a request it serves."""
    request = wire.CardSpend(card_ids=(CARD_A,), account="seller-1")
    return make_bank_handler(CardLedger(rng=random.Random(1))), wire.SpendErr, request


def _seller_listener(params):
    keys, cat = make_catalog(params, prices=(1,))
    step_handler = SellerStepHandler(keys, params, CardLedger(), "seller-1")
    return make_seller_handler(step_handler, cat), wire.StepErr, wire.CatalogGet()


@pytest.mark.parametrize("listener", [_bank_listener, _seller_listener],
                         ids=["bank", "seller"])
def test_a_connection_over_the_bound_gets_busy_in_the_listeners_type(
        monkeypatch, params64, listener):
    monkeypatch.setattr(wire, "MAX_CONNS", 4)
    handle, err_type, request = listener(params64)

    def busy(reply):
        return isinstance(reply, err_type) and reply.code == "busy"

    srv = wire.Server("127.0.0.1", 0, handle).start()
    socks = []
    try:
        for _ in range(4):
            socks.append(socket.create_connection(srv.address, timeout=2))
            socks[-1].sendall(wire.frame(wire.encode(request)))
            assert not busy(_reply(socks[-1]))
        for _ in range(2):
            socks.append(socket.create_connection(srv.address, timeout=2))
            assert busy(_reply(socks[-1]))
            assert _closed_by_server(socks[-1])
        for held in socks[:4]:  # the four held connections are still served
            held.sendall(wire.frame(wire.encode(request)))
            assert not busy(_reply(held))
        socks[0].close()
        time.sleep(0.2)  # the loop reads the close and frees the slot
        socks.append(socket.create_connection(srv.address, timeout=2))
        socks[-1].sendall(wire.frame(wire.encode(request)))
        assert not busy(_reply(socks[-1]))
    finally:
        for sock in socks:
            sock.close()
        srv.stop()


# a StepReq built by hand: one card id of zero bytes, m = 5
EMPTY_ID_STEP = (bytes([wire.StepReq.TYPE]) + (1).to_bytes(4, "big") + (0).to_bytes(4, "big")
                 + (1).to_bytes(4, "big") + b"\x05")


def test_decode_refuses_an_empty_card_id():
    # before, it read the id as '', which encode refuses
    with pytest.raises(MalformedMessage, match="empty card id"):
        wire.decode(EMPTY_ID_STEP)


def test_a_seller_answers_a_step_with_an_empty_card_id_malformed(params64):
    handle, _, _ = _seller_listener(params64)
    srv = wire.Server("127.0.0.1", 0, handle).start()
    try:
        with socket.create_connection(srv.address, timeout=2) as sock:
            sock.sendall(wire.frame(EMPTY_ID_STEP))
            reply = _reply(sock)
    finally:
        srv.stop()
    assert isinstance(reply, wire.StepErr) and reply.code == "malformed"


def test_a_half_frame_does_not_hold_up_another_clients_step():
    handler_s = 0.2

    def slow_echo(msg):
        time.sleep(handler_s)
        return _echo(msg)

    srv = wire.Server("127.0.0.1", 0, slow_echo).start()
    half = socket.create_connection(srv.address, timeout=2)
    ep = wire.connect(*srv.address)
    try:
        whole = _step(1)
        half.sendall(whole[:len(whole) // 2])
        time.sleep(0.05)  # the loop has read the half frame
        t0 = time.perf_counter()
        ep.send(wire.StepReq(card_ids=(CARD_A,), m=2))
        assert ep.recv().m_out == 2
        elapsed = time.perf_counter() - t0
        # its own handler call, and at most one more
        assert elapsed < 2 * handler_s, f"the step took {elapsed:.3f} s"
        half.sendall(whole[len(whole) // 2:])
        assert _reply(half).m_out == 1
    finally:
        half.close()
        ep.close()
        srv.stop()


def test_a_connection_that_completes_no_frame_is_closed_when_idle(monkeypatch):
    monkeypatch.setattr(wire, "IDLE_SECONDS", 0.3)
    srv = wire.Server("127.0.0.1", 0, _echo).start()
    silent = socket.create_connection(srv.address, timeout=2)
    trickle = socket.create_connection(srv.address, timeout=2)
    busy = wire.connect(*srv.address)
    try:
        frame = _step(7)
        for i in range(6):  # 0.6 s: a byte, or a whole step, every 0.1 s
            try:
                trickle.sendall(frame[i:i + 1])
            except OSError:  # closed already
                pass
            busy.send(wire.StepReq(card_ids=(CARD_A,), m=i))
            assert busy.recv().m_out == i
            time.sleep(0.1)
        assert _closed_by_server(silent)
        assert _closed_by_server(trickle)  # bytes without a whole frame keep no slot
        busy.send(wire.StepReq(card_ids=(CARD_A,), m=9))  # a frame restarts the deadline
        assert busy.recv().m_out == 9
    finally:
        for sock in (silent, trickle):
            sock.close()
        busy.close()
        srv.stop()


def test_stop_closes_every_served_connection():
    srv = wire.Server("127.0.0.1", 0, _echo).start()
    socks = [socket.create_connection(srv.address, timeout=2) for _ in range(3)]
    try:
        for i, sock in enumerate(socks):
            sock.sendall(_step(i))
            assert _reply(sock).m_out == i
        srv.stop()
        assert not srv._thread.is_alive()
        assert all(sock.recv(16) == b"" for sock in socks)
    finally:
        for sock in socks:
            sock.close()


def test_open_connections_start_no_thread():
    srv = wire.Server("127.0.0.1", 0, _echo).start()
    before = threading.active_count()
    eps = []
    try:
        for i in range(8):
            eps.append(wire.connect(*srv.address))
            eps[-1].send(wire.StepReq(card_ids=(CARD_A,), m=i))
            assert eps[-1].recv().m_out == i
        assert threading.active_count() == before
    finally:
        for ep in eps:
            ep.close()
        srv.stop()


def test_a_peer_that_reads_no_reply_holds_up_no_other():
    doc = wire.CatalogDoc(text="x" * 4000)
    srv = wire.Server("127.0.0.1", 0, lambda msg: doc).start()
    hog = socket.socket()
    hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    hog.connect(srv.address)
    ep = None
    try:
        # 100 kB of requests whose 80 MB of replies are never read
        hog.sendall(wire.frame(wire.encode(wire.CatalogGet())) * 20000)
        time.sleep(0.3)  # the server has filled the hog's buffers
        t0 = time.perf_counter()
        ep = wire.connect(*srv.address)
        ep.send(wire.CatalogGet())
        assert ep.recv() == doc
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, f"the fetch took {elapsed:.3f} s"
    finally:
        hog.close()
        if ep is not None:
            ep.close()
        srv.stop()


def test_a_pipelining_peer_takes_turns_with_the_others():
    handler_s = 0.05

    def slow_echo(msg):
        time.sleep(handler_s)
        return _echo(msg)

    srv = wire.Server("127.0.0.1", 0, slow_echo).start()
    piper = wire.connect(*srv.address)
    ep = wire.connect(*srv.address)
    try:
        for i in range(20):  # sent before any reply is read
            piper.send(wire.StepReq(card_ids=(CARD_A,), m=i))
        time.sleep(handler_s / 2)  # the loop is in the pipeliner's first call
        t0 = time.perf_counter()
        ep.send(wire.StepReq(card_ids=(CARD_A,), m=99))
        assert ep.recv().m_out == 99
        elapsed = time.perf_counter() - t0
        # the pipeliner's call under way, at most one more, then its own
        assert elapsed < 4 * handler_s, f"the step took {elapsed:.3f} s"
        assert [piper.recv().m_out for _ in range(20)] == list(range(20))
    finally:
        piper.close()
        ep.close()
        srv.stop()


def test_a_handler_fault_prints_its_traceback_and_drops_only_its_connection(capfd):
    def handle(msg):
        if msg.m == 1:
            raise OSError("the ledger file could not be written")
        return _echo(msg)

    srv = wire.Server("127.0.0.1", 0, handle).start()
    faulty = socket.create_connection(srv.address, timeout=2)
    ep = wire.connect(*srv.address)
    try:
        faulty.sendall(_step(1))
        assert _closed_by_server(faulty)
        assert "OSError: the ledger file could not be written" in capfd.readouterr().err
        ep.send(wire.StepReq(card_ids=(CARD_A,), m=2))
        assert ep.recv().m_out == 2
    finally:
        faulty.close()
        ep.close()
        srv.stop()


def test_stop_before_start_closes_the_listener():
    srv = wire.Server("127.0.0.1", 0, _echo)
    srv.stop()
    assert srv._sock.fileno() == -1  # closed, not only shut down
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(srv.address, timeout=2).close()
