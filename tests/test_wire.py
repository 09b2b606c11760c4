import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys
import threading
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blindpay
from blindpay import wire
from blindpay.cards import SpendReceipt
from blindpay.catalog import LicensePlaintext
from blindpay.errors import (
    ConnectionClosed,
    MalformedMessage,
    OversizeFrame,
    UnknownMessageType,
    WireTimeout,
)

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
    with pytest.raises(UnknownMessageType):
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
        with pytest.raises(WireTimeout):
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
