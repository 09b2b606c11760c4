"""Binary message formats and the TCP transport between the four parties.

One byte of type tag, then the type's fields in the canonical encoding.
Each message type states its layout once, in ``WIRE``: one field kind per
dataclass field, in declaration order.  ``pack`` and ``unpack`` walk that
layout against the fields, so a layout that drifts from them fails at once;
they are the one binary codec of every class that declares ``WIRE``, the
messages here, ``cards.SpendReceipt`` and ``catalog.LicensePlaintext``.
``FIELD_KINDS`` maps each kind to its encoder and reader.  The scalar kinds
are ``u32`` (4 bytes), ``int``, ``str``, ``bytes`` and ``id`` (a hex card
id sent as raw bytes), all but ``u32`` length-prefixed.  The sequence kinds
``ids``, ``strs`` and ``receipts`` are a u32 count followed by the items; a
receipt is a ``SpendReceipt`` in its own ``WIRE`` layout.

Frames are a 4-byte big-endian length followed by the payload, capped at
1 MiB.  Deliberately absent from every message: buyer identifiers, session
identifiers, step counters.  A step request looks exactly the same whether
it is the first unit of a purchase or the last.

The channel itself is assumed confidential and authenticated (the usual
TLS-shaped seam); the TCP transport here delivers plaintext bytes and a
production deployment wraps it accordingly.
"""

from __future__ import annotations

import collections
import functools
import selectors
import socket
import threading
import time
import traceback
from dataclasses import dataclass, fields
from typing import ClassVar

from .cards import SpendReceipt
from .encoding import Reader, enc_bytes, enc_int, enc_str, enc_u8, enc_u32
from .errors import (
    ConnectionClosed,
    MalformedMessage,
    OversizeFrame,
    ServerBusy,
    UnknownMessageType,
    WireTimeout,
)

MAX_FRAME = 1 << 20
IDLE_SECONDS = 30.0  # a served connection that completes no frame this long is closed
MAX_CONNS = 64  # connections a Server holds at once, so at most 64 half-frames buffered


def _enc_card_id(cid: str) -> bytes:
    try:
        return enc_bytes(bytes.fromhex(cid))
    except ValueError:
        raise ValueError(f"card id {cid!r} is not hex")


@functools.cache
def _layout(cls) -> tuple[tuple[str, object, object], ...]:
    """(field name, encoder, reader) per field of cls, as its ``WIRE``
    declares; built once per class."""
    return tuple((f.name, *FIELD_KINDS[kind])
                 for kind, f in zip(cls.WIRE, fields(cls), strict=True))


def pack(obj) -> bytes:
    """The fields of obj, laid out as its class's ``WIRE`` declares."""
    return b"".join(enc(getattr(obj, name)) for name, enc, _ in _layout(type(obj)))


def unpack(cls, r: Reader):
    """Read one cls from r, field by field as its ``WIRE`` declares."""
    return cls(*[read(r) for _, _, read in _layout(cls)])


def _sequence(enc_item, dec_item):
    """Codec of a u32 item count followed by the items."""
    return (lambda items: enc_u32(len(items)) + b"".join(map(enc_item, items)),
            lambda r: tuple(dec_item(r) for _ in range(r.u32())))


# kind -> (encoder of a field value, reader of it from a Reader)
FIELD_KINDS = {
    "u32": (enc_u32, Reader.u32),
    "int": (enc_int, Reader.lp_int),
    "str": (enc_str, Reader.lp_str),
    "bytes": (enc_bytes, Reader.lp_bytes),
    "id": (_enc_card_id, lambda r: r.lp_bytes().hex()),
}
FIELD_KINDS.update(
    ids=_sequence(*FIELD_KINDS["id"]),
    strs=_sequence(*FIELD_KINDS["str"]),
    receipts=_sequence(pack, functools.partial(unpack, SpendReceipt)),
)


class Message:
    TYPE: ClassVar[int] = 0
    WIRE: ClassVar[tuple[str, ...]]


@dataclass(frozen=True)
class CardSpend(Message):
    TYPE: ClassVar[int] = 3
    WIRE: ClassVar[tuple[str, ...]] = ("ids", "str")
    card_ids: tuple[str, ...]
    account: str


@dataclass(frozen=True)
class SpendOk(Message):
    TYPE: ClassVar[int] = 4
    WIRE: ClassVar[tuple[str, ...]] = ("receipts",)
    receipts: tuple[SpendReceipt, ...]


@dataclass(frozen=True)
class SpendErr(Message):
    TYPE: ClassVar[int] = 5
    WIRE: ClassVar[tuple[str, ...]] = ("str", "str", "int")
    code: str
    detail: str
    prior_seq: int = 0  # 0 when not applicable


@dataclass(frozen=True)
class StepReq(Message):
    TYPE: ClassVar[int] = 6
    WIRE: ClassVar[tuple[str, ...]] = ("ids", "int")
    card_ids: tuple[str, ...]
    m: int


@dataclass(frozen=True)
class StepResp(Message):
    TYPE: ClassVar[int] = 7
    WIRE: ClassVar[tuple[str, ...]] = ("int", "bytes")
    m_out: int
    signature: bytes


@dataclass(frozen=True)
class StepErr(Message):
    TYPE: ClassVar[int] = 8
    WIRE: ClassVar[tuple[str, ...]] = ("str", "str")
    code: str
    detail: str


@dataclass(frozen=True)
class CatalogGet(Message):
    TYPE: ClassVar[int] = 9
    WIRE: ClassVar[tuple[str, ...]] = ()


@dataclass(frozen=True)
class CatalogDoc(Message):
    TYPE: ClassVar[int] = 10
    WIRE: ClassVar[tuple[str, ...]] = ("str",)
    text: str


# Tags 1, 2 and 16 to 23 are reserved: no message type uses them, so
# decoding any of them raises UnknownMessageType.  Cards are issued and
# distributed by the bank ledger's one writer, never over a listener, and
# dispute evidence travels in case record files, never on a seller's
# listener.


MESSAGE_TYPES: dict[int, type[Message]] = {
    cls.TYPE: cls for cls in (
        CardSpend, SpendOk, SpendErr, StepReq, StepResp, StepErr,
        CatalogGet, CatalogDoc,
    )
}


def encode(msg: Message) -> bytes:
    return enc_u8(msg.TYPE) + pack(msg)


def decode(data: bytes) -> Message:
    """Parse one message.  Any defect raises MalformedMessage (with the
    byte offset) or a subclass; arbitrary input never crashes differently."""
    r = Reader(data)
    if not data:
        r.fail("empty message")
    tag = r.u8()
    cls = MESSAGE_TYPES.get(tag)
    if cls is None:
        raise UnknownMessageType(0, tag)
    msg = unpack(cls, r)
    r.expect_end()
    return msg


# --- framing --------------------------------------------------------------------

def frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise OversizeFrame(len(payload), MAX_FRAME)
    return len(payload).to_bytes(4, "big") + payload


class FrameDecoder:
    """Incremental frame reassembly; feed it chunks split anywhere."""

    def __init__(self):
        self._buf = b""

    def feed(self, data: bytes) -> list[bytes]:
        self._buf += data
        out = []
        while len(self._buf) >= 4:
            length = int.from_bytes(self._buf[:4], "big")
            if length > MAX_FRAME:
                raise OversizeFrame(length, MAX_FRAME)
            if len(self._buf) < 4 + length:
                break
            out.append(self._buf[4:4 + length])
            self._buf = self._buf[4 + length:]
        return out


# --- TCP transport -------------------------------------------------------------------

class SocketEndpoint:
    """One TCP connection carrying framed messages.  ``address`` is the
    one it was dialled at (see ``connect``), or None if not given."""

    def __init__(self, sock: socket.socket, timeout: float = 5.0,
                 address: tuple[str, int] | None = None):
        self.address = address
        self._sock = sock
        self._sock.settimeout(timeout)
        self._decoder = FrameDecoder()
        self._ready: list[bytes] = []

    def send(self, msg: Message):
        try:
            self._sock.sendall(frame(encode(msg)))
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ConnectionClosed(str(exc))

    def recv(self) -> Message:
        while not self._ready:
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                self.close()  # a late reply would answer the next request
                raise WireTimeout("receive timed out")
            except OSError as exc:
                raise ConnectionClosed(str(exc))
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            self._ready.extend(self._decoder.feed(chunk))
        return decode(self._ready.pop(0))

    def peer_closed(self) -> bool:
        """Whether the peer has closed the connection, found without waiting."""
        timeout = self._sock.gettimeout()
        self._sock.settimeout(0)
        try:
            return not self._sock.recv(1, socket.MSG_PEEK)
        except BlockingIOError:  # open, with nothing to read
            return False
        except OSError:  # reset by the peer
            return True
        finally:
            self._sock.settimeout(timeout)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def connect(host: str, port: int, timeout: float = 5.0) -> SocketEndpoint:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectionClosed(f"cannot connect to {host}:{port}: {exc}")
    return SocketEndpoint(sock, timeout=timeout, address=(host, port))


def exchange(address: tuple[str, int], msg: Message) -> Message:
    """Send msg on a connection of its own and return the reply; the
    connection is closed after it."""
    ep = connect(*address)
    try:
        ep.send(msg)
        return ep.recv()
    finally:
        ep.close()


class _Served:
    """A served connection's buffers: frames read but not yet answered, and
    reply bytes not yet sent."""

    def __init__(self):
        self.decoder = FrameDecoder()
        self.pending: collections.deque[bytes] = collections.deque()
        self.out = b""
        self.deadline = time.monotonic() + IDLE_SECONDS


class Server:
    """One thread serves every connection: a selectors loop accepts, reads,
    reassembles frames and calls the handler for each, never two at once.
    A frame that does not decode reaches the handler as its MalformedMessage,
    and a connection over MAX_CONNS as a ServerBusy before it is closed.  A
    connection that completes no frame for IDLE_SECONDS is closed.  Replies
    are buffered per connection and sent as the peer reads them; a
    connection is read again only once its reply is sent, and each turn of
    the loop answers at most one frame per connection, so a peer that reads
    nothing, or pipelines, holds up no other."""

    def __init__(self, host: str, port: int, handle):
        self._handle = handle
        self._sock = socket.create_server((host, port), backlog=32)
        self._sock.setblocking(False)
        # kept, so the address stays readable once the socket is closed
        self.address: tuple[str, int] = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "Server":
        self._thread.start()
        return self

    def _loop(self):
        if self._stop.is_set():  # stop() came first
            return self._sock.close()
        with selectors.DefaultSelector() as sel:
            sel.register(self._sock, selectors.EVENT_READ)
            try:
                while not self._stop.is_set():
                    due = min((k.data.deadline for k in sel.get_map().values() if k.data),
                              default=None)
                    for key, events in sel.select(None if due is None else due - time.monotonic()):
                        if key.data is None:
                            self._accept(sel)
                        else:
                            self._serve(sel, key, events)
                    now = time.monotonic()
                    for key in list(sel.get_map().values()):
                        if key.data and key.data.deadline <= now:
                            _drop(sel, key.fileobj)
            finally:  # stopped: close the listener and every connection
                for key in list(sel.get_map().values()):
                    key.fileobj.close()

    def _accept(self, sel):
        try:
            conn, _ = self._sock.accept()
        except OSError:  # stop() shut the listener down, or the peer left
            return
        conn.setblocking(False)
        if len(sel.get_map()) > MAX_CONNS:  # the listener and MAX_CONNS connections
            try:  # a short reply fits a new socket's empty send buffer
                conn.send(self._answer(ServerBusy(f"already serving {MAX_CONNS} connections"))
                          or b"")
            except OSError:
                pass
            return conn.close()
        sel.register(conn, selectors.EVENT_READ, _Served())

    def _serve(self, sel, key, events):
        conn, state = key.fileobj, key.data
        try:
            if events & selectors.EVENT_READ:
                chunk = conn.recv(65536)
                if not chunk:  # the peer closed; it is read only with nothing unanswered
                    return _drop(sel, conn)
                state.pending.extend(state.decoder.feed(chunk))
            if not state.out and state.pending:
                try:
                    msg = decode(state.pending.popleft())
                except MalformedMessage as exc:
                    msg = exc
                state.out = self._answer(msg)
                if state.out is None:
                    return _drop(sel, conn)
                state.deadline = time.monotonic() + IDLE_SECONDS
            if state.out:
                state.out = state.out[conn.send(state.out):]
        except BlockingIOError:  # no room to send, or a spurious wake-up
            pass
        except (OSError, OversizeFrame):  # the peer left; an oversize header gets no reply
            return _drop(sel, conn)
        want = selectors.EVENT_WRITE if state.out or state.pending else selectors.EVENT_READ
        if key.events != want:
            sel.modify(conn, want, state)

    def _answer(self, msg) -> bytes | None:
        """The framed reply to msg, or None if the handler failed."""
        try:
            return frame(encode(self._handle(msg)))
        except Exception:  # a handler's fault drops its connection, not the server
            traceback.print_exc()
            return None

    def stop(self):
        """Stop accepting and close every connection being served.  A loop
        inside a handler call closes them when that call returns."""
        self._stop.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes select(): a shut listener reads ready
        except OSError:
            pass
        if self._thread.is_alive():  # one not yet started exits on the flag
            self._thread.join(timeout=2.0)
        if self._thread.ident is None or self._thread.is_alive():
            self._sock.close()  # the loop never ran, or is still in a handler


def _drop(sel, conn: socket.socket):
    sel.unregister(conn)
    conn.close()
