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

import functools
import socket
import threading
from dataclasses import dataclass, fields
from typing import ClassVar

from .cards import SpendReceipt
from .encoding import Reader, enc_bytes, enc_int, enc_str, enc_u8, enc_u32
from .errors import (
    ConnectionClosed,
    MalformedMessage,
    OversizeFrame,
    UnknownMessageType,
    WireTimeout,
)

MAX_FRAME = 1 << 20


def _enc_card_id(cid: str) -> bytes:
    try:
        return enc_bytes(bytes.fromhex(cid))
    except ValueError:
        raise ValueError(f"card id {cid!r} is not hex")


def pack(obj) -> bytes:
    """The fields of obj, laid out as its class's ``WIRE`` declares."""
    cls = type(obj)
    return b"".join(FIELD_KINDS[kind][0](getattr(obj, f.name))
                    for kind, f in zip(cls.WIRE, fields(cls), strict=True))


def unpack(cls, r: Reader):
    """Read one cls from r, field by field as its ``WIRE`` declares."""
    return cls(**{f.name: FIELD_KINDS[kind][1](r)
                  for kind, f in zip(cls.WIRE, fields(cls), strict=True)})


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
    one it was dialled at (see ``connect``), None for an accepted one."""

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


class Server:
    """Threaded request/response server: one handler call per message, one
    connection per dialogue, no state shared between connections.  A frame
    that does not decode is handed to the handler as its MalformedMessage,
    so each listener answers it in its own reply type."""

    def __init__(self, host: str, port: int, handle):
        self._handle = handle
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(32)
        # kept, so the address stays readable once stop() closes the socket
        self.address: tuple[str, int] = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()

    def start(self) -> "Server":
        self._thread.start()
        return self

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:  # stop() shut the listening socket down
                break
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()

    def _serve_conn(self, conn: socket.socket):
        # registered before the stop flag is read, so stop() either sees
        # this connection or this loop sees the flag
        with self._conns_lock:
            self._conns.add(conn)
        ep = SocketEndpoint(conn, timeout=30.0)
        try:
            while not self._stop.is_set():
                try:
                    msg = ep.recv()
                except (ConnectionClosed, WireTimeout, OversizeFrame):
                    break
                except MalformedMessage as exc:
                    msg = exc
                ep.send(self._handle(msg))
        except ConnectionClosed:
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            ep.close()

    def stop(self):
        """Stop accepting and shut down every connection being served."""
        self._stop.set()
        try:
            # wakes a blocked accept(), which close() alone does not
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        with self._conns_lock:
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        # a thread not yet started (stop() raced start()) exits on the flag
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)
