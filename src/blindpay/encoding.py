"""Canonical byte encoding used by signatures, proofs, files and the wire.

Every variable-length field is prefixed with a 4-byte big-endian length.
Integers are unsigned, big-endian and minimal (no leading zero byte; zero
encodes as the empty string).  Keeping one encoding everywhere means the
bytes a signature covers are exactly the bytes that travel on the wire.
"""

from __future__ import annotations

import base64
from collections import namedtuple
from dataclasses import dataclass

from .errors import MalformedMessage

# Hard cap on any single length-prefixed field; matches the frame limit.
MAX_FIELD = 1 << 20


def enc_bytes(b: bytes) -> bytes:
    if len(b) > MAX_FIELD:
        raise ValueError(f"field of {len(b)} bytes exceeds {MAX_FIELD}")
    return len(b).to_bytes(4, "big") + b


def enc_int(v: int) -> bytes:
    """Length-prefixed minimal big-endian encoding of a non-negative int."""
    if v < 0:
        raise ValueError("cannot encode negative integer")
    return enc_bytes(v.to_bytes((v.bit_length() + 7) // 8, "big"))


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def enc_u8(v: int) -> bytes:
    return v.to_bytes(1, "big")


def enc_u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


class Reader:
    """Strict sequential decoder.  Raises MalformedMessage with the byte
    offset of the first problem; never reads past the end."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def fail(self, reason: str):
        raise MalformedMessage(self.pos, reason)

    def _take(self, k: int) -> bytes:
        if self.pos + k > len(self.data):
            self.fail(f"need {k} more bytes, have {len(self.data) - self.pos}")
        out = self.data[self.pos:self.pos + k]
        self.pos += k
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def lp_bytes(self) -> bytes:
        n = self.u32()
        if n > MAX_FIELD:
            self.fail(f"field length {n} exceeds {MAX_FIELD}")
        return self._take(n)

    def lp_int(self) -> int:
        raw = self.lp_bytes()
        if raw and raw[0] == 0:
            self.fail("non-minimal integer encoding")
        return int.from_bytes(raw, "big")

    def lp_str(self) -> str:
        raw = self.lp_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            self.fail("invalid utf-8 in string field")

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def expect_end(self):
        if self.pos != len(self.data):
            self.fail(f"{self.remaining()} trailing bytes")


# --- text records ----------------------------------------------------------------

# One record value's text form: write gives the text of a value, and read
# the value of a text, raising ValueError on text it refuses.
Codec = namedtuple("Codec", "write read")


def _digits(text: str) -> int:
    """A record integer: unsigned ASCII decimal digits, as str() writes it."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"want decimal digits, got {text!r}")
    return int(text)


def _pair(text: str) -> tuple[int, int]:
    a, b = INTS.read(text)
    return a, b


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(f"want on or off, got {text!r}")
    return text == "on"


STR = Codec(str, str)
INT = Codec(str, _digits)
HEX = Codec(bytes.hex, bytes.fromhex)
B64 = Codec(lambda b: base64.b64encode(b).decode(), lambda t: base64.b64decode(t, validate=True))
INTS = Codec(lambda vs: " ".join(map(str, vs)), lambda t: [_digits(v) for v in t.split()])
PAIR = Codec(INTS.write, _pair)
ON_OFF = Codec(lambda on: "on" if on else "off", _on_off)


@dataclass(frozen=True)
class RecordFormat:
    """A kind of text record: a ``blindpay-<kind>: v1`` header, then one
    ``key: value`` line per field.  Each key maps to its value's Codec;
    keys in ``many`` may repeat, keys in ``once`` may not, and no other key
    may appear.  The reader raises ``error`` naming the line, also where a
    value's reader raises ValueError."""

    kind: str
    once: dict
    many: dict
    error: type[Exception]

    def write(self, fields) -> str:
        """The record of (key, value) pairs, in order, each value written by
        its key's codec.  A value whose line read() would not take as one
        line raises ValueError naming the key."""
        lines = [f"blindpay-{self.kind}: v1"]
        for key, value in fields:
            line = f"{key}: {(self.once.get(key) or self.many[key]).write(value)}"
            if line.splitlines() != [line]:
                raise ValueError(f"{key} value {value!r} is not a single line")
            lines.append(line)
        return "\n".join(lines) + "\n"

    def read(self, text: str) -> Record:
        lines = text.splitlines()
        if lines[:1] != [f"blindpay-{self.kind}: v1"]:
            raise self.error(f"line 1: not a blindpay-{self.kind} record")
        rec = Record(self.error, {key: [] for key in self.many})
        for lineno, line in enumerate(lines[1:], 2):
            key, sep, value = line.partition(": ")
            if not sep:
                raise self.error(f"line {lineno}: want 'key: value', got {line!r}")
            codec = self.once.get(key) or self.many.get(key)
            if codec is None:
                raise self.error(f"line {lineno}: unknown key {key!r}")
            if key in rec and key in self.once:
                raise self.error(f"line {lineno}: repeated key {key!r}")
            try:
                value = codec.read(value)
            except ValueError as exc:
                raise self.error(f"line {lineno}: bad {key!r} value: {exc}") from None
            if key in self.many:
                rec[key].append(value)
            else:
                rec[key] = value
            rec.order.append(key)
        return rec


class Record(dict):
    """A record as read: each once key's parsed value, each many key's list
    of them, and the keys in line order.  A missing once key raises the
    format's error."""

    def __init__(self, error: type[Exception], lists: dict):
        super().__init__(lists)
        self.error = error
        self.order: list[str] = []

    def __missing__(self, key: str):
        raise self.error(f"no {key!r} line")
