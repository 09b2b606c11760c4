"""Bank-side prepaid card ledger.

Cards are opaque 128-bit identifiers with a unit value.  They move through
exactly one life cycle: generated at the bank, distributed to a store,
spent by a seller presenting them for payment.  The spend step is the
double-spend barrier, so it is a single atomic check-and-mark under the
ledger lock.  Nothing in here ever sees a buyer: the retail sale of a card
is cash over a counter, outside the system.
"""

from __future__ import annotations

import enum
import fcntl
import os
import random
import re
import threading
from dataclasses import dataclass
from typing import ClassVar

from .encoding import INT
from .errors import BlindpayError, CardError, ConnectionClosed, LedgerCorrupt
from .group import SYSTEM_RANDOM


_TOKEN = re.compile(r"[A-Za-z0-9._-]{1,64}")
_CARD_ID = re.compile(r"(?:[0-9a-f]{2})+")
CARD_ID_BITS = 128  # of the ids issue_cards draws


def plain_token(name: str) -> str:
    """name, if it is an account or store name a ledger record can carry:
    1 to 64 of A-Z, a-z, 0-9, '.', '_' and '-'.  Any other name, one that
    could end its record and forge the next, raises ValueError."""
    if not _TOKEN.fullmatch(name):
        raise ValueError(f"{name!r} is not 1 to 64 of A-Z, a-z, 0-9, '.', '_' and '-'")
    return name


def checked_card_id(text: str) -> str:
    """text, if it is a card id: non-empty lowercase hex of whole bytes, the
    form issue_cards writes and bytes.hex() returns.  Else ValueError."""
    if not _CARD_ID.fullmatch(text):
        raise ValueError(f"card id {text!r} is not lowercase hex of whole bytes")
    return text


class CardStatus(enum.Enum):
    GENERATED = "generated"
    DISTRIBUTED = "distributed"
    SPENT = "spent"


# The one life cycle: each op takes a card from one status (None: no card
# yet) to the next.  REFUSALS gives the code and message of the CardError
# that refuses a card in another status (an ISSUE refuses any card there
# is); the codes are the ones a bank's SpendErr carries.
LIFE_CYCLE = {"ISSUE": (None, CardStatus.GENERATED),
              "DIST": (CardStatus.GENERATED, CardStatus.DISTRIBUTED),
              "SPEND": (CardStatus.DISTRIBUTED, CardStatus.SPENT)}
REFUSALS = {None: ("unknown-card", "unknown card {!r}"),
            CardStatus.GENERATED: ("not-distributed", "card {!r} was never sold to a store"),
            CardStatus.DISTRIBUTED: ("already-distributed", "card {!r} already distributed"),
            CardStatus.SPENT: ("already-spent", "card {!r} already spent (ledger seq {})")}
REFUSAL_MESSAGES = dict(REFUSALS.values())  # the same, by code


@dataclass
class PrepaidCard:
    card_id: str
    value: int
    status: CardStatus = CardStatus.GENERATED
    spent_by: str | None = None
    spend_seq: int = 0  # the ledger seq of its SPEND; 0 while unspent


@dataclass(frozen=True)
class SpendReceipt:
    """Record of one accepted spend.  Field set is deliberately minimal:
    ledger sequence number, card, value, credited account.  No buyer data
    exists to record.  It travels in ``wire.SpendOk`` as itself, laid out
    by WIRE (see ``wire.FIELD_KINDS``)."""

    WIRE: ClassVar[tuple[str, ...]] = ("int", "id", "u32", "str")
    seq: int
    card_id: str
    value: int
    seller_account: str


class CardLedger:
    """All card state plus seller account balances, one lock around both.

    With a path, the ledger is that file's only writer: it creates it 0600
    and locks it before reading it, so a second writer (even in this
    process) is refused with an error naming the file, then loads the
    records already there and appends one tab-separated record per change:
    seq, op, card ids, values, account, with ids and values space-separated
    and seq the first card's (the others take the seqs after it).  A store
    or account name that is not a plain_token is refused before anything
    is written; records on file load as they are.  `replay` loads a file
    read-only.  Each change, live or loaded, goes through `_commit` and its
    one LIFE_CYCLE check.  A card it refuses raises a CardError whose code
    REFUSALS names; only a replayed record draws the two `_check` names.

    Durability: a change is one line in one write, and a failed write
    changes nothing.  Nothing is fsynced (that would sit on every seller
    step), so a machine crash can lose the last changes; a last line it
    tore (no newline) is not loaded, and the writer cuts it off first.
    """

    def __init__(self, path: str | None = None, rng: random.Random = SYSTEM_RANDOM):
        self.cards: dict[str, PrepaidCard] = {}
        self.accounts: dict[str, int] = {}
        self._seq = 0
        self._rng = rng
        self._lock = threading.Lock()
        self._fh = None
        if path:
            fh = os.fdopen(os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o600), "a+b")
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                fh.truncate(self._load(fh, path))
            except BlockingIOError:
                fh.close()
                raise BlindpayError(f"{path}: ledger is held by another writer") from None
            except BaseException:
                fh.close()
                raise
            self._fh = fh

    # -- internals ------------------------------------------------------------

    def _check(self, op: str, card_ids: list[str], values: list[int]):
        """Raise the CardError of the first card not in the status op takes it
        from, or named twice: coded by REFUSALS, or already-issued for an
        ISSUE, whose ids must pass checked_card_id (else ValueError).  Its
        value must be the card's own, or at least 1 for an ISSUE (else wrong-value)."""
        before, after = LIFE_CYCLE[op]
        seen = set()
        for cid, value in zip(card_ids, values):
            if before is None:
                checked_card_id(cid)
            card = self.cards.get(cid)
            status = after if cid in seen else card and card.status
            seen.add(cid)
            if status is not before:
                code, message = (("already-issued", "card {!r} already issued")
                                 if before is None else REFUSALS[status])
                prior = card.spend_seq if card else 0
                raise CardError(cid, code, message.format(cid, prior), prior)
            if value < 1 if card is None else value != card.value:
                raise CardError(cid, "wrong-value", f"card {cid!r} with the wrong value {value}")

    def _commit(self, op: str, card_ids: list[str], account: str,
                values: list[int] | None = None) -> list[PrepaidCard]:
        """The one path by which a change reaches the file and the state: check
        it whole, append its one record in one write, then move the cards,
        the balances and the seq.  A write that fails or is cut short, or a
        closed ledger (ConnectionClosed), changes nothing.  Returns the cards."""
        with self._lock:
            if values is None:  # a live DIST or SPEND; an unknown card is refused first
                values = [self.cards[cid].value if cid in self.cards else 0 for cid in card_ids]
            self._check(op, card_ids, values)
            if self._fh is not None:
                if self._fh.closed:  # to a buyer, the bank is unavailable
                    raise ConnectionClosed("the ledger is closed")
                data = (f"{self._seq + 1}\t{op}\t{' '.join(card_ids)}\t{' '.join(map(str, values))}"
                        f"\t{account}\n".encode() if card_ids else b"")  # no cards, no record
                end = os.lseek(self._fh.fileno(), 0, os.SEEK_END)
                try:
                    if os.write(self._fh.fileno(), data) != len(data):
                        raise OSError("ledger write cut short")
                except BaseException:
                    os.ftruncate(self._fh.fileno(), end)
                    raise
            for cid, value in zip(card_ids, values):
                self._seq += 1
                if op == "ISSUE":
                    self.cards[cid] = PrepaidCard(card_id=cid, value=value)
                card = self.cards[cid]
                card.status = LIFE_CYCLE[op][1]
                if op == "SPEND":
                    card.spent_by, card.spend_seq = account, self._seq
                    self.accounts[account] = self.accounts.get(account, 0) + value
            return [self.cards[cid] for cid in card_ids]

    # -- operations -------------------------------------------------------------

    def issue_cards(self, count: int, value: int = 1) -> list[PrepaidCard]:
        """Generate fresh cards.  count may be zero (no-op); value >= 1."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if value < 1:
            raise ValueError("card value must be >= 1")
        ids: dict[str, None] = {}  # a set in draw order
        while len(ids) < count:
            cid = f"{self._rng.getrandbits(CARD_ID_BITS):0{CARD_ID_BITS // 4}x}"
            if cid not in self.cards:  # a reused seed draws the ids on file; _commit rechecks
                ids[cid] = None
        return self._commit("ISSUE", list(ids), "-", [value] * count)

    def distribute(self, card_ids: list[str], store_id: str) -> int:
        """Mark cards as sold to a store.  Returns the number distributed."""
        return len(self._commit("DIST", card_ids, plain_token(store_id)))

    def spend_atomic(self, card_ids: list[str], seller_account: str) -> list[SpendReceipt]:
        """Spend the cards as one all-or-nothing change, crediting the seller:
        a purchase step is never half-charged, and of concurrent spends of
        one card exactly one succeeds (the rest: CardError already-spent)."""
        if not card_ids:
            raise ValueError("card_ids must be nonempty")
        spent = self._commit("SPEND", card_ids, plain_token(seller_account))
        return [SpendReceipt(c.spend_seq, c.card_id, c.value, seller_account) for c in spent]

    def balance(self, seller_account: str) -> int:
        with self._lock:
            return self.accounts.get(seller_account, 0)

    def check_conservation(self):
        """Sum of balances must equal total value of spent cards."""
        with self._lock:
            spent = sum(c.value for c in self.cards.values() if c.status is CardStatus.SPENT)
            credited = sum(self.accounts.values())
            if spent != credited:
                raise LedgerCorrupt(f"spent value {spent} != credited value {credited}")

    def close(self):
        """Release the file.  Later changes fail rather than go unrecorded."""
        if self._fh is not None:
            with self._lock:
                self._fh.close()

    # -- persistence ---------------------------------------------------------

    @classmethod
    def replay(cls, path: str) -> "CardLedger":
        """Rebuild a ledger from its record file, read-only."""
        ledger = cls()
        with open(path, "rb") as fh:
            ledger._load(fh, path)
        return ledger

    def _load(self, fh, path: str) -> int:
        """Apply the records of fh from its start; return the byte length of
        its complete lines.  A last line without its newline is torn."""
        fh.seek(0)
        complete = 0
        for lineno, raw in enumerate(fh, 1):
            if not raw.endswith(b"\n"):
                break
            complete += len(raw)
            if raw == b"\n":
                continue
            where = f"{path}:{lineno}"
            try:
                seq_s, op, ids, values_s, account = raw[:-1].decode("utf-8").split("\t")
                seq, card_ids = INT.read(seq_s), ids.split(" ")
                values = [INT.read(v) for v in values_s.split(" ")]
                if len(values) != len(card_ids):
                    raise ValueError("not one value per card")
            except ValueError:  # also a wrong field count or bytes that are not UTF-8
                raise LedgerCorrupt(f"{where}: not five UTF-8 fields with unsigned "
                                    "integer seq and value") from None
            if seq != self._seq + 1:
                raise LedgerCorrupt(f"{where}: sequence gap ({seq} after {self._seq})")
            if op not in LIFE_CYCLE:
                raise LedgerCorrupt(f"{where}: unknown op {op!r}")
            try:
                self._commit(op, card_ids, account, values)
            except (CardError, ValueError) as exc:  # ValueError: an ISSUE of no card id
                raise LedgerCorrupt(f"{where}: {op} of {exc}") from None
        return complete
