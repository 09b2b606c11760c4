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
from .errors import BlindpayError, CardError, LedgerCorrupt
from .group import SYSTEM_RANDOM


_TOKEN = re.compile(r"[A-Za-z0-9._-]{1,64}")


def plain_token(name: str) -> str:
    """name, if it is an account or store name a ledger record can carry:
    1 to 64 of A-Z, a-z, 0-9, '.', '_' and '-'.  Any other name, one that
    could end its record and forge the next, raises ValueError."""
    if not _TOKEN.fullmatch(name):
        raise ValueError(f"{name!r} is not 1 to 64 of A-Z, a-z, 0-9, '.', '_' and '-'")
    return name


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
    records already there and appends one tab-separated record (seq, op,
    card_id, value, account) per mutation.  A store or account name that is
    not a plain_token is refused before anything is written; records
    already on file load as they are.  `replay` loads a file read-only.
    Each change, live or loaded, passes the one LIFE_CYCLE check first.  A
    card it refuses raises a CardError whose code REFUSALS names; only a
    replayed record draws the two codes `_check` names itself.

    Durability: every record is flushed but not fsynced, so a machine crash
    can lose the last records; an fsync per spend would sit on every seller
    step.  A last line without its newline was torn by a crash: it is not
    loaded, and the writer truncates it before appending.
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

    def _check(self, op: str, card_ids: list[str], value: int | None = None):
        """Raise the CardError of the first card not in the status op takes it
        from, or named twice: coded by REFUSALS, or already-issued for an
        ISSUE.  A value, which replay gives, must be the card's own, or at
        least 1 for an ISSUE (else wrong-value)."""
        before, after = LIFE_CYCLE[op]
        seen = set()
        for cid in card_ids:
            card = self.cards.get(cid)
            status = after if cid in seen else card and card.status
            seen.add(cid)
            if status is not before:
                code, message = (("already-issued", "card {!r} already issued")
                                 if before is None else REFUSALS[status])
                prior = card.spend_seq if card else 0
                raise CardError(cid, code, message.format(cid, prior), prior)
            if value is not None and (value < 1 if card is None else value != card.value):
                raise CardError(cid, "wrong-value", f"card {cid!r} with the wrong value {value}")

    def _apply(self, op: str, card_id: str, value: int, account: str) -> PrepaidCard:
        """Append one checked record to the file, if there is one, then apply
        it to the state.  Returns the card.  A closed file refuses the write
        (ValueError) before any state changes."""
        if self._fh is not None:
            self._fh.write(f"{self._seq + 1}\t{op}\t{card_id}\t{value}\t{account}\n".encode())
            self._fh.flush()
        self._seq += 1
        if op == "ISSUE":
            self.cards[card_id] = PrepaidCard(card_id=card_id, value=value)
        card = self.cards[card_id]
        card.status = LIFE_CYCLE[op][1]
        if op == "SPEND":
            card.spent_by, card.spend_seq = account, self._seq
            self.accounts[account] = self.accounts.get(account, 0) + value
        return card

    # -- operations -------------------------------------------------------------

    def issue_cards(self, count: int, value: int = 1) -> list[PrepaidCard]:
        """Generate fresh cards.  count may be zero (no-op); value >= 1."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if value < 1:
            raise ValueError("card value must be >= 1")
        out = []
        with self._lock:
            for _ in range(count):
                cid = f"{self._rng.getrandbits(128):032x}"
                while cid in self.cards:  # 128-bit ids; loop is theory only
                    cid = f"{self._rng.getrandbits(128):032x}"
                out.append(self._apply("ISSUE", cid, value, "-"))
        return out

    def distribute(self, card_ids: list[str], store_id: str) -> int:
        """Mark cards as sold to a store.  Returns the number distributed."""
        plain_token(store_id)
        with self._lock:
            self._check("DIST", card_ids)
            for cid in card_ids:
                self._apply("DIST", cid, self.cards[cid].value, store_id)
        return len(card_ids)

    def verify_and_spend(self, card_id: str, seller_account: str) -> SpendReceipt:
        """Atomically check a card and mark it spent, crediting the seller.

        Exactly one of any set of concurrent calls for the same card can
        succeed; everyone else gets a CardError coded already-spent.
        """
        return self.spend_atomic([card_id], seller_account)[0]

    def spend_atomic(self, card_ids: list[str], seller_account: str) -> list[SpendReceipt]:
        """Spend several cards as one all-or-nothing transaction.

        Either every card is valid and all get spent, or no card state
        changes at all; a purchase step is never half-charged.
        """
        if not card_ids:
            raise ValueError("card_ids must be nonempty")
        plain_token(seller_account)
        with self._lock:
            self._check("SPEND", card_ids)
            spent = [self._apply("SPEND", cid, self.cards[cid].value, seller_account)
                     for cid in card_ids]
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
                seq_s, op, cid, value_s, account = raw[:-1].decode("utf-8").split("\t")
                seq, value = INT.read(seq_s), INT.read(value_s)
            except ValueError:  # also a wrong field count or bytes that are not UTF-8
                raise LedgerCorrupt(f"{where}: not five UTF-8 fields with unsigned "
                                    "integer seq and value") from None
            if seq != self._seq + 1:
                raise LedgerCorrupt(f"{where}: sequence gap ({seq} after {self._seq})")
            if op not in LIFE_CYCLE:
                raise LedgerCorrupt(f"{where}: unknown op {op!r}")
            try:
                self._check(op, [cid], value)
            except CardError as exc:
                raise LedgerCorrupt(f"{where}: {op} of {exc}") from None
            self._apply(op, cid, value, account)
        return complete
