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
import random
import re
import threading
from dataclasses import dataclass
from typing import ClassVar

from .errors import (
    AlreadyDistributed,
    AlreadySpent,
    BlindpayError,
    LedgerCorrupt,
    NotDistributed,
    UnknownCard,
)
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


@dataclass
class PrepaidCard:
    card_id: str
    value: int
    status: CardStatus
    spent_by: str | None = None


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

    With a path, the ledger is that file's only writer: it locks the file
    before reading it, so a second writer (even in this process) is refused
    with an error naming the file, then loads the records already there and
    appends one tab-separated record (seq, op, card_id, value, account) per
    mutation.  A store or account name that is not a plain_token is refused
    before anything is written; records already on file load as they are.
    `replay` loads a file read-only.

    Durability: every record is flushed but not fsynced, so a machine crash
    can lose the last records; an fsync per spend would sit on every seller
    step.  A last line without its newline was torn by a crash: it is not
    loaded, and the writer truncates it before appending.
    """

    def __init__(self, path: str | None = None, rng: random.Random = SYSTEM_RANDOM):
        self.cards: dict[str, PrepaidCard] = {}
        self.accounts: dict[str, int] = {}
        self._seq = 0
        self._spend_seqs: dict[str, int] = {}
        self._rng = rng
        self._lock = threading.Lock()
        self._fh = None
        if path:
            fh = open(path, "a+b")
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

    def _apply(self, op: str, card_id: str, value: int, account: str) -> int:
        """Append one checked record to the file, if there is one, then apply
        it to the state.  Returns its sequence number.  A closed file refuses
        the write (ValueError) before any state changes."""
        if self._fh is not None:
            self._fh.write(f"{self._seq + 1}\t{op}\t{card_id}\t{value}\t{account}\n".encode())
            self._fh.flush()
        self._seq += 1
        if op == "ISSUE":
            self.cards[card_id] = PrepaidCard(card_id=card_id, value=value,
                                              status=CardStatus.GENERATED)
        elif op == "DIST":
            self.cards[card_id].status = CardStatus.DISTRIBUTED
        else:
            card = self.cards[card_id]
            card.status, card.spent_by = CardStatus.SPENT, account
            self._spend_seqs[card_id] = self._seq
            self.accounts[account] = self.accounts.get(account, 0) + value
        return self._seq

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
                self._apply("ISSUE", cid, value, "-")
                out.append(self.cards[cid])
        return out

    def distribute(self, card_ids: list[str], store_id: str) -> int:
        """Mark cards as sold to a store.  Returns the number distributed."""
        plain_token(store_id)
        with self._lock:
            for cid in card_ids:
                card = self.cards.get(cid)
                if card is None:
                    raise UnknownCard(cid)
                if card.status is CardStatus.DISTRIBUTED:
                    raise AlreadyDistributed(cid)
                if card.status is CardStatus.SPENT:
                    raise AlreadySpent(cid, self._spend_seqs.get(cid, 0))
            for cid in card_ids:
                self._apply("DIST", cid, self.cards[cid].value, store_id)
        return len(card_ids)

    def verify_and_spend(self, card_id: str, seller_account: str) -> SpendReceipt:
        """Atomically check a card and mark it spent, crediting the seller.

        Exactly one of any set of concurrent calls for the same card can
        succeed; everyone else sees AlreadySpent.
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
            seen: set[str] = set()
            for cid in card_ids:
                card = self.cards.get(cid)
                if card is None:
                    raise UnknownCard(cid)
                if card.status is CardStatus.SPENT or cid in seen:
                    raise AlreadySpent(cid, self._spend_seqs.get(cid, self._seq))
                if card.status is CardStatus.GENERATED:
                    raise NotDistributed(cid)
                seen.add(cid)
            values = [self.cards[cid].value for cid in card_ids]
            return [SpendReceipt(card_id=cid, seller_account=seller_account, value=value,
                                 seq=self._apply("SPEND", cid, value, seller_account))
                    for cid, value in zip(card_ids, values)]

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
                seq, value = int(seq_s), int(value_s)
            except ValueError:  # also a wrong field count or bytes that are not UTF-8
                raise LedgerCorrupt(f"{where}: not five UTF-8 fields with integer seq "
                                    "and value") from None
            if seq != self._seq + 1:
                raise LedgerCorrupt(f"{where}: sequence gap ({seq} after {self._seq})")
            if op not in ("ISSUE", "DIST", "SPEND"):
                raise LedgerCorrupt(f"{where}: unknown op {op!r}")
            card = self.cards.get(cid)
            if op != "ISSUE" and card is None:
                raise LedgerCorrupt(f"{where}: {op} of unknown card")
            if op == "SPEND" and card.status is CardStatus.SPENT:
                raise LedgerCorrupt(f"{where}: second SPEND of {cid}")
            self._apply(op, cid, value, account)
        return complete
