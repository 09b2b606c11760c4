"""Purchase-phase protocol: blinded step requests and the stateless seller.

The buyer pays for a price-p license in steps.  Each step spends cards
worth t units, sends m = r * acc (acc is the partial key, r = g^alpha the
blinding factor), and gets back m^(s^t) plus a signature on the pair.
Dividing by K_t^alpha strips the blinding, so acc walks up the exponent
tower x, x^s, ..., x^(s^p) while the seller only ever sees uniformly
blinded group elements and anonymous card identifiers.

The seller side is a pure function of (request, keys, ledger state): it
keeps no memory between requests, which is precisely why requests cannot
be linked into a purchase.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .catalog import (
    Catalog,
    LicenseEntry,
    LicensePlaintext,
    SellerKeys,
    decrypt_license,
    sign_payload,
    verify_payload,
)
from .encoding import INT, Codec, enc_int
from .errors import BadStepSignature, BlindpayError, InsufficientFunds, SessionStateError
from .group import SYSTEM_RANDOM, GroupParams, div_mod, ensure_member, mul_mod, pow_fast, pow_mod
from .wire import StepReq

MODE_BASIC = "basic"
MODE_ENHANCED = "enhanced"


@dataclass(frozen=True)
class StepResponse:
    m_out: int
    step_signature: bytes


@dataclass(frozen=True)
class StepTranscript:
    """One step as transmitted, kept verbatim as dispute evidence.  It holds
    no card identifier.  The blinding exponent is the buyer's own
    annotation: it never travels, and only a type B claim discloses it."""

    m: int
    m_out: int
    t: int
    signature: bytes
    alpha: int | None = None

    def line(self) -> str:
        """The step as one line of a case record."""
        alpha = "-" if self.alpha is None else str(self.alpha)
        return f"{self.m} {self.m_out} {self.t} {alpha} {self.signature.hex()}"

    @classmethod
    def parse(cls, line: str) -> StepTranscript:
        """Inverse of line(); a malformed line, a signed number in it
        included, raises ValueError."""
        m, m_out, t, alpha, sig = line.split(" ")
        return cls(m=INT.read(m), m_out=INT.read(m_out), t=INT.read(t),
                   signature=bytes.fromhex(sig),
                   alpha=None if alpha == "-" else INT.read(alpha))


STEP = Codec(StepTranscript.line, StepTranscript.parse)


def step_payload(m: int, m_out: int) -> bytes:
    """Exactly the request/response pair, nothing else.  Adding so much as a
    counter would let signatures link steps together."""
    return b"step-v1" + enc_int(m) + enc_int(m_out)


def plan_steps(price: int, available_powers: set[int]) -> list[int]:
    """Split a price into step values drawn from the published powers.

    Greedy largest-first, repeats allowed; for a powers-of-two table this
    is the binary decomposition, hence minimal length.  Deterministic so
    transcripts reproduce.
    """
    if price < 1:
        raise ValueError("price must be >= 1")
    if 1 not in available_powers:
        raise ValueError("available powers must include 1")
    plan = []
    remaining = price
    for t in sorted(available_powers, reverse=True):
        while t <= remaining:
            plan.append(t)
            remaining -= t
    return plan


def plan_for(catalog: Catalog, units: int, mode: str) -> list[int]:
    """The step values paying units: 1s in basic mode, the catalog's K table
    values in enhanced mode (plan_steps).  ValueError: unknown mode, no K_1."""
    if mode not in (MODE_BASIC, MODE_ENHANCED):
        raise ValueError(f"unknown mode {mode!r}")
    if 1 not in catalog.k_table:
        raise ValueError("the catalog publishes no unblinding key for value 1")
    return plan_steps(units, set(catalog.k_table) if mode == MODE_ENHANCED else {1})


def _allocate_cards(cards: list[tuple[str, int]], plan: list[int]) -> list[list[str]]:
    """Assign cards to steps so each step's cards sum to its value exactly.

    Depth-first search: each step takes cards largest first and the search
    backs up on a dead end, so the first assignment found is the greedy
    one whenever greedy succeeds, and InsufficientFunds means that no
    assignment exists.  Equal-valued cards are interchangeable, so a value
    that led to a dead end is not tried again at the same point.
    """
    pool = sorted(cards, key=lambda c: -c[1])
    used = [False] * len(pool)

    def choices(start: int, need: int):
        tried = set()
        for i in range(start, len(pool)):
            value = pool[i][1]
            if used[i] or value > need or value in tried:
                continue
            used[i] = True
            if value == need:
                yield [i]
            else:
                for rest in choices(i + 1, need - value):
                    yield [i] + rest
            used[i] = False
            tried.add(value)

    searches, picks = [], []
    while len(picks) < len(plan):
        if len(searches) == len(picks):
            searches.append(choices(0, plan[len(picks)]))
        pick = next(searches[-1], None)
        if pick is not None:
            picks.append(pick)
            continue
        searches.pop()
        if not picks:
            raise InsufficientFunds(f"no assignment of the cards covers the steps {plan}")
        picks.pop()
    return [[pool[i][0] for i in pick] for pick in picks]


@dataclass
class PurchaseSession:
    """Buyer-side state for one purchase (or upgrade).  Single-owner and
    strictly sequential: request, response, request, response."""

    catalog: Catalog
    entry: LicenseEntry
    refresh_blinding: bool
    alpha: int
    r: int
    unblinders: dict[int, int]
    acc: int
    plan: list[int]
    step_cards: list[list[str]]
    # one per step paid, so the next step is plan[len(transcripts)]
    transcripts: list[StepTranscript] = field(default_factory=list)
    _pending: int | None = None  # the request m awaiting its response
    _rng: random.Random = SYSTEM_RANDOM
    _ops: object | None = None

    @property
    def params(self) -> GroupParams:
        return self.catalog.params

    @property
    def remaining(self) -> int:
        """Units still unpaid: the sum of the plan past the steps paid."""
        return sum(self.plan[len(self.transcripts):])


def _blind(session: PurchaseSession, alpha: int):
    """Blind the steps from the next one on with alpha: set alpha,
    r = g^alpha, and K_t^alpha for exactly the step values alpha serves.

    This is the buyer's one blinding rule.  With refresh on, alpha serves
    the next step's value only, and every step draws its own, so no two
    requests m = r * acc can be linked.  With it off, one alpha serves
    every remaining value: the paper's cost model (buyer p + 2), whose
    steps are linkable.  The session's counter, if any, is billed for the
    exponentiations."""
    params = session.params
    rest = session.plan[len(session.transcripts):]
    session.alpha = alpha
    session.r = pow_fast(params.g, alpha, params)
    session.unblinders = {t: pow_fast(session.catalog.k_table[t], alpha, params)
                          for t in sorted({rest[0]} if session.refresh_blinding else set(rest))}
    if session._ops is not None:
        session._ops.exponentiations += 1 + len(session.unblinders)


def _begin(catalog: Catalog, entry: LicenseEntry, start_acc: int, units: int,
           cards: list[tuple[str, int]], mode: str, refresh_blinding: bool,
           rng: random.Random, ops) -> PurchaseSession:
    plan = plan_for(catalog, units, mode)
    twice = [cid for cid, n in Counter(cid for cid, _ in cards).items() if n > 1]
    if twice:  # two steps would pay with one card, and the second be refused
        raise BlindpayError(f"card {twice[0]!r} is named twice in the cards list")
    total = sum(v for _, v in cards)
    if total < units:
        raise InsufficientFunds(f"cards total {total}, need {units}")
    step_cards = _allocate_cards(cards, plan)
    session = PurchaseSession(
        catalog=catalog, entry=entry, refresh_blinding=refresh_blinding,
        alpha=0, r=1, unblinders={}, acc=start_acc, plan=plan,
        step_cards=step_cards, _rng=rng, _ops=ops,
    )
    _blind(session, rng.randrange(catalog.params.q))
    return session


def buyer_begin(catalog: Catalog, license_id: str, cards: list[tuple[str, int]],
                mode: str = MODE_BASIC, refresh_blinding: bool = True,
                rng: random.Random = SYSTEM_RANDOM, ops=None) -> PurchaseSession:
    """Open a purchase session: plan the steps, park the cards against
    them, and blind the first step.  refresh_blinding picks how many steps
    one alpha blinds; _blind states the rule."""
    entry = catalog.entry(license_id)
    ensure_member(entry.x, catalog.params)
    return _begin(catalog, entry, entry.x, entry.price, cards, mode,
                  refresh_blinding, rng, ops)


def begin_upgrade(catalog: Catalog, owned_license_id: str, owned_key: int,
                  target_license_id: str, cards: list[tuple[str, int]],
                  mode: str = MODE_BASIC, refresh_blinding: bool = True,
                  rng: random.Random = SYSTEM_RANDOM, ops=None) -> PurchaseSession:
    """Resume the exponent tower from an already-bought key.

    Works only when both licenses share the same encryption factor; the
    session then runs target_price - owned_price ordinary units and the
    final key opens the dearer license.
    """
    owned = catalog.entry(owned_license_id)
    target = catalog.entry(target_license_id)
    if owned.x != target.x:
        raise ValueError(
            f"{owned_license_id!r} and {target_license_id!r} have different factors")
    delta = target.price - owned.price
    if delta <= 0:
        raise ValueError("nothing to upgrade: target license is not dearer")
    ensure_member(owned_key, catalog.params)
    return _begin(catalog, target, owned_key, delta, cards, mode,
                  refresh_blinding, rng, ops)


def buyer_step_request(session: PurchaseSession) -> StepReq:
    if session.remaining == 0:
        raise SessionStateError("all units already paid")
    if session._pending is not None:
        raise SessionStateError("previous step still awaiting its response")
    if session.refresh_blinding and session.transcripts:
        _blind(session, session._rng.randrange(session.params.q))
    m = mul_mod(session.r, session.acc, session.params)
    session._pending = m
    return StepReq(card_ids=tuple(session.step_cards[len(session.transcripts)]), m=m)


def buyer_process_response(session: PurchaseSession, resp: StepResponse) -> PurchaseSession:
    """Verify the step signature, unblind, and advance the accumulator.

    An invalid signature aborts with BadStepSignature carrying the evidence
    for arbitration; the session itself is left untouched.
    """
    m = session._pending
    if m is None:
        raise SessionStateError("no request outstanding")
    t = session.plan[len(session.transcripts)]
    if session._ops is not None:
        session._ops.verifications += 1
    if not verify_payload(session.catalog.verify_pk, step_payload(m, resp.m_out),
                          resp.step_signature):
        raise BadStepSignature(StepTranscript(m=m, m_out=resp.m_out, t=t,
                                              signature=resp.step_signature))
    ensure_member(resp.m_out, session.params)
    session.acc = div_mod(resp.m_out, session.unblinders[t], session.params)
    if session._ops is not None:
        session._ops.divisions += 1
    session.transcripts.append(StepTranscript(
        m=m, m_out=resp.m_out, t=t, signature=resp.step_signature, alpha=session.alpha))
    session._pending = None
    return session


def buyer_finish(session: PurchaseSession) -> LicensePlaintext:
    """Decrypt the published license blob with the assembled key.

    AuthenticationFailure here is the buyer's type-D evidence: every step
    signature checked out, yet the key does not open the license.
    """
    if session.remaining > 0:
        raise SessionStateError(f"{session.remaining} units still unpaid")
    return decrypt_license(session.acc, session.entry.encrypted_license)


# --- seller side ---------------------------------------------------------------

def seller_handle_step(req: StepReq, keys: SellerKeys, bank,
                       params: GroupParams, account: str, ops=None) -> StepResponse:
    """Handle one step: validate, spend the cards, exponentiate, sign.

    Cards are spent all-or-nothing and strictly before any exponentiation,
    so a rejected card costs the seller no work and the buyer no money.
    The handler holds no state between calls.
    """
    if not req.card_ids:
        raise ValueError("step request carries no cards")
    ensure_member(req.m, params)
    receipts = bank.spend_atomic(list(req.card_ids), account)
    t = sum(r.value for r in receipts)
    m_out = pow_mod(req.m, pow(keys.s, t, params.q), params)
    if ops is not None:
        ops.exponentiations += 1
        ops.signings += 1
    signature = sign_payload(keys.sign_sk, step_payload(req.m, m_out))
    return StepResponse(m_out=m_out, step_signature=signature)


class SellerStepHandler:
    """Binds the stateless step function to one seller's keys, bank link and
    operation counter."""

    def __init__(self, keys: SellerKeys, params: GroupParams, bank,
                 account: str, ops=None):
        self.keys = keys
        self.params = params
        self.bank = bank
        self.account = account
        self.ops = ops

    def handle(self, req: StepReq) -> StepResponse:
        return seller_handle_step(req, self.keys, self.bank, self.params,
                                  self.account, self.ops)


# --- drivers --------------------------------------------------------------------

def run_purchase(session: PurchaseSession, step_fn) -> LicensePlaintext:
    """Drive a session to completion.  step_fn maps a StepReq to a
    StepResponse over whatever channel the caller set up."""
    while session.remaining > 0:
        req = buyer_step_request(session)
        resp = step_fn(req)
        buyer_process_response(session, resp)
    return buyer_finish(session)
