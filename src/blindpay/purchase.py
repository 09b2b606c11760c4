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
from .encoding import INT, INTS, ON_OFF, STR, Codec, RecordFormat, enc_int
from .errors import (
    AuthenticationFailure,
    BadStepSignature,
    IncompleteSession,
    InsufficientFunds,
    MismatchedFactor,
    MissingKPower,
    SessionComplete,
    SessionStateError,
)
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
        """The step as one line of a case record or session checkpoint."""
        alpha = "-" if self.alpha is None else str(self.alpha)
        return f"{self.m} {self.m_out} {self.t} {alpha} {self.signature.hex()}"

    @classmethod
    def parse(cls, line: str) -> StepTranscript:
        """Inverse of line(); a malformed line raises ValueError."""
        m, m_out, t, alpha, sig = line.split(" ")
        return cls(m=int(m), m_out=int(m_out), t=int(t), signature=bytes.fromhex(sig),
                   alpha=None if alpha == "-" else int(alpha))


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
    if mode not in (MODE_BASIC, MODE_ENHANCED):
        raise ValueError(f"unknown mode {mode!r}")
    total = sum(v for _, v in cards)
    if total < units:
        raise InsufficientFunds(f"cards total {total}, need {units}")
    powers = set(catalog.k_table) if mode == MODE_ENHANCED else {1}
    if 1 not in catalog.k_table:
        raise MissingKPower(1)
    plan = plan_steps(units, powers)
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
        raise MismatchedFactor(
            f"{owned_license_id!r} and {target_license_id!r} have different factors")
    delta = target.price - owned.price
    if delta <= 0:
        raise ValueError("nothing to upgrade: target license is not dearer")
    ensure_member(owned_key, catalog.params)
    return _begin(catalog, target, owned_key, delta, cards, mode,
                  refresh_blinding, rng, ops)


def buyer_step_request(session: PurchaseSession) -> StepReq:
    if session.remaining == 0:
        raise SessionComplete("all units already paid")
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
        raise IncompleteSession(f"{session.remaining} units still unpaid")
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


# --- session checkpointing -------------------------------------------------------

SESSION = RecordFormat(
    "session", once={"license": STR, "refresh": ON_OFF, "alpha": INT, "acc": INT, "plan": INTS},
    many={"cards": Codec(lambda cards: " ".join(cards) or "-",
                         lambda text: [] if text == "-" else text.split()),
          "transcript": STEP},
    error=SessionStateError)


def save_session(session: PurchaseSession, path: str):
    """Checkpoint a session between steps so a purchase survives a crash."""
    if session._pending is not None:
        raise SessionStateError("cannot checkpoint with a request outstanding")
    fields = [
        ("license", session.entry.license_id),
        ("refresh", session.refresh_blinding),
        ("alpha", session.alpha),
        ("acc", session.acc),
        ("plan", session.plan),
    ]
    fields += [("cards", cards) for cards in session.step_cards]
    fields += [("transcript", tr) for tr in session.transcripts]
    text = SESSION.write(fields)  # before the open: a refused value keeps the old file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _opens(key: int, blob: bytes) -> bool:
    try:
        decrypt_license(key, blob)
    except (AuthenticationFailure, ValueError):  # ValueError: a key enc_int refuses
        return False
    return True


def load_session(path: str, catalog: Catalog, rng: random.Random = SYSTEM_RANDOM,
                 ops=None) -> PurchaseSession:
    """Resume a checkpoint.  A checkpoint that disagrees with itself or with
    the catalog raises SessionStateError before any step is sent.

    acc must be the last transcript's m_out / K_t^alpha or, before the
    first step, the starting key; after it, the starting key is the first
    transcript's m / g^alpha (each one unbilled exponentiation).  A plan
    summing to the license's price starts from its x.  Any other plan is an
    upgrade: it sums to the price less that of a catalog license with the
    same x, and the starting key must open that license."""
    with open(path, encoding="utf-8") as fh:
        rec = SESSION.read(fh.read())
    entry = catalog.entry(rec["license"], SessionStateError)
    plan, paid = rec["plan"], [tr.t for tr in rec["transcript"]]
    owned = [e.encrypted_license for e in catalog.licenses
             if e.x == entry.x and e.price + sum(plan) == entry.price]
    for bad, what in [
        (len(rec["cards"]) != len(plan),
         f"{len(rec['cards'])} cards lines for a plan of {len(plan)} steps"),
        (paid != plan[:len(paid)],
         f"transcript step values {paid} are not the plan's first {len(paid)}"),
        (not set(plan) <= set(catalog.k_table),
         f"plan values {sorted(set(plan) - set(catalog.k_table))} have no K_t in the catalog"),
        (sum(plan) != entry.price and not owned,
         f"plan {plan} sums to {sum(plan)}, not the price {entry.price} of "
         f"{entry.license_id!r} less that of a license with its x"),
    ]:
        if bad:
            raise SessionStateError(f"checkpoint disagrees: {what}")
    params = catalog.params
    if not paid:
        start, starts = rec["acc"], "acc"
    else:
        last, first = rec["transcript"][-1], rec["transcript"][0]
        if last.alpha is None:
            raise SessionStateError("checkpoint disagrees: the last transcript has no alpha")
        unblinder = pow_mod(catalog.k_table[last.t], last.alpha, params)  # unbilled
        if rec["acc"] != div_mod(last.m_out, unblinder, params):
            raise SessionStateError(
                "checkpoint disagrees: acc is not the last transcript's m_out / K_t^alpha")
        if first.alpha is None:
            raise SessionStateError("checkpoint disagrees: the first transcript has no alpha")
        start = div_mod(first.m, pow_mod(params.g, first.alpha, params), params)  # unbilled
        starts = "the first transcript's m / g^alpha"
    if sum(plan) == entry.price and start != entry.x:
        raise SessionStateError(f"checkpoint disagrees: {starts} is not the license's x")
    if sum(plan) != entry.price and not any(_opens(start, blob) for blob in owned):
        raise SessionStateError(
            f"checkpoint disagrees: {starts} opens no license the plan upgrades from")
    session = PurchaseSession(
        catalog=catalog, entry=entry, refresh_blinding=rec["refresh"], alpha=rec["alpha"],
        r=1, unblinders={}, acc=rec["acc"], plan=plan, step_cards=rec["cards"],
        transcripts=rec["transcript"], _rng=rng,
    )
    # Unbilled, as the counter is attached after it: the cost model bills r
    # and the unblinders once, when first computed.  With refresh on, a
    # resumed step past the first draws a fresh alpha anyway.
    if session.remaining > 0 and not (session.refresh_blinding and paid):
        _blind(session, session.alpha)
    session._ops = ops
    return session
