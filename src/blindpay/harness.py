"""Scenario runner: wires bank, seller, buyer and arbitrator together,
counts operations and bytes, and injects faults.

The operation counters mirror the classical cost model for this kind of
protocol: group exponentiations, unblinding divisions and signings are the
billed operations (signature verifications are tracked but conventionally
not totalled).  Payload bits are counted in the same model: beta bits per
card identifier, gamma (the group size) per group element and per
signature, framing excluded; the separate wire_bytes counter holds the
actual on-wire sizes including framing.
"""

from __future__ import annotations

import functools
import random
import threading
from dataclasses import dataclass, fields, replace

from . import wire
from .cards import CardLedger, SpendReceipt
from .catalog import (
    Catalog,
    LicensePlaintext,
    LicenseSpec,
    serialize_catalog,
    setup,
    with_published_terms,
)
from .dispute import (
    SellerDisputeAgent,
    Verdict,
    answer_case,
    build_type_d_case,
    parse_case,
    resolve_case,
    settle_purchase,
    write_case,
)
from .encoding import ON_OFF
from .errors import (
    AlreadySpent,
    BlindpayError,
    CardError,
    ConnectionClosed,
    MalformedElement,
    MalformedMessage,
    NotDistributed,
    ScenarioInvalid,
    ServerBusy,
    StepRejected,
    UnknownCard,
    WireTimeout,
)
from .group import check_desk_bits, gen_params
from .purchase import (
    MODE_BASIC,
    MODE_ENHANCED,
    SellerStepHandler,
    StepResponse,
    buyer_begin,
    plan_steps,
)

BETA = 128  # card identifier bits


# --- counters -----------------------------------------------------------------

@dataclass
class OpCounter:
    exponentiations: int = 0
    divisions: int = 0
    signings: int = 0
    verifications: int = 0
    messages_sent: int = 0
    payload_bits: int = 0
    wire_bytes: int = 0

    def table_total(self) -> int:
        """The classical total: exponentiations + divisions + signings."""
        return self.exponentiations + self.divisions + self.signings


class Metrics:
    def __init__(self):
        self.actors: dict[str, OpCounter] = {}

    def actor(self, name: str) -> OpCounter:
        if name not in self.actors:
            self.actors[name] = OpCounter()
        return self.actors[name]

    def records(self) -> list[tuple[str, str, int]]:
        out = []
        for name in sorted(self.actors):
            c = self.actors[name]
            for f in fields(OpCounter):
                out.append((name, f.name, getattr(c, f.name)))
        return out

    def render_tsv(self) -> str:
        return "".join(f"{a}\t{k}\t{v}\n" for a, k, v in self.records())


# --- scenarios ------------------------------------------------------------------

FAULTS = ("none", "corrupt-signature", "wrong-terms", "wrong-s", "double-spend",
          "false-claim")
STEP_FAULTS = ("corrupt-signature", "wrong-s", "double-spend")  # strike at fault_step


@dataclass(frozen=True)
class Scenario:
    mode: str = MODE_BASIC
    price: int = 1
    refresh: bool = False  # off reproduces the paper's cost model; linkable
    group_bits: int = 64
    transport: str = "memory"
    seed: int = 0
    fault: str = "none"
    fault_step: int = 0

    def line(self) -> str:
        return (f"mode={self.mode} price={self.price} "
                f"refresh={ON_OFF.write(self.refresh)} "
                f"group_bits={self.group_bits} transport={self.transport} "
                f"seed={self.seed} fault={self.fault} fault_step={self.fault_step}")


def parse_scenario(text: str) -> Scenario:
    kv = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ScenarioInvalid(f"line {lineno}: expected 'key: value'")
        key = key.strip()
        if key not in {f.name for f in fields(Scenario)}:
            raise ScenarioInvalid(f"line {lineno}: unknown key {key!r}")
        if key in kv:
            raise ScenarioInvalid(f"line {lineno}: repeated key {key!r}")
        kv[key] = value.strip()
    convert = {"int": int, "bool": ON_OFF.read, "str": str}
    try:
        sc = Scenario(**{f.name: convert[f.type](kv[f.name])
                         for f in fields(Scenario) if f.name in kv})
    except ValueError as exc:
        raise ScenarioInvalid(str(exc))
    _validate(sc)
    return sc


def _validate(sc: Scenario):
    if sc.mode not in (MODE_BASIC, MODE_ENHANCED):
        raise ScenarioInvalid(f"unknown mode {sc.mode!r}")
    if sc.price < 1:
        raise ScenarioInvalid("price must be >= 1")
    if sc.transport not in ("memory", "socket"):
        raise ScenarioInvalid(f"unknown transport {sc.transport!r}")
    if sc.fault not in FAULTS:
        raise ScenarioInvalid(f"unknown fault {sc.fault!r}")
    if sc.fault in STEP_FAULTS and sc.fault_step < 1:
        raise ScenarioInvalid(f"fault {sc.fault!r} needs fault_step >= 1")
    try:
        check_desk_bits(sc.group_bits)
    except ValueError as exc:
        raise ScenarioInvalid(f"group_bits: {exc}") from None


# --- fault injection ----------------------------------------------------------------

class FaultingSeller:
    """Wraps a seller handler; counts requests from the OUTSIDE (the seller
    itself stays stateless) and misbehaves at the configured step."""

    def __init__(self, handler: SellerStepHandler, fault: str, fault_step: int):
        self.handler = handler
        self.fault = fault
        self.fault_step = fault_step
        self.calls = 0

    def handle(self, req: wire.StepReq) -> StepResponse:
        self.calls += 1
        if self.fault == "wrong-s" and self.calls == self.fault_step:
            keys = self.handler.keys
            q = self.handler.params.q
            s_bad = keys.s + 1 if keys.s + 1 < q else 2
            crooked = SellerStepHandler(replace(keys, s=s_bad), self.handler.params,
                                        self.handler.bank, self.handler.account,
                                        self.handler.ops)
            return crooked.handle(req)
        resp = self.handler.handle(req)
        if self.fault == "corrupt-signature" and self.calls == self.fault_step:
            sig = bytearray(resp.step_signature)
            sig[0] ^= 0xFF
            return StepResponse(m_out=resp.m_out, step_signature=bytes(sig))
        return resp


# --- wire glue ------------------------------------------------------------------------

# read both ways: by card_error_code on the bank, by _spend_error on its client
_CARD_ERR_CODES = {
    UnknownCard: "unknown-card",
    AlreadySpent: "already-spent",
    NotDistributed: "not-distributed",
}


def card_error_code(exc: CardError) -> str:
    return _CARD_ERR_CODES.get(type(exc), "card-error")


class RemoteBank:
    """Seller-side client for a bank server; satisfies the same contract as
    CardLedger.spend_atomic.  A seller server calls it from its one
    thread, but callers may share it between threads: one spend holds the
    endpoint from request to reply, so no thread reads another's receipts.
    A link the bank has closed, as it closes an idle one, is dialled again
    before the request goes out.  A failed exchange drops the endpoint and
    raises; the next spend dials the endpoint's address again.  Nothing is
    resent."""

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self._address = getattr(endpoint, "address", None)  # a stand-in may have none
        self._lock = threading.Lock()

    def close(self):
        if self.endpoint is not None:
            self.endpoint.close()

    def spend_atomic(self, card_ids: list[str], account: str) -> list[SpendReceipt]:
        with self._lock:
            # a link the bank has closed (an idle one, say) carried nothing of
            # this spend, so dial again
            if self.endpoint is not None and self.endpoint.peer_closed():
                self.close()
                self.endpoint = None
            if self.endpoint is None:
                self.endpoint = wire.connect(*self._address)
            try:
                self.endpoint.send(wire.CardSpend(card_ids=tuple(card_ids), account=account))
                reply = self.endpoint.recv()
            except BlindpayError:  # the link's state is unknown: a late reply could follow
                self.endpoint.close()
                self.endpoint = None
                raise
        if isinstance(reply, wire.SpendOk):
            return list(reply.receipts)
        if isinstance(reply, wire.SpendErr):
            raise _spend_error(reply)
        raise StepRejected("bank-protocol", f"unexpected reply {type(reply).__name__}")


def _spend_error(err: wire.SpendErr) -> CardError:
    cls = next((c for c, code in _CARD_ERR_CODES.items() if code == err.code), None)
    if cls is None:
        return CardError(err.detail, f"{err.code}: {err.detail}")
    return cls(err.detail, err.prior_seq) if cls is AlreadySpent else cls(err.detail)


def make_bank_handler(ledger: CardLedger):
    """Wire handler for a ledger's spend, the bank's only online operation
    (the ledger's writer issues and distributes cards offline).  A request
    the ledger refuses, or a frame that does not decode, gets a SpendErr
    reply; the connection stays up."""

    def handle(msg: wire.Message | MalformedMessage | ServerBusy) -> wire.Message:
        if isinstance(msg, MalformedMessage):
            return wire.SpendErr(code="malformed", detail=str(msg), prior_seq=0)
        if isinstance(msg, ServerBusy):
            return wire.SpendErr(code="busy", detail=str(msg), prior_seq=0)
        if not isinstance(msg, wire.CardSpend):
            return wire.SpendErr(code="unsupported", detail=type(msg).__name__, prior_seq=0)
        try:
            return wire.SpendOk(receipts=tuple(ledger.spend_atomic(list(msg.card_ids),
                                                                  msg.account)))
        except CardError as exc:
            prior = exc.prior_seq if isinstance(exc, AlreadySpent) else 0
            return wire.SpendErr(code=card_error_code(exc), detail=exc.card_id,
                                 prior_seq=prior)
        except ValueError as exc:
            return wire.SpendErr(code="bad-request", detail=str(exc), prior_seq=0)

    return handle


def make_seller_handler(step_handler, catalog: Catalog):
    """Wire handler for a seller: purchase steps and catalog fetches.  A
    request it cannot serve (a failed bank link too) or a frame that does
    not decode gets a StepErr reply; the connection stays up.  This is the
    one place a refused step gets its code, over sockets and in memory
    alike.  Dispute evidence never comes through here: the seller answers
    a case record file (``blindpay seller answer``)."""
    catalog_text = serialize_catalog(catalog)

    def handle(msg: wire.Message | MalformedMessage | ServerBusy) -> wire.Message:
        try:
            if isinstance(msg, MalformedMessage):
                return wire.StepErr(code="malformed", detail=str(msg))
            if isinstance(msg, ServerBusy):
                return wire.StepErr(code="busy", detail=str(msg))
            if isinstance(msg, wire.StepReq):
                resp = step_handler.handle(msg)
                return wire.StepResp(m_out=resp.m_out, signature=resp.step_signature)
            if isinstance(msg, wire.CatalogGet):
                return wire.CatalogDoc(text=catalog_text)
            return wire.StepErr(code="unsupported", detail=type(msg).__name__)
        except CardError as exc:
            return wire.StepErr(code=card_error_code(exc), detail=exc.card_id)
        except MalformedElement as exc:
            return wire.StepErr(code="malformed-element", detail=str(exc))
        except (ConnectionClosed, WireTimeout):  # their text may name the bank's address
            return wire.StepErr(code="bank-unavailable", detail="the bank did not answer")
        except ValueError as exc:
            return wire.StepErr(code="bad-request", detail=str(exc))

    return handle


def step_reply(reply: wire.Message) -> StepResponse:
    """The buyer's reading of a seller's reply to one step.  A StepErr or
    any other reply than StepResp raises StepRejected."""
    if isinstance(reply, wire.StepResp):
        return StepResponse(m_out=reply.m_out, step_signature=reply.signature)
    if isinstance(reply, wire.StepErr):
        raise StepRejected(reply.code, reply.detail)
    raise StepRejected("protocol", f"unexpected reply {type(reply).__name__}")


def remote_step(address: tuple[str, int], req: wire.StepReq) -> StepResponse:
    """Send one step to a seller server and return its response.  Each step
    gets a connection of its own, closed after the reply: steps that shared
    a connection would be linkable by the seller."""
    return step_reply(wire.exchange(address, req))


# --- the runner -----------------------------------------------------------------------

@dataclass
class ScenarioReport:
    scenario: Scenario
    outcome: str
    key_ok: str
    terms_match: str
    verdicts: list[tuple[str, Verdict]]
    metrics: Metrics

    def render(self) -> str:
        lines = [
            "blindpay-report: v1",
            f"scenario: {self.scenario.line()}",
            f"outcome: {self.outcome}",
            f"key_ok: {self.key_ok}",
            f"terms_match: {self.terms_match}",
            f"verdicts: {len(self.verdicts)}",
        ]
        for label, v in self.verdicts:
            lines.append(f"verdict: {label} {v.outcome} steps={v.checked_steps} :: {v.rationale}")
        for a, k, v in self.metrics.records():
            lines.append(f"metric: {a} {k} {v}")
        lines.append("conservation: ok")
        return "\n".join(lines) + "\n"


def _payload_bits_request(req: wire.StepReq, gamma: int) -> int:
    return BETA * len(req.card_ids) + gamma


def _payload_bits_response(gamma: int) -> int:
    return 2 * gamma  # element plus signature, both billed at gamma


def _wire_len(msg: wire.Message) -> int:
    return len(wire.frame(wire.encode(msg)))


def run_scenario(sc: Scenario) -> ScenarioReport:
    """Run card distribution, a purchase and any dispute its fault provokes,
    answered and judged as `seller answer` then `arbitrate` do.  Deterministic."""
    _validate(sc)
    rng = random.Random(sc.seed)
    params = gen_params(sc.group_bits, seed=rng.randrange(2**63))
    gamma = params.bits

    plaintext = LicensePlaintext(license_id="lic-main", terms="standard",
                                 content_key=rng.randbytes(16), permissions=("play",))
    spec = LicenseSpec(license_id="lic-main", content_id="content-1",
                       price=sc.price, terms="standard", plaintext=plaintext)
    keys, cat = setup(params, [spec], rng=rng)
    if sc.fault == "wrong-terms":
        cat = with_published_terms(cat, keys, "lic-main", "standard plus printing")

    bank = CardLedger(rng=rng)
    powers = set(cat.k_table) if sc.mode == MODE_ENHANCED else {1}
    plan = plan_steps(sc.price, powers)
    if sc.fault in STEP_FAULTS and sc.fault_step > len(plan):
        raise ScenarioInvalid(f"{sc.fault} fault_step beyond the plan's {len(plan)} steps")
    issued = []
    for t in plan:
        issued += bank.issue_cards(1, t)
    bank.distribute([c.card_id for c in issued], "store-1")
    buyer_cards = [(c.card_id, c.value) for c in issued]
    if sc.fault == "double-spend":
        # burn the card meant for the faulty step in a separate prior purchase
        victim = issued[sc.fault_step - 1]
        bank.verify_and_spend(victim.card_id, "seller-1")

    metrics = Metrics()
    buyer_ops = metrics.actor("buyer")
    seller_ops = metrics.actor("seller")
    handler = SellerStepHandler(keys, params, bank, "seller-1", ops=seller_ops)
    faulty = FaultingSeller(handler, sc.fault, sc.fault_step)

    seller = make_seller_handler(faulty, cat)
    closers = []
    if sc.transport == "socket":
        bank_srv = wire.Server("127.0.0.1", 0, make_bank_handler(bank)).start()
        bank_ep = wire.connect(*bank_srv.address)
        handler.bank = RemoteBank(bank_ep)
        seller_srv = wire.Server("127.0.0.1", 0, seller).start()
        closers = [bank_ep.close, bank_srv.stop, seller_srv.stop]
        raw_step = functools.partial(remote_step, seller_srv.address)
    else:
        def raw_step(req: wire.StepReq) -> StepResponse:
            return step_reply(seller(req))

    def step_fn(req: wire.StepReq) -> StepResponse:
        buyer_ops.messages_sent += 1
        buyer_ops.payload_bits += _payload_bits_request(req, gamma)
        buyer_ops.wire_bytes += _wire_len(req)
        resp = raw_step(req)
        seller_ops.messages_sent += 1
        seller_ops.payload_bits += _payload_bits_response(gamma)
        seller_ops.wire_bytes += _wire_len(
            wire.StepResp(m_out=resp.m_out, signature=resp.step_signature))
        return resp

    plain = case = None
    try:
        session = buyer_begin(cat, "lic-main", buyer_cards, mode=sc.mode,
                              refresh_blinding=sc.refresh, rng=rng, ops=buyer_ops)
        outcome, plain, case = settle_purchase(session, step_fn)
    except StepRejected as rej:
        outcome = f"aborted:{rej.code}"
    finally:
        for close in closers:
            close()

    key_ok = {"completed": "yes", "key-unusable": "no"}.get(outcome, "-")
    terms_match = "-" if plain is None else "no" if case is not None else "yes"
    if plain is not None and case is None and sc.fault == "false-claim":
        case = build_type_d_case(cat, session)  # the scenario's buyer lies
    verdicts: list[tuple[str, Verdict]] = []
    if case is not None:
        agent = SellerDisputeAgent(keys, cat, rng=rng)
        answered = answer_case(case, cat, agent)
        if answered.kind == "D":
            answered.s_revealed = agent.reveal_s()  # this seller discloses s: method 3
        verdicts = resolve_case(parse_case(write_case(answered)), catalog=cat)

    bank.check_conservation()
    return ScenarioReport(scenario=sc, outcome=outcome, key_ok=key_ok,
                          terms_match=terms_match, verdicts=verdicts,
                          metrics=metrics)


# --- table reporting --------------------------------------------------------------------

SWEEP_PRICES = (1, 2, 4, 8, 16, 31)


def run_sweep(prices=SWEEP_PRICES, group_bits: int = 64,
              seed: int = 7) -> dict[str, list[ScenarioReport]]:
    """The standard complexity sweep: both modes, in memory, blinding not
    refreshed (the cost model assumes one blinding factor per purchase)."""
    return {mode: [run_scenario(Scenario(mode=mode, price=p, group_bits=group_bits, seed=seed))
                   for p in prices]
            for mode in (MODE_BASIC, MODE_ENHANCED)}


def _exact(measured: int, expected: int) -> tuple[int, int, bool]:
    return measured, expected, measured == expected


def _op_checks(rep: ScenarioReport) -> list[tuple[int | None, int, bool]]:
    """Operation counts.  Basic mode, exact: buyer p+2, seller 2p.
    Enhanced mode: buyer at most 1+2*ceil(log2 p), but 3 at p = 1, where
    the scheme degenerates to the basic one; messages exactly popcount(p)
    and at most ceil(log2 p)+1 (that cell shows only its bound)."""
    p = rep.scenario.price
    buyer, seller = rep.metrics.actor("buyer"), rep.metrics.actor("seller")
    b, msgs = buyer.table_total(), buyer.messages_sent
    if rep.scenario.mode == MODE_BASIC:
        return [_exact(b, p + 2), _exact(seller.table_total(), 2 * p)]
    log2p = (p - 1).bit_length()  # ceil(log2 p)
    bound = max(3, 1 + 2 * log2p)
    return [(b, bound, b <= bound), _exact(msgs, bin(p).count("1")),
            (None, log2p + 1, msgs <= log2p + 1)]


def _payload_checks(rep: ScenarioReport) -> list[tuple[int, int, bool]]:
    """Payload bits, framing excluded, over k messages (k = p in basic
    mode, popcount(p) in enhanced): buyer k*(BETA+gamma), seller
    2*k*gamma."""
    p, gamma = rep.scenario.price, rep.scenario.group_bits
    k = p if rep.scenario.mode == MODE_BASIC else bin(p).count("1")
    return [_exact(rep.metrics.actor("buyer").payload_bits, k * (BETA + gamma)),
            _exact(rep.metrics.actor("seller").payload_bits, 2 * k * gamma)]


# each table: its title, its columns after p, by mode, and its check
_TABLES = [
    ("operation counts, {mode} mode (gamma={gamma})",
     {MODE_BASIC: "buyer_total expect ok seller_total expect ok",
      MODE_ENHANCED: "buyer_total bound ok messages popcount ok msg_bound ok"},
     _op_checks),
    ("payload bits, {mode} mode (framing excluded)",
     dict.fromkeys((MODE_BASIC, MODE_ENHANCED), "buyer_bits expect ok seller_bits expect ok"),
     _payload_checks),
]


def report_tables(sweep: dict[str, list[ScenarioReport]]) -> str:
    """Measured counters against the closed forms that _op_checks and
    _payload_checks state, one row per price, PASS/FAIL per check."""
    lines = []
    for mode in (MODE_BASIC, MODE_ENHANCED):
        reports = sweep.get(mode)
        if not reports:
            continue
        for title, columns, checks in _TABLES:
            lines += [title.format(mode=mode, gamma=reports[0].scenario.group_bits),
                      "\t".join(["p", *columns[mode].split()])]
            for rep in reports:
                cells = [rep.scenario.price]
                for measured, expected, ok in checks(rep):
                    cells += [v for v in (measured, expected) if v is not None]
                    cells.append("PASS" if ok else "FAIL")
                lines.append("\t".join(map(str, cells)))
            lines.append("")
    return "\n".join(lines)
