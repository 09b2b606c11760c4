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
from .cards import CARD_ID_BITS, REFUSAL_MESSAGES, CardLedger, SpendReceipt
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
from .encoding import INT, ON_OFF, STR
from .errors import (
    BlindpayError,
    CardError,
    ConnectionClosed,
    MalformedElement,
    MalformedMessage,
    ScenarioInvalid,
    ServerBusy,
    StepRejected,
)
from .group import GroupParams, group_for
from .purchase import (
    MODE_BASIC,
    MODE_ENHANCED,
    SellerStepHandler,
    StepResponse,
    buyer_begin,
    plan_steps,
)

BETA = CARD_ID_BITS  # card identifier bits


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
_CODECS = {"int": INT, "bool": ON_OFF, "str": STR}  # a Scenario field's, by its type


@dataclass(frozen=True)
class Scenario:
    mode: str = MODE_BASIC
    price: int = 1
    refresh: bool = False  # off reproduces the paper's cost model; linkable
    group_bits: str = "64"  # read by group.group_for: 8 to 64, or a named group
    transport: str = "memory"
    seed: int = 0
    fault: str = "none"
    fault_step: int = 0

    def line(self) -> str:
        return " ".join(f"{f.name}={_CODECS[f.type].write(getattr(self, f.name))}"
                        for f in fields(self))


def parse_scenario(text: str) -> Scenario:
    codecs = {f.name: _CODECS[f.type].read for f in fields(Scenario)}
    kv = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ScenarioInvalid(f"line {lineno}: expected 'key: value'")
        key = key.strip()
        if key not in codecs:
            raise ScenarioInvalid(f"line {lineno}: unknown key {key!r}")
        if key in kv:
            raise ScenarioInvalid(f"line {lineno}: repeated key {key!r}")
        try:
            kv[key] = codecs[key](value.strip())
        except ValueError as exc:
            raise ScenarioInvalid(f"line {lineno}: bad {key!r} value: {exc}") from None
    sc = Scenario(**kv)
    _validate(sc, random.Random(sc.seed))
    return sc


def _validate(sc: Scenario, rng: random.Random) -> GroupParams:
    """sc's group, drawn from rng, once every other value has been checked."""
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
    if sc.fault not in STEP_FAULTS and sc.fault_step:
        raise ScenarioInvalid(f"fault {sc.fault!r} strikes no step, so fault_step must be 0")
    try:
        return group_for(sc.group_bits, rng)
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

class RemoteBank:
    """Seller-side client for a bank server; satisfies the same contract as
    CardLedger.spend_atomic: receipts, or the CardError of a card the
    ledger refuses, rebuilt from the bank's SpendErr.  Any other outcome (a
    failed or timed-out link, a reply that does not decode or serves no
    spend) drops the endpoint and raises ConnectionClosed; the next spend
    dials the endpoint's address again.  Nothing is resent.  A link the
    bank has closed, as it closes an idle one, is dialled again before the
    request goes out.  A seller server calls it from its one thread, but
    callers may share it between threads: one spend holds the endpoint from
    request to reply, so no thread reads another's receipts."""

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self._address = getattr(endpoint, "address", None)  # a stand-in may have none
        self._lock = threading.Lock()

    def close(self):
        if self.endpoint is not None:
            self.endpoint.close()

    def _drop(self):
        self.close()
        self.endpoint = None

    def spend_atomic(self, card_ids: list[str], account: str) -> list[SpendReceipt]:
        with self._lock:
            # a link the bank has closed (an idle one, say) carried nothing of
            # this spend, so dial again
            if self.endpoint is not None and self.endpoint.peer_closed():
                self._drop()
            if self.endpoint is None:
                self.endpoint = wire.connect(*self._address)
            try:
                self.endpoint.send(wire.CardSpend(card_ids=tuple(card_ids), account=account))
                reply = self.endpoint.recv()
            except BlindpayError as exc:  # the link's state is unknown: a late reply could follow
                self._drop()
                raise ConnectionClosed(str(exc)) from exc
            if isinstance(reply, wire.SpendOk):
                return list(reply.receipts)
            if isinstance(reply, wire.SpendErr) and reply.code in REFUSAL_MESSAGES:
                message = REFUSAL_MESSAGES[reply.code].format(reply.detail, reply.prior_seq)
                raise CardError(reply.detail, reply.code, message, reply.prior_seq)
            self._drop()
        raise ConnectionClosed(f"the bank's reply {type(reply).__name__} serves no spend")


def refusal(why) -> tuple[str, str]:
    """The code and detail of the error reply to a request a server did not
    serve: why is the exception raised serving it, or the request itself
    when the server serves none such (a frame that did not decode, a
    ServerBusy, a message of another type).  Both handlers reply through
    it, so a card refusal keeps the ledger's code from the bank to the
    buyer."""
    if isinstance(why, CardError):
        return why.code, why.card_id
    if isinstance(why, ConnectionClosed):  # its text may name the bank's address
        return "bank-unavailable", "the bank did not answer"
    if isinstance(why, MalformedElement):
        return "malformed-element", str(why)
    if isinstance(why, MalformedMessage):
        return "malformed", str(why)
    if isinstance(why, ServerBusy):
        return "busy", str(why)
    if isinstance(why, ValueError):
        return "bad-request", str(why)
    return "unsupported", type(why).__name__


def make_bank_handler(ledger: CardLedger):
    """Wire handler for a ledger's spend, the bank's only online operation
    (the ledger's writer issues and distributes cards offline).  A request
    the ledger refuses, or a frame that does not decode, gets a SpendErr
    reply; the connection stays up."""

    def handle(msg: wire.Message | MalformedMessage | ServerBusy) -> wire.Message:
        why = msg
        try:
            if isinstance(msg, wire.CardSpend):
                return wire.SpendOk(receipts=tuple(ledger.spend_atomic(list(msg.card_ids),
                                                                      msg.account)))
        except (CardError, ConnectionClosed, ValueError) as exc:
            why = exc
        code, detail = refusal(why)
        return wire.SpendErr(code=code, detail=detail,
                             prior_seq=why.prior_seq if isinstance(why, CardError) else 0)

    return handle


def make_seller_handler(step_handler, catalog: Catalog):
    """Wire handler for a seller: purchase steps and catalog fetches.  A
    request it cannot serve (one its bank did not serve too) or a frame
    that does not decode gets a StepErr reply; the connection stays up.
    This is the one place a refused step gets its code, over sockets and
    in memory alike.  Dispute evidence never comes through here: the
    seller answers a case record file (``blindpay seller answer``)."""
    catalog_text = serialize_catalog(catalog)

    def handle(msg: wire.Message | MalformedMessage | ServerBusy) -> wire.Message:
        why = msg
        try:
            if isinstance(msg, wire.StepReq):
                resp = step_handler.handle(msg)
                return wire.StepResp(m_out=resp.m_out, signature=resp.step_signature)
            if isinstance(msg, wire.CatalogGet):
                return wire.CatalogDoc(text=catalog_text)
        except (CardError, ConnectionClosed, MalformedElement, ValueError) as exc:
            why = exc
        code, detail = refusal(why)
        return wire.StepErr(code=code, detail=detail)

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
    gamma: int  # the bits of the scenario's group
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
    rng = random.Random(sc.seed)
    params = _validate(sc, rng)
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
        bank.spend_atomic([victim.card_id], "seller-1")

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
    return ScenarioReport(scenario=sc, gamma=gamma, outcome=outcome, key_ok=key_ok,
                          terms_match=terms_match, verdicts=verdicts, metrics=metrics)


# --- table reporting --------------------------------------------------------------------

SWEEP_PRICES = (1, 2, 4, 8, 16, 31)


def run_sweep(prices=SWEEP_PRICES, group_bits: str = "64",
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
    p, gamma = rep.scenario.price, rep.gamma
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
            lines += [title.format(mode=mode, gamma=reports[0].gamma),
                      "\t".join(["p", *columns[mode].split()])]
            for rep in reports:
                cells = [rep.scenario.price]
                for measured, expected, ok in checks(rep):
                    cells += [v for v in (measured, expected) if v is not None]
                    cells.append("PASS" if ok else "FAIL")
                lines.append("\t".join(map(str, cells)))
            lines.append("")
    return "\n".join(lines)
