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
from dataclasses import dataclass, replace

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
    build_type_b_case,
    build_type_c_case,
    build_type_d_case,
    resolve_case,
)
from .errors import (
    AlreadySpent,
    AuthenticationFailure,
    BadStepSignature,
    CardError,
    MalformedElement,
    MalformedMessage,
    NotDistributed,
    ScenarioInvalid,
    StepRejected,
    UnknownCard,
)
from .group import gen_params
from .purchase import (
    MODE_BASIC,
    MODE_ENHANCED,
    SellerStepHandler,
    StepResponse,
    buyer_begin,
    plan_steps,
    run_purchase,
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

    FIELDS = ("exponentiations", "divisions", "signings", "verifications",
              "messages_sent", "payload_bits", "wire_bytes")

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
            for f in OpCounter.FIELDS:
                out.append((name, f, getattr(c, f)))
        return out

    def render_tsv(self) -> str:
        return "".join(f"{a}\t{k}\t{v}\n" for a, k, v in self.records())


# --- scenarios ------------------------------------------------------------------

FAULTS = ("none", "corrupt-signature", "wrong-terms", "wrong-s", "double-spend",
          "false-claim")


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
                f"refresh={'on' if self.refresh else 'off'} "
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
        kv[key.strip()] = value.strip()
    try:
        sc = Scenario(
            mode=kv.get("mode", MODE_BASIC),
            price=int(kv.get("price", "1")),
            refresh=kv.get("refresh", "off") == "on",
            group_bits=int(kv.get("group_bits", "64")),
            transport=kv.get("transport", "memory"),
            seed=int(kv.get("seed", "0")),
            fault=kv.get("fault", "none"),
            fault_step=int(kv.get("fault_step", "0")),
        )
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
    if sc.fault in ("corrupt-signature", "wrong-s", "double-spend") and sc.fault_step < 1:
        raise ScenarioInvalid(f"fault {sc.fault!r} needs fault_step >= 1")
    if sc.group_bits < 8:
        raise ScenarioInvalid("group_bits must be >= 8")


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
    CardLedger.spend_atomic.  Safe to share between the connection threads
    of a seller server: one spend holds the endpoint from request to reply,
    so no thread reads another's receipts."""

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self._lock = threading.Lock()

    def close(self):
        self.endpoint.close()

    def spend_atomic(self, card_ids: list[str], account: str) -> list[SpendReceipt]:
        with self._lock:
            self.endpoint.send(wire.CardSpend(card_ids=tuple(card_ids), account=account))
            reply = self.endpoint.recv()
        if isinstance(reply, wire.SpendOk):
            return [SpendReceipt(card_id=cid, seller_account=acct, value=value, seq=seq)
                    for seq, cid, value, acct in reply.receipts]
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

    def handle(msg: wire.Message | MalformedMessage) -> wire.Message:
        if isinstance(msg, MalformedMessage):
            return wire.SpendErr(code="malformed", detail=str(msg), prior_seq=0)
        if not isinstance(msg, wire.CardSpend):
            return wire.SpendErr(code="unsupported", detail=type(msg).__name__, prior_seq=0)
        try:
            receipts = ledger.spend_atomic(list(msg.card_ids), msg.account)
            return wire.SpendOk(receipts=tuple(
                (r.seq, r.card_id, r.value, r.seller_account) for r in receipts))
        except CardError as exc:
            prior = exc.prior_seq if isinstance(exc, AlreadySpent) else 0
            return wire.SpendErr(code=card_error_code(exc), detail=exc.card_id,
                                 prior_seq=prior)
        except ValueError as exc:
            return wire.SpendErr(code="bad-request", detail=str(exc), prior_seq=0)

    return handle


def make_seller_handler(step_handler, catalog: Catalog):
    """Wire handler for a seller: purchase steps and catalog fetches.  A
    request it cannot serve, or a frame that does not decode, gets a StepErr
    reply; the connection stays up.  This is the one place a refused step
    gets its code, over sockets and in memory alike.  Dispute evidence
    never comes through here: the seller answers a case record file
    (``blindpay seller answer``)."""
    catalog_text = serialize_catalog(catalog)

    def answer(msg: wire.Message | MalformedMessage) -> wire.Message:
        if isinstance(msg, MalformedMessage):
            return wire.StepErr(code="malformed", detail=str(msg))
        if isinstance(msg, wire.StepReq):
            resp = step_handler.handle(msg)
            return wire.StepResp(m_out=resp.m_out, signature=resp.step_signature)
        if isinstance(msg, wire.CatalogGet):
            return wire.CatalogDoc(text=catalog_text)
        return wire.StepErr(code="unsupported", detail=type(msg).__name__)

    def handle(msg: wire.Message | MalformedMessage) -> wire.Message:
        try:
            return answer(msg)
        except CardError as exc:
            return wire.StepErr(code=card_error_code(exc), detail=exc.card_id)
        except MalformedElement as exc:
            return wire.StepErr(code="malformed-element", detail=str(exc))
        except (ValueError, KeyError) as exc:
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
    ep = wire.connect(*address)
    try:
        ep.send(req)
        return step_reply(ep.recv())
    finally:
        ep.close()


# --- the runner -----------------------------------------------------------------------

@dataclass
class ScenarioReport:
    scenario: Scenario
    outcome: str
    key_ok: str
    terms_match: str
    verdicts: list[tuple[str, Verdict]]
    metrics: Metrics
    plaintext: LicensePlaintext | None = None

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
    """Execute card distribution, a purchase, and any dispute the configured
    fault provokes.  Fully deterministic for a given scenario."""
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
    issued = []
    for t in plan:
        issued += bank.issue_cards(1, t)
    bank.distribute([c.card_id for c in issued], "store-1")
    buyer_cards = [(c.card_id, c.value) for c in issued]
    if sc.fault == "double-spend":
        if not (1 <= sc.fault_step <= len(plan)):
            raise ScenarioInvalid("double-spend fault_step beyond the plan")
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

    outcome, key_ok, terms_match = "completed", "-", "-"
    plain = None
    case = None
    try:
        session = buyer_begin(cat, "lic-main", buyer_cards, mode=sc.mode,
                              refresh_blinding=sc.refresh, rng=rng, ops=buyer_ops)
        plain = run_purchase(session, step_fn)
        key_ok = "yes"
        terms_match = "yes" if plain.terms == session.entry.terms else "no"
    except AuthenticationFailure:
        key_ok = "no"
        outcome = "key-unusable"
        case = build_type_d_case(cat, session)
    except BadStepSignature as bad:
        outcome = "aborted:bad-step-signature"
        case = build_type_c_case(cat, bad)
    except StepRejected as rej:
        outcome = f"aborted:{rej.code}"
    finally:
        for close in closers:
            close()

    if terms_match == "no":
        case = build_type_b_case(cat, session)
    elif outcome == "completed" and sc.fault == "false-claim":
        case = build_type_d_case(cat, session)
    verdicts: list[tuple[str, Verdict]] = []
    if case is not None:
        agent = SellerDisputeAgent(keys, cat, rng=rng)
        verdicts = resolve_case(case, catalog=cat, seller=agent, rng=rng)

    bank.check_conservation()
    return ScenarioReport(scenario=sc, outcome=outcome, key_ok=key_ok,
                          terms_match=terms_match, verdicts=verdicts,
                          metrics=metrics, plaintext=plain)


# --- table reporting --------------------------------------------------------------------

SWEEP_PRICES = (1, 2, 4, 8, 16, 31)


def run_sweep(prices=SWEEP_PRICES, group_bits: int = 64, seed: int = 7,
              transport: str = "memory") -> dict[str, list[ScenarioReport]]:
    """The standard complexity sweep: both modes, blinding not refreshed
    (the cost model assumes one blinding factor per purchase)."""
    out: dict[str, list[ScenarioReport]] = {MODE_BASIC: [], MODE_ENHANCED: []}
    for mode in (MODE_BASIC, MODE_ENHANCED):
        for p in prices:
            sc = Scenario(mode=mode, price=p, refresh=False, group_bits=group_bits,
                          transport=transport, seed=seed)
            out[mode].append(run_scenario(sc))
    return out


def _ceil_log2(p: int) -> int:
    return (p - 1).bit_length()


def report_tables(sweep: dict[str, list[ScenarioReport]]) -> str:
    """Measured counters against the closed-form columns, PASS/FAIL per cell.

    Operation counts: buyer p+2 and seller 2p in basic mode (exact); in
    enhanced mode the buyer is bounded by 1+2*ceil(log2 p) and the message
    count equals the population count of p.  A price of 1 degenerates to
    the basic scheme, so the basic bound of 3 operations applies there.
    Payload bits: p*(BETA+gamma) / 2*p*gamma in basic mode and the same
    shapes scaled by the message count in enhanced mode.
    """
    lines = []
    basic = sweep.get(MODE_BASIC, [])
    if basic:
        gamma = basic[0].scenario.group_bits
        lines.append(f"operation counts, basic mode (gamma={gamma})")
        lines.append("p\tbuyer_total\texpect\tok\tseller_total\texpect\tok")
        for rep in basic:
            p = rep.scenario.price
            b = rep.metrics.actor("buyer").table_total()
            s = rep.metrics.actor("seller").table_total()
            lines.append("\t".join([
                str(p), str(b), str(p + 2), _pf(b == p + 2),
                str(s), str(2 * p), _pf(s == 2 * p)]))
        lines.append("")
        lines += _payload_lines(MODE_BASIC, basic)
    enhanced = sweep.get(MODE_ENHANCED, [])
    if enhanced:
        gamma = enhanced[0].scenario.group_bits
        lines.append(f"operation counts, enhanced mode (gamma={gamma})")
        lines.append("p\tbuyer_total\tbound\tok\tmessages\tpopcount\tok\tmsg_bound\tok")
        for rep in enhanced:
            p = rep.scenario.price
            b = rep.metrics.actor("buyer").table_total()
            msgs = rep.metrics.actor("buyer").messages_sent
            bound = 3 if p == 1 else 1 + 2 * _ceil_log2(p)
            pc = bin(p).count("1")
            lines.append("\t".join([
                str(p), str(b), str(bound), _pf(b <= bound),
                str(msgs), str(pc), _pf(msgs == pc),
                str(_ceil_log2(p) + 1), _pf(msgs <= _ceil_log2(p) + 1)]))
        lines.append("")
        lines += _payload_lines(MODE_ENHANCED, enhanced)
    return "\n".join(lines)


def _payload_lines(mode: str, reports: list[ScenarioReport]) -> list[str]:
    gamma = reports[0].scenario.group_bits
    lines = [f"payload bits, {mode} mode (framing excluded)",
             "p\tbuyer_bits\texpect\tok\tseller_bits\texpect\tok"]
    for rep in reports:
        p = rep.scenario.price
        k = p if mode == MODE_BASIC else bin(p).count("1")  # messages sent
        bb = rep.metrics.actor("buyer").payload_bits
        sb = rep.metrics.actor("seller").payload_bits
        lines.append("\t".join([
            str(p), str(bb), str(k * (BETA + gamma)), _pf(bb == k * (BETA + gamma)),
            str(sb), str(2 * k * gamma), _pf(sb == 2 * k * gamma)]))
    lines.append("")
    return lines


def _pf(ok: bool) -> str:
    return "PASS" if ok else "FAIL"
