"""The three workloads, driven from one process through public blindpay calls.

Every workload runs complete rounds of a fixed multiset of operations
(seller_steps: a fixed mix of steps) so that runs with different seeds do
the same work.  The seed draws only the order, the blinding, the card ids
and the audited license.  Seller keys and license contents come from a
fixed seed, so every run sells the same catalog.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import os
import random
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from blindpay import cards, catalog, dispute, harness, purchase, wire
from blindpay.errors import AuthenticationFailure, BlindpayError, LedgerCorrupt, StepRejected

from tracer import Switch

ACCOUNT = "seller-1"
STORE = "store-1"
SELLER_SEED = 1408_6970
LOCALHOST = "127.0.0.1"

_NULL = contextlib.nullcontext()


def _nospan(name, key=None):
    return _NULL


class SetupError(Exception):
    """Set-up produced something other than what the workload needs."""


@dataclass
class Op:
    cls: int  # op class 1..3, reported as method{1,2,3}_p50_ms
    start: float
    end: float
    ok: bool = True
    steps: int = 1  # steps of a purchase; evidence steps checked by a verdict

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


@dataclass
class Step:
    """One client step: connect (if any), send, reply received."""
    start: float
    sent: float
    end: float
    key: int  # the blinded request value

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)
    begin: float = 0.0
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.begin


class Rounds:
    """Hands out the items of complete rounds to closed-loop clients.

    A new round starts only while the projected end of that round stays
    inside the window, so every pass holds whole rounds (at least one).
    Once the window has closed, a client that asks while counted items are
    still running gets an uncounted filler item from an extra round, so the
    last counted items run under the same load as the others.
    """

    def __init__(self, make_round, seconds: float):
        self._make_round = make_round
        self._seconds = seconds
        self._lock = threading.Lock()
        self._items: list = []
        self._pos = 0
        self._closed = False
        self._running = 0  # counted items handed out and not yet done
        self.rounds = 0
        self.begin: float | None = None

    def next(self):
        """(item, counted), or None when the pass is over."""
        with self._lock:
            now = time.perf_counter()
            if self.begin is None:
                self.begin = now
            if not self._closed and self._pos == len(self._items):
                elapsed = now - self.begin
                if self.rounds and elapsed * (self.rounds + 1) / self.rounds > self._seconds:
                    self._closed = True
                else:
                    self._items, self._pos = self._make_round(), 0
                    self.rounds += 1
            if self._closed:
                if self._running == 0:
                    return None
                if self._pos == len(self._items):
                    self._items, self._pos = self._make_round(), 0
            item = self._items[self._pos]
            self._pos += 1
            if not self._closed:
                self._running += 1
            return item, not self._closed

    def done(self):
        """Report a counted item finished."""
        with self._lock:
            self._running -= 1


def _run_clients(target, count: int):
    """Run `count` client threads to completion; re-raise the first error."""
    errors: list[BaseException] = []

    def body(k):
        try:
            target(k)
        except BaseException as exc:  # reported to the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(k,)) for k in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _seeded(seed: int, *parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed,) + parts))


def _plaintext(license_id: str, rng: random.Random) -> catalog.LicensePlaintext:
    return catalog.LicensePlaintext(license_id=license_id, terms=f"terms of {license_id}",
                                    content_key=rng.randbytes(16), permissions=("play",))


def _seller(params, licenses: list[tuple[str, int]]):
    """Seller set-up with fixed keys: (keys, catalog, sealed plaintexts)."""
    rng = random.Random(SELLER_SEED)
    specs = []
    for license_id, price in licenses:
        plain = _plaintext(license_id, rng)
        specs.append(catalog.LicenseSpec(license_id=license_id, content_id=f"c-{license_id}",
                                         price=price, terms=plain.terms, plaintext=plain))
    keys, cat = catalog.setup(params, specs, rng=rng)
    return keys, cat, {sp.license_id: sp.plaintext for sp in specs}


def _issue(ledger, values) -> list[tuple[str, int]]:
    """Issue one card per value and sell them all to the store."""
    issued = [ledger.issue_cards(1, v)[0] for v in values]
    ledger.distribute([c.card_id for c in issued], STORE)
    return [(c.card_id, c.value) for c in issued]


class Market:
    """Bank and seller as in-process TCP servers; the seller reaches the bank
    through harness.RemoteBank, as `seller serve --bank` does."""

    def __init__(self, params, keys, cat, ledger_path: str, seed: int):
        self.ledger_path = ledger_path
        self.ledger = cards.CardLedger(path=ledger_path, rng=_seeded(seed, "cards"))
        self.bank_srv = wire.Server(LOCALHOST, 0, harness.make_bank_handler(self.ledger)).start()
        self.bank_ep = wire.connect(*self.bank_srv.address)
        self.seller_ops = harness.OpCounter()
        handler = purchase.SellerStepHandler(keys, params, harness.RemoteBank(self.bank_ep),
                                             ACCOUNT, ops=self.seller_ops)
        self.handler = Switch(harness.make_seller_handler(handler, cat))
        self.seller_srv = wire.Server(LOCALHOST, 0, self.handler).start()
        self.seller_addr = self.seller_srv.address

    def traced(self, tracer):
        self.handler.current = tracer.handler(self.handler.plain) if tracer else self.handler.plain

    def snapshot(self) -> tuple[int, int, int]:
        ops = self.seller_ops
        return ops.exponentiations, ops.signings, os.path.getsize(self.ledger_path)

    def pass_counts(self, before, served: int) -> dict[str, float]:
        """Seller billed counts per served step, and the bytes of the spend
        records the ledger file gained, in one pass."""
        exps, signings, _ = (b - a for a, b in zip(before, self.snapshot()))
        with open(self.ledger_path, "rb") as fh:
            fh.seek(before[2])
            spend_bytes = sum(len(line) for line in fh if line.split(b"\t")[1] == b"SPEND")
        return {"purchase.seller_exps_per_step": exps / served if served else 0.0,
                "purchase.seller_signings_per_step": signings / served if served else 0.0,
                "ledger_bytes": spend_bytes}

    def close(self):
        self.seller_srv.stop()
        self.bank_ep.close()
        self.bank_srv.stop()
        self.ledger.close()


def _spent_by_seller(ledger, card_ids) -> bool:
    return all(ledger.cards[c].status is cards.CardStatus.SPENT
               and ledger.cards[c].spent_by == ACCOUNT for c in card_ids)


def _ledger_problems(ledger, served: int, presented: int, earlier: int = 0) -> list[str]:
    """Conservation holds and the seller's balance, less `earlier` units
    credited before the run, equals the units it served.  A step that failed
    may still have been charged, so with failures the balance may lie
    anywhere between the units served and the units presented."""
    try:
        ledger.check_conservation()
    except LedgerCorrupt as exc:
        return [f"ledger: {exc}"]
    balance = ledger.balance(ACCOUNT) - earlier
    if served <= balance <= presented and (balance == served or served < presented):
        return []
    return [f"seller balance {balance}, served {served} units of {presented} presented"]


def _swapped(m: int, m_out: int, s: int, params, values) -> bool:
    """m_out is m raised with some step value's exponent: what a seller step
    computes after reading another step's reply from the shared
    harness.RemoteBank, the known race (see METRICS.md)."""
    return any(m_out == pow(m, pow(s, t, params.q), params.n) for t in values)


def _seller_count_problems(ops, served: int) -> list[str]:
    if ops.exponentiations == ops.signings == served:
        return []
    return [f"seller billed {ops.exponentiations} exponentiations and {ops.signings} "
            f"signings for {served} served steps"]


# --- purchase ------------------------------------------------------------------

class PurchaseWorkload:
    """Buyers (one by default) each run full purchases over TCP, one fresh
    connection per step, blinding refresh on.  A round buys enhanced prices
    1..31 and basic prices 1..4; op classes are purchases of 1, 2 and 3 or
    more steps."""

    name = "purchase"
    MULTISET = ([(purchase.MODE_ENHANCED, p) for p in range(1, 32)]
                + [(purchase.MODE_BASIC, p) for p in range(1, 5)])

    def __init__(self, params, seed: int, tmpdir: str, clients: int):
        self.params, self.seed, self.tmpdir, self.clients = params, seed, tmpdir, clients
        self._setups = 0

    def setup(self):
        self._setups += 1
        licenses = [(f"p{p:02d}", p) for p in range(1, 32)]
        keys, cat, sealed = _seller(self.params, licenses)
        market = Market(self.params, keys, cat,
                        os.path.join(self.tmpdir, f"ledger-{self._setups}.tsv"), self.seed)
        ep = wire.connect(*market.seller_addr)
        try:
            ep.send(wire.CatalogGet())
            doc = ep.recv()
        finally:
            ep.close()
        if not isinstance(doc, wire.CatalogDoc):
            raise SetupError(f"catalog request answered with {type(doc).__name__}")
        buyer_cat = catalog.parse_catalog(doc.text)
        problems = catalog.verify_catalog(buyer_cat)
        if problems:
            raise SetupError(f"catalog rejected: {problems}")
        env = SimpleNamespace()
        env.market, env.catalog, env.sealed, env.keys = market, buyer_cat, sealed, keys
        env.rounds_made = 0
        env.problems = []
        env.dead = []  # transcripts of purchases that ended without a plaintext
        env.log = []  # [card ids, units, served] per step sent
        env.prepared = [self._make_round(env)]
        return env

    def close(self, env):
        env.market.close()

    def _make_round(self, env):
        r = env.rounds_made
        env.rounds_made += 1
        order = list(self.MULTISET)
        _seeded(self.seed, "order", r).shuffle(order)
        items = []
        for i, (mode, price) in enumerate(order):
            powers = set(env.catalog.k_table) if mode == purchase.MODE_ENHANCED else {1}
            plan = purchase.plan_steps(price, powers)
            items.append((mode, f"p{price:02d}", _issue(env.market.ledger, plan),
                          f"{self.seed}/blind/{r}/{i}"))
        return items

    def run(self, env, seconds: float, tracer) -> Pass:
        span = tracer.span if tracer else _nospan
        env.market.traced(tracer)
        rounds = Rounds(lambda: env.prepared.pop() if env.prepared else self._make_round(env),
                        seconds)
        out = Pass()
        counters = []
        before, logged = env.market.snapshot(), len(env.log)

        def buyer(_):
            while (handed := rounds.next()) is not None:
                item, counted = handed
                steps: list[Step] = []
                try:
                    op, counter = self._purchase(env, item, span, steps)
                finally:
                    if counted:
                        rounds.done()
                if counted:
                    out.ops.append(op)
                    out.steps.extend(steps)
                    counters.append(counter)

        _run_clients(buyer, self.clients)
        env.market.traced(None)
        out.begin = rounds.begin
        out.end = max(op.end for op in out.ops)
        n = len(out.ops)
        served = sum(ok for _, _, ok in env.log[logged:])
        out.counts = {
            "purchase.steps_per_purchase": sum(c[2] for c in counters) / n,
            "purchase.buyer_exps_per_purchase": sum(c[0] for c in counters) / n,
            "purchase.buyer_divs_per_purchase": sum(c[1] for c in counters) / n,
            **env.market.pass_counts(before, served),
        }
        return out

    def _purchase(self, env, item, span, steps: list[Step]):
        mode, license_id, card_list, blind_seed = item
        values = dict(card_list)
        counter = harness.OpCounter()
        requests = 0

        def step_fn(req: purchase.StepRequest) -> purchase.StepResponse:
            nonlocal requests
            requests += 1
            card_ids = tuple(req.card_ids)
            entry = [card_ids, sum(values[c] for c in card_ids), False]
            env.log.append(entry)
            start = time.perf_counter()
            with span("wire.step", key=req.m):
                ep = wire.connect(*env.market.seller_addr)
                try:
                    sent = time.perf_counter()
                    ep.send(wire.StepReq(card_ids=card_ids, m=req.m))
                    reply = ep.recv()
                finally:
                    ep.close()
            steps.append(Step(start, sent, time.perf_counter(), req.m))
            if isinstance(reply, wire.StepResp):
                entry[2] = True
                return purchase.StepResponse(m_out=reply.m_out, step_signature=reply.signature)
            if isinstance(reply, wire.StepErr):
                raise StepRejected(reply.code, reply.detail)
            raise StepRejected("protocol", f"unexpected reply {type(reply).__name__}")

        session = plain = None
        start = time.perf_counter()
        with span("op"):
            try:
                session = purchase.buyer_begin(env.catalog, license_id, card_list, mode=mode,
                                               refresh_blinding=True,
                                               rng=random.Random(blind_seed), ops=counter)
                plain = purchase.run_purchase(session, step_fn)
            except BlindpayError:
                pass  # a failed op; counted below
        end = time.perf_counter()

        problems = env.problems
        if plain is not None and plain != env.sealed[license_id]:
            problems.append(f"{license_id}: decrypted plaintext differs from the sealed one")
        if session is not None:
            plan = len(session.plan)
            processed = len(session.transcripts)
            want = ((2 * plan, plan) if plain is not None
                    else (2 * max(requests, 1), processed))
            if (counter.exponentiations, counter.divisions) != want:
                problems.append(
                    f"{license_id}: buyer billed {counter.exponentiations} exponentiations and "
                    f"{counter.divisions} divisions, want {want[0]} and {want[1]}")
        if session is not None and plain is None:
            env.dead.append(session.transcripts)
        steps_done = len(session.plan) if session is not None else 0
        cls = min(max(steps_done, 1), 3)
        ok = plain is not None and plain == env.sealed[license_id]
        return (Op(cls, start, end, ok, steps_done),
                (counter.exponentiations, counter.divisions, steps_done))

    def step_ms(self, p: Pass) -> list[float]:
        return [s.ms for s in p.steps]

    def check(self, env, passes: list[Pass]) -> list[str]:
        problems = list(env.problems)
        ledger = env.market.ledger
        served = [(ids, units) for ids, units, ok in env.log if ok]
        for ids, _ in served:
            if not _spent_by_seller(ledger, ids):
                problems.append("a served step's cards are not spent to the seller")
                break
        problems += _seller_count_problems(env.market.seller_ops, len(served))
        p, s, values = self.params, env.keys.s, set(env.catalog.k_table)
        unexplained = sum(not _swapped(tr.m, tr.m_out, s, p, values)
                          for transcripts in env.dead for tr in transcripts)
        if unexplained:
            problems.append(f"{unexplained} step responses of failed purchases "
                            "match no step value")
        problems += _ledger_problems(ledger, sum(u for _, u in served),
                                     sum(u for _, u, _ in env.log))
        return problems


# --- seller_steps --------------------------------------------------------------

@dataclass
class StepItem:
    card_ids: tuple[str, ...]
    units: int
    m: int
    replay: bool

    @property
    def cls(self) -> int:
        return 3 if self.replay else (1 if len(self.card_ids) == 1 else 2)


class SellerStepsWorkload:
    """Persistent connections (one by default) send step requests blinded
    during set-up, so the clients do no group math.  Op classes: one-card
    steps, steps paid by several cards, and replays of spent cards (refused)."""

    name = "seller_steps"
    VALUES = (1, 2, 4, 8, 16)
    SPLITS = {2: (1, 1), 4: (2, 1, 1), 8: (4, 2, 2), 16: (8, 4, 4)}
    REPLAYS_PER_ROUND = 2  # of 20 steps: one in ten
    BURNT_CARDS = 4
    MAX_RATE = 120  # steps/s provisioned per pass; a faster seller ends its pass early

    def __init__(self, params, seed: int, tmpdir: str, clients: int, seconds: float,
                 passes: int):
        self.params, self.seed, self.tmpdir, self.clients = params, seed, tmpdir, clients
        self.capacity = int(seconds * self.MAX_RATE) * passes
        self._setups = 0

    def _round_specs(self):
        fresh = [(v,) for v in self.VALUES] + list(self.SPLITS.values())
        return 2 * fresh

    def setup(self):
        self._setups += 1
        keys, cat, _ = _seller(self.params, [("steps", max(self.VALUES))])
        market = Market(self.params, keys, cat,
                        os.path.join(self.tmpdir, f"ledger-{self._setups}.tsv"), self.seed)
        ledger, n = market.ledger, self.params.n
        x = cat.licenses[0].x
        burnt = _issue(ledger, [1] * self.BURNT_CARDS)
        for cid, _ in burnt:
            ledger.spend_atomic([cid], ACCOUNT)
        pool: list[StepItem] = []
        r = 0
        while len(pool) < self.capacity:
            rng = _seeded(self.seed, "round", r)
            items = []
            for denoms in self._round_specs():
                ids = tuple(c for c, _ in _issue(ledger, denoms))
                items.append((ids, sum(denoms), False))
            for _ in range(self.REPLAYS_PER_ROUND):
                items.append(((rng.choice(burnt)[0],), 1, True))
            rng.shuffle(items)
            for ids, units, replay in items:
                blind = pow(rng.randrange(2, n - 1), 2, n)  # uniform in the subgroup
                pool.append(StepItem(ids, units, blind * x % n, replay))
            r += 1
        env = SimpleNamespace()
        env.market, env.keys, env.pool, env.pos = market, keys, pool, 0
        env.burnt_units = self.BURNT_CARDS
        env.results = []  # (item, reply or None, op)
        env.conns = [wire.connect(*market.seller_addr) for _ in range(self.clients)]
        return env

    def close(self, env):
        for ep in env.conns:
            ep.close()
        env.market.close()

    def run(self, env, seconds: float, tracer) -> Pass:
        span = tracer.span if tracer else _nospan
        env.market.traced(tracer)
        lock = threading.Lock()
        before, first = env.market.snapshot(), len(env.results)
        out = Pass(begin=time.perf_counter())

        def client(k):
            while True:
                with lock:
                    if env.pos >= len(env.pool) or time.perf_counter() - out.begin >= seconds:
                        return
                    item = env.pool[env.pos]
                    env.pos += 1
                start = time.perf_counter()
                reply = None
                with span("op"):
                    with span("wire.step", key=item.m):
                        try:
                            env.conns[k].send(wire.StepReq(card_ids=item.card_ids, m=item.m))
                            reply = env.conns[k].recv()
                        except BlindpayError:
                            env.conns[k].close()
                            env.conns[k] = wire.connect(*env.market.seller_addr)
                end = time.perf_counter()
                op = Op(item.cls, start, end)
                out.ops.append(op)
                out.steps.append(Step(start, start, end, item.m))
                env.results.append((item, reply, op))

        _run_clients(client, self.clients)
        env.market.traced(None)
        out.end = max(op.end for op in out.ops)
        served = sum(isinstance(reply, wire.StepResp) for _, reply, _ in env.results[first:])
        out.counts = env.market.pass_counts(before, served)
        return out

    def step_ms(self, p: Pass) -> list[float]:
        return [s.ms for s in p.steps]

    def check(self, env, passes: list[Pass]) -> list[str]:
        p, s = self.params, env.keys.s
        ledger = env.market.ledger
        served = units = 0
        bad_signatures = unpaid = unexplained = 0
        for item, reply, op in env.results:
            if isinstance(reply, wire.StepResp):
                served += 1
                payload = purchase.step_payload(item.m, reply.m_out)
                bad_signatures += not catalog.verify_payload(env.keys.verify_pk, payload,
                                                             reply.signature)
                unpaid += not _spent_by_seller(ledger, item.card_ids)
                op.ok = (not item.replay
                         and reply.m_out == pow(item.m, pow(s, item.units, p.q), p.n))
                if not op.ok:
                    unexplained += not _swapped(item.m, reply.m_out, s, p, self.VALUES)
                units += 0 if item.replay else item.units
            else:
                op.ok = (item.replay and isinstance(reply, wire.StepErr)
                         and reply.code == "already-spent")
        problems = [f"{n} {what}" for n, what in
                    ((bad_signatures, "step responses carry an invalid signature"),
                     (unpaid, "served steps have cards not spent to the seller"),
                     (unexplained, "step responses match no step value")) if n]
        if any(ledger.cards[c].status is cards.CardStatus.SPENT
               for item in env.pool[env.pos:] if not item.replay for c in item.card_ids):
            problems.append("a card of a step never sent was spent")
        problems += _seller_count_problems(env.market.seller_ops, served)
        presented = sum(item.units for item, _, _ in env.results if not item.replay)
        problems += _ledger_problems(ledger, units, presented, env.burnt_units)
        return problems


# --- arbitrate -----------------------------------------------------------------

class ArbitrateWorkload:
    """One thread resolves recorded type-D cases, each under methods 1, 2
    and 3, with an in-process SellerDisputeAgent.  Op classes are the
    methods."""

    name = "arbitrate"
    # (purchase steps, step at which a wrong-s seller cheated, or None for a
    # false claim).  Every step is worth one unit, which keeps step values
    # at or below the cheapest license, as method 2 requires.  Each method's
    # median falls in the middle of the six false claims over 2 steps, ops
    # of equal cost, so one op slowed by the machine cannot move it far.
    CASES = ((1, None), (2, None), (2, None), (2, None), (2, None), (2, None), (2, None),
             (3, None), (4, None), (2, 1), (4, 2))
    AUDIT_POOL = ("audit-a", "audit-b")

    def __init__(self, params, seed: int, tmpdir: str):
        self.params, self.seed, self.tmpdir = params, seed, tmpdir
        self._setups = 0

    def setup(self):
        self._setups += 1
        licenses = [(f"arb-{k}", k) for k in range(1, 5)] + [(a, 1) for a in self.AUDIT_POOL]
        keys, cat, sealed = _seller(self.params, licenses)
        ledger = cards.CardLedger(path=os.path.join(self.tmpdir, f"ledger-{self._setups}.tsv"),
                                  rng=_seeded(self.seed, "cards"))
        seller_ops = harness.OpCounter()
        handler = purchase.SellerStepHandler(keys, self.params, ledger, ACCOUNT, ops=seller_ops)
        cases, problems = [], []
        for i, (steps, fault_step) in enumerate(self.CASES):
            license_id = f"arb-{steps}"
            seller = harness.FaultingSeller(handler, "wrong-s" if fault_step else "none",
                                            fault_step or 0)
            counter = harness.OpCounter()
            session = purchase.buyer_begin(cat, license_id, _issue(ledger, [1] * steps),
                                           mode=purchase.MODE_BASIC, refresh_blinding=True,
                                           rng=_seeded(self.seed, "blind", i), ops=counter)
            try:
                plain = purchase.run_purchase(session, seller.handle)
            except AuthenticationFailure:
                plain = None
            if (plain is None) != (fault_step is not None):
                raise SetupError(f"case {i}: purchase outcome does not match its fault")
            if plain is not None and plain != sealed[license_id]:
                problems.append(f"case {i}: decrypted plaintext differs from the sealed one")
            if (counter.exponentiations, counter.divisions) != (2 * steps, steps):
                problems.append(f"case {i}: buyer billed {counter.exponentiations} "
                                f"exponentiations and {counter.divisions} divisions")
            expected = ((dispute.SELLER_AT_FAULT, fault_step) if fault_step
                        else (dispute.BUYER_CLAIM_REJECTED, steps))
            cases.append((dispute.build_type_d_case(cat, session), expected))
        total_steps = sum(steps for steps, _ in self.CASES)
        problems += _seller_count_problems(seller_ops, total_steps)
        cheapest = min(e.price for e in cat.licenses)
        env = SimpleNamespace()
        env.cases, env.problems, env.ledger, env.units = cases, problems, ledger, total_steps
        env.agent = dispute.SellerDisputeAgent(keys, cat, rng=_seeded(self.seed, "agent"))
        # The audited license is drawn among the cheapest ones, so the audit
        # chain (and with it method 2's cost) does not depend on the seed.
        env.audit_catalog = dataclasses.replace(
            cat, licenses=[e for e in cat.licenses if e.price == cheapest])
        env.rounds_made = 0
        return env

    def close(self, env):
        env.ledger.close()

    def _make_round(self, env):
        r = env.rounds_made
        env.rounds_made += 1
        items = [(i, method) for i in range(len(env.cases)) for method in (1, 2, 3)]
        _seeded(self.seed, "order", r).shuffle(items)
        return [(i, method, f"{self.seed}/audit/{r}/{j}") for j, (i, method) in enumerate(items)]

    def run(self, env, seconds: float, tracer) -> Pass:
        span = tracer.span if tracer else _nospan
        rounds = Rounds(lambda: self._make_round(env), seconds)
        out = Pass()
        while (handed := rounds.next()) is not None:
            (i, method, audit_seed), _ = handed
            recorded, expected = env.cases[i]
            case = copy.deepcopy(recorded)
            verdict = None
            start = time.perf_counter()
            with span("op"):
                try:
                    if method == 1:
                        verdict = dispute.resolve_type_d_method1(case, env.agent)
                    elif method == 2:
                        verdict = dispute.resolve_type_d_method2(
                            case, env.audit_catalog, env.agent, random.Random(audit_seed))
                    else:
                        verdict = dispute.resolve_type_d_method3(case, env.agent.reveal_s())
                except BlindpayError:
                    pass  # a failed op; counted below
            end = time.perf_counter()
            got = (verdict.outcome, verdict.checked_steps) if verdict else None
            if got != expected:
                env.problems.append(f"case {i} method {method}: verdict {got}, want {expected}")
            out.ops.append(Op(method, start, end, got == expected, expected[1]))
            rounds.done()
        out.begin = rounds.begin
        out.end = out.ops[-1].end
        return out

    def step_ms(self, p: Pass) -> list[float]:
        """Arbitration time per evidence step checked."""
        return [op.ms / op.steps for op in p.ops]

    def check(self, env, passes: list[Pass]) -> list[str]:
        return env.problems + _ledger_problems(env.ledger, env.units, env.units)
