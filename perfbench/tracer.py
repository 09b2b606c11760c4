"""Span recorder for the traced run.

Wrappers are installed at the module and class attributes through which
the layers call one another (for example ``blindpay.purchase.pow_mod``
and ``blindpay.group.is_member``), so no file of the program changes and
the untraced run executes none of this code.  Spans stay in memory until
the run ends.  Nesting is tracked per thread: a span's self time is its
duration minus the time covered by its direct children in the same
thread.  Server-side spans of a step are tied to the client's step by the
blinded request value, which is recorded here only and never sent.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    idx: int
    parent: int | None  # idx of the enclosing span in the same thread
    phase: str  # "setup" or "window"
    start: float
    end: float
    child: float  # time covered by direct children
    key: object = None  # pairs client and server spans of one step
    failed: bool = False  # the call raised
    size: int = 0  # bytes produced, for the encoder

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _step_key(args):
    msg = args[0] if args else None
    return getattr(msg, "m", None)


def _encoded(args, result):
    return type(args[0]).__name__, len(result)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def _frames(self) -> list[list]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _enter(self):
        frames = self._frames()
        idx = next(self._ids)
        parent = frames[-1][0] if frames else None
        frames.append([idx, 0.0])
        return frames, idx, parent

    def _exit(self, frames, name, idx, parent, start, key=None, failed=False, size=0):
        end = time.perf_counter()
        _, child = frames.pop()
        if frames:
            frames[-1][1] += end - start
        self.spans.append(Span(name, idx, parent, self.phase, start, end, child,
                               key, failed, size))

    def _call(self, name, fn, args, kwargs, key=None, sizer=None):
        frames, idx, parent = self._enter()
        failed, size = True, 0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            if sizer is not None:
                key, size = sizer(args, result)
            return result
        finally:
            self._exit(frames, name, idx, parent, start, key, failed, size)

    @contextlib.contextmanager
    def span(self, name: str, key=None):
        """A span around a block of the benchmark's own code."""
        frames, idx, parent = self._enter()
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            self._exit(frames, name, idx, parent, start, key, failed)

    def wrap(self, fn, name: str, key_of=None, sizer=None):
        def traced(*args, **kwargs):
            key = key_of(args) if key_of is not None else None
            return self._call(name, fn, args, kwargs, key, sizer)
        return traced

    def _patch(self, owner, attr: str, name: str, sizer=None):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, sizer=sizer))

    def install(self, bp):
        """Wrap every layer boundary of the blindpay package ``bp``."""
        g, cards, cat, pur, dis, wire, har = (bp.group, bp.cards, bp.catalog, bp.purchase,
                                              bp.dispute, bp.wire, bp.harness)
        table = [
            ((g, pur, cat), "pow_mod", "group.pow_mod"),
            ((g, cat), "is_member", "group.is_member"),
            ((g, dis), "dleq_prove", "group.dleq_prove"),
            ((g, dis), "dleq_verify", "group.dleq_verify"),
            ((g, pur), "div_mod", "group.div_mod"),
            ((g.GroupParams,), "validate", "group.validate"),
            ((g, cat), "hash_to_group", "group.hash_to_group"),
            ((cards.CardLedger,), "issue_cards", "cards.issue"),
            ((cards.CardLedger,), "spend_atomic", "cards.spend_atomic"),
            ((cat,), "setup", "catalog.setup"),
            ((cat,), "parse_catalog", "catalog.parse_catalog"),
            ((cat,), "verify_catalog", "catalog.verify_catalog"),
            ((cat, pur, dis), "sign_payload", "catalog.sign_payload"),
            ((cat, pur, dis), "verify_payload", "catalog.verify_payload"),
            ((cat, pur, dis), "decrypt_license", "catalog.decrypt_license"),
            ((pur,), "buyer_begin", "purchase.buyer_begin"),
            ((pur,), "buyer_step_request", "purchase.buyer_step_request"),
            ((pur,), "buyer_process_response", "purchase.buyer_process_response"),
            ((pur,), "buyer_finish", "purchase.buyer_finish"),
            ((pur,), "seller_handle_step", "purchase.seller_handle_step"),
            ((dis,), "resolve_type_d_method1", "dispute.method1"),
            ((dis,), "resolve_type_d_method2", "dispute.method2"),
            ((dis,), "resolve_type_d_method3", "dispute.method3"),
            ((dis.SellerDisputeAgent,), "prove", "dispute.agent_prove"),
            ((dis.SellerDisputeAgent,), "reveal_chain", "dispute.agent_reveal_chain"),
            ((wire,), "decode", "wire.decode"),
            ((wire,), "connect", "wire.connect"),
            ((har.RemoteBank,), "spend_atomic", "wire.bank_rtt"),
        ]
        for owners, attr, name in table:
            for owner in owners:
                self._patch(owner, attr, name)
        self._patch(wire, "encode", "wire.encode", sizer=_encoded)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def handler(self, handle):
        """Trace a server's message handler, keyed by the step's request."""
        return self.wrap(handle, "wire.handler", key_of=_step_key)


class Switch:
    """Message handler given to a server at set-up, so that the traced pass
    can swap in a traced handler without restarting the server."""

    def __init__(self, handle):
        self.plain = handle
        self.current = handle

    def __call__(self, msg):
        return self.current(msg)


# --- per-layer metrics -------------------------------------------------------

def _by_name(spans):
    out: dict[str, list[Span]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int, setups: int, method_ops: dict[int, int],
                  steps: list, counts: dict[str, float], purchases: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ops: ops in the traced pass; setups: traced set-ups; method_ops: ops
    per type-D method; steps: client steps (start, sent, end, key);
    counts: counts the workload took itself, with the bytes its ledger
    file grew by under "ledger_bytes"; purchases: purchases in the pass.
    """
    counts = dict(counts)
    ledger_bytes = counts.pop("ledger_bytes", 0)
    win = _by_name(s for s in tracer.spans if s.phase == "window")
    setup = _by_name(s for s in tracer.spans if s.phase == "setup")
    per_op = max(ops, 1)
    out: dict[str, float] = {}

    def calls(name, metric):
        out[f"{metric}.calls"] = len(win.get(name, ())) / per_op

    def self_ms(name, metric, base=per_op):
        out[f"{metric}.self_ms"] = 1e3 * sum(s.self_time for s in win.get(name, ())) / max(base, 1)

    for name in ("group.pow_mod", "group.is_member", "group.dleq_prove", "group.dleq_verify",
                 "cards.spend_atomic", "catalog.sign_payload", "catalog.verify_payload",
                 "dispute.agent_prove"):
        calls(name, name)
        self_ms(name, name)
    for name in ("group.div_mod", "catalog.decrypt_license", "purchase.buyer_begin",
                 "purchase.buyer_step_request", "purchase.buyer_process_response",
                 "purchase.buyer_finish", "purchase.seller_handle_step",
                 "dispute.agent_reveal_chain", "wire.encode", "wire.decode"):
        self_ms(name, name)
    for k in (1, 2, 3):
        self_ms(f"dispute.method{k}", f"dispute.method{k}", method_ops.get(k, 0))

    n_setups = max(setups, 1)
    for name, metric in (("group.validate", "group.validate_ms"),
                         ("group.hash_to_group", "group.hash_to_group_ms"),
                         ("catalog.setup", "catalog.setup_ms"),
                         ("catalog.parse_catalog", "catalog.parse_catalog_ms"),
                         ("catalog.verify_catalog", "catalog.verify_catalog_ms"),
                         ("cards.issue", "cards.issue_ms")):
        out[metric] = 1e3 * sum(s.dur for s in setup.get(name, ())) / n_setups

    spends = win.get("cards.spend_atomic", [])
    refused = sum(s.failed for s in spends)
    out["cards.spend_refused_ratio"] = refused / len(spends) if spends else 0.0
    accepted = len(spends) - refused
    out["cards.ledger_bytes_per_spend"] = ledger_bytes / accepted if accepted else 0.0

    handlers = {s.key: s for s in win.get("wire.handler", ()) if s.key is not None}
    paired = [(st, handlers[st.key]) for st in steps if st.key in handlers]
    out["wire.step_rtt_overhead_ms"] = 1e3 * _mean((st.end - st.start) - h.dur
                                                   for st, h in paired)
    out["wire.handler_wait_ms"] = 1e3 * _mean(h.start - st.sent for st, h in paired)
    out["wire.bank_rtt_ms"] = 1e3 * _mean(s.dur for s in win.get("wire.bank_rtt", ()))
    out["wire.connections_per_purchase"] = (len(win.get("wire.connect", ())) / purchases
                                            if purchases else 0.0)
    step_bytes = sum(s.size + 4 for s in win.get("wire.encode", ())
                     if s.key in ("StepReq", "StepResp", "StepErr"))
    out["wire.bytes_per_step"] = step_bytes / len(steps) if steps else 0.0

    m12 = method_ops.get(1, 0) + method_ops.get(2, 0)
    out["dispute.proofs_per_case"] = (len(win.get("dispute.agent_prove", ())) / m12
                                      if m12 else 0.0)

    op_spans = win.get("op", [])
    total = sum(s.dur for s in op_spans)
    out["trace.unattributed_share"] = (sum(s.self_time for s in op_spans) / total
                                       if total else 0.0)
    out.update(counts)
    return out
