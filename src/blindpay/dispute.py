"""Arbitration of buyer/seller conflicts.

Three resolvable dispute kinds:

  B - the decrypted license does not match the publicly signed terms;
  C - a step response carried a corrupt signature;
  D - every step looked fine but the assembled key opens nothing.

(The fourth conceivable conflict, a seller claiming non-payment, cannot
arise: without completing the steps the buyer holds only blinded values.)

Type D has three proof methods, all anchored in the seller's public
commitments: equality proofs against the K table, an audited key chain
for a randomly chosen license, or outright disclosure of the generation
factor.  All three batch: every step of value t uses the exponent s^t,
so one check over a composite of those steps (group.dleq_composite)
covers them all, a proof for methods 1 and 2 and one power for method 3.
A false step survives the fold with probability about 2^-128.  A batch
that fails falls back to one check per step, which names the first bad
step; a record without batch proofs still replays to the same verdicts.
Each proof is checked by one bare group.dleq_verify call, False alike for
a withheld proof, a value outside the subgroup and a false proof.

The case record is the only channel between the parties.  The buyer
fills its kind, group and step lines, and for kind B the license lines
(settle_purchase).  Only answer_case (``blindpay seller answer``) fills
the seller's lines, and asks the seller agent only where the timeout
rule would convict it on the unanswered record; resolve_case judges a
record against the seller's catalog (check_commitments), for
``blindpay arbitrate`` and the scenario runner.  A record carries no
value the arbitrator already holds: the audited license's factor, price
and blob are the catalog's, type B's key is replayed from its steps, and
type C's m is the step's.
Evidence for kinds C and D carries only blinded request/response pairs:
the arbitrator never sees card identifiers, the license factor, or
anything naming the buyer.
"""

from __future__ import annotations

import hashlib
import random
from collections import namedtuple
from dataclasses import MISSING, astuple, dataclass, field, fields, replace

from .catalog import (
    GROUP_KEYS,
    Catalog,
    LicensePlaintext,
    decrypt_license,
    group_fields,
    read_group,
    sign_payload,
    verify_payload,
    verify_terms,
)
from .encoding import B64, HEX, INT, INTS, PAIR, STR, Codec, RecordFormat
from .errors import AuthenticationFailure, BadStepSignature, MalformedEvidence, UnknownLicense
from .group import (
    SYSTEM_RANDOM,
    DlEqProof,
    GroupParams,
    div_mod,
    dleq_composite,
    dleq_prove,
    dleq_verify,
    ensure_member,
    is_member,
    pow_fast,
)
from .purchase import STEP, StepTranscript, run_purchase, step_payload

SELLER_AT_FAULT = "seller-at-fault"
BUYER_CLAIM_REJECTED = "buyer-claim-rejected"
SELLER_MUST_RESIGN = "seller-must-resign"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    rationale: str
    checked_steps: int = 0


def _read_proof(text: str) -> DlEqProof | None:
    if text == "-":
        return None
    a1, a2, c, z = INTS.read(text)
    return DlEqProof(commitment_a=a1, commitment_b=a2, challenge=c, response=z)


def _read_batch(text: str) -> tuple[tuple[str, int], DlEqProof | None]:
    family, t, proof = text.split(" ", 2)
    if family not in ("step", "segment", "link"):
        raise ValueError(f"unknown batch proof kind {family!r}")
    return (family, INT.read(t)), _PROOF.read(proof)


def _read_kind(text: str) -> str:
    if text not in ("B", "C", "D"):
        raise ValueError(f"want B, C or D, got {text!r}")
    return text


# A proof withheld or not given is "-"; a batch proof is ((family, t), proof).
_PROOF = Codec(lambda pr: "-" if pr is None else INTS.write(astuple(pr)), _read_proof)
_BATCH = Codec(lambda b: f"{b[0][0]} {b[0][1]} {_PROOF.write(b[1])}", _read_batch)


_Line = namedtuple("_Line", "key codec many seller kind")


def _line(key: str, codec: Codec, default=None, *, many=False, seller=False, kind=""):
    """A DisputeCase field and its record line.  default is the value with no
    line, or a factory the line values go through.  A field that repeats has
    a line per item (a dict's items in order); a seller's line is filled by
    answer_case alone.  A line of a kind is in every record of that kind and
    read from no other: a stray one is read as absent."""
    default = {"default_factory" if callable(default) else "default": default}
    return field(**default, metadata={"line": _Line(key, codec, many, seller, kind)})


@dataclass
class DisputeCase:
    """A dispute case and the one declaration of its record: the kind and group
    lines, then each field's line in field order.  None or [] writes no line."""

    kind: str
    params: GroupParams
    verify_pk: bytes
    k_table: dict[int, int]
    steps: list[StepTranscript] = _line("step", STEP, list, many=True)  # alpha: type B only
    # type B: the buyer gives up the license to prove the claim, as the
    # seller's signed terms showed it; the key is replayed from the steps
    license_id: str = _line("license", STR, "", kind="B")
    x: int = _line("x", INT, 0, kind="B")
    published_terms: str = _line("published_terms", STR, "", kind="B")
    encrypted_license: bytes = _line("blob", B64, b"", kind="B")
    terms_signature: bytes = _line("terms_signature", HEX, b"", kind="B")
    # the seller's lines: its answer to a type C claim (its response to the
    # step's m), then to a type D claim
    seller_m_out: int | None = _line("seller_m_out", INT, seller=True)
    seller_resign: bytes | None = _line("seller_resign", HEX, seller=True)
    seller_proof: DlEqProof | None = _line("seller_proof", _PROOF, seller=True)
    step_proofs: list[DlEqProof] | None = _line("step_proof", _PROOF, many=True, seller=True)
    # method 2: a catalog license and its key chain x^s, ..., x^(s^price)
    audit_license_id: str | None = _line("audit_license", STR, seller=True)
    chain: list[int] | None = _line("chain", INTS, seller=True)
    link_proofs: list[DlEqProof] | None = _line("link_proof", _PROOF, many=True, seller=True)
    segment_proofs: list[DlEqProof] | None = _line("segment_proof", _PROOF, many=True,
                                                   seller=True)
    # one proof per ("step" | "segment", t) or ("link", 1); see _first_unproven
    batch_proofs: dict[tuple[str, int], DlEqProof] = _line("batch_proof", _BATCH, dict,
                                                           many=True, seller=True)
    # method 3's disclosed factor: resolve_type_d_method3 takes it, answer_case never
    s_revealed: int | None = _line("s_revealed", INT, seller=True)


_LINES = [(f, f.metadata["line"]) for f in fields(DisputeCase) if "line" in f.metadata]
_SELLER_FIELDS = {f.name for f, line in _LINES if line.seller}
CASE = RecordFormat(
    "case",
    once={"kind": Codec(str, _read_kind), **GROUP_KEYS,
          **{line.key: line.codec for _, line in _LINES if not line.many}},
    many={"ktable": PAIR, **{line.key: line.codec for _, line in _LINES if line.many}},
    error=MalformedEvidence)


def write_case(case: DisputeCase) -> str:
    out = [("kind", case.kind), *group_fields(case.params, case.verify_pk, case.k_table)]
    for f, line in _LINES:
        value = getattr(case, f.name)
        if line.many:
            items = sorted(value.items()) if isinstance(value, dict) else value or []
            out += [(line.key, item) for item in items]
        elif case.kind == line.kind if line.kind else value is not None:
            out.append((line.key, value))
    return CASE.write(out)


def parse_case(text: str) -> DisputeCase:
    rec = CASE.read(text)
    params, verify_pk, k_table = read_group(rec)
    # Membership checks on the evidence mean "in the order-q subgroup"
    # only for a safe-prime group, so a record's group is checked first.
    try:
        params.validate()
    except ValueError as exc:
        raise MalformedEvidence(f"case record group invalid: {exc}") from None
    kind, values = rec["kind"], {}
    for f, line in _LINES:
        if line.many:
            items = rec[line.key]
            values[f.name] = f.default_factory(items) if f.default is MISSING else items or None
        elif kind == line.kind if line.kind else line.key in rec:
            values[f.name] = rec[line.key]
    return DisputeCase(kind=kind, params=params, verify_pk=verify_pk, k_table=k_table, **values)


# --- case builders ------------------------------------------------------------

def build_type_b_case(catalog: Catalog, session) -> DisputeCase:
    """Terms-mismatch claim.  Reveals the license and the per-step blinding
    exponents; that loss of privacy is the price of a type B claim."""
    entry = session.entry
    return DisputeCase(
        kind="B", params=catalog.params, verify_pk=catalog.verify_pk,
        k_table=dict(catalog.k_table), steps=list(session.transcripts),
        license_id=entry.license_id, x=entry.x, published_terms=entry.terms,
        encrypted_license=entry.encrypted_license,
        terms_signature=entry.terms_signature,
    )


def build_type_c_case(catalog: Catalog, bad) -> DisputeCase:
    """Corrupt-signature claim from a BadStepSignature error."""
    return DisputeCase(kind="C", params=catalog.params, verify_pk=catalog.verify_pk,
                       k_table=dict(catalog.k_table), steps=[bad.step])


def build_type_d_case(catalog: Catalog, session) -> DisputeCase:
    """Dead-key claim.  Only blinded pairs and signatures: the disputed
    license stays private."""
    return DisputeCase(kind="D", params=catalog.params, verify_pk=catalog.verify_pk,
                       k_table=dict(catalog.k_table),
                       steps=[replace(tr, alpha=None) for tr in session.transcripts])


def settle_purchase(session, step_fn) -> tuple[str, LicensePlaintext | None, DisputeCase | None]:
    """Run the purchase; return (outcome, the license if it opened, the case
    filed or None).  The buyer's one rule: a bad step signature files C, a dead
    key D, terms other than the catalog's B; a StepRejected propagates."""
    cat = session.catalog
    try:
        plain = run_purchase(session, step_fn)
    except BadStepSignature as bad:
        return "aborted:bad-step-signature", None, build_type_c_case(cat, bad)
    except AuthenticationFailure:
        return "key-unusable", None, build_type_d_case(cat, session)
    case = build_type_b_case(cat, session) if plain.terms != session.entry.terms else None
    return "completed", plain, case


# --- seller-side arbitration agent ---------------------------------------------

class SellerDisputeAgent:
    """The seller's prover.  Answers value queries, produces equality
    proofs, reveals chains or the generation factor.  Always answers from
    its true secrets; a seller who misbehaved during the purchase is
    exposed precisely because honest proofs fail on dishonest values.

    It keeps the powers it derives from its own s, each computed once:
    g^(s^t) for each t in the catalog's K table, and x^(s^j) for
    0 <= j <= price for each license factor x.  The store is bounded by the
    catalog, and a base the asker chose is never stored.  prove checks a
    claimed g or factor power against the store, never against the
    catalog's K table (ROADMAP item 4a), and reveal_chain reads it."""

    def __init__(self, keys, catalog: Catalog, rng: random.Random = SYSTEM_RANDOM):
        self.keys = keys
        self.catalog = catalog
        self.rng = rng
        self._prices: dict[int, int] = {}  # license factor x -> its highest price
        for e in catalog.licenses:
            self._prices[e.x] = max(e.price, self._prices.get(e.x, 0))
        self._powers: dict[tuple[int, int], int] = {}

    @property
    def params(self) -> GroupParams:
        return self.catalog.params

    def _own_power(self, base: int, t: int) -> int | None:
        """base^(s^t) from the store, for g with t in the K table or a
        license factor with 0 <= t <= its price; None for any other base."""
        p = self.params
        if not (base == p.g and t in self.catalog.k_table
                or 0 <= t <= self._prices.get(base, -1)):
            return None
        if t == 0:
            return base
        if (base, t) not in self._powers:
            self._powers[base, t] = pow_fast(base, pow(self.keys.s, t, p.q), p)
        return self._powers[base, t]

    def original_values(self, m: int, t: int) -> tuple[int, int]:
        """Recompute what this seller would have responded to request m.
        A non-member m, which the step handler refuses, raises
        MalformedElement; a value t outside the K table, whose response no
        key unblinds, raises ValueError."""
        p = self.params
        ensure_member(m, p)
        if t not in self.catalog.k_table:
            raise ValueError(f"no step value {t} in the K table")
        return m, pow_fast(m, pow(self.keys.s, t, p.q), p)

    def sign_values(self, m: int, m_out: int) -> bytes:
        return sign_payload(self.keys.sign_sk, step_payload(m, m_out))

    def prove(self, base1: int, y1: int, base2: int, y2: int, t: int) -> DlEqProof | None:
        """Equality proof with secret s^t, made only for a true statement:
        all four values subgroup members, y1 = base1^(s^t) and
        y2 = base2^(s^t).  Otherwise None, which every resolver scores as a
        failed proof.  A proof of a statement the asker picked would hand it
        base1^(s^t), since a Chaum-Pedersen transcript determines y1; for
        base1 = x that is a license key."""
        p = self.params
        # y1 and y2 equal powers of member bases, hence are members, exactly
        # when the bases are members and the claim below holds.
        if not (is_member(base1, p) and is_member(base2, p)):
            return None
        secret = pow(self.keys.s, t, p.q)
        return dleq_prove(secret, base1, base2, p, self.rng, claim=(y1, y2),
                          y2=self._own_power(base2, t))

    def reveal_chain(self, license_id: str) -> list[int]:
        """x^s, ..., x^(s^price) for the license's factor x."""
        entry = self.catalog.entry(license_id)
        return [self._own_power(entry.x, j) for j in range(1, entry.price + 1)]

    def reveal_s(self) -> int:
        return self.keys.s


# --- resolvers -----------------------------------------------------------------

def resolve_type_b(case: DisputeCase) -> Verdict:
    """Check the seller's public commitment against what the key opened.

    The key is replayed from the record: x, then each step's response
    unblinded.  The seller is at fault only when every buyer-provided piece
    checks out (signature, blinding chain, decryption) and the embedded
    terms still differ from the published ones.  Any broken piece rejects
    the claim and names the failing check.
    """
    if case.kind != "B":
        raise MalformedEvidence(f"type B resolver got kind {case.kind!r}")
    if not case.steps:
        raise MalformedEvidence("no transcript steps in evidence")
    p = case.params
    if not verify_terms(case.verify_pk, case.published_terms, case.encrypted_license,
                        case.terms_signature):
        return Verdict(BUYER_CLAIM_REJECTED, "terms signature invalid", 0)
    acc = case.x
    for i, st in enumerate(case.steps, 1):
        if st.alpha is None:
            raise MalformedEvidence(f"step {i}: blinding exponent missing")
        if not _step_signed(case, st):
            return Verdict(BUYER_CLAIM_REJECTED, f"step {i}: step signature invalid", i)
        expected_m = (pow_fast(p.g, st.alpha, p) * acc) % p.n
        if st.m != expected_m:
            return Verdict(BUYER_CLAIM_REJECTED,
                           f"step {i}: request inconsistent with blinding exponent", i)
        k = case.k_table.get(st.t)
        if k is None:
            raise MalformedEvidence(f"step {i}: no unblinding key for value {st.t}")
        unblinder = pow_fast(k, st.alpha, p)
        acc = div_mod(st.m_out, unblinder, p)
    try:
        plain = decrypt_license(acc, case.encrypted_license)
    except AuthenticationFailure:
        return Verdict(BUYER_CLAIM_REJECTED,
                       "key does not decrypt the license (raise type D instead)",
                       len(case.steps))
    if plain.terms != case.published_terms:
        return Verdict(SELLER_AT_FAULT,
                       f"license terms {plain.terms!r} differ from published "
                       f"{case.published_terms!r}", len(case.steps))
    return Verdict(BUYER_CLAIM_REJECTED, "decrypted terms match the published terms",
                   len(case.steps))


def resolve_type_c(case: DisputeCase) -> Verdict:
    """Corrupt step signature, judged from the record alone.

    Valid signature: claim rejected.  A claim about a non-member m, which
    the step handler refuses, or a value t with no unblinding key, whose
    response opens nothing, is rejected before the seller's lines are read.
    The seller answers with its response to the step's m.  The same
    response: the remedy is a fresh valid signature.  Another response:
    escalate, the seller must prove it; success rejects the claim (and the
    proven response goes to the buyer), failure obliges the seller to sign
    the buyer's values.  No answer at all is treated as fault by timeout.
    """
    if case.kind != "C":
        raise MalformedEvidence(f"type C resolver got kind {case.kind!r}")
    if len(case.steps) != 1:
        raise MalformedEvidence("type C evidence is exactly one step")
    st = case.steps[0]
    if _step_signed(case, st):
        return Verdict(BUYER_CLAIM_REJECTED, "presented signature is valid", 1)
    if not is_member(st.m, case.params):
        return Verdict(BUYER_CLAIM_REJECTED, "request is not a subgroup member", 1)
    k = case.k_table.get(st.t)
    if k is None:
        return Verdict(BUYER_CLAIM_REJECTED, f"no unblinding key for step value {st.t}", 1)
    if case.seller_m_out is None:
        return Verdict(SELLER_AT_FAULT, "seller unresponsive within the deadline", 1)

    if case.seller_m_out == st.m_out:
        if case.seller_resign is None or not _step_signed(
                case, replace(st, signature=case.seller_resign)):
            return Verdict(SELLER_AT_FAULT,
                           "seller failed to produce a valid signature on agreed values", 1)
        return Verdict(SELLER_MUST_RESIGN,
                       "seller acknowledged the values; valid signature reissued", 1)
    if dleq_verify(case.seller_proof, st.m, case.seller_m_out, case.params.g, k, case.params):
        return Verdict(BUYER_CLAIM_REJECTED,
                       "seller proved its values correct; proven response forwarded", 1)
    return Verdict(SELLER_MUST_RESIGN,
                   "seller could not prove its values; must sign the buyer's values", 1)


def resolve_type_d_method1(case: DisputeCase,
                           seller: SellerDisputeAgent | None = None) -> Verdict:
    """Equality proofs against the public K table.

    For the steps of value t the seller proves that each response is the
    request raised to the very exponent committed in K_t: one batched proof
    for all of them, or one proof per step where the batch fails.  Nothing
    private leaves the seller.
    """
    _require_d(case)
    g = case.params.g

    def k_power(t: int) -> tuple[int, int]:
        if t not in case.k_table:
            raise MalformedEvidence(f"no unblinding key for value {t}")
        return g, case.k_table[t]

    i = _first_unproven(case, "step", _step_pairs(case), k_power, seller)
    if i is not None:
        return Verdict(SELLER_AT_FAULT,
                       f"step {i + 1}: response not proven consistent with "
                       f"K_{case.steps[i].t}", i + 1)
    return Verdict(BUYER_CLAIM_REJECTED, "all steps proven correct; seller is honest",
                   len(case.steps))


def resolve_type_d_method2(case: DisputeCase, catalog: Catalog,
                           seller: SellerDisputeAgent | None = None,
                           rng: random.Random = SYSTEM_RANDOM) -> Verdict:
    """Audit a random license's key chain and tie the disputed steps to it.

    The record names the audited license, whose factor x, price and blob
    the catalog holds, and the seller reveals the tower x^s, ... up to its
    key.  The seller proves every link uses one exponent, proves each
    disputed step used that same exponent (per step value), and the
    revealed key must actually open the audited license.  The links share
    one batched proof, and so do the steps of each value; a batch that
    fails falls back to one proof per link or step.  Only a live seller is
    asked to audit a license drawn from rng among those priced at least
    the largest step value; a replay draws nothing.
    """
    _require_d(case)
    if case.chain is None and seller is not None:
        if case.audit_license_id is None:
            top = max(st.t for st in case.steps)
            if not (pool := [e for e in catalog.licenses if e.price >= top]):
                raise MalformedEvidence(f"no license of price {top} or more to audit")
            case.audit_license_id = rng.choice(pool).license_id
        case.chain = seller.reveal_chain(case.audit_license_id)
    if case.chain is None:
        return Verdict(SELLER_AT_FAULT, "seller unresponsive within the deadline", 0)
    if case.audit_license_id is None:
        raise MalformedEvidence("chain recorded without its audited license")
    try:
        audited = catalog.entry(case.audit_license_id)
    except UnknownLicense:
        return Verdict(SELLER_AT_FAULT, "audited license is not the catalog's", 0)
    if len(case.chain) != audited.price:
        raise MalformedEvidence(
            f"chain has {len(case.chain)} entries for price {audited.price}")
    chain = [audited.x, *case.chain]
    try:
        decrypt_license(chain[-1], audited.encrypted_license)
    except AuthenticationFailure:
        return Verdict(SELLER_AT_FAULT,
                       "revealed key does not decrypt the audited license", 0)

    links = [(chain[j - 1], chain[j], 1, True) for j in range(2, len(chain))]
    j = _first_unproven(case, "link", links, lambda t: (chain[0], chain[1]), seller)
    if j is not None:
        return Verdict(SELLER_AT_FAULT, f"chain link {j + 2} not proven", 0)

    def segment(t: int) -> tuple[int, int]:
        if t > audited.price:
            raise MalformedEvidence(
                f"step value {t} exceeds audited chain length {audited.price}")
        return chain[0], chain[t]

    i = _first_unproven(case, "segment", _step_pairs(case), segment, seller)
    if i is not None:
        return Verdict(SELLER_AT_FAULT,
                       f"step {i + 1}: response not proven consistent with the "
                       f"audited chain", i + 1)
    return Verdict(BUYER_CLAIM_REJECTED,
                   "audited chain valid and all steps proven; seller is honest",
                   len(case.steps))


def resolve_type_d_method3(case: DisputeCase, s_revealed: int | None = None) -> Verdict:
    """Deterministic re-check from the disclosed generation factor.

    The revealed value is first bound to the public commitment K_1 = g^s;
    in a prime-order group there is exactly one exponent per element, so a
    matching commitment pins the true factor.  Then every response is
    checked against m^(s^t): one power per step value over a composite,
    one per step only to name a failure.  The composite's weights hash the
    exponent too, so a factor chosen to fit the record draws fresh weights.

    The binding joins the steps of value 1 at weight one: g is multiplied
    into their composite M and K_1 into Z, so the check costs no weight
    powers for it.  Fixing one weight at 1 keeps the small-exponents test
    sound (Bellare-Garay-Rabin): were K_1 = g^s * u and the steps off by
    b_i, the check passes only if u * prod b_i^(d_i) = 1.  K_1 is the
    catalog's commitment, published before any step was answered (and
    check_commitments holds a record to it), and every d_i is hashed over
    s^t and every step pair, so a seller meets that product with
    probability about 2^-128.  A single step is weighted too, or a binding
    and a step wrong by inverse factors would cancel.
    """
    _require_d(case)
    if s_revealed is not None:
        case.s_revealed = s_revealed
    if case.s_revealed is None:
        raise MalformedEvidence("no generation factor provided")
    p = case.params
    k1 = case.k_table.get(1)
    if k1 is None:
        raise MalformedEvidence("no unblinding key for value 1")
    s = case.s_revealed % p.q
    pairs = [(p.g, k1, 1, True), *_step_pairs(case)]  # pair i >= 1 is step i
    proven: set[int] = set()
    for t, idx in _composite_groups(pairs, p).items():
        e = pow(s, t, p.q)
        # (t, e) stand where methods 1 and 2 put their statement (base, y)
        big_m, big_z = dleq_composite([pairs[i][:2] for i in idx if i], t, e, p)
        if t == 1:  # the binding (g, K_1), pair 0, at weight one
            big_m, big_z = big_m * p.g % p.n, big_z * k1 % p.n
        if pow_fast(big_m, e, p) == big_z:
            proven.update(idx)
    for i, (m, m_out, t, signed) in enumerate(pairs):
        if not signed:
            raise MalformedEvidence(f"step {i}: step signature invalid")
        if i in proven or pow_fast(m, pow(s, t, p.q), p) == m_out:
            continue
        if i == 0:
            return Verdict(SELLER_AT_FAULT,
                           "revealed factor does not match the public commitment", 0)
        return Verdict(SELLER_AT_FAULT, f"step {i}: recomputed response differs", i)
    return Verdict(BUYER_CLAIM_REJECTED, "all responses recompute exactly; seller is honest",
                   len(case.steps))


def _require_d(case: DisputeCase):
    if case.kind != "D":
        raise MalformedEvidence(f"type D resolver got kind {case.kind!r}")
    if not case.steps:
        raise MalformedEvidence("no transcript steps in evidence")


def _step_signed(case: DisputeCase, st: StepTranscript) -> bool:
    return verify_payload(case.verify_pk, step_payload(st.m, st.m_out), st.signature)


def _step_pairs(case: DisputeCase) -> list[tuple[int, int, int, bool]]:
    return [(st.m, st.m_out, st.t, _step_signed(case, st)) for st in case.steps]


def _composite_groups(pairs: list[tuple[int, int, int, bool]],
                      params: GroupParams) -> dict[int, list[int]]:
    """The indices of the pairs (m, m_out, t, signed) that may share one
    composite, by value t: the signed pairs of a value t >= 1, when there
    are two or more and every m and m_out is a subgroup member (an order-2
    component survives half the composite's weights).  Unsigned pairs stay
    out, so the seller computes nothing on a pair it never signed."""
    by_value: dict[int, list[int]] = {}
    for i, (_, _, t, signed) in enumerate(pairs):
        if signed and t >= 1:
            by_value.setdefault(t, []).append(i)
    return {t: idx for t, idx in by_value.items()
            if len(idx) >= 2 and all(is_member(e, params) for i in idx for e in pairs[i][:2])}


def _first_unproven(case: DisputeCase, family: str,
                    pairs: list[tuple[int, int, int, bool]], statement,
                    seller: SellerDisputeAgent | None) -> int | None:
    """Index of the first pair (m, m_out, t, signed) not proven to satisfy
    log_m(m_out) = log_base(y), (base, y) = statement(t); None when all are.

    The record must hold one <family>_proofs entry per pair.  The pairs of
    each value that _composite_groups admits share one proof over their
    composite, recorded in batch_proofs under (family, t) or asked of the
    seller.  Any other pair, and each pair of a batch whose proof fails,
    gets one proof, recorded or asked.  Pairs are judged in
    order: an unsigned one raises MalformedEvidence, as statement(t) raises
    where no statement exists, once every earlier pair is proven."""
    p = case.params
    proofs = getattr(case, f"{family}_proofs")
    if proofs is None:
        proofs = [None] * len(pairs)
        setattr(case, f"{family}_proofs", proofs)
    if len(proofs) != len(pairs):
        raise MalformedEvidence(f"{len(proofs)} {family}_proof lines for "
                                f"{len(pairs)} {family}s")
    proven: set[int] = set()
    for t, idx in _composite_groups(pairs, p).items():
        key = (family, t)
        if key not in case.batch_proofs and seller is None:
            continue
        try:
            base, y = statement(t)
        except MalformedEvidence:
            continue
        batch = [pairs[i][:2] for i in idx]
        big_m, big_z = dleq_composite(batch, base, y, p)
        if key not in case.batch_proofs:
            proof = seller.prove(big_m, big_z, base, y, t)
            if proof is None:
                continue
            case.batch_proofs[key] = proof
        if dleq_verify(case.batch_proofs[key], big_m, big_z, base, y, p):
            proven.update(idx)
    for i, (m, m_out, t, signed) in enumerate(pairs):
        if not signed:
            raise MalformedEvidence(f"step {i + 1}: step signature invalid")
        base, y = statement(t)
        if i in proven:
            continue
        if proofs[i] is None and seller is not None:
            proofs[i] = seller.prove(m, m_out, base, y, t)
        if not dleq_verify(proofs[i], m, m_out, base, y, p):
            return i
    return None


# --- K-table doubling consistency -----------------------------------------------

def prove_k_table(keys, catalog: Catalog,
                  rng: random.Random = SYSTEM_RANDOM) -> dict[tuple[int, int], DlEqProof]:
    """Proofs that each published K_2t really is K_t raised to the committed
    exponent tower, i.e. log_Kt(K_2t) = log_g(K_t)."""
    proofs = {}
    p = catalog.params
    for t in sorted(catalog.k_table):
        if 2 * t in catalog.k_table:
            secret = pow(keys.s, t, p.q)
            proofs[(t, 2 * t)] = dleq_prove(secret, catalog.k_table[t], p.g, p, rng)
    return proofs


def verify_k_table(catalog: Catalog, proofs: dict[tuple[int, int], DlEqProof]) -> bool:
    p = catalog.params
    for t in sorted(catalog.k_table):
        if 2 * t not in catalog.k_table:
            continue
        proof = proofs.get((t, 2 * t))
        if not dleq_verify(proof, catalog.k_table[t], catalog.k_table[2 * t],
                            p.g, catalog.k_table[t], p):
            return False
    return True


# --- judging and answering a case record ------------------------------------------

def resolve_case(case: DisputeCase, catalog: Catalog) -> list[tuple[str, Verdict]]:
    """Judge a case record against the seller's catalog, its commitments
    checked first.  Kind D runs each method whose material it holds."""
    check_commitments(case, catalog)
    if case.kind == "B":
        return [("B", resolve_type_b(case))]
    if case.kind == "C":
        return [("C", resolve_type_c(case))]
    if case.kind == "D":
        out = []
        if case.step_proofs is not None:
            out.append(("D-method1", resolve_type_d_method1(case)))
        if case.chain is not None:
            out.append(("D-method2", resolve_type_d_method2(case, catalog)))
        if case.s_revealed is not None:
            out.append(("D-method3", resolve_type_d_method3(case)))
        return out or [("D", Verdict(SELLER_AT_FAULT,
                                     "seller unresponsive within the deadline", 0))]
    raise MalformedEvidence(f"unknown dispute kind {case.kind!r}")


def check_commitments(case: DisputeCase, catalog: Catalog):
    """Refuse a record whose group, verification key or K table is not the
    catalog's: proofs against an edited K table fail however honest the seller."""
    for what, theirs, ours in (("group", case.params, catalog.params),
                               ("verify_pk", case.verify_pk, catalog.verify_pk),
                               ("K table", case.k_table, catalog.k_table)):
        if theirs != ours:
            raise MalformedEvidence(f"case record {what} differs from the seller's catalog")


def answer_case(case: DisputeCase, seller: SellerDisputeAgent) -> DisputeCase:
    """The seller's answer to a case record, for the arbitrator to replay.

    The record must carry seller.catalog's commitments (check_commitments).
    Every seller's line the record already carries is dropped, so every
    value, signature, proof and chain in the answer is the seller's own
    computation, and the seller picks the audited license itself.  Method
    3, which would disclose the generation factor, never runs.  A type B
    claim needs no answer, and a type C claim is put to the seller only
    where resolve_type_c would convict it by the timeout rule unanswered.

    Method 2 names the license it audits and reveals its chain from x^s.
    The draw is seeded by the least SHA-256 of step_payload over the
    record's validly signed steps, so answering one record again, or with
    its steps reordered, reveals the same chain.  A buyer who drops steps,
    or edits the step values that bound the draw, may draw again, so it
    opens at most one license per signed step it holds and price in the
    catalog."""
    check_commitments(case, seller.catalog)
    answered = DisputeCase(**{f.name: getattr(case, f.name) for f in fields(DisputeCase)
                              if f.name not in _SELLER_FIELDS})
    seed = min((hashlib.sha256(step_payload(st.m, st.m_out)).digest()
                for st in case.steps if _step_signed(case, st)), default=b"")
    if answered.kind == "D":
        resolve_type_d_method1(answered, seller)
        resolve_type_d_method2(answered, seller.catalog, seller, random.Random(seed))
    elif answered.kind == "C" and resolve_type_c(answered).outcome == SELLER_AT_FAULT:
        (st,), g = answered.steps, answered.params.g
        m, m_out = seller.original_values(st.m, st.t)
        answered.seller_m_out = m_out
        if (m, m_out) == (st.m, st.m_out):
            answered.seller_resign = seller.sign_values(m, m_out)
        else:
            answered.seller_proof = seller.prove(m, m_out, g, answered.k_table[st.t], st.t)
    return answered
