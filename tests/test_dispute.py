import ast
import base64
import inspect
import pathlib
import random
import re
from copy import deepcopy
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings, strategies

from blindpay import dispute, group
from blindpay.cards import CardLedger
from blindpay.dispute import (
    BUYER_CLAIM_REJECTED,
    SELLER_AT_FAULT,
    SELLER_MUST_RESIGN,
    DisputeCase,
    SellerDisputeAgent,
    Verdict,
    answer_case,
    build_type_b_case,
    build_type_c_case,
    build_type_d_case,
    parse_case,
    prove_k_table,
    resolve_case,
    resolve_type_b,
    resolve_type_c,
    resolve_type_d_method1,
    resolve_type_d_method2,
    resolve_type_d_method3,
    verify_k_table,
    write_case,
)
from blindpay.catalog import (
    Catalog,
    LicenseEntry,
    decrypt_license,
    k_table_payload,
    sign_payload,
    verify_catalog,
    verify_payload,
    with_published_terms,
)
from blindpay.errors import (
    AuthenticationFailure,
    BadStepSignature,
    BlindpayError,
    MalformedElement,
    MalformedEvidence,
    StepRejected,
)
from blindpay.group import (
    NAMED_GROUPS,
    DlEqProof,
    dleq_composite,
    dleq_verify,
    mul_mod,
    pow_mod,
)
from blindpay.harness import FaultingSeller, make_seller_handler, step_reply
from blindpay.purchase import (
    MODE_ENHANCED,
    SellerStepHandler,
    StepResponse,
    StepTranscript,
    buyer_begin,
    buyer_finish,
    buyer_process_response,
    buyer_step_request,
    run_purchase,
    step_payload,
)

from conftest import UNNAMED128, make_catalog
from test_purchase import fund, rig


def completed_session(params, price=4, mode="basic", seed=33, wrong_s_at=None,
                      prices=None):
    """Run a full purchase, optionally with the seller cheating at one step,
    and return everything a dispute needs."""
    keys, cat, bank, handler, session = rig(params, price=price, mode=mode,
                                            seed=seed, prices=prices or (price,))
    crooked_keys = replace(keys, s=keys.s + 1 if keys.s + 1 < params.q else 2)
    crooked = SellerStepHandler(crooked_keys, params, bank, "seller-1")
    step = 0
    while session.remaining > 0:
        step += 1
        req = buyer_step_request(session)
        active = crooked if step == wrong_s_at else handler
        buyer_process_response(session, active.handle(req))
    return keys, cat, bank, session


def type_d_evidence(params, wrong_s_at):
    keys, cat, bank, session = completed_session(params, price=4, seed=71,
                                                 prices=(3, 4), wrong_s_at=wrong_s_at)
    return keys, cat, lambda: build_type_d_case(cat, session)


# --- the buyer's rule from a purchase's end to a case ------------------------------------

@pytest.mark.parametrize("fault, outcome, kind", [
    ("none", "completed", None),
    ("corrupt-signature", "aborted:bad-step-signature", "C"),
    ("wrong-s", "key-unusable", "D"),
    ("wrong-terms", "completed", "B"),
])
def test_settle_purchase_files_the_case_the_end_calls_for(params64, fault, outcome, kind):
    keys, cat, bank, handler, session = rig(params64, price=3, seed=40)
    if fault == "wrong-terms":
        crooked = with_published_terms(cat, keys, "lic-3", "read-print")
        session = buyer_begin(crooked, "lic-3", fund(bank, [1, 1, 1]), rng=random.Random(2))
    got, plain, case = dispute.settle_purchase(session, FaultingSeller(handler, fault, 2).handle)
    assert got == outcome
    assert (plain is not None) == (outcome == "completed")
    assert (case.kind if case else None) == kind


def test_settle_purchase_files_nothing_for_a_refused_step(params64):
    keys, cat, bank, handler, session = rig(params64, price=3, seed=40)
    bank.spend_atomic(session.step_cards[1], "seller-1")  # spent elsewhere first
    seller = make_seller_handler(handler, cat)
    with pytest.raises(StepRejected, match="already-spent"):
        dispute.settle_purchase(session, lambda req: step_reply(seller(req)))


# --- the seller's prover ------------------------------------------------------------

def test_agent_proves_only_true_statements(params64):
    keys, cat = make_catalog(params64)
    agent = SellerDisputeAgent(keys, cat, random.Random(8))
    p = params64
    m = pow_mod(p.g, 4242, p)
    e = pow(keys.s, 2, p.q)
    true = (m, pow(m, e, p.n), p.g, cat.k_table[2])
    assert dleq_verify(agent.prove(*true, 2), *true, p)
    assert agent.prove(m, mul_mod(true[1], p.g, p), p.g, cat.k_table[2], 2) is None
    assert agent.prove(m, true[1], p.g, cat.k_table[1], 2) is None
    # -1 is outside the subgroup; a proof for it would tell the parity of s^t
    for i in range(4):
        bad = list(true)
        bad[i] = p.n - 1
        assert agent.prove(*bad, 2) is None


def test_agent_checks_a_k_power_against_its_own_s_not_the_catalog(params64):
    # ROADMAP 4a's table: K_t = g^(e^t) for an e other than the agent's s.
    # A claim that matches the table gets no proof, because the agent
    # checks y2 against g^(s^t), which it derives itself.
    p = params64
    keys, cat = make_catalog(p, prices=(2, 3), seed=90)
    e = (7 * keys.s + 3) % p.q
    wrong = replace(cat, k_table={t: pow(p.g, pow(e, t, p.q), p.n) for t in cat.k_table})
    agent = SellerDisputeAgent(keys, wrong, random.Random(8))
    m = pow_mod(p.g, 4242, p)
    for t in (1, 2):
        assert agent.prove(m, pow(m, pow(e, t, p.q), p.n), p.g, wrong.k_table[t], t) is None
        assert agent.prove(m, pow(m, pow(keys.s, t, p.q), p.n), p.g, wrong.k_table[t], t) is None
        true = (m, pow(m, pow(keys.s, t, p.q), p.n), p.g, cat.k_table[t])
        assert dleq_verify(agent.prove(*true, t), *true, p)
    assert agent._powers == {(p.g, t): cat.k_table[t] for t in (1, 2)}


def test_agent_stores_no_base_the_asker_chose(params64):
    # The record puts a license factor x and a value of the asker's choosing
    # where requests go; the store ends holding powers of g and of catalog
    # factors only, each at an exponent the catalog bounds.
    keys, cat = make_catalog(params64, prices=(2, 3), seed=79)
    p, entry = params64, cat.entry("lic-2")
    junk = pow_mod(p.g, 4321, p)
    case = signed_d_case(keys, cat, [(entry.x, junk, 2), (None, None, 2), (junk, junk, 1),
                                     (None, None, 1)], random.Random(80))
    agent = SellerDisputeAgent(keys, cat, random.Random(81))
    answered = answer_case(case, agent)
    assert answered.chain is not None
    prices = {e.x: e.price for e in cat.licenses}
    assert agent._powers
    for (base, t), value in agent._powers.items():
        assert base == p.g and t in cat.k_table or 1 <= t <= prices[base]
        assert value == pow(base, pow(keys.s, t, p.q), p.n)


def test_reveal_chain_is_the_iterated_powers_and_reads_the_store(params64, pow_fast_calls):
    keys, cat = make_catalog(params64, prices=(1, 3, 5), seed=91)
    agent = SellerDisputeAgent(keys, cat)
    for entry in cat.licenses:
        chain = [entry.x]
        for _ in range(entry.price):
            chain.append(pow(chain[-1], keys.s, params64.n))
        assert agent.reveal_chain(entry.license_id) == chain[1:]  # x is the catalog's
    assert len(pow_fast_calls) == 1 + 3 + 5
    for entry in cat.licenses:
        agent.reveal_chain(entry.license_id)
    assert len(pow_fast_calls) == 1 + 3 + 5


def test_agent_original_values_refuses_what_no_step_carries(params64):
    keys, cat = make_catalog(params64)
    agent = SellerDisputeAgent(keys, cat)
    m = pow_mod(params64.g, 99, params64)
    for bad_m in (0, params64.n - 1, params64.n + m):
        with pytest.raises(MalformedElement):
            agent.original_values(bad_m, 1)
    for bad_t in (0, 3, 200):
        with pytest.raises(ValueError):
            agent.original_values(m, bad_t)
    assert agent.original_values(m, 2) == (m, pow(m, pow(keys.s, 2, params64.q), params64.n))


# --- type B --------------------------------------------------------------------------

def test_type_b_wrong_terms_seller_at_fault(params64):
    keys, cat, _, _, _ = rig(params64, price=3, seed=40)
    crooked_cat = with_published_terms(cat, keys, "lic-3", "read-print")
    bank = CardLedger(rng=random.Random(1))
    cards = fund(bank, [1, 1, 1])
    handler = SellerStepHandler(keys, params64, bank, "seller-1")
    session = buyer_begin(crooked_cat, "lic-3", cards, rng=random.Random(2))
    plain = run_purchase(session, handler.handle)
    assert plain.terms == "read-only"
    assert crooked_cat.entry("lic-3").terms == "read-print"

    verdict = resolve_type_b(build_type_b_case(crooked_cat, session))
    assert verdict.outcome == SELLER_AT_FAULT
    assert verdict.checked_steps == 3
    # written, parsed and resolved, the record gives the live verdict
    record = parse_case(write_case(build_type_b_case(crooked_cat, session)))
    assert resolve_case(record, crooked_cat) == [("B", verdict)]


def test_type_b_matching_terms_rejected(params64):
    keys, cat, bank, session = completed_session(params64, price=3)
    verdict = resolve_type_b(build_type_b_case(cat, session))
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    assert "match" in verdict.rationale


@pytest.mark.parametrize("bad_step", [1, 2, 3])
def test_type_b_forged_transcript_rejected_citing_step(params64, bad_step):
    keys, cat, bank, session = completed_session(params64, price=3)
    case = build_type_b_case(cat, session)
    st = case.steps[bad_step - 1]
    case.steps[bad_step - 1] = replace(st, signature=bytes(64))
    verdict = resolve_type_b(case)
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    assert f"step {bad_step}" in verdict.rationale


def edit_step_2(case, **change):
    case.steps[1] = replace(case.steps[1], **change)


@pytest.mark.parametrize("edit, rationale", [
    (lambda case: setattr(case, "terms_signature", bytes(64)), "terms signature invalid"),
    (lambda case: edit_step_2(case, alpha=case.steps[1].alpha + 1),
     "step 2: request inconsistent with blinding exponent"),
], ids=["terms-signature", "alpha+1"])
def test_type_b_edited_record_rejected(params64, edit, rationale):
    keys, cat, bank, session = completed_session(params64, price=3)
    case = build_type_b_case(cat, session)
    edit(case)
    verdict = resolve_type_b(case)
    assert (verdict.outcome, verdict.rationale) == (BUYER_CLAIM_REJECTED, rationale)


@pytest.mark.parametrize("edit, error", [
    (lambda case: edit_step_2(case, alpha=None), "step 2: blinding exponent missing"),
    (lambda case: edit_step_2(case, t=3), "step 2: no unblinding key for value 3"),
    (lambda case: setattr(case, "kind", "C"), "type B resolver got kind 'C'"),
    (lambda case: setattr(case, "steps", []), "no transcript steps in evidence"),
], ids=["no-alpha", "t=3", "kind-C", "no-steps"])
def test_type_b_malformed_record_raises(params64, edit, error):
    keys, cat, bank, session = completed_session(params64, price=3)
    case = build_type_b_case(cat, session)
    assert 3 not in case.k_table
    edit(case)
    with pytest.raises(MalformedEvidence, match=re.escape(error)):
        resolve_type_b(case)


def test_type_b_claim_on_a_dead_key_is_rejected(params64):
    # a dead key is a type D claim, which is why settle_purchase files D for it
    keys, cat, bank, session = completed_session(params64, price=3, wrong_s_at=2)
    verdict = resolve_type_b(build_type_b_case(cat, session))
    assert verdict == Verdict(BUYER_CLAIM_REJECTED,
                              "key does not decrypt the license (raise type D instead)", 3)


# --- type C --------------------------------------------------------------------------

def type_c_evidence(params, t):
    """A corrupt-signature case on the buyer's first step, of value t."""
    keys, cat, bank, handler, session = rig(params, price=t, mode=MODE_ENHANCED,
                                            seed=52, prices=(t,))
    resp = handler.handle(buyer_step_request(session))
    with pytest.raises(BadStepSignature) as exc:
        buyer_process_response(session, StepResponse(m_out=resp.m_out,
                                                     step_signature=bytes(64)))
    assert exc.value.step.t == t
    return keys, cat, lambda: build_type_c_case(cat, exc.value)


def corrupt_signature_case(params, seed=50):
    keys, cat, bank, handler, session = rig(params, price=2, seed=seed, prices=(2,))
    resp = handler.handle(buyer_step_request(session))
    corrupt = StepResponse(m_out=resp.m_out, step_signature=bytes(64))
    with pytest.raises(BadStepSignature) as exc:
        buyer_process_response(session, corrupt)
    return keys, cat, build_type_c_case(cat, exc.value)


def test_parse_case_of_a_named_group_runs_no_miller_rabin(prime_tests):
    _, _, case = corrupt_signature_case(NAMED_GROUPS["ffdhe2048"])
    assert parse_case(write_case(case)).params == NAMED_GROUPS["ffdhe2048"]
    assert prime_tests == []


@pytest.mark.parametrize("params", [UNNAMED128, replace(UNNAMED128, bits=64)],
                         ids=["128", "128-says-64"])
def test_parse_case_refuses_an_unnamed_group_above_64_bits(params64, params, prime_tests):
    _, _, case = corrupt_signature_case(params64)
    case.params = params
    with pytest.raises(MalformedEvidence, match="ffdhe2048 or ffdhe3072"):
        parse_case(write_case(case))
    assert prime_tests == []


def test_type_c_seller_agrees_must_resign(params64):
    keys, cat, case = corrupt_signature_case(params64)
    answered = answer_case(case, SellerDisputeAgent(keys, cat, random.Random(1)))
    assert resolve_type_c(answered).outcome == SELLER_MUST_RESIGN
    assert answered.seller_resign is not None


def test_type_c_valid_signature_rejected(params64):
    keys, cat, bank, handler, session = rig(params64, price=1, seed=51, prices=(1,))
    resp = handler.handle(buyer_step_request(session))
    buyer_process_response(session, resp)
    tr = session.transcripts[0]
    fake = BadStepSignature(replace(tr, alpha=None))
    answered = answer_case(build_type_c_case(cat, fake), SellerDisputeAgent(keys, cat))
    assert resolve_type_c(answered).outcome == BUYER_CLAIM_REJECTED
    assert answered.seller_m_out is None  # nothing to answer


def test_type_c_conflicting_values_seller_proof_accepted(params64):
    keys, cat, case = corrupt_signature_case(params64)
    # the buyer's record of the response got mangled in transit
    case.steps[0] = replace(case.steps[0],
                            m_out=mul_mod(case.steps[0].m_out, params64.g, params64))
    answered = answer_case(case, SellerDisputeAgent(keys, cat, random.Random(2)))
    verdict = resolve_type_c(answered)
    assert verdict == Verdict(BUYER_CLAIM_REJECTED,
                              "seller proved its values correct; proven response forwarded", 1)
    assert answered.seller_m_out not in (None, case.steps[0].m_out)


class LyingAgent(SellerDisputeAgent):
    def original_values(self, m, t):
        honest_m, honest_out = super().original_values(m, t)
        return honest_m, mul_mod(honest_out, self.params.g, self.params)


def test_type_c_conflicting_values_seller_proof_fails(params64):
    keys, cat, case = corrupt_signature_case(params64)
    verdict = resolve_type_c(answer_case(case, LyingAgent(keys, cat, random.Random(3))))
    assert verdict == Verdict(SELLER_MUST_RESIGN,
                              "seller could not prove its values; must sign the buyer's values", 1)


class ZeroSignatureAgent(SellerDisputeAgent):
    def sign_values(self, m, m_out):
        return bytes(64)


def test_type_c_seller_that_will_not_resign_is_at_fault(params64):
    keys, cat, case = corrupt_signature_case(params64)
    verdict = resolve_type_c(answer_case(case,
                                         ZeroSignatureAgent(keys, cat, random.Random(3))))
    assert verdict == Verdict(SELLER_AT_FAULT,
                              "seller failed to produce a valid signature on agreed values", 1)


def test_type_c_unresponsive_seller_at_fault(params64):
    keys, cat, case = corrupt_signature_case(params64)
    assert resolve_type_c(case) == Verdict(SELLER_AT_FAULT,
                                           "seller unresponsive within the deadline", 1)


class OtherRequestAgent(SellerDisputeAgent):
    def original_values(self, m, t):
        return super().original_values(pow_mod(self.params.g, 777, self.params), t)


def test_type_c_answer_about_another_request_must_resign(params64):
    # the seller's proof is true, but of g^777, not of the buyer's request:
    # the response it would forward opens nothing
    keys, cat, case = corrupt_signature_case(params64)
    answered = answer_case(case, OtherRequestAgent(keys, cat, random.Random(4)))
    assert dleq_verify(answered.seller_proof, pow_mod(params64.g, 777, params64),
                       answered.seller_m_out, params64.g, cat.k_table[1], params64)
    assert resolve_type_c(answered) == Verdict(
        SELLER_MUST_RESIGN, "seller could not prove its values; must sign the buyer's values", 1)


@pytest.mark.parametrize("with_agent", [True, False], ids=["agent", "no-agent"])
@pytest.mark.parametrize("bad, check", [
    (lambda p: {"m": p.n - 1}, "subgroup member"),  # Jacobi symbol -1
    (lambda p: {"t": 999}, "no unblinding key for step value 999"),
], ids=["nonmember-m", "t=999"])
def test_type_c_claim_no_step_carries_is_rejected(params64, with_agent, bad, check):
    # the step handler refuses a non-member request; it answers a value with
    # no K power, but no unblinding key exists for that step, so its response
    # opens nothing.  The public check decides before the seller is asked
    keys, cat, case = corrupt_signature_case(params64)
    case.steps[0] = replace(case.steps[0], **bad(params64))
    if with_agent:
        case = answer_case(case, SellerDisputeAgent(keys, cat, random.Random(9)))
    verdict = resolve_type_c(case)
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    assert check in verdict.rationale
    assert case.seller_m_out is None


def test_answer_case_picks_the_audit_license_itself(params64):
    # whichever license the record names for audit, the seller's own draw
    # decides which key chain it reveals
    keys, cat, new_case = type_d_evidence(params64, None)
    assert len(cat.licenses) >= 2
    picks = set()
    for entry in cat.licenses:
        case = new_case()
        case.audit_license_id = entry.license_id
        answered = answer_case(case, SellerDisputeAgent(keys, cat, random.Random(5)))
        picks.add(answered.audit_license_id)
        assert answered.s_revealed is None
    assert len(picks) == 1


def test_answer_case_audits_one_license_per_record(params64):
    # the draw is a function of the record's signed steps, so resubmitting a
    # genuine record, or reordering its steps, reveals no further key chain
    keys, cat, bank, session = completed_session(params64, price=3, seed=84,
                                                 prices=(1, 2, 3, 4, 5))
    case = build_type_d_case(cat, session)
    reordered = replace(case, steps=case.steps[::-1])
    picks = {answer_case(record, SellerDisputeAgent(keys, cat)).audit_license_id
             for record in [case] * 5 + [reordered]}
    assert len(picks) == 1


def test_answer_case_never_reveals_s(params64):
    # method 3 would put s into the answer; answering runs methods 1 and 2 only
    keys, cat, new_case = type_d_evidence(params64, None)

    class KeepsS(SellerDisputeAgent):
        def reveal_s(self):
            raise AssertionError("answer_case asked for the generation factor")

    answered = answer_case(new_case(), KeepsS(keys, cat, random.Random(6)))
    assert answered.s_revealed is None
    assert answered.step_proofs is not None and answered.chain is not None


class NoDraws(random.Random):
    """A generator that fails the test on any draw."""

    def random(self):
        raise AssertionError("drew a random value")

    def getrandbits(self, k):
        raise AssertionError("drew a random value")


def test_replay_draws_nothing(params64):
    keys, cat, new_case = type_d_evidence(params64, None)
    answered = write_case(answer_case(new_case(), SellerDisputeAgent(keys, cat)))
    verdicts = resolve_case(parse_case(answered), catalog=cat)
    assert [label for label, _ in verdicts] == ["D-method1", "D-method2"]
    # an unanswered record, asked of no seller, is judged by the timeout rule
    timeout = Verdict(SELLER_AT_FAULT, "seller unresponsive within the deadline", 0)
    assert resolve_type_d_method2(new_case(), cat, rng=NoDraws()) == timeout
    unanswered = parse_case(write_case(new_case()))
    assert resolve_case(unanswered, catalog=cat) == [("D", timeout)]


def test_a_replayed_chain_without_its_audited_license_is_malformed(params64):
    # the arbitrator may not pick the audited license itself: over two
    # catalog licenses, a pick would convict or acquit by chance
    keys, cat, new_case = type_d_evidence(params64, None)
    assert len(cat.licenses) == 2
    answered = write_case(answer_case(new_case(), SellerDisputeAgent(keys, cat)))
    stripped = "".join(line for line in answered.splitlines(keepends=True)
                       if not line.startswith("audit_"))
    assert "chain: " in stripped and stripped != answered
    for _ in range(20):
        with pytest.raises(MalformedEvidence, match="audited license"):
            resolve_case(parse_case(stripped), catalog=cat)


def test_answer_case_without_steps_is_malformed(params64):
    keys, cat, new_case = type_d_evidence(params64, None)
    with pytest.raises(MalformedEvidence):
        answer_case(replace(new_case(), steps=[]), SellerDisputeAgent(keys, cat))


@pytest.mark.parametrize("fault, outcome", [("wrong-s", SELLER_AT_FAULT),
                                            ("none", BUYER_CLAIM_REJECTED)])
def test_type_d_arbitration_on_a_named_group(fault, outcome):
    # every method on ffdhe2048, where pow_fast runs in OpenSSL: a seller
    # that used a wrong s at step 2 is convicted, an honest one acquitted
    # of the buyer's false claim
    params = NAMED_GROUPS["ffdhe2048"]
    keys, cat, bank, handler, session = rig(params, price=3, seed=40)
    _, _, case = dispute.settle_purchase(session, FaultingSeller(handler, fault, 2).handle)
    if fault == "none":
        case = build_type_d_case(cat, session)
    answered = answer_case(case, SellerDisputeAgent(keys, cat, random.Random(9)))
    answered.s_revealed = keys.s
    verdicts = resolve_case(parse_case(write_case(answered)), catalog=cat)
    assert [label for label, _ in verdicts] == ["D-method1", "D-method2", "D-method3"]
    assert [v.outcome for _, v in verdicts] == [outcome] * 3


# --- type D method 1 -------------------------------------------------------------------

def test_method1_honest_seller_rejected(params64):
    keys, cat, bank, session = completed_session(params64, price=4)
    case = build_type_d_case(cat, session)
    verdict = resolve_type_d_method1(case, SellerDisputeAgent(keys, cat, random.Random(4)))
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    assert verdict.checked_steps == 4
    # the four 1-unit steps share one batched proof and need no step proof
    assert list(case.batch_proofs) == [("step", 1)]
    assert case.step_proofs == [None] * 4


@pytest.mark.parametrize("bad_step", [1, 2, 3, 4])
def test_method1_wrong_s_step_at_fault(params64, bad_step):
    keys, cat, bank, session = completed_session(params64, price=4,
                                                 wrong_s_at=bad_step)
    with pytest.raises(AuthenticationFailure):
        buyer_finish(session)
    case = build_type_d_case(cat, session)
    verdict = resolve_type_d_method1(case, SellerDisputeAgent(keys, cat, random.Random(5)))
    assert verdict.outcome == SELLER_AT_FAULT
    assert f"step {bad_step}" in verdict.rationale


def test_method1_enhanced_uses_matching_k_power(params64):
    keys, cat, bank, session = completed_session(params64, price=6, mode=MODE_ENHANCED,
                                                 prices=(6,))
    assert [tr.t for tr in session.transcripts] == [4, 2]
    case = build_type_d_case(cat, session)
    agent = SellerDisputeAgent(keys, cat, random.Random(6))
    verdict = resolve_type_d_method1(case, agent)
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    # the recorded proof for the 2-unit step verifies against K_2 alone
    from blindpay.group import dleq_verify
    st = case.steps[1]
    assert dleq_verify(case.step_proofs[1], st.m, st.m_out,
                       params64.g, cat.k_table[2], params64)
    assert not dleq_verify(case.step_proofs[1], st.m, st.m_out,
                           params64.g, cat.k_table[1], params64)


def test_method1_missing_k_power_raises(params64):
    keys, cat, bank, session = completed_session(params64, price=2, seed=42)
    case = build_type_d_case(cat, session)
    case.k_table = {2: case.k_table.get(2, 5)}
    with pytest.raises(MalformedEvidence, match="no unblinding key for value 1$"):
        resolve_type_d_method1(case, SellerDisputeAgent(keys, cat))


def test_a_step_value_with_no_k_power_is_refused_alike_by_b_and_d(params64):
    # methods 1 and 3 once raised a class of their own where type B raised MalformedEvidence
    keys, cat, bank, session = completed_session(params64, price=2, seed=42)
    case_b, case_d = build_type_b_case(cat, session), build_type_d_case(cat, session)
    del case_b.k_table[1], case_d.k_table[1]
    for resolve in (lambda: resolve_type_b(case_b),
                    lambda: resolve_type_d_method1(case_d, SellerDisputeAgent(keys, cat)),
                    lambda: resolve_type_d_method3(case_d, keys.s)):
        with pytest.raises(MalformedEvidence, match="no unblinding key for value 1$"):
            resolve()


# --- type D method 2 ---------------------------------------------------------------------

def test_method2_honest_seller_rejected(params64):
    keys, cat, bank, session = completed_session(params64, price=4, seed=60,
                                                 prices=(3, 4, 5))
    case = build_type_d_case(cat, session)
    verdict = resolve_type_d_method2(case, cat, SellerDisputeAgent(keys, cat),
                                     random.Random(7))
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    assert case.chain is not None
    assert len(case.chain) == cat.entry(case.audit_license_id).price


@pytest.mark.parametrize("seed", range(12))
def test_an_enhanced_false_claim_audits_a_license_that_reaches_every_step(params64, seed):
    # steps 4 and 1 of the price-5 license; a draw among all four licenses
    # would often audit a chain shorter than the value-4 step
    keys, cat, bank, session = completed_session(params64, price=5, mode=MODE_ENHANCED,
                                                 seed=seed, prices=(1, 2, 3, 5))
    case = build_type_d_case(cat, session)
    assert [st.t for st in case.steps] == [4, 1]
    answered = answer_case(case, SellerDisputeAgent(keys, cat, random.Random(seed)))
    assert cat.entry(answered.audit_license_id).price == 5
    assert [v.outcome for _, v in resolve_case(answered, cat)] == [BUYER_CLAIM_REJECTED] * 2


def test_method2_refuses_a_record_no_license_reaches(params64):
    keys, cat, bank, session = completed_session(params64, price=2, seed=61, prices=(1, 2))
    case = build_type_d_case(cat, session)
    case.steps[0] = replace(case.steps[0], t=4)
    with pytest.raises(MalformedEvidence, match="no license of price 4 or more"):
        resolve_type_d_method2(case, cat, SellerDisputeAgent(keys, cat), random.Random(8))


def test_method2_dead_key_at_fault(params64):
    keys, cat, bank, session = completed_session(params64, price=2, seed=61)

    class DeadKeyAgent(SellerDisputeAgent):
        def reveal_chain(self, license_id):
            chain = super().reveal_chain(license_id)
            chain[-1] = mul_mod(chain[-1], self.params.g, self.params)
            return chain

    case = build_type_d_case(cat, session)
    verdict = resolve_type_d_method2(case, cat, DeadKeyAgent(keys, cat), random.Random(8))
    assert verdict.outcome == SELLER_AT_FAULT
    assert "decrypt" in verdict.rationale


def test_method2_forged_middle_link_at_fault(params64):
    keys, cat, bank, session = completed_session(params64, price=2, seed=62,
                                                 prices=(2, 4))

    class ForgedLinkAgent(SellerDisputeAgent):
        def __init__(self, keys, cat, bad_index):
            super().__init__(keys, cat)
            self.bad_index = bad_index

        def reveal_chain(self, license_id):
            chain = super().reveal_chain(license_id)
            if self.bad_index < len(chain) - 1:
                chain[self.bad_index] = mul_mod(chain[self.bad_index],
                                                self.params.g, self.params)
            return chain

    # tamper every entry before the key in turn; the verdict must flag it
    rng = random.Random(9)
    case_probe = build_type_d_case(cat, session)
    resolve_type_d_method2(case_probe, cat, SellerDisputeAgent(keys, cat), rng)
    for bad in range(len(case_probe.chain) - 1):
        case = build_type_d_case(cat, session)
        case.audit_license_id = case_probe.audit_license_id
        verdict = resolve_type_d_method2(case, cat,
                                         ForgedLinkAgent(keys, cat, bad), rng)
        assert verdict.outcome == SELLER_AT_FAULT


def test_method2_wrong_s_step_at_fault(params64):
    keys, cat, bank, session = completed_session(params64, price=3, seed=63,
                                                 wrong_s_at=2)
    case = build_type_d_case(cat, session)
    verdict = resolve_type_d_method2(case, cat, SellerDisputeAgent(keys, cat),
                                     random.Random(10))
    assert verdict.outcome == SELLER_AT_FAULT
    assert "step 2" in verdict.rationale


@pytest.mark.parametrize("bad_step", [1, 2, 3, 4])
def test_method2_wrong_s_step_named_at_every_position(params64, bad_step):
    # the failed segment batch falls back to one proof per step, which
    # names the bad step wherever it sits
    keys, cat, bank, session = completed_session(params64, price=4, seed=64,
                                                 wrong_s_at=bad_step)
    case = build_type_d_case(cat, session)
    verdict = resolve_type_d_method2(case, cat, SellerDisputeAgent(keys, cat),
                                     random.Random(10))
    assert verdict == Verdict(SELLER_AT_FAULT,
                              f"step {bad_step}: response not proven consistent with "
                              f"the audited chain", bad_step)
    assert ("segment", 1) not in case.batch_proofs


# --- batched proofs ---------------------------------------------------------------------------

def answered_d_record(params64):
    keys, cat, new_case = type_d_evidence(params64, None)
    return answer_case(new_case(), SellerDisputeAgent(keys, cat)), cat


def test_method2_replay_of_a_chain_one_entry_short_raises(params64):
    case, cat = answered_d_record(params64)
    case.chain = case.chain[:-1]
    with pytest.raises(MalformedEvidence, match="chain has"):
        resolve_type_d_method2(parse_case(write_case(case)), cat)


def test_method2_replay_of_an_edited_first_chain_entry_convicts(params64):
    # x is the catalog's, so the record's chain starts at x^s
    case, cat = answered_d_record(params64)
    case.chain[0] = mul_mod(case.chain[0], params64.g, params64)
    verdict = resolve_type_d_method2(parse_case(write_case(case)), cat)
    assert verdict == Verdict(SELLER_AT_FAULT, "chain link 2 not proven", 0)


def signed_d_case(keys, cat, steps, rng):
    """A type D case whose steps (m, m_out, t) the seller signed as given;
    m=None draws a fresh request and answers it honestly."""
    p = cat.params
    evidence = []
    for m, m_out, t in steps:
        if m is None:
            m = pow_mod(p.g, rng.randrange(1, p.q), p)
            m_out = pow(m, pow(keys.s, t, p.q), p.n)
        evidence.append(StepTranscript(m=m, m_out=m_out, t=t, signature=sign_payload(
            keys.sign_sk, step_payload(m, m_out))))
    return DisputeCase(kind="D", params=p, verify_pk=cat.verify_pk,
                       k_table=dict(cat.k_table), steps=evidence)


@pytest.fixture()
def dleq_calls(monkeypatch):
    """Calls of dispute.dleq_prove and dispute.dleq_verify, by name."""
    calls = {"prove": 0, "verify": 0}
    for name in calls:
        original = getattr(dispute, f"dleq_{name}")

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dispute, f"dleq_{name}", counting)
    return calls


def test_method1_proves_eight_steps_with_one_proof(params64, dleq_calls):
    keys, cat, bank, session = completed_session(params64, price=8, seed=72)
    case = build_type_d_case(cat, session)
    verdict = resolve_type_d_method1(case, SellerDisputeAgent(keys, cat, random.Random(4)))
    assert verdict == Verdict(BUYER_CLAIM_REJECTED, "all steps proven correct; seller is honest", 8)
    assert dleq_calls == {"prove": 1, "verify": 1}


def test_method2_proves_links_and_segments_with_one_proof_each(params64, dleq_calls):
    keys, cat, bank, session = completed_session(params64, price=4, seed=73, prices=(4,))
    case = build_type_d_case(cat, session)
    verdict = resolve_type_d_method2(case, cat, SellerDisputeAgent(keys, cat, random.Random(4)),
                                     random.Random(5))
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    assert len(case.chain) == 4  # three links, four 1-unit steps
    assert set(case.batch_proofs) == {("link", 1), ("segment", 1)}
    assert dleq_calls == {"prove": 2, "verify": 2}


def test_method1_enhanced_batches_each_step_value(params64):
    keys, cat = make_catalog(params64, prices=(8,), seed=74)
    case = signed_d_case(keys, cat, [(None, None, 4), (None, None, 2), (None, None, 2)],
                         random.Random(75))
    verdict = resolve_type_d_method1(case, SellerDisputeAgent(keys, cat, random.Random(76)))
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    assert list(case.batch_proofs) == [("step", 2)]
    assert [pr is not None for pr in case.step_proofs] == [True, False, False]


def test_batch_refuses_an_order_two_component(params64):
    # A seller signs -m_out, an m_out carrying an order-2 component, at one
    # step.  The composite hides that component whenever the step's weight
    # is even, so only the membership check keeps the batch from passing.
    keys, cat = make_catalog(params64, prices=(8,), seed=77)
    p = params64
    honest = signed_d_case(keys, cat, [(None, None, 1)] * 8, random.Random(78))
    hidden = 0
    for i, st in enumerate(honest.steps):
        steps = [(s.m, s.m_out, s.t) for s in honest.steps]
        steps[i] = (st.m, p.n - st.m_out, 1)
        case = signed_d_case(keys, cat, steps, None)
        big_m, big_z = dleq_composite([(m, m_out) for m, m_out, _ in steps],
                                      p.g, cat.k_table[1], p)
        if big_z == pow(big_m, keys.s, p.n):  # a true statement the seller would prove
            hidden += 1
        verdict = resolve_type_d_method1(case, SellerDisputeAgent(keys, cat, random.Random(i)))
        assert verdict == Verdict(SELLER_AT_FAULT,
                                  f"step {i + 1}: response not proven consistent with K_1",
                                  i + 1)
        assert case.batch_proofs == {}
    assert hidden > 0  # some weight was even, and the verdict still named the step


@pytest.mark.parametrize("signed", [False, True])
def test_answer_case_opens_no_license_through_a_batch(params64, signed):
    # A forged record puts a license factor x beside a genuine step of the
    # same value.  Unsigned, it gets no answer; even signed (the strongest
    # forger), no proof in the answer covers x and no value opens the license.
    keys, cat = make_catalog(params64, prices=(2, 3), seed=79)
    p, entry = params64, cat.entry("lic-2")
    key = pow(entry.x, pow(keys.s, 2, p.q), p.n)
    junk = pow_mod(p.g, 4321, p)
    case = signed_d_case(keys, cat, [(entry.x, junk, 2), (None, None, 2)], random.Random(80))
    if not signed:
        case.steps[0] = replace(case.steps[0], signature=bytes(64))
        asked = []

        class Recording(SellerDisputeAgent):
            def prove(self, *statement):
                asked.append(statement)
                return super().prove(*statement)

        with pytest.raises(MalformedEvidence):
            answer_case(case, Recording(keys, cat, random.Random(81)))
        assert asked == []  # the unsigned pair never reached the prover
        return
    answered = answer_case(case, SellerDisputeAgent(keys, cat, random.Random(81)))
    # method 2 opens the license it audits by design; this draw audits the other one
    assert answered.audit_license_id == "lic-3"
    assert ("step", 2) not in answered.batch_proofs
    proofs = [pr for pr in (answered.step_proofs + answered.segment_proofs
                            + list(answered.batch_proofs.values())) if pr is not None]
    for pr in proofs:
        for y in (key, junk):
            assert not dleq_verify(pr, entry.x, y, p.g, cat.k_table[2], p)
    text = write_case(answered)
    assert str(key) not in _tokens(text)
    for token in _tokens(text):
        if token.isdigit():
            with pytest.raises(AuthenticationFailure):
                decrypt_license(int(token), entry.encrypted_license)


def test_batch_proofs_round_trip_the_record(params64):
    keys, cat, bank, session = completed_session(params64, price=4, seed=82, prices=(3, 4))
    answered = answer_case(build_type_d_case(cat, session),
                           SellerDisputeAgent(keys, cat, random.Random(83)))
    text = write_case(answered)
    assert "batch_proof: step 1 " in text
    replayed = parse_case(text)
    assert replayed.batch_proofs == answered.batch_proofs
    assert write_case(replayed) == text
    assert [v.outcome for _, v in resolve_case(replayed, cat)] == [BUYER_CLAIM_REJECTED] * 2
    with pytest.raises(MalformedEvidence):
        parse_case(text.replace("batch_proof: step 1 ", "batch_proof: chain 1 "))


def test_a_withheld_batch_proof_falls_back_to_per_step_proofs(params64):
    keys, cat, bank, session = completed_session(params64, price=4, seed=82, prices=(3, 4))
    agent = SellerDisputeAgent(keys, cat, random.Random(83))
    answered = answer_case(build_type_d_case(cat, session), agent)
    answered.step_proofs = [agent.prove(st.m, st.m_out, params64.g, cat.k_table[1], 1)
                            for st in answered.steps]
    text = re.sub(r"(?m)^batch_proof: step 1 .*$", "batch_proof: step 1 -", write_case(answered))
    replayed = parse_case(text)
    assert replayed.batch_proofs[("step", 1)] is None
    assert resolve_type_d_method1(replayed) == Verdict(
        BUYER_CLAIM_REJECTED, "all steps proven correct; seller is honest", 4)
    replayed.step_proofs[2] = None
    assert resolve_type_d_method1(replayed) == Verdict(
        SELLER_AT_FAULT, "step 3: response not proven consistent with K_1", 3)


def test_a_step_proof_with_a_non_member_commitment_convicts(params64):
    keys, cat, bank, session = completed_session(params64, price=1, seed=84, prices=(1,))
    answered = answer_case(build_type_d_case(cat, session),
                           SellerDisputeAgent(keys, cat, random.Random(85)))
    assert resolve_type_d_method1(answered).outcome == BUYER_CLAIM_REJECTED
    answered.step_proofs[0] = replace(answered.step_proofs[0], commitment_a=params64.n - 1)
    assert resolve_type_d_method1(answered) == Verdict(
        SELLER_AT_FAULT, "step 1: response not proven consistent with K_1", 1)


_NUM = strategies.integers(0, 2**64)
_PROOF = strategies.builds(DlEqProof, _NUM, _NUM, _NUM, _NUM)
_PROOFS = strategies.lists(strategies.none() | _PROOF, min_size=1, max_size=3)
_TEXT = strategies.text(alphabet="ab -:.", max_size=8)
# a value for each group of the seller's lines, drawn whole or not at all
_SELLER_LINES = {
    "seller_m_out": strategies.fixed_dictionaries({"seller_m_out": _NUM}),
    "seller_resign": strategies.fixed_dictionaries(
        {"seller_resign": strategies.binary(min_size=64, max_size=64)}),
    "seller_proof": strategies.fixed_dictionaries({"seller_proof": _PROOF}),
    "step_proofs": strategies.fixed_dictionaries({"step_proofs": _PROOFS}),
    "audit_license_id": strategies.fixed_dictionaries({"audit_license_id": _TEXT}),
    "chain": strategies.fixed_dictionaries({"chain": strategies.lists(_NUM, max_size=4)}),
    "link_proofs": strategies.fixed_dictionaries({"link_proofs": _PROOFS}),
    "segment_proofs": strategies.fixed_dictionaries({"segment_proofs": _PROOFS}),
    "batch_proofs": strategies.fixed_dictionaries({"batch_proofs": strategies.dictionaries(
        strategies.tuples(strategies.sampled_from(("step", "segment", "link")),
                          strategies.integers(0, 9)),
        strategies.none() | _PROOF, min_size=1, max_size=3)}),
    "s_revealed": strategies.fixed_dictionaries({"s_revealed": _NUM}),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=strategies.data())
def test_any_case_record_round_trips(params64, data):
    kind = data.draw(strategies.sampled_from("BCD"), label="kind")
    steps = data.draw(strategies.lists(strategies.builds(
        StepTranscript, _NUM, _NUM, strategies.integers(1, 8),
        strategies.binary(min_size=64, max_size=64),
        _NUM if kind == "B" else strategies.none()), max_size=3), label="steps")
    claim = {} if kind != "B" else data.draw(strategies.fixed_dictionaries({
        "license_id": _TEXT, "x": _NUM, "published_terms": _TEXT,
        "encrypted_license": strategies.binary(max_size=40),
        "terms_signature": strategies.binary(max_size=64)}), label="B")
    answer = {}
    for group_name in data.draw(strategies.sets(strategies.sampled_from(sorted(_SELLER_LINES))),
                                label="seller lines"):
        answer.update(data.draw(_SELLER_LINES[group_name], label=group_name))
    case = DisputeCase(kind=kind, params=params64, verify_pk=data.draw(strategies.binary(
        min_size=32, max_size=32)), k_table=data.draw(strategies.dictionaries(
            strategies.integers(1, 8), _NUM, max_size=3)), steps=steps, **claim, **answer)
    text = write_case(case)
    assert parse_case(text) == case
    assert write_case(parse_case(text)) == text


def b_record(params64) -> str:
    return write_case(DisputeCase(
        kind="B", params=params64, verify_pk=bytes(32), k_table={1: 5},
        steps=[StepTranscript(7, 8, 1, bytes(64), alpha=3)], license_id="lic-3", x=11,
        published_terms="read-only", encrypted_license=b"sealed", terms_signature=bytes(64)))


@pytest.mark.parametrize("key", ["license", "x", "published_terms", "blob", "terms_signature"])
def test_a_kind_b_record_missing_a_b_line_is_refused(params64, key):
    text = b_record(params64)
    parse_case(text)
    cut = "".join(line for line in text.splitlines(keepends=True)
                  if not line.startswith(f"{key}: "))
    with pytest.raises(MalformedEvidence, match=f"^no '{key}' line$"):
        parse_case(cut)


@pytest.mark.parametrize("line", ["audit_x: 5", "audit_price: 2", "audit_blob: c2VhbGVk",
                                  "buyer_key: 13", "seller_values: 7 8"],
                         ids=lambda line: line.split(":")[0])
def test_a_line_of_a_value_the_arbitrator_holds_is_refused(params64, line):
    # the catalog holds the audited license's factor, price and blob, the
    # steps replay type B's key, and type C's m is the step's
    for kind in "BCD":
        text = b_record(params64).replace("kind: B", f"kind: {kind}")
        parse_case(text)
        lineno = len(text.splitlines()) + 1
        with pytest.raises(MalformedEvidence, match=re.escape(
                f"line {lineno}: unknown key {line.split(':')[0]!r}")):
            parse_case(text + line + "\n")


def test_a_stray_b_line_in_a_d_record_is_read_as_absent_and_never_answered(params64):
    keys, cat, bank, session = completed_session(params64, price=2, seed=86)
    text = write_case(build_type_d_case(cat, session))
    stray = text + "license: lic-2\nx: 5\n"
    case = parse_case(stray)
    assert case == parse_case(text)
    assert (case.license_id, case.x) == ("", 0)
    answered = write_case(answer_case(case, SellerDisputeAgent(keys, cat, random.Random(87))))
    assert not re.search(r"^(license|x): ", answered, re.MULTILINE)
    assert answered.startswith(text)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Verdicts of the records in tests/fixtures/case_d_answered_*.txt: answered
# type D records (64-bit group, basic mode, three steps) written before
# batched proofs existed, with one proof per step, link and segment.  The
# catalog entry each one audits is (id, price, x, blob).
AUDITED = {
    "honest": ("lic-2", 2, 13080068420724172964,
               "dkbn55nEMFFM0+ZJN9rN1opvGFR5KeP1XRxlb7zMYzkxDQFX1vMyTcZg0BttwgWmPWTotuu02F/vEsm"
               "TmeB5An85tzeTPuNkQKMa9Ltiv6mnOA=="),
    "wrong_s": ("lic-3", 3, 11629218839303069250,
                "p4x1uKCvnls5S7o4BLbdQ1VDvu3Y1jofKyRXhBt/aN4+G2/7zc3QIgJwLWpQOTDdJnut51PTFw1aZVV"
                "RY4JmxuJJKXeI8W3FGEwAlUrIJPozDQ=="),
}
PINNED_REPLAYS = {
    "honest": [
        ("D-method1", BUYER_CLAIM_REJECTED, "all steps proven correct; seller is honest", 3),
        ("D-method2", BUYER_CLAIM_REJECTED,
         "audited chain valid and all steps proven; seller is honest", 3),
    ],
    "wrong_s": [
        ("D-method1", SELLER_AT_FAULT, "step 2: response not proven consistent with K_1", 2),
        ("D-method2", SELLER_AT_FAULT,
         "step 2: response not proven consistent with the audited chain", 2),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_REPLAYS))
def test_record_without_batch_proofs_replays(name):
    text = (FIXTURES / f"case_d_answered_{name}.txt").read_text()
    assert "batch_proof" not in text and "step_proof: " in text
    case = parse_case(text)
    assert write_case(case) == text
    license_id, price, x, blob = AUDITED[name]
    assert case.audit_license_id == license_id
    audited = LicenseEntry(license_id=license_id, content_id="", price=price, x=x, terms="",
                           encrypted_license=base64.b64decode(blob), terms_signature=b"")
    cat = Catalog(params=case.params, verify_pk=case.verify_pk, licenses=[audited],
                  k_table=case.k_table)
    got = [(label, v.outcome, v.rationale, v.checked_steps)
           for label, v in resolve_case(case, cat)]
    assert got == PINNED_REPLAYS[name]


# --- type D method 3 ----------------------------------------------------------------------

def test_method3_honest_seller_rejected(params64):
    keys, cat, bank, session = completed_session(params64, price=4)
    verdict = resolve_type_d_method3(build_type_d_case(cat, session), keys.s)
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    assert verdict.checked_steps == 4


@pytest.fixture()
def pow_fast_calls(monkeypatch):
    """Calls of dispute.pow_fast, the full-size powers the resolvers make
    themselves (a composite's 128-bit weights are group.pow_fast calls)."""
    calls = []
    original = dispute.pow_fast

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dispute, "pow_fast", counting)
    return calls


@pytest.fixture()
def full_size_powers(monkeypatch):
    """The number of pow_fast calls, the DLEQ proofs' own included, whose
    exponent is larger than 256 bits once reduced mod q."""
    count = [0]
    original = group.pow_fast

    def counting(base, e, params):
        count[0] += (e % params.q).bit_length() > 256
        return original(base, e, params)

    monkeypatch.setattr(group, "pow_fast", counting)
    monkeypatch.setattr(dispute, "pow_fast", counting)
    return count


def test_an_honest_answer_and_its_check_make_16_and_3_full_size_powers(full_size_powers):
    # Two steps of value 1 and a price-3 audit at ffdhe2048.  The answer:
    # method 1 derives g^s once and proves the batch with three powers;
    # method 2 reveals three chain entries and proves the links and the
    # steps with three each, x^s read from the store.  Each of the three
    # batch proofs then costs the arbitrator one power.
    params = NAMED_GROUPS["ffdhe2048"]
    keys, cat, bank, handler, session = rig(params, price=2, seed=40, prices=(2, 3))
    run_purchase(session, handler.handle)
    case = build_type_d_case(cat, session)
    full_size_powers[0] = 0
    answered = answer_case(case, SellerDisputeAgent(keys, cat, random.Random(9)))
    assert (cat.entry(answered.audit_license_id).price, sorted(answered.batch_proofs)) == (
        3, [("link", 1), ("segment", 1), ("step", 1)])
    assert full_size_powers[0] == 16
    record = parse_case(write_case(answered))
    full_size_powers[0] = 0
    verdicts = resolve_case(record, catalog=cat)
    assert [v.outcome for _, v in verdicts] == [BUYER_CLAIM_REJECTED] * 2
    assert full_size_powers[0] == 3


@pytest.fixture()
def composites(monkeypatch):
    """The pair lists dispute.dleq_composite folded, in call order."""
    folded = []
    original = dispute.dleq_composite

    def recording(pairs, *rest):
        folded.append(list(pairs))
        return original(pairs, *rest)

    monkeypatch.setattr(dispute, "dleq_composite", recording)
    return folded


def test_method3_checks_eight_steps_and_the_binding_with_one_power(params64, pow_fast_calls,
                                                                   composites):
    keys, cat, bank, session = completed_session(params64, price=8, seed=72)
    case = build_type_d_case(cat, session)
    verdict = resolve_type_d_method3(case, keys.s)
    assert verdict == Verdict(BUYER_CLAIM_REJECTED,
                              "all responses recompute exactly; seller is honest", 8)
    assert len(pow_fast_calls) == 1
    # the binding (g, K_1) joins the composite at weight one, outside the fold
    assert composites == [[(st.m, st.m_out) for st in case.steps]]


@pytest.fixture()
def weight_powers(monkeypatch):
    """The number of group.pow_fast calls: a composite's 128-bit weight
    powers, which dispute's own full-size powers do not pass through."""
    count = [0]
    original = group.pow_fast

    def counting(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(group, "pow_fast", counting)
    return count


@pytest.mark.parametrize("price", [1, 2, 4])
def test_method3_weighs_each_step_and_not_the_binding(params64, pow_fast_calls, weight_powers,
                                                      price):
    keys, cat, bank, session = completed_session(params64, price=price, seed=72)
    verdict = resolve_type_d_method3(build_type_d_case(cat, session), keys.s)
    assert verdict.outcome == BUYER_CLAIM_REJECTED
    assert (weight_powers[0], len(pow_fast_calls)) == (2 * price, 1)


@pytest.mark.parametrize("price", [1, 2])
def test_method3_convicts_a_binding_and_a_step_wrong_by_inverse_factors(params64, price):
    # K_1 off by u and the last step off by u^-1, re-signed: a plain product
    # of the binding and the step would cancel the two, a weighted one not.
    keys, cat = make_catalog(params64, prices=(price,), seed=85)
    p = params64
    case = signed_d_case(keys, cat, [(None, None, 1)] * price, random.Random(86))
    u = pow(p.g, 12345, p.n)
    case.k_table[1] = mul_mod(case.k_table[1], u, p)
    last = case.steps[-1]
    m_out = mul_mod(last.m_out, pow(u, -1, p.n), p)
    case.steps[-1] = replace(last, m_out=m_out, signature=sign_payload(
        keys.sign_sk, step_payload(last.m, m_out)))
    assert resolve_type_d_method3(case, keys.s) == Verdict(
        SELLER_AT_FAULT, "revealed factor does not match the public commitment", 0)


def test_method3_wrong_s_step_at_fault(params64):
    for bad_step in range(1, 5):
        keys, cat, bank, handler, session = rig(params64, price=4, seed=66)
        outcome, _, case = dispute.settle_purchase(
            session, FaultingSeller(handler, "wrong-s", bad_step).handle)
        assert outcome == "key-unusable"
        verdict = resolve_type_d_method3(case, keys.s)
        assert verdict == Verdict(SELLER_AT_FAULT,
                                  f"step {bad_step}: recomputed response differs", bad_step)


def test_method3_commitment_mismatch(params64, pow_fast_calls):
    keys, cat, bank, session = completed_session(params64, price=2, seed=64)
    verdict = resolve_type_d_method3(build_type_d_case(cat, session), keys.s + 1)
    assert verdict == Verdict(SELLER_AT_FAULT,
                              "revealed factor does not match the public commitment", 0)
    # the failed composite, then the binding alone
    assert len(pow_fast_calls) == 2


@pytest.mark.parametrize("values, bad_step, folded", [
    ((1, 1, 1, 1), 3, []),   # the bad pair keeps its whole value out of the fold
    ((1, 1, 2, 2), 4, [2]),  # value 1 still folds its two steps (the binding at weight one)
])
def test_method3_keeps_a_non_member_out_of_the_fold(params64, composites, values, bad_step,
                                                    folded):
    keys, cat = make_catalog(params64, prices=(8,), seed=82)
    honest = signed_d_case(keys, cat, [(None, None, t) for t in values], random.Random(83))
    steps = [(st.m, st.m_out, st.t) for st in honest.steps]
    m, m_out, t = steps[bad_step - 1]
    steps[bad_step - 1] = (m, params64.n - m_out, t)  # re-signed with an order-2 component
    verdict = resolve_type_d_method3(signed_d_case(keys, cat, steps, None), keys.s)
    assert verdict == Verdict(SELLER_AT_FAULT, f"step {bad_step}: recomputed response differs",
                              bad_step)
    assert [len(pairs) for pairs in composites] == folded
    assert all((m, params64.n - m_out) not in pairs for pairs in composites)


def _method3_per_step(case: DisputeCase, s_revealed: int) -> Verdict:
    """Method 3 without the fold: the binding, then each step in order, one
    power each.  The reference the folded resolver must agree with."""
    p = case.params
    if 1 not in case.k_table:
        raise MalformedEvidence("no unblinding key for value 1")
    s = s_revealed % p.q
    if pow_mod(p.g, s, p) != case.k_table[1]:
        return Verdict(SELLER_AT_FAULT, "revealed factor does not match the public commitment", 0)
    for i, st in enumerate(case.steps, 1):
        if not verify_payload(case.verify_pk, step_payload(st.m, st.m_out), st.signature):
            raise MalformedEvidence(f"step {i}: step signature invalid")
        if pow_mod(st.m, pow(s, st.t, p.q), p) != st.m_out:
            return Verdict(SELLER_AT_FAULT, f"step {i}: recomputed response differs", i)
    return Verdict(BUYER_CLAIM_REJECTED, "all responses recompute exactly; seller is honest",
                   len(case.steps))


@pytest.fixture(scope="module")
def fold_catalog(params64):
    return make_catalog(params64, prices=(8,), seed=84)


_CORRUPTIONS = ("none", "edit-one", "edit-two", "zero-before", "zero-after", "s-plus-one",
                "edit-k1", "non-member-k1", "non-member", "k1-cancels-step")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=strategies.data())
def test_method3_fold_matches_the_per_step_check(params64, fold_catalog, data):
    keys, cat = fold_catalog
    p = params64
    if data.draw(strategies.booleans(), label="enhanced"):
        values = data.draw(strategies.lists(strategies.sampled_from((1, 2, 4)),
                                            min_size=1, max_size=8))
    else:
        values = [1] * data.draw(strategies.integers(1, 8), label="price")
    case = signed_d_case(keys, cat, [(None, None, t) for t in values],
                         random.Random(data.draw(strategies.integers(0, 2**32), label="seed")))
    corruption = data.draw(strategies.sampled_from(_CORRUPTIONS), label="corruption")
    steps = len(values)
    position = strategies.integers(0, steps - 1)

    def resign(i, m_out):
        step = case.steps[i]
        case.steps[i] = replace(step, m_out=m_out, signature=sign_payload(
            keys.sign_sk, step_payload(step.m, m_out)))

    def edit(i):
        resign(i, mul_mod(case.steps[i].m_out, p.g, p))

    s_revealed = keys.s
    if corruption in ("edit-one", "edit-two"):
        edited = data.draw(strategies.lists(position, min_size=1, unique=True,
                                            max_size=1 if corruption == "edit-one" else 2))
        for i in edited:
            edit(i)
    elif corruption in ("zero-before", "zero-after") and steps >= 2:
        bad, zeroed = data.draw(strategies.lists(position, min_size=2, max_size=2,
                                                 unique=True))
        if (zeroed < bad) != (corruption == "zero-before"):
            bad, zeroed = zeroed, bad
        edit(bad)
        case.steps[zeroed] = replace(case.steps[zeroed], signature=bytes(64))
    elif corruption == "s-plus-one":
        s_revealed = keys.s + 1
    elif corruption == "edit-k1":
        case.k_table[1] = mul_mod(case.k_table[1], p.g, p)
    elif corruption == "non-member-k1":
        case.k_table[1] = p.n - case.k_table[1]
    elif corruption == "non-member":
        i = data.draw(position)
        resign(i, p.n - case.steps[i].m_out)
    elif corruption == "k1-cancels-step":  # K_1 off by g, a step of value 1 by g^-1
        case.k_table[1] = mul_mod(case.k_table[1], p.g, p)
        i = data.draw(position)
        if case.steps[i].t == 1:
            resign(i, mul_mod(case.steps[i].m_out, pow(p.g, -1, p.n), p))

    def outcome(resolve):
        try:
            return astuple(resolve(deepcopy(case), s_revealed))
        except BlindpayError as exc:
            return type(exc), str(exc)

    assert outcome(resolve_type_d_method3) == outcome(_method3_per_step)


def test_method3_without_a_generation_factor_raises(params64):
    keys, cat, bank, session = completed_session(params64, price=2, seed=64)
    with pytest.raises(MalformedEvidence, match="no generation factor"):
        resolve_type_d_method3(build_type_d_case(cat, session))


def test_method3_without_k1_raises(params64):
    keys, cat, bank, session = completed_session(params64, price=2, seed=64)
    case = build_type_d_case(cat, session)
    del case.k_table[1]
    with pytest.raises(MalformedEvidence, match="no unblinding key for value 1$"):
        resolve_type_d_method3(case, keys.s)


def test_method3_refuses_an_unsigned_step(params64):
    keys, cat, bank, session = completed_session(params64, price=2, seed=64)
    case = build_type_d_case(cat, session)
    case.steps[0] = replace(case.steps[0], signature=bytes(64))
    with pytest.raises(MalformedEvidence, match="step 1: step signature invalid"):
        resolve_type_d_method3(case, keys.s)


# --- type A cannot happen ------------------------------------------------------------------

@pytest.mark.parametrize("paid_steps", [0, 1, 2, 3])
def test_truncated_purchase_cannot_decrypt(params64, paid_steps):
    keys, cat, bank, handler, session = rig(params64, price=4, seed=65, prices=(4,))
    for _ in range(paid_steps):
        buyer_process_response(session, handler.handle(buyer_step_request(session)))
    from blindpay.errors import SessionStateError
    with pytest.raises(SessionStateError, match="units still unpaid"):
        buyer_finish(session)
    # even decrypting directly with the partial accumulator fails
    from blindpay.catalog import decrypt_license
    with pytest.raises(AuthenticationFailure):
        decrypt_license(session.acc, session.entry.encrypted_license)


# --- privacy, determinism, replay ------------------------------------------------------------

def _tokens(text):
    return set(re.split(r"[\s:]+", text))


def test_case_records_for_c_and_d_hide_buyer_data(params64):
    keys, cat, bank, session = completed_session(params64, price=3, seed=66)
    spent_cards = [cid for cards in session.step_cards for cid in cards]
    x = session.entry.x

    d_text = write_case(build_type_d_case(cat, session))
    keys2, cat2, case_c = corrupt_signature_case(params64, seed=67)
    c_text = write_case(case_c)
    for text in (d_text, c_text):
        toks = _tokens(text)
        for cid in spent_cards:
            assert cid not in text
        assert str(x) not in toks
        assert "lic-3" not in text
        assert "alpha" not in text
        for st_line in [l for l in text.splitlines() if l.startswith("step: ")]:
            assert st_line.split()[4] == "-"  # no blinding exponent disclosed


def test_type_b_record_reveals_license_but_never_cards(params64):
    keys, cat, bank, session = completed_session(params64, price=3, seed=68)
    text = write_case(build_type_b_case(cat, session))
    assert "lic-3" in text  # type B inherently reveals the license
    for cards in session.step_cards:
        for cid in cards:
            assert cid not in text


def test_case_replay_reaches_same_verdict(params64, tmp_path):
    keys, cat, bank, session = completed_session(params64, price=4, wrong_s_at=2)
    agent = SellerDisputeAgent(keys, cat, random.Random(11))
    case = build_type_d_case(cat, session)
    live1 = resolve_type_d_method1(case, agent)
    live2 = resolve_type_d_method2(case, cat, agent, random.Random(12))
    live3 = resolve_type_d_method3(case, agent.reveal_s())

    replayed = parse_case(write_case(case))
    assert resolve_type_d_method1(replayed) == live1
    assert resolve_type_d_method2(replayed, cat) == live2
    assert resolve_type_d_method3(replayed) == live3
    # and determinism on the exact same record
    assert resolve_type_d_method1(parse_case(write_case(case))) == live1


def test_case_record_with_composite_modulus_refused(params64):
    # With a composite n, neither Euler's criterion nor the Jacobi symbol
    # decides membership of the order-q subgroup, so the record is refused.
    keys, cat, bank, session = completed_session(params64, price=2, seed=71)
    text = write_case(build_type_d_case(cat, session))
    p = params64
    bad_n = 3 * p.n
    forged = (text.replace(f"n: {p.n}\n", f"n: {bad_n}\n")
                  .replace(f"q: {p.q}\n", f"q: {(bad_n - 1) // 2}\n")
                  .replace(f"bits: {p.bits}\n", f"bits: {bad_n.bit_length()}\n"))
    assert forged != text
    parse_case(text)
    with pytest.raises(MalformedEvidence):
        parse_case(forged)


def test_resolve_case_dispatch(params64):
    keys, cat, bank, session = completed_session(params64, price=2, seed=69)
    agent = SellerDisputeAgent(keys, cat, random.Random(13))
    answered = answer_case(build_type_d_case(cat, session), agent)
    answered.s_revealed = agent.reveal_s()
    results = resolve_case(answered, catalog=cat)
    assert [label for label, _ in results] == ["D-method1", "D-method2", "D-method3"]
    assert all(v.outcome == BUYER_CLAIM_REJECTED for _, v in results)


# the position of the seller among each resolver's parameters, where it had one
TAKES_A_SELLER = {"resolve_case": 2, "resolve_type_d_method1": 1, "resolve_type_d_method2": 2}


def test_only_answer_case_hands_a_seller_to_the_resolvers():
    """A seller answers a case record once, in answer_case; every judgement,
    the scenario runner's as much as arbitrate's, is of a record alone."""
    package = pathlib.Path(dispute.__file__).parent
    handed, takes = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and path.name == "dispute.py":
                if fn.name == "answer_case":
                    allowed = {id(node) for node in ast.walk(fn)}
                if fn.name == "resolve_case":
                    takes = sorted({a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
                                   & {"seller", "rng"})
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in allowed:
                continue
            at = TAKES_A_SELLER.get(getattr(call.func, "id", getattr(call.func, "attr", None)))
            if at is None:
                continue
            given = call.args[at:at + 1] + [kw.value for kw in call.keywords
                                            if kw.arg == "seller"]
            if any(not (isinstance(v, ast.Constant) and v.value is None) for v in given):
                handed.append(f"{path.name}:{call.lineno}")
    assert not handed and not takes, (
        f"a seller handed to a resolver outside answer_case at {handed}; "
        f"resolve_case takes {takes}")
    # type C's resolver reads the record alone; answer_case asks the seller
    assert list(inspect.signature(resolve_type_c).parameters) == ["case"]


# --- K-table doubling consistency ---------------------------------------------------------------

def test_k_table_consistency_proofs(params64):
    keys, cat = make_catalog(params64, prices=(5,))
    proofs = prove_k_table(keys, cat, random.Random(15))
    assert set(proofs) == {(1, 2), (2, 4)}
    assert verify_k_table(cat, proofs)
    cat.k_table[4] = mul_mod(cat.k_table[4], params64.g, params64)
    assert not verify_k_table(cat, proofs)


def test_k_table_on_a_wrong_exponent_passes_methods_1_and_3(params64):
    # The seller publishes a self-consistent K table built on e = 7s + 3,
    # not on the s its licenses are encrypted under, and answers steps and
    # proofs with e.  The catalog verifies, and so do the K table's
    # consistency proofs, yet the buyer's key is dead.
    p = params64
    keys, cat = make_catalog(p, prices=(2, 3), seed=90)
    liar = replace(keys, s=(7 * keys.s + 3) % p.q)
    k_table = {t: pow_mod(p.g, pow(liar.s, t, p.q), p) for t in cat.k_table}
    cat = replace(cat, k_table=k_table,
                  k_table_signature=sign_payload(keys.sign_sk, k_table_payload(p, k_table)))
    assert verify_catalog(cat) == []
    assert verify_k_table(cat, prove_k_table(liar, cat, random.Random(91)))
    bank = CardLedger(rng=random.Random(92))
    session = buyer_begin(cat, "lic-3", fund(bank, [1, 1, 1]), refresh_blinding=False,
                          rng=random.Random(93))
    with pytest.raises(AuthenticationFailure):
        run_purchase(session, SellerStepHandler(liar, p, bank, "seller-1").handle)
    agent = SellerDisputeAgent(liar, cat, random.Random(94))
    answered = answer_case(build_type_d_case(cat, session), agent)
    answered.s_revealed = agent.reveal_s()
    verdicts = dict(resolve_case(answered, catalog=cat))
    assert verdicts["D-method2"].outcome == SELLER_AT_FAULT
    assert verdicts["D-method2"].rationale == "revealed key does not decrypt the audited license"
    # ROADMAP 4a's open hole: both methods find the seller honest.  Its fix
    # must flip these two to SELLER_AT_FAULT.
    assert verdicts["D-method1"].outcome == BUYER_CLAIM_REJECTED
    assert verdicts["D-method3"].outcome == BUYER_CLAIM_REJECTED
