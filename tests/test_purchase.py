import ast
import pathlib
import random
from dataclasses import replace

import pytest

from blindpay import purchase, wire
from blindpay.cards import CardLedger
from blindpay.catalog import derive_license_key
from blindpay.errors import (
    BadStepSignature,
    CardError,
    InsufficientFunds,
    MalformedElement,
    SessionStateError,
)
from blindpay.group import mul_mod, pow_mod
from blindpay.harness import OpCounter
from blindpay.purchase import (
    MODE_BASIC,
    MODE_ENHANCED,
    SellerStepHandler,
    StepResponse,
    begin_upgrade,
    buyer_begin,
    buyer_finish,
    buyer_process_response,
    buyer_step_request,
    plan_for,
    plan_steps,
    run_purchase,
    seller_handle_step,
)

from conftest import make_catalog


def fund(bank, plan):
    cards = []
    for t in plan:
        cards += bank.issue_cards(1, t)
    bank.distribute([c.card_id for c in cards], "store-1")
    return [(c.card_id, c.value) for c in cards]


def rig(params, price=3, mode=MODE_BASIC, refresh=False, seed=5, prices=None, ops=None):
    keys, cat = make_catalog(params, prices=prices or (price,), seed=seed)
    bank = CardLedger(rng=random.Random(seed + 1))
    cards = fund(bank, plan_for(cat, price, mode))
    handler = SellerStepHandler(keys, params, bank, "seller-1")
    rng = random.Random(seed + 2)
    session = buyer_begin(cat, f"lic-{price}", cards, mode=mode,
                          refresh_blinding=refresh, rng=rng, ops=ops)
    return keys, cat, bank, handler, session


# --- planning -------------------------------------------------------------------

def test_plan_steps_examples():
    assert plan_steps(1, {1}) == [1]
    assert plan_steps(5, {1, 2, 4}) == [4, 1]
    for p in range(1, 65):
        assert plan_steps(p, {1}) == [1] * p


def test_plan_steps_binary_decomposition():
    assert plan_steps(6, {1, 2, 4}) == [4, 2]
    assert plan_steps(31, {1, 2, 4, 8, 16}) == [16, 8, 4, 2, 1]
    assert plan_steps(8, {1, 2, 4}) == [4, 4]
    assert sum(plan_steps(57, {1, 2, 4, 8, 16})) == 57


def test_plan_steps_requires_unit():
    with pytest.raises(ValueError):
        plan_steps(3, {2, 4})
    with pytest.raises(ValueError):
        plan_steps(0, {1})


# --- request construction -----------------------------------------------------------

def test_first_request_is_r_times_x(params64):
    keys, cat, bank, handler, session = rig(params64)
    req = buyer_step_request(session)
    entry = cat.entry("lic-3")
    assert req.m == mul_mod(session.r, entry.x, params64)
    assert req.m == mul_mod(pow_mod(params64.g, session.alpha, params64),
                            entry.x, params64)
    assert len(req.card_ids) == 1


def test_second_request_is_r_times_x_to_s(params64):
    keys, cat, bank, handler, session = rig(params64)
    resp = handler.handle(buyer_step_request(session))
    buyer_process_response(session, resp)
    x = cat.entry("lic-3").x
    assert session.acc == pow_mod(x, keys.s, params64)
    req2 = buyer_step_request(session)
    assert req2.m == mul_mod(session.r, pow_mod(x, keys.s, params64), params64)


def test_refresh_uses_distinct_r(params64):
    keys, cat, bank, handler, session = rig(params64, refresh=True)
    r_values = []
    while session.remaining > 0:
        req = buyer_step_request(session)
        r_values.append(session.r)
        buyer_process_response(session, handler.handle(req))
    assert len(set(r_values)) == len(r_values)


def test_request_after_completion_rejected(params64):
    keys, cat, bank, handler, session = rig(params64, price=1, prices=(1,))
    buyer_process_response(session, handler.handle(buyer_step_request(session)))
    with pytest.raises(SessionStateError, match="all units already paid"):
        buyer_step_request(session)


# --- the central correctness oracle -----------------------------------------------------

@pytest.mark.parametrize("mode", [MODE_BASIC, MODE_ENHANCED])
@pytest.mark.parametrize("refresh", [False, True])
def test_final_key_matches_direct_derivation(params32, mode, refresh):
    for price in range(1, 17):
        keys, cat, bank, handler, session = rig(params32, price=price, mode=mode,
                                                refresh=refresh, prices=(price,))
        plain = run_purchase(session, handler.handle)
        expected = derive_license_key(cat.entry(f"lic-{price}").x, price,
                                      keys.s, params32)
        assert session.acc == expected
        assert plain.license_id == f"lic-{price}"
        assert bank.balance("seller-1") == price


@pytest.mark.parametrize("mode", [MODE_BASIC, MODE_ENHANCED])
def test_accumulator_invariant_at_every_boundary(params32, mode):
    # acc must equal x^(s^(paid units)) after every single step, not just at
    # the end
    price = 13
    keys, cat, bank, handler, session = rig(params32, price=price, mode=mode,
                                            prices=(price,))
    x = cat.entry(f"lic-{price}").x
    while session.remaining > 0:
        buyer_process_response(session, handler.handle(buyer_step_request(session)))
        paid = price - session.remaining
        assert session.acc == derive_license_key(x, paid, keys.s, params32)


def test_payment_completeness_on_failure(params64):
    # a replayed card aborts the step; only the units before the failure
    # were charged
    keys, cat = make_catalog(params64, prices=(4,))
    bank = CardLedger(rng=random.Random(6))
    cards = fund(bank, [1, 1, 1, 1])
    bank.spend_atomic([cards[2][0]], "seller-0")  # pre-burn card 3
    handler = SellerStepHandler(keys, params64, bank, "seller-1")
    session = buyer_begin(cat, "lic-4", cards, rng=random.Random(1))
    with pytest.raises(CardError) as exc:
        run_purchase(session, handler.handle)
    assert exc.value.code == "already-spent"
    assert bank.balance("seller-1") == 2
    assert session.remaining == 2
    bank.check_conservation()


# --- seller behaviour ---------------------------------------------------------------------

def test_seller_spends_before_exponentiation(params64):
    keys, cat = make_catalog(params64, prices=(2,))
    bank = CardLedger(rng=random.Random(7))
    cards = fund(bank, [1, 1])
    bank.spend_atomic([cards[0][0]], "seller-0")
    ops = OpCounter()
    handler = SellerStepHandler(keys, params64, bank, "seller-1", ops=ops)
    req = wire.StepReq(card_ids=[cards[0][0]], m=cat.entry("lic-2").x)
    with pytest.raises(CardError) as exc:
        handler.handle(req)
    assert exc.value.code == "already-spent"
    assert ops.exponentiations == 0
    assert ops.signings == 0
    assert bank.balance("seller-1") == 0


def test_seller_rejects_nonmember_before_spending(params64):
    keys, cat = make_catalog(params64, prices=(1,))
    bank = CardLedger(rng=random.Random(8))
    cards = fund(bank, [1])
    handler = SellerStepHandler(keys, params64, bank, "seller-1")
    bad = wire.StepReq(card_ids=[cards[0][0]], m=params64.n - 1)  # not a QR
    with pytest.raises(MalformedElement):
        handler.handle(bad)
    # the card survived the malformed request
    assert bank.cards[cards[0][0]].status.value == "distributed"


def test_seller_rejects_unknown_card(params64):
    keys, cat = make_catalog(params64, prices=(1,))
    bank = CardLedger(rng=random.Random(9))
    handler = SellerStepHandler(keys, params64, bank, "seller-1")
    with pytest.raises(CardError) as exc:
        handler.handle(wire.StepReq(card_ids=["00" * 16], m=cat.entry("lic-1").x))
    assert exc.value.code == "unknown-card"


def test_seller_multicard_step_uses_combined_exponent(params64):
    keys, cat = make_catalog(params64, prices=(2,))
    bank = CardLedger(rng=random.Random(10))
    cards = fund(bank, [1, 1])
    handler = SellerStepHandler(keys, params64, bank, "seller-1")
    m = cat.entry("lic-2").x
    resp = seller_handle_step(wire.StepReq(card_ids=[c for c, _ in cards], m=m),
                              keys, bank, params64, "seller-1")
    assert resp.m_out == pow_mod(m, pow(keys.s, 2, params64.q), params64)
    assert resp.m_out == resp.m_out % params64.n
    assert bank.balance("seller-1") == 2
    assert handler is not None


def test_seller_handles_concurrent_requests(params64):
    # the handler is a pure function plus one linearizable ledger call, so
    # parallel invocations must all succeed and charge exactly once each
    import threading
    keys, cat = make_catalog(params64, prices=(1,))
    bank = CardLedger(rng=random.Random(16))
    cards = fund(bank, [1] * 16)
    handler = SellerStepHandler(keys, params64, bank, "seller-1")
    x = cat.entry("lic-1").x
    results, errors = [], []

    def one_step(card_id):
        try:
            results.append(handler.handle(wire.StepReq(card_ids=[card_id], m=x)))
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=one_step, args=(cid,)) for cid, _ in cards]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(results) == 16
    assert len({r.m_out for r in results}) == 1  # same request, same answer
    assert bank.balance("seller-1") == 16
    bank.check_conservation()


def test_seller_is_stateless(params64):
    keys, cat = make_catalog(params64, prices=(1,))
    m = mul_mod(cat.entry("lic-1").x, pow_mod(params64.g, 99, params64), params64)

    def fresh_response():
        bank = CardLedger(rng=random.Random(11))
        cards = fund(bank, [1])
        handler = SellerStepHandler(keys, params64, bank, "seller-1")
        return handler.handle(wire.StepReq(card_ids=[cards[0][0]], m=m))

    first, second = fresh_response(), fresh_response()
    assert first.m_out == second.m_out
    assert first.step_signature == second.step_signature  # deterministic signing


# --- response processing ----------------------------------------------------------------

def test_bad_signature_aborts_with_evidence(params64):
    keys, cat, bank, handler, session = rig(params64)
    resp = handler.handle(buyer_step_request(session))
    corrupt = StepResponse(m_out=resp.m_out,
                           step_signature=bytes(64))
    acc_before = session.acc
    with pytest.raises(BadStepSignature) as exc:
        buyer_process_response(session, corrupt)
    assert session.acc == acc_before
    assert exc.value.step.m_out == resp.m_out
    assert exc.value.step.t == 1


def test_tampered_m_out_fails_signature(params64):
    keys, cat, bank, handler, session = rig(params64)
    resp = handler.handle(buyer_step_request(session))
    forged = StepResponse(m_out=mul_mod(resp.m_out, params64.g, params64),
                          step_signature=resp.step_signature)
    with pytest.raises(BadStepSignature):
        buyer_process_response(session, forged)


def test_finish_early_rejected(params64):
    keys, cat, bank, handler, session = rig(params64, price=3)
    buyer_process_response(session, handler.handle(buyer_step_request(session)))
    with pytest.raises(SessionStateError, match="units still unpaid"):
        buyer_finish(session)


def test_insufficient_funds(params64):
    keys, cat = make_catalog(params64, prices=(3,))
    bank = CardLedger(rng=random.Random(12))
    cards = fund(bank, [1])
    with pytest.raises(InsufficientFunds):
        buyer_begin(cat, "lic-3", cards)


def test_buyer_begin_refuses_an_unknown_mode(params64):
    keys, cat = make_catalog(params64, prices=(1,))
    cards = fund(CardLedger(rng=random.Random(13)), [1])
    with pytest.raises(ValueError, match="unknown mode 'turbo'"):
        buyer_begin(cat, "lic-1", cards, mode="turbo")


def test_allocation_finds_what_greedy_misses(params64):
    # Largest-first greedy puts the 3 on the 4-unit step and is left one
    # unit short; 2 + 2 pays it.
    keys, cat = make_catalog(params64, prices=(4,))
    bank = CardLedger(rng=random.Random(14))
    cards = fund(bank, [3, 2, 2])
    session = buyer_begin(cat, "lic-4", cards, mode=MODE_ENHANCED,
                          rng=random.Random(15))
    assert session.plan == [4]
    twos = sorted(cid for cid, value in cards if value == 2)
    assert sorted(session.step_cards[0]) == twos


def test_allocation_infeasible_still_refused(params64):
    # Enough units in total, but no subset of {3, 3} sums to 4.
    keys, cat = make_catalog(params64, prices=(4,))
    bank = CardLedger(rng=random.Random(16))
    cards = fund(bank, [3, 3])
    with pytest.raises(InsufficientFunds):
        buyer_begin(cat, "lic-4", cards, mode=MODE_ENHANCED)
    with pytest.raises(InsufficientFunds):
        buyer_begin(cat, "lic-4", fund(bank, [2] * 5), mode=MODE_BASIC)


def test_allocation_backs_up_across_steps(params64):
    # Step one's first pick, 3 + 1, leaves nothing of value 1 for step two:
    # the search must give it back and pay step one with 2 + 2.
    keys, cat = make_catalog(params64, prices=(5,))
    bank = CardLedger(rng=random.Random(17))
    cards = fund(bank, [3, 1, 2, 2])
    value = dict(cards)
    session = buyer_begin(cat, "lic-5", cards, mode=MODE_ENHANCED, rng=random.Random(18))
    assert session.plan == [4, 1]
    assert [[value[cid] for cid in step] for step in session.step_cards] == [[2, 2], [1]]
    # without a second 2, every pick for step one is a dead end
    with pytest.raises(InsufficientFunds):
        buyer_begin(cat, "lic-5", fund(bank, [3, 1, 2]), mode=MODE_ENHANCED)


def test_a_request_or_response_out_of_turn_is_refused(params64):
    keys, cat, bank, handler, session = rig(params64, price=2)
    req = buyer_step_request(session)
    with pytest.raises(SessionStateError, match="still awaiting its response"):
        buyer_step_request(session)
    resp = handler.handle(req)
    buyer_process_response(session, resp)
    with pytest.raises(SessionStateError, match="no request outstanding"):
        buyer_process_response(session, resp)
    assert session.remaining == 1


def test_missing_unit_power_rejected(params64):
    keys, cat = make_catalog(params64, prices=(2,))
    bank = CardLedger(rng=random.Random(13))
    cards = fund(bank, [1, 1])
    del cat.k_table[1]
    with pytest.raises(ValueError, match="no unblinding key for value 1$"):
        buyer_begin(cat, "lic-2", cards)


def test_enhanced_price_six_plan_and_unblinders(params64):
    keys, cat = make_catalog(params64, prices=(6,))
    bank = CardLedger(rng=random.Random(14))
    cards = fund(bank, [4, 2])
    session = buyer_begin(cat, "lic-6", cards, mode=MODE_ENHANCED,
                          refresh_blinding=False, rng=random.Random(15))
    assert session.plan == [4, 2]
    assert set(session.unblinders) == {2, 4}
    handler = SellerStepHandler(keys, params64, bank, "seller-1")
    run_purchase(session, handler.handle)
    assert session.acc == derive_license_key(cat.entry("lic-6").x, 6, keys.s, params64)


def test_wrong_s_seller_yields_dead_key(params32):
    keys, cat, bank, handler, session = rig(params32, price=2, prices=(2,))
    crooked_keys = replace(keys, s=keys.s + 1 if keys.s + 1 < params32.q else 2)
    crooked = SellerStepHandler(crooked_keys, params32, bank, "seller-1")
    buyer_process_response(session, handler.handle(buyer_step_request(session)))
    buyer_process_response(session, crooked.handle(buyer_step_request(session)))
    from blindpay.errors import AuthenticationFailure
    with pytest.raises(AuthenticationFailure):
        buyer_finish(session)


# --- blinding properties -----------------------------------------------------------------

def test_blinding_bijection_exhaustive_q11(params23):
    # every observable request value is reachable from every candidate
    # factor by exactly one blinding exponent
    subgroup = sorted({pow(4, k, 23) for k in range(11)})
    for x in subgroup:
        for m in subgroup:
            preimages = [a for a in range(11)
                         if (pow(4, a, 23) * x) % 23 == m]
            assert len(preimages) == 1


def test_request_values_cover_subgroup(params23):
    keys, cat = make_catalog(params23, prices=(1,), seed=3)
    x = cat.entry("lic-1").x
    rng = random.Random(0)
    seen = set()
    for _ in range(500):
        alpha = rng.randrange(11)
        seen.add((pow(4, alpha, 23) * x) % 23)
    assert len(seen) == 11


# --- upgrades ----------------------------------------------------------------------------

def upgrade_fixture(params, seed=20):
    keys, cat = make_catalog(params, prices=(2, 5), shared_x="family", seed=seed)
    bank = CardLedger(rng=random.Random(seed))
    handler = SellerStepHandler(keys, params, bank, "seller-1")
    return keys, cat, bank, handler


def test_upgrade_equals_direct_purchase(params64):
    keys, cat, bank, handler = upgrade_fixture(params64)
    cards = fund(bank, [1] * 2)
    session = buyer_begin(cat, "lic-2", cards, rng=random.Random(1))
    run_purchase(session, handler.handle)
    key_p2 = session.acc

    up_cards = fund(bank, [1] * 3)
    plain = run_purchase(begin_upgrade(cat, "lic-2", key_p2, "lic-5", up_cards,
                                       rng=random.Random(2)), handler.handle)
    assert plain.license_id == "lic-5"
    assert bank.balance("seller-1") == 5  # both phases together

    direct = derive_license_key(cat.entry("lic-5").x, 5, keys.s, params64)
    up_session = begin_upgrade(cat, "lic-2", key_p2, "lic-5",
                               fund(bank, [1] * 3), rng=random.Random(3))
    run_purchase(up_session, handler.handle)
    assert up_session.acc == direct


def test_upgrade_nothing_to_upgrade(params64):
    keys, cat, bank, handler = upgrade_fixture(params64)
    with pytest.raises(ValueError):
        begin_upgrade(cat, "lic-5", 4, "lic-2", [])
    with pytest.raises(ValueError):
        begin_upgrade(cat, "lic-2", 4, "lic-2", [])


def test_upgrade_rejects_mismatched_factor(params64):
    keys, cat = make_catalog(params64, prices=(2, 5), seed=21)  # distinct factors
    with pytest.raises(ValueError, match="different factors"):
        begin_upgrade(cat, "lic-2", 4, "lic-5", [("00" * 16, 1)] * 3)


def test_only_blind_computes_blinding_powers():
    """r = g^alpha and the unblinders K_t^alpha come from _blind alone, so
    begin and each refreshed step share one rule."""
    path = pathlib.Path(purchase.__file__)
    tree = ast.parse(path.read_text(), str(path))
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_blind":
            inside = {id(node) for node in ast.walk(fn)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "pow_fast"]
    assert uses, "pow_fast is no longer called"
    outside = [node.lineno for node in uses if id(node) not in inside]
    assert not outside, f"pow_fast used outside _blind at lines {outside}"


BILLED = {"exponentiations", "divisions", "signings", "verifications"}


def test_only_purchase_bills_the_cost_model():
    """The protocol bills each operation where it performs it, so the group
    arithmetic takes no counter and any algorithm may compute a power."""
    package = pathlib.Path(purchase.__file__).parent
    billing = []
    for path in sorted(package.glob("*.py")):
        if path.name == "purchase.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            targets = ([node.target] if isinstance(node, ast.AugAssign)
                       else node.targets if isinstance(node, ast.Assign) else [])
            billing += [f"{path.name}:{node.lineno}" for target in targets
                        if isinstance(target, ast.Attribute) and target.attr in BILLED]
    assert not billing, f"billed outside purchase.py at {billing}"

    group = pathlib.Path(package, "group.py")
    counted = [fn.name for fn in ast.walk(ast.parse(group.read_text(), str(group)))
               if isinstance(fn, ast.FunctionDef)
               and "ops" in {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}]
    assert not counted, f"group functions take a counter: {counted}"
