"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import pathlib
import random
import threading
import time
from contextlib import contextmanager

import pytest
import scipy.stats

from blindpay import wire
from blindpay.cards import CardLedger
from blindpay.catalog import decrypt_license, derive_license_key
from blindpay.dispute import (
    BUYER_CLAIM_REJECTED,
    SELLER_AT_FAULT,
    SELLER_MUST_RESIGN,
)
from blindpay.errors import CardError, MalformedMessage
from blindpay.group import dleq_equations_hold, gen_params
from blindpay.harness import Scenario, run_scenario
from blindpay.purchase import (
    MODE_BASIC,
    MODE_ENHANCED,
    SellerStepHandler,
    begin_upgrade,
    buyer_begin,
    run_purchase,
)

from conftest import PARAMS23, make_catalog
from test_purchase import fund


@contextmanager
def criterion(num, title):
    try:
        yield
    except Exception:
        print(f"criterion {num} FAIL: {title}")
        raise
    print(f"criterion {num} PASS: {title}")


def test_criterion_1_end_to_end_correctness():
    with criterion(1, "final key equals the direct tower for all sizes, prices, "
                      "modes and blinding settings, under 30 s"):
        started = time.perf_counter()
        prices = tuple(range(1, 17))
        for bits, seed in ((16, 201), (32, 202), (64, 203)):
            params = gen_params(bits, seed=seed)
            keys, cat = make_catalog(params, prices=prices, seed=seed)
            for p in prices:
                x = cat.entry(f"lic-{p}").x
                expected = derive_license_key(x, p, keys.s, params)
                for mode in (MODE_BASIC, MODE_ENHANCED):
                    for refresh in (False, True):
                        bank = CardLedger(rng=random.Random(seed + p))
                        powers = set(cat.k_table) if mode == MODE_ENHANCED else {1}
                        from blindpay.purchase import plan_steps
                        cards = fund(bank, plan_steps(p, powers))
                        handler = SellerStepHandler(keys, params, bank, "seller-1")
                        session = buyer_begin(cat, f"lic-{p}", cards, mode=mode,
                                              refresh_blinding=refresh,
                                              rng=random.Random(seed * p + refresh))
                        plain = run_purchase(session, handler.handle)
                        assert session.acc == expected
                        assert plain.license_id == f"lic-{p}"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_basic_operation_totals():
    with criterion(2, "basic mode operation totals are exactly p+2 (buyer) "
                      "and 2p (seller) for p in {1,2,4,8,16,31}"):
        for p in (1, 2, 4, 8, 16, 31):
            rep = run_scenario(Scenario(mode="basic", price=p, refresh=False, seed=7))
            assert rep.metrics.actor("buyer").table_total() == p + 2
            assert rep.metrics.actor("seller").table_total() == 2 * p


def test_criterion_3_enhanced_bounds():
    with criterion(3, "enhanced mode stays within 1+2*ceil(log2 p) buyer ops "
                      "(p=1 degenerates to the basic cost of 3) and uses "
                      "popcount(p) messages"):
        for p in (1, 2, 4, 8, 16, 31):
            rep = run_scenario(Scenario(mode="enhanced", price=p, refresh=False, seed=7))
            buyer = rep.metrics.actor("buyer")
            ceil_log = (p - 1).bit_length()
            if p == 1:
                assert buyer.table_total() == 3
            else:
                assert buyer.table_total() <= 1 + 2 * ceil_log
            assert buyer.messages_sent == bin(p).count("1")
            assert buyer.messages_sent <= ceil_log + 1


def test_criterion_4_payload_bits():
    with criterion(4, "payload bits match p(beta+gamma) / 2p*gamma in basic mode "
                      "and the message-count scaled forms in enhanced mode"):
        beta, gamma = 128, 64
        for p in (1, 2, 4, 8, 16, 31):
            basic = run_scenario(Scenario(mode="basic", price=p, refresh=False,
                                          group_bits=str(gamma), seed=7))
            assert basic.metrics.actor("buyer").payload_bits == p * (beta + gamma)
            assert basic.metrics.actor("seller").payload_bits == 2 * p * gamma
            enhanced = run_scenario(Scenario(mode="enhanced", price=p, refresh=False,
                                             group_bits=str(gamma), seed=7))
            msgs = bin(p).count("1")
            assert enhanced.metrics.actor("buyer").payload_bits == msgs * (beta + gamma)
            assert enhanced.metrics.actor("seller").payload_bits == 2 * msgs * gamma


def test_criterion_5_double_spend_safety():
    with criterion(5, "one winner out of 64 concurrent spends; a replayed card "
                      "aborts its step before any exponentiation; conservation "
                      "holds after every scenario"):
        ledger = CardLedger(rng=random.Random(55))
        (card,) = ledger.issue_cards(1, 1)
        ledger.distribute([card.card_id], "store-1")
        barrier = threading.Barrier(64)
        outcomes = []

        def attempt():
            barrier.wait()
            try:
                ledger.spend_atomic([card.card_id], "seller-1")
                outcomes.append("ok")
            except CardError as exc:
                outcomes.append(exc.code)

        threads = [threading.Thread(target=attempt) for _ in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("ok") == 1
        assert outcomes.count("already-spent") == 63
        assert ledger.balance("seller-1") == 1
        ledger.check_conservation()

        # replay inside a purchase: the faulty step performs no crypto work
        for fault_step in (1, 2, 4):
            rep = run_scenario(Scenario(mode="basic", price=4, seed=8,
                                        fault="double-spend", fault_step=fault_step))
            assert rep.outcome == "aborted:already-spent"
            assert rep.metrics.actor("seller").exponentiations == fault_step - 1
            assert rep.metrics.actor("seller").signings == fault_step - 1
        # conservation is asserted inside run_scenario after every run,
        # including every dispute scenario below


def test_criterion_6_perfect_blinding():
    with criterion(6, "at q=11 every request value has exactly one blinding "
                      "exponent per candidate factor, and sampled requests are "
                      "uniform (chi-square at 0.01)"):
        n, q, g = PARAMS23.n, PARAMS23.q, PARAMS23.g
        subgroup = sorted({pow(g, k, n) for k in range(q)})
        assert len(subgroup) == q
        for x in subgroup:
            for m in subgroup:
                preimages = [a for a in range(q) if (pow(g, a, n) * x) % n == m]
                assert len(preimages) == 1

        rng = random.Random(1234)
        x = 8
        counts = {m: 0 for m in subgroup}
        for _ in range(10**4):
            alpha = rng.randrange(q)
            counts[(pow(g, alpha, n) * x) % n] += 1
        result = scipy.stats.chisquare(list(counts.values()))
        assert result.pvalue > 0.01, f"chi-square p-value {result.pvalue}"


def test_criterion_7_dispute_suite():
    with criterion(7, "fault-injected disputes produce the required verdicts "
                      "deterministically, and dleq forgeries win at most 1/q"):
        rep = run_scenario(Scenario(mode="basic", price=3, seed=9, fault="wrong-terms"))
        assert [(l, v.outcome) for l, v in rep.verdicts] == [("B", SELLER_AT_FAULT)]

        rep = run_scenario(Scenario(mode="basic", price=3, seed=9,
                                    fault="corrupt-signature", fault_step=2))
        assert [(l, v.outcome) for l, v in rep.verdicts] == [("C", SELLER_MUST_RESIGN)]

        rep = run_scenario(Scenario(mode="basic", price=4, seed=9,
                                    fault="wrong-s", fault_step=3))
        assert [(l, v.outcome) for l, v in rep.verdicts] == [
            ("D-method1", SELLER_AT_FAULT),
            ("D-method2", SELLER_AT_FAULT),
            ("D-method3", SELLER_AT_FAULT),
        ]

        rep = run_scenario(Scenario(mode="basic", price=4, seed=9, fault="false-claim"))
        assert [(l, v.outcome) for l, v in rep.verdicts] == [
            ("D-method1", BUYER_CLAIM_REJECTED),
            ("D-method2", BUYER_CLAIM_REJECTED),
            ("D-method3", BUYER_CLAIM_REJECTED),
        ]

        # determinism: identical scenarios, identical verdict records
        again = run_scenario(Scenario(mode="basic", price=4, seed=9, fault="false-claim"))
        assert again.verdicts == rep.verdicts

        # dleq soundness at q=11 by exhaustive forgery enumeration
        params = PARAMS23
        base1, base2 = 4, 9
        y1, y2 = pow(base1, 3, params.n), pow(base2, 5, params.n)
        subgroup = sorted({pow(4, k, 23) for k in range(11)})
        worst = 0
        for a1 in subgroup:
            for a2 in subgroup:
                wins = sum(
                    dleq_equations_hold(c, z, base1, y1, base2, y2, a1, a2, params)
                    for c in range(params.q) for z in range(params.q))
                worst = max(worst, wins)
        assert worst <= 1  # at most one (challenge, response) pair per commitment
        assert worst / params.q <= 1 / params.q


def test_criterion_8_upgrade_equivalence():
    with criterion(8, "buying price 2 then upgrading to price 5 spends 5 cards "
                      "and ends bit-identical to the direct price-5 key"):
        params = gen_params(64, seed=88)
        keys, cat = make_catalog(params, prices=(2, 5), shared_x="family", seed=88)
        bank = CardLedger(rng=random.Random(88))
        handler = SellerStepHandler(keys, params, bank, "seller-1")

        session = buyer_begin(cat, "lic-2", fund(bank, [1, 1]),
                              rng=random.Random(1))
        run_purchase(session, handler.handle)
        up = begin_upgrade(cat, "lic-2", session.acc, "lic-5",
                           fund(bank, [1, 1, 1]), rng=random.Random(2))
        plain = run_purchase(up, handler.handle)

        direct = derive_license_key(cat.entry("lic-5").x, 5, keys.s, params)
        assert up.acc == direct
        assert plain.license_id == "lic-5"
        assert bank.balance("seller-1") == 5
        decrypt_license(up.acc, cat.entry("lic-5").encrypted_license)


def test_criterion_9_wire_robustness():
    with criterion(9, "golden vectors hold for every message type and 100k "
                      "fuzzed decodes return structured results only"):
        fixtures = pathlib.Path(__file__).parent / "fixtures" / "golden_vectors.json"
        vectors = json.loads(fixtures.read_text())
        assert len(vectors) == len(wire.MESSAGE_TYPES)
        for v in vectors:
            data = bytes.fromhex(v["hex"])
            msg = wire.decode(data)
            assert wire.encode(msg) == data, v["name"]

        rng = random.Random(99)
        for _ in range(10**5):
            blob = rng.randbytes(rng.randrange(0, 64))
            try:
                msg = wire.decode(blob)
                assert isinstance(msg, wire.Message)
            except MalformedMessage:
                pass
