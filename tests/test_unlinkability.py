"""The seller's view of the steps, against the paper's unlinkability claim.

A seller knows s and every license factor x in its catalog.  With one
blinding factor r = g^alpha for a whole purchase (refresh off), the first
request is m = r * x and the next is m_out * r^(1 - s^t): the seller who
guesses x from its catalog recovers r = m / x, predicts the next request,
and finds it among the requests it saw, naming the license on the way.
A fresh alpha per step (refresh on) leaves the prediction matching nothing.
"""

import random

from blindpay.cards import CardLedger
from blindpay.group import div_mod, mul_mod, pow_fast
from blindpay.purchase import SellerStepHandler, buyer_begin, run_purchase

from conftest import make_catalog
from test_purchase import fund

PRICES = (2, 3, 5)
BUYERS = ("lic-2", "lic-3", "lic-5", "lic-2", "lic-3")


def seller_view(params, refresh: bool):
    """Five basic purchases.  Returns the seller's keys and catalog, each
    buyer's requests in order with its license, and the steps the seller
    saw, (m, m_out, t) in shuffled order."""
    keys, cat = make_catalog(params, prices=PRICES)
    bank = CardLedger(rng=random.Random(1))
    handler = SellerStepHandler(keys, params, bank, "seller-1")
    seen, buyers = [], []
    for i, license_id in enumerate(BUYERS):
        cards = fund(bank, [1] * cat.entry(license_id).price)
        values = dict(cards)  # the seller learns each card's value as it spends it
        requests = []

        def step_fn(req):
            resp = handler.handle(req)
            seen.append((req.m, resp.m_out, sum(values[c] for c in req.card_ids)))
            requests.append(req.m)
            return resp

        session = buyer_begin(cat, license_id, cards, refresh_blinding=refresh,
                              rng=random.Random(100 + i))
        run_purchase(session, step_fn)
        buyers.append((license_id, requests))
    random.Random(2).shuffle(seen)
    return keys, cat, buyers, seen


def ratio_attack(keys, cat, seen) -> set[tuple[int, int, str]]:
    """(request, the request predicted to follow it, the license guessed)
    for each prediction the seller finds among the requests it saw."""
    p = cat.params
    requests = {m for m, _, _ in seen}
    links = set()
    for m, m_out, t in seen:
        for entry in cat.licenses:
            r = div_mod(m, entry.x, p)
            nxt = mul_mod(m_out, pow_fast(r, (1 - pow(keys.s, t, p.q)) % p.q, p), p)
            if nxt in requests:
                links.add((m, nxt, entry.license_id))
    return links


def test_without_refresh_the_seller_links_each_first_step_and_names_the_license(params64):
    keys, cat, buyers, seen = seller_view(params64, refresh=False)
    assert ratio_attack(keys, cat, seen) == {
        (requests[0], requests[1], license_id) for license_id, requests in buyers}


def test_with_refresh_the_seller_links_no_step(params64):
    keys, cat, buyers, seen = seller_view(params64, refresh=True)
    assert len(seen) == sum(len(requests) for _, requests in buyers) == 15
    assert ratio_attack(keys, cat, seen) == set()
