import random
from dataclasses import replace

import pytest

from blindpay.catalog import (
    LicensePlaintext,
    LicenseSpec,
    decrypt_license,
    derive_license_key,
    encrypt_license,
    k_powers_for,
    parse_catalog,
    serialize_catalog,
    setup,
    sign_terms,
    verify_catalog,
    verify_terms,
    with_published_terms,
)
from blindpay.encoding import enc_int
from blindpay.errors import AuthenticationFailure, BlindpayError, CatalogFormatError
from blindpay.group import mul_mod, named_group, pow_mod

from conftest import make_catalog
from test_group import naive_pow


@pytest.fixture()
def plain():
    return LicensePlaintext(license_id="lic-1", terms="read-only",
                            content_key=b"k" * 16, permissions=("read",))


# --- key derivation -----------------------------------------------------------

def test_derive_price_one_is_x_to_s(params64):
    s, x = 12345, pow_mod(params64.g, 999, params64)
    assert derive_license_key(x, 1, s, params64) == pow_mod(x, s, params64)


def test_derive_tower_composes(params64):
    rng = random.Random(8)
    s = rng.randrange(2, params64.q)
    x = pow_mod(params64.g, rng.randrange(1, params64.q), params64)
    for _ in range(20):
        a, b = rng.randrange(1, 20), rng.randrange(1, 20)
        via_two_hops = derive_license_key(derive_license_key(x, a, s, params64),
                                          b, s, params64)
        assert via_two_hops == derive_license_key(x, a + b, s, params64)


def test_derive_small_group_hand_value(params23):
    # price 3, s = 3: exponent 3^3 mod 11 = 5, so C = 8^5 mod 23.
    # Confirmed by the repeated-multiplication oracle: 8^5 mod 23 = 16.
    assert pow(3, 3, 11) == 5
    oracle = naive_pow(8, 5, 23)
    assert oracle == 16
    assert derive_license_key(8, 3, 3, params23) == oracle


def test_derive_rejects_zero_price(params64):
    with pytest.raises(ValueError):
        derive_license_key(4, 0, 3, params64)


# --- authenticated encryption ----------------------------------------------------

def test_encrypt_roundtrip(params64, plain):
    key = pow_mod(params64.g, 4242, params64)
    blob = encrypt_license(key, plain)
    assert decrypt_license(key, blob) == plain


def test_decrypt_wrong_key_fails_loudly(params64, plain):
    key = pow_mod(params64.g, 4242, params64)
    blob = encrypt_license(key, plain)
    with pytest.raises(AuthenticationFailure):
        decrypt_license(mul_mod(key, params64.g, params64), blob)


def test_decrypt_any_flipped_byte_fails(params64, plain):
    rng = random.Random(77)
    key = pow_mod(params64.g, 4242, params64)
    blob = encrypt_license(key, plain, rng)
    positions = rng.sample(range(len(blob)), min(100, len(blob)))
    for pos in positions:
        tampered = bytearray(blob)
        tampered[pos] ^= 1 << rng.randrange(8)
        with pytest.raises(AuthenticationFailure):
            decrypt_license(key, bytes(tampered))


def test_decrypt_truncated_blob(params64):
    with pytest.raises(AuthenticationFailure):
        decrypt_license(4, b"short")


def test_plaintext_encoding_roundtrip(plain):
    assert LicensePlaintext.decode(plain.encode()) == plain
    empty_perms = LicensePlaintext(license_id="a", terms="t", content_key=b"",
                                   permissions=())
    assert LicensePlaintext.decode(empty_perms.encode()) == empty_perms


# Bytes of the plaintext inside every catalog blob, pinned so that a change
# to its codec cannot open old catalogs to something else.
PLAINTEXT_VECTORS = [
    (LicensePlaintext(license_id="lic-1", terms="read-only", content_key=bytes(range(16))),
     "000000056c69632d3100000009726561642d6f6e6c7900000010000102030405060708090a0b0c0d0e0f"
     "00000000"),
    (LicensePlaintext(license_id="lic-été", terms="lecture seule — 30 jours",
                      content_key=bytes.fromhex("00ff" * 8),
                      permissions=("play", "print", "copie-privée")),
     "000000096c69632dc3a974c3a90000001a6c656374757265207365756c6520e28094203330206a6f7572"
     "730000001000ff00ff00ff00ff00ff00ff00ff00ff0000000300000004706c6179000000057072696e74"
     "0000000d636f7069652d70726976c3a965"),
]


@pytest.mark.parametrize("plain, hexdata", PLAINTEXT_VECTORS)
def test_plaintext_golden_bytes(plain, hexdata):
    assert plain.encode().hex() == hexdata
    assert LicensePlaintext.decode(bytes.fromhex(hexdata)) == plain


# --- signatures -------------------------------------------------------------------

def test_sign_verify_terms(params64, small_catalog):
    keys, cat = small_catalog
    entry = cat.licenses[0]
    assert verify_terms(cat.verify_pk, entry.terms, entry.encrypted_license,
                        entry.terms_signature)
    assert not verify_terms(cat.verify_pk, entry.terms + "!", entry.encrypted_license,
                            entry.terms_signature)


def test_signature_cross_pairing_rejected(params64):
    keys, cat = make_catalog(params64, prices=tuple(range(1, 11)))
    for i, a in enumerate(cat.licenses):
        for j, b in enumerate(cat.licenses):
            expected = i == j
            assert verify_terms(cat.verify_pk, a.terms, a.encrypted_license,
                                b.terms_signature) is expected


def test_sign_terms_matches_verify(params64, small_catalog, plain):
    keys, cat = small_catalog
    sig = sign_terms(keys, "anything", b"blob")
    assert verify_terms(keys.verify_pk, "anything", b"blob", sig)


# --- setup ---------------------------------------------------------------------------

def test_k_powers():
    assert k_powers_for(1) == {1}
    assert k_powers_for(5) == {1, 2, 4}
    assert k_powers_for(8) == {1, 2, 4, 8}
    assert k_powers_for(31) == {1, 2, 4, 8, 16}


def test_setup_k_table_for_max_price_five(params64):
    keys, cat = make_catalog(params64, prices=(1, 5))
    assert set(cat.k_table) == {1, 2, 4}


def test_setup_key_derivation_soundness(params64):
    keys, cat = make_catalog(params64, prices=(1, 2, 3, 5))
    for entry in cat.licenses:
        c = derive_license_key(entry.x, entry.price, keys.s, params64)
        plain = decrypt_license(c, entry.encrypted_license)
        assert plain.terms == entry.terms
        assert plain.license_id == entry.license_id


def test_setup_k_table_consistency(params64):
    keys, cat = make_catalog(params64)
    for t, k in cat.k_table.items():
        assert k == pow_mod(params64.g, pow(keys.s, t, params64.q), params64)


def test_setup_price_one_collapses_tower(params64):
    keys, cat = make_catalog(params64, prices=(1,))
    entry = cat.licenses[0]
    c = pow_mod(entry.x, keys.s, params64)
    assert decrypt_license(c, entry.encrypted_license).license_id == entry.license_id


def test_setup_shared_factor(params64):
    keys, cat = make_catalog(params64, prices=(2, 5), shared_x="family")
    assert cat.licenses[0].x == cat.licenses[1].x


def test_setup_rejects_duplicates_and_bad_prices(params64, plain):
    spec = LicenseSpec("a", "c", 1, "t", plain)
    with pytest.raises(ValueError):
        setup(params64, [spec, spec])
    with pytest.raises(ValueError):
        setup(params64, [LicenseSpec("a", "c", 0, "t", plain)])
    with pytest.raises(ValueError):
        setup(params64, [LicenseSpec("a", "c", 1, "two\nlines", plain)])


def test_setup_deterministic_with_rng(params64):
    k1, c1 = make_catalog(params64, seed=5)
    k2, c2 = make_catalog(params64, seed=5)
    assert k1.s == k2.s
    assert serialize_catalog(c1) == serialize_catalog(c2)


def test_setup_on_ffdhe2048_equals_builtin_pow():
    p = named_group("ffdhe2048")
    rng = random.Random(12)
    specs = [LicenseSpec(lid, "film", price, "view", LicensePlaintext(lid, "view", bytes(16)),
                         x_label=label)
             for lid, price, label in (("rent", 1, None), ("view", 3, "film"),
                                       ("own", 5, "film"))]
    keys, cat = setup(p, specs, rng=rng)
    assert cat.licenses[1].x == cat.licenses[2].x != cat.licenses[0].x
    assert sorted(cat.k_table) == [1, 2, 4]
    for t, k in cat.k_table.items():
        assert k == pow(p.g, pow(keys.s, t, p.q), p.n), t
    for e, sp in zip(cat.licenses, specs):
        key = pow(e.x, pow(keys.s, e.price, p.q), p.n)
        assert decrypt_license(key, e.encrypted_license) == sp.plaintext


def test_setup_below_openssl_takes_builtin_pow(params64, no_openssl, monkeypatch):
    keys, cat = make_catalog(params64, prices=(1, 3, 5), seed=13, shared_x="film")
    monkeypatch.undo()
    assert make_catalog(params64, prices=(1, 3, 5), seed=13, shared_x="film") == (keys, cat)


# --- catalog document ------------------------------------------------------------------

def test_catalog_roundtrip_byte_exact(params64):
    keys, cat = make_catalog(params64)
    text = serialize_catalog(cat)
    assert serialize_catalog(parse_catalog(text)) == text


def test_catalog_verify_clean(params64):
    keys, cat = make_catalog(params64)
    assert verify_catalog(cat) == []
    assert verify_catalog(parse_catalog(serialize_catalog(cat))) == []


def test_catalog_verify_flags_tampered_terms(params64):
    keys, cat = make_catalog(params64)
    cat.licenses[0].terms = "read-write"
    problems = verify_catalog(cat)
    assert any("terms signature" in p for p in problems)


def _non_member(cat, e):
    return cat.params.n - e  # -1 is a non-residue mod a safe prime n > 7


# Each edit of a good catalog and the problem verify_catalog must name.
CATALOG_EDITS = {
    "bad-group": (lambda cat: setattr(cat, "params", replace(cat.params, g=1)),
                  "params: generator out of range"),
    "no-K_1": (lambda cat: cat.k_table.pop(1),
               "k_table: unblinding key for step value 1 missing"),
    "step-value-0": (lambda cat: cat.k_table.update({0: cat.k_table[1]}),
                     "k_table: bad step value 0"),
    "non-member-K_t": (lambda cat: cat.k_table.update({2: _non_member(cat, cat.k_table[2])}),
                       "k_table[2]: not a subgroup member"),
    "bad-k-table-signature": (lambda cat: setattr(cat, "k_table_signature", bytes(64)),
                              "k_table: signature invalid"),
    "duplicate-id": (lambda cat: cat.licenses.append(cat.licenses[0]),
                     "lic-1: duplicate license id"),
    "price-0": (lambda cat: setattr(cat.licenses[0], "price", 0), "lic-1: price < 1"),
    "non-member-x": (lambda cat: setattr(cat.licenses[0], "x",
                                         _non_member(cat, cat.licenses[0].x)),
                     "lic-1: x not a subgroup member"),
}


@pytest.mark.parametrize("edit", CATALOG_EDITS)
def test_catalog_verify_names_each_problem(params64, edit):
    _, cat = make_catalog(params64)
    assert verify_catalog(cat) == []
    change, problem = CATALOG_EDITS[edit]
    change(cat)
    assert problem in verify_catalog(cat)


def test_catalog_parse_rejects_garbage():
    with pytest.raises(CatalogFormatError):
        parse_catalog("not a catalog\n")
    with pytest.raises(CatalogFormatError):
        parse_catalog("blindpay-catalog: v1\nn: twelve\n")


def test_catalog_contains_no_secrets(params64):
    keys, cat = make_catalog(params64)
    text = serialize_catalog(cat)
    assert str(keys.s) not in text
    assert keys.sign_sk.hex() not in text
    assert enc_int(keys.s).hex() not in text


def test_with_published_terms_republishes(params64):
    keys, cat = make_catalog(params64)
    crooked = with_published_terms(cat, keys, "lic-2", "read-print")
    entry = crooked.entry("lic-2")
    assert entry.terms == "read-print"
    assert verify_catalog(crooked) == []  # signature matches the new claim
    # the original catalog object is untouched
    assert cat.entry("lic-2").terms == "read-only"


def test_an_unknown_license_id_raises_a_package_error(params64):
    keys, cat = make_catalog(params64)
    with pytest.raises(BlindpayError, match="'nope'"):
        cat.entry("nope")
    with pytest.raises(BlindpayError, match="'nope'"):
        with_published_terms(cat, keys, "nope", "read-print")
