"""Seller setup: key derivation, license encryption, and the public catalog.

A license priced at p is encrypted under the group element x^(s^p), where x
is the license's public encryption factor and s the seller's private
generation factor.  The catalog publishes everything a buyer needs before
first contact: group parameters, the verification key, per-license entries
(factor, price, terms, encrypted license, terms signature) and the table of
unblinding keys K_t = g^(s^t).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import astuple, dataclass, field, replace
from typing import ClassVar

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric import ed25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import wire
from .encoding import B64, HEX, INT, PAIR, STR, Reader, RecordFormat, enc_bytes, enc_int, enc_str
from .errors import AuthenticationFailure, CatalogFormatError, MalformedMessage, UnknownLicense
from .group import SYSTEM_RANDOM, GroupParams, hash_to_group, is_member, pow_fast
# Unused here, but perfbench/tracer.py wraps catalog.pow_mod by name; the name
# goes when ROADMAP item 33 retires pow_mod and item 30 changes the tracer.
from .group import pow_mod  # noqa: F401


@dataclass
class SellerKeys:
    """Private license generation factor plus the signing key pair."""

    s: int
    sign_sk: bytes  # raw Ed25519 private key
    verify_pk: bytes  # raw Ed25519 public key


@dataclass(frozen=True)
class LicensePlaintext:
    """What an encrypted license opens to, laid out by WIRE (see
    ``wire.FIELD_KINDS``)."""

    WIRE: ClassVar[tuple[str, ...]] = ("str", "str", "bytes", "strs")
    license_id: str
    terms: str
    content_key: bytes
    permissions: tuple[str, ...] = ()

    def encode(self) -> bytes:
        return wire.pack(self)

    @classmethod
    def decode(cls, data: bytes) -> "LicensePlaintext":
        r = Reader(data)
        plain = wire.unpack(cls, r)
        r.expect_end()
        return plain


@dataclass
class LicenseEntry:
    license_id: str
    content_id: str
    price: int
    x: int
    terms: str
    encrypted_license: bytes
    terms_signature: bytes


@dataclass
class Catalog:
    params: GroupParams
    verify_pk: bytes
    licenses: list[LicenseEntry] = field(default_factory=list)
    k_table: dict[int, int] = field(default_factory=dict)
    k_table_signature: bytes = b""

    def entry(self, license_id: str) -> LicenseEntry:
        for e in self.licenses:
            if e.license_id == license_id:
                return e
        raise UnknownLicense(f"no license {license_id!r} in the catalog")


@dataclass
class LicenseSpec:
    """Input to setup().  x_label lets several licenses share one encryption
    factor, which is what makes upgrades between them possible."""

    license_id: str
    content_id: str
    price: int
    terms: str
    plaintext: LicensePlaintext
    x_label: str | None = None


# --- key derivation and symmetric encryption ----------------------------------

def derive_license_key(x: int, price: int, s: int, params: GroupParams) -> int:
    """x^(s^price) with the exponent tower reduced mod the subgroup order."""
    if price < 1:
        raise ValueError("price must be >= 1")
    return pow_fast(x, pow(s, price, params.q), params)


def kdf(key_element: int) -> bytes:
    """Fixed-length symmetric key from a group element."""
    return hashlib.sha256(b"license-key-v1" + enc_int(key_element)).digest()


def encrypt_license(key_element: int, plaintext: LicensePlaintext,
                    rng: random.Random = SYSTEM_RANDOM) -> bytes:
    nonce = rng.randbytes(12)
    return nonce + AESGCM(kdf(key_element)).encrypt(nonce, plaintext.encode(), b"")


def decrypt_license(key_element: int, blob: bytes) -> LicensePlaintext:
    """Authenticated decryption: a wrong key or a flipped bit raises
    AuthenticationFailure, never returns garbage."""
    if len(blob) < 13:
        raise AuthenticationFailure("ciphertext too short")
    try:
        data = AESGCM(kdf(key_element)).decrypt(blob[:12], blob[12:], b"")
    except InvalidTag:
        raise AuthenticationFailure("license decryption failed: wrong key or tampered data")
    try:
        return LicensePlaintext.decode(data)
    except MalformedMessage as exc:
        raise AuthenticationFailure(f"license plaintext corrupt: {exc}")


# --- signatures ----------------------------------------------------------------

def gen_signing_keys(rng: random.Random = SYSTEM_RANDOM) -> tuple[bytes, bytes]:
    raw = rng.randbytes(32)
    sk = ed25519.Ed25519PrivateKey.from_private_bytes(raw)
    return raw, sk.public_key().public_bytes_raw()


def sign_payload(sign_sk: bytes, payload: bytes) -> bytes:
    return ed25519.Ed25519PrivateKey.from_private_bytes(sign_sk).sign(payload)


def verify_payload(verify_pk: bytes, payload: bytes, signature: bytes) -> bool:
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(verify_pk).verify(signature, payload)
        return True
    except (InvalidSignature, ValueError):
        return False


def terms_payload(terms: str, encrypted_license: bytes) -> bytes:
    return b"terms-v1" + enc_str(terms) + enc_bytes(encrypted_license)


def sign_terms(keys: SellerKeys, terms: str, encrypted_license: bytes) -> bytes:
    return sign_payload(keys.sign_sk, terms_payload(terms, encrypted_license))


def verify_terms(verify_pk: bytes, terms: str, encrypted_license: bytes,
                 signature: bytes) -> bool:
    return verify_payload(verify_pk, terms_payload(terms, encrypted_license), signature)


def k_table_payload(params: GroupParams, k_table: dict[int, int]) -> bytes:
    out = b"ktable-v1" + enc_int(params.n) + enc_int(params.q) + enc_int(params.g)
    for t in sorted(k_table):
        out += enc_int(t) + enc_int(k_table[t])
    return out


# --- setup ---------------------------------------------------------------------

def k_powers_for(max_price: int) -> set[int]:
    """Published step values: 1, 2, 4, ... up to the largest power of two
    not exceeding the highest price."""
    powers = {1}
    t = 2
    while t <= max_price:
        powers.add(t)
        t *= 2
    return powers


def setup(params: GroupParams, specs: list[LicenseSpec],
          rng: random.Random = SYSTEM_RANDOM) -> tuple[SellerKeys, Catalog]:
    """Run the whole seller setup and return (private keys, public catalog)."""
    if not specs:
        raise ValueError("at least one license required")
    counts = Counter(sp.license_id for sp in specs)
    for lid in counts:
        if counts[lid] > 1:
            raise ValueError(f"license id {lid!r} is given more than once")
    for sp in specs:
        if sp.price < 1:
            raise ValueError(f"license {sp.license_id!r} has price {sp.price}, below 1")
        if "\n" in sp.terms:
            raise ValueError("terms must be a single line")

    s = rng.randrange(2, params.q)
    sign_sk, verify_pk = gen_signing_keys(rng)
    keys = SellerKeys(s=s, sign_sk=sign_sk, verify_pk=verify_pk)

    licenses = []
    for sp in specs:
        x = hash_to_group((sp.x_label or sp.license_id).encode(), params)
        c = derive_license_key(x, sp.price, s, params)
        blob = encrypt_license(c, sp.plaintext, rng)
        licenses.append(LicenseEntry(
            license_id=sp.license_id,
            content_id=sp.content_id,
            price=sp.price,
            x=x,
            terms=sp.terms,
            encrypted_license=blob,
            terms_signature=sign_terms(keys, sp.terms, blob),
        ))

    powers = k_powers_for(max(sp.price for sp in specs))
    k_table = {t: pow_fast(params.g, pow(s, t, params.q), params) for t in sorted(powers)}
    cat = Catalog(params=params, verify_pk=verify_pk, licenses=licenses, k_table=k_table)
    cat.k_table_signature = sign_payload(sign_sk, k_table_payload(params, k_table))
    return keys, cat


def with_published_terms(catalog: Catalog, keys: SellerKeys, license_id: str,
                         published_terms: str) -> Catalog:
    """Re-publish one entry under different terms (re-signed).

    This is how a misbehaving seller is modeled: the encrypted license still
    embeds the original terms while the catalog claims something else.
    """
    old = catalog.entry(license_id)
    new = replace(old, terms=published_terms,
                  terms_signature=sign_terms(keys, published_terms, old.encrypted_license))
    return replace(catalog, licenses=[new if e is old else e for e in catalog.licenses])


# --- catalog document ---------------------------------------------------------

GROUP_KEYS = {"n": INT, "q": INT, "g": INT, "bits": INT, "verify_pk": HEX}
# in LicenseEntry's field order
_LICENSE_KEYS = {"license": STR, "content": STR, "price": INT, "x": INT, "terms": STR,
                 "blob": B64, "signature": HEX}
CATALOG = RecordFormat("catalog", once={**GROUP_KEYS, "ktable_signature": HEX},
                       many={"ktable": PAIR, **_LICENSE_KEYS}, error=CatalogFormatError)


def group_fields(params: GroupParams, verify_pk: bytes,
                 k_table: dict[int, int]) -> list[tuple[str, object]]:
    """The lines a catalog and a case record share: the group, the
    verification key and the K table (GROUP_KEYS and many ``ktable``)."""
    return [("n", params.n), ("q", params.q), ("g", params.g), ("bits", params.bits),
            ("verify_pk", verify_pk)] + [("ktable", tk) for tk in sorted(k_table.items())]


def read_group(rec: dict) -> tuple[GroupParams, bytes, dict[int, int]]:
    """Inverse of group_fields.  The group is not validated."""
    params = GroupParams(n=rec["n"], q=rec["q"], g=rec["g"], bits=rec["bits"])
    return params, rec["verify_pk"], dict(rec["ktable"])


def serialize_catalog(cat: Catalog) -> str:
    fields = group_fields(cat.params, cat.verify_pk, cat.k_table)
    fields.append(("ktable_signature", cat.k_table_signature))
    for e in cat.licenses:
        fields += zip(_LICENSE_KEYS, astuple(e))
    return CATALOG.write(fields)


def parse_catalog(text: str) -> Catalog:
    """Inverse of serialize_catalog, whose line order it requires."""
    rec = CATALOG.read(text)
    order = [*GROUP_KEYS, *["ktable"] * len(rec["ktable"]), "ktable_signature",
             *list(_LICENSE_KEYS) * len(rec["license"]), "end of file"]
    for lineno, (key, want) in enumerate(zip(rec.order + ["end of file"], order), 2):
        if key != want:
            raise CatalogFormatError(f"line {lineno}: expected {want!r}, got {key!r}")
    params, verify_pk, k_table = read_group(rec)
    licenses = [LicenseEntry(*values) for values in zip(*(rec[k] for k in _LICENSE_KEYS))]
    return Catalog(params=params, verify_pk=verify_pk, licenses=licenses, k_table=k_table,
                   k_table_signature=rec["ktable_signature"])


def verify_catalog(cat: Catalog) -> list[str]:
    """Public consistency checks; returns a list of problems (empty = good).

    Covers everything checkable without the seller's secrets: group
    invariants, subgroup membership of all elements, terms signatures and
    the K-table signature.  Whether the encrypted blobs really open under
    the advertised key tower is only decidable in a dispute.
    """
    problems = []
    try:
        cat.params.validate()
    except ValueError as exc:
        problems.append(f"params: {exc}")
        return problems
    if 1 not in cat.k_table:
        problems.append("k_table: unblinding key for step value 1 missing")
    for t, k in cat.k_table.items():
        if t < 1:
            problems.append(f"k_table: bad step value {t}")
        if not is_member(k, cat.params):
            problems.append(f"k_table[{t}]: not a subgroup member")
    if not verify_payload(cat.verify_pk, k_table_payload(cat.params, cat.k_table),
                          cat.k_table_signature):
        problems.append("k_table: signature invalid")
    seen = set()
    for e in cat.licenses:
        if e.license_id in seen:
            problems.append(f"{e.license_id}: duplicate license id")
        seen.add(e.license_id)
        if e.price < 1:
            problems.append(f"{e.license_id}: price < 1")
        if not is_member(e.x, cat.params):
            problems.append(f"{e.license_id}: x not a subgroup member")
        if not verify_terms(cat.verify_pk, e.terms, e.encrypted_license, e.terms_signature):
            problems.append(f"{e.license_id}: terms signature invalid")
    return problems
