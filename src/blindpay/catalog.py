"""Seller setup: key derivation, license encryption, and the public catalog.

A license priced at p is encrypted under the group element x^(s^p), where x
is the license's public encryption factor and s the seller's private
generation factor.  The catalog publishes everything a buyer needs before
first contact: group parameters, the verification key, per-license entries
(factor, price, terms, encrypted license, terms signature) and the table of
unblinding keys K_t = g^(s^t).
"""

from __future__ import annotations

import base64
import hashlib
import random
import secrets
from dataclasses import dataclass, field, replace

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric import ed25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .encoding import Reader, enc_bytes, enc_int, enc_str, enc_u32
from .errors import AuthenticationFailure, CatalogFormatError, MalformedMessage
from .group import GroupParams, hash_to_group, is_member, pow_mod


@dataclass
class SellerKeys:
    """Private license generation factor plus the signing key pair."""

    s: int
    sign_sk: bytes  # raw Ed25519 private key
    verify_pk: bytes  # raw Ed25519 public key


@dataclass(frozen=True)
class LicensePlaintext:
    license_id: str
    terms: str
    content_key: bytes
    permissions: tuple[str, ...] = ()

    def encode(self) -> bytes:
        out = enc_str(self.license_id) + enc_str(self.terms) + enc_bytes(self.content_key)
        out += enc_u32(len(self.permissions))
        for p in self.permissions:
            out += enc_str(p)
        return out

    @classmethod
    def decode(cls, data: bytes) -> "LicensePlaintext":
        r = Reader(data)
        license_id = r.lp_str()
        terms = r.lp_str()
        content_key = r.lp_bytes()
        count = r.u32()
        perms = tuple(r.lp_str() for _ in range(count))
        r.expect_end()
        return cls(license_id=license_id, terms=terms, content_key=content_key,
                   permissions=perms)


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
        raise KeyError(f"no license {license_id!r} in catalog")


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
    return pow_mod(x, pow(s, price, params.q), params)


def kdf(key_element: int) -> bytes:
    """Fixed-length symmetric key from a group element."""
    return hashlib.sha256(b"license-key-v1" + enc_int(key_element)).digest()


def encrypt_license(key_element: int, plaintext: LicensePlaintext,
                    rng: random.Random | None = None) -> bytes:
    nonce = rng.randbytes(12) if rng is not None else secrets.token_bytes(12)
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

def gen_signing_keys(rng: random.Random | None = None) -> tuple[bytes, bytes]:
    raw = rng.randbytes(32) if rng is not None else secrets.token_bytes(32)
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
          rng: random.Random | None = None) -> tuple[SellerKeys, Catalog]:
    """Run the whole seller setup and return (private keys, public catalog)."""
    if not specs:
        raise ValueError("at least one license required")
    ids = [sp.license_id for sp in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("license ids must be unique")
    for sp in specs:
        if sp.price < 1:
            raise ValueError(f"license {sp.license_id!r} has price < 1")
        if "\n" in sp.terms:
            raise ValueError("terms must be a single line")

    s = (rng.randrange(2, params.q) if rng is not None
         else 2 + secrets.randbelow(params.q - 2))
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
    k_table = {t: pow_mod(params.g, pow(s, t, params.q), params) for t in sorted(powers)}
    cat = Catalog(params=params, verify_pk=verify_pk, licenses=licenses, k_table=k_table)
    cat.k_table_signature = sign_payload(sign_sk, k_table_payload(params, k_table))
    return keys, cat


def with_published_terms(catalog: Catalog, keys: SellerKeys, license_id: str,
                         published_terms: str) -> Catalog:
    """Re-publish one entry under different terms (re-signed).

    This is how a misbehaving seller is modeled: the encrypted license still
    embeds the original terms while the catalog claims something else.
    """
    out = replace(catalog, licenses=list(catalog.licenses))
    for i, e in enumerate(out.licenses):
        if e.license_id == license_id:
            sig = sign_terms(keys, published_terms, e.encrypted_license)
            out.licenses[i] = replace(e, terms=published_terms, terms_signature=sig)
            return out
    raise KeyError(f"no license {license_id!r} in catalog")


# --- catalog document ---------------------------------------------------------

_HEADER = "blindpay-catalog: v1"


def serialize_catalog(cat: Catalog) -> str:
    lines = [
        _HEADER,
        f"n: {cat.params.n}",
        f"q: {cat.params.q}",
        f"g: {cat.params.g}",
        f"bits: {cat.params.bits}",
        f"verify_pk: {cat.verify_pk.hex()}",
    ]
    for t in sorted(cat.k_table):
        lines.append(f"ktable: {t} {cat.k_table[t]}")
    lines.append(f"ktable_signature: {cat.k_table_signature.hex()}")
    for e in cat.licenses:
        lines += [
            f"license: {e.license_id}",
            f"content: {e.content_id}",
            f"price: {e.price}",
            f"x: {e.x}",
            f"terms: {e.terms}",
            f"blob: {base64.b64encode(e.encrypted_license).decode()}",
            f"signature: {e.terms_signature.hex()}",
        ]
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def peek_key(self) -> str | None:
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos].split(": ", 1)[0]

    def take(self, key: str) -> str:
        if self.pos >= len(self.lines):
            raise CatalogFormatError(f"line {self.pos + 1}: expected {key!r}, got end of file")
        line = self.lines[self.pos]
        prefix = key + ": "
        if not line.startswith(prefix):
            raise CatalogFormatError(f"line {self.pos + 1}: expected {key!r}, got {line!r}")
        self.pos += 1
        return line[len(prefix):]


def parse_catalog(text: str) -> Catalog:
    r = _LineReader(text)
    if r.pos >= len(r.lines) or r.lines[0] != _HEADER:
        raise CatalogFormatError("missing catalog header")
    r.pos = 1
    try:
        n = int(r.take("n"))
        q = int(r.take("q"))
        g = int(r.take("g"))
        bits = int(r.take("bits"))
        verify_pk = bytes.fromhex(r.take("verify_pk"))
        k_table = {}
        while r.peek_key() == "ktable":
            t_s, k_s = r.take("ktable").split(" ", 1)
            k_table[int(t_s)] = int(k_s)
        k_sig = bytes.fromhex(r.take("ktable_signature"))
        licenses = []
        while r.peek_key() == "license":
            licenses.append(LicenseEntry(
                license_id=r.take("license"),
                content_id=r.take("content"),
                price=int(r.take("price")),
                x=int(r.take("x")),
                terms=r.take("terms"),
                encrypted_license=base64.b64decode(r.take("blob"), validate=True),
                terms_signature=bytes.fromhex(r.take("signature")),
            ))
    except (ValueError, CatalogFormatError) as exc:
        if isinstance(exc, CatalogFormatError):
            raise
        raise CatalogFormatError(f"line {r.pos + 1}: {exc}")
    if r.pos != len(r.lines):
        raise CatalogFormatError(f"line {r.pos + 1}: trailing content")
    params = GroupParams(n=n, q=q, g=g, bits=bits)
    return Catalog(params=params, verify_pk=verify_pk, licenses=licenses,
                   k_table=k_table, k_table_signature=k_sig)


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
