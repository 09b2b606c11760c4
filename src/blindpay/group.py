"""Safe-prime group arithmetic, hash-to-group, and discrete-log equality proofs.

All protocol values live in the order-q subgroup of Z_n* where n = 2q + 1 is
a safe prime, i.e. the quadratic residues mod n.  The subgroup has prime
order, so exponents form the field Z_q and exponent towers reduce mod q.
Staying inside the subgroup is what makes the multiplicative blinding
perfect: g generates every residue, so a blinded value is uniform over the
subgroup whatever it hides.

There are two kinds of group, and group_for() reads the text that names
either.  The RFC 7919 groups of NAMED_GROUPS, for real use, are recognised
by n alone, equal to a prime derived at import and pinned by its SHA-256.
Desk groups, for tests, demos and the default scenario, have at most
DESK_BITS = 64 bits, where Miller-Rabin on n and q is exact.  validate()
refuses any other n on its size, before any Miller-Rabin round.

pow_fast computes the catalog set-up (license keys and the K table), the
buyer's blinding, the seller's dispute answers, the arbitrator's checks and
every power inside the DLEQ proofs.  On the RFC 7919 groups it is an OpenSSL
DH derivation through `cryptography`, which catalog already uses for Ed25519
and AES-GCM.  At ffdhe2048 one costs about 2.2-2.8 ms for an exponent of q's
size and 0.2-0.5 ms for one of 128-256 bits, against 25-31 ms and 1.7-3.3 ms
for builtin pow.  Desk groups lie below OpenSSL's 512-bit floor.  pow_mod,
the seller's step alone, stays on builtin pow until the seller_steps
benchmark sizes its request pool by time rather than by rate: a seller
faster than the pool's rate exhausts it in the first pass (ROADMAP item 1).

dleq_composite folds many DLEQ statements that share one exponent into one,
so a single proof covers them all (batched proofs, RFC 9497 section 2.2).
dleq_verify folds the other way: a proof's two Chaum-Pedersen equations
become one under a hashed 128-bit weight, so a check costs one power of q's
size, not two.  Both folds are the small-exponents test of
Bellare-Garay-Rabin; a false statement or proof survives with probability
about 2^-128 above q = 2^128, and of order 1/q on desk groups, like the
proof's challenge.

Membership is decided by the Jacobi symbol, which equals the Legendre
symbol for a prime n and so, by Euler's criterion, marks exactly the
quadratic residues.  That holds only when n = 2q + 1 is a safe prime: every
function here assumes its GroupParams have passed validate().  On the RFC
7919 groups the symbol comes from GMP's mpz_jacobi, loaded from
libgmp.so.10 through ctypes: about 0.03 ms at ffdhe2048 and 0.045 ms at
ffdhe3072, against 0.4-0.65 ms and 0.7-0.75 ms for _jacobi, the
pure-Python binary algorithm.  Desk groups, and every group when
libgmp.so.10 cannot be loaded, take _jacobi.  Both are variable-time,
which is safe because only public elements are ever checked.
"""

from __future__ import annotations

import ctypes
import hashlib
import random
from dataclasses import dataclass

from cryptography.hazmat.primitives.asymmetric import dh

from .encoding import INT, enc_int
from .errors import MalformedElement

# Every secret draw defaults to the OS generator that `secrets` reads; a seeded
# random.Random makes the draws reproducible, for tests, scenarios and demos only.
SYSTEM_RANDOM = random.SystemRandom()

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
)

# Deterministic Miller-Rabin bases, valid for everything below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
DESK_BITS = 64  # the largest unnamed group, far inside that bound


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin on the bases of _MR_BASES, exact below 3.3e24.  At or
    above that bound it raises ValueError rather than answer less surely."""
    if m >= _MR_DETERMINISTIC_BOUND:
        raise ValueError(f"{m} is beyond deterministic Miller-Rabin")
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        x = pow(a, d, m)
        if x in (1, m - 1):
            return False
        for _ in range(r - 1):
            x = pow(x, 2, m)
            if x == m - 1:
                return False
        return True

    return not any(witness(a) for a in _MR_BASES)


def check_desk_bits(bits: int, least: int = 8):
    """Refuse a bit length below `least` or above DESK_BITS."""
    if bits < least:
        raise ValueError(f"{bits} bits is below the least group size, {least}")
    if bits > DESK_BITS:
        raise ValueError(f"an unnamed group of {bits} bits is above the {DESK_BITS}-bit "
                         f"desk groups; use {' or '.join(NAMED_GROUPS)}")


@dataclass(frozen=True)
class GroupParams:
    """Public group description: safe prime n = 2q + 1, generator g of the
    order-q subgroup, and the bit length of n."""

    n: int
    q: int
    g: int
    bits: int

    def validate(self):
        if self.n != 2 * self.q + 1:
            raise ValueError("n != 2q + 1")
        if self.n not in _NAMED_PRIMES:  # by n itself: the bits field is checked below
            check_desk_bits(self.n.bit_length(), least=0)
            if not (is_probable_prime(self.n) and is_probable_prime(self.q)):
                raise ValueError("n and q must both be prime")
        if self.bits != self.n.bit_length():
            raise ValueError("bits field disagrees with n")
        if not (2 <= self.g <= self.n - 1) or self.g == 1:
            raise ValueError("generator out of range")
        if not is_member(self.g, self):
            raise ValueError("generator is not in the order-q subgroup")
        return self


def gen_params(bits: int, seed: int | None = None) -> GroupParams:
    """A desk group with an n of exactly `bits` bits, 8 to DESK_BITS, for
    tests, scenarios and demos.  With a seed the search is reproducible."""
    check_desk_bits(bits)
    rng = random.Random(seed) if seed is not None else SYSTEM_RANDOM
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        n = 2 * q + 1  # exactly `bits` bits, since q's top bit is set
        if is_probable_prime(q) and is_probable_prime(n):
            break
    while True:
        h = rng.randrange(2, n - 1)
        g = pow(h, 2, n)  # squaring lands in the quadratic-residue subgroup
        if g != 1:
            break
    return GroupParams(n=n, q=q, g=g, bits=bits)


# --- RFC 7919 named groups ------------------------------------------------------
#
#     p = 2^b - 2^(b-64) + (floor(2^(b-130) * e) + X) * 2^64 - 1
#
# Each p is a safe prime with p = 7 (mod 8), so 2 is a quadratic residue and
# g = 2 generates the order-q subgroup.  The digest pins the derivation to
# the published prime: a wrong one fails at import, not as another group.

# name: (b, X, SHA-256 of p big-endian)
_FFDHE = {
    "ffdhe2048": (2048, 560316,
                  "9cd3b7f336872f46c09428d1bbc19877a4d440512cda8d1c1cf0cd6e33698966"),
    "ffdhe3072": (3072, 2625351,
                  "0eaf67db3a839156d5013494a5318a772b5697d270d721f37f092efc69ea5a17"),
}


def _e_fixed(bits: int) -> int:
    """floor(e * 2^bits) from the series sum(1/k!), with 64 guard bits."""
    one = 1 << (bits + 64)
    total, term, k = 0, one, 0
    while term:
        total += term
        k += 1
        term //= k
    return total >> 64


def _ffdhe(name: str, bits: int, x: int, sha256: str) -> GroupParams:
    n = 2**bits - 2**(bits - 64) + (_e_fixed(bits - 130) + x) * 2**64 - 1
    digest = hashlib.sha256(n.to_bytes(bits // 8, "big")).hexdigest()
    if digest != sha256:
        raise ValueError(f"{name} derivation has digest {digest}, want {sha256}")
    return GroupParams(n=n, q=n // 2, g=2, bits=bits)


NAMED_GROUPS = {name: _ffdhe(name, *spec) for name, spec in _FFDHE.items()}
# validate() takes these as prime by equality instead of by Miller-Rabin
_NAMED_PRIMES = frozenset(p.n for p in NAMED_GROUPS.values())


def group_for(spec: str, rng: random.Random) -> GroupParams:
    """The group that spec names: an RFC 7919 group of NAMED_GROUPS, which
    draws nothing from rng, or a desk group of 8 to DESK_BITS bits in ASCII
    digits, generated from one rng.randrange(2**63).  Else ValueError."""
    if spec in NAMED_GROUPS:
        return NAMED_GROUPS[spec]
    try:
        bits = INT.read(spec)
    except ValueError:
        raise ValueError(f"group {spec!r} is neither a bit length, 8 to {DESK_BITS}, "
                         f"nor one of {', '.join(NAMED_GROUPS)}") from None
    return gen_params(bits, seed=rng.randrange(2**63))


def _jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m > 0, by the binary algorithm (Cohen,
    Alg. 1.4.10): strip factors of two, then swap by quadratic reciprocity."""
    a %= m
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and (m & 7) in (3, 5):
            sign = -sign
        if (a & m & 3) == 3:
            sign = -sign
        a, m = m % a, a
    return sign if m == 1 else 0


class _Mpz(ctypes.Structure):
    """GMP's __mpz_struct: allocated limbs, signed used limbs, limb pointer."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int),
                ("limbs", ctypes.c_void_p)]


def _load_gmp() -> ctypes.CDLL:
    """libgmp.so.10 with the four mpz functions is_member calls typed.  By
    soname: ctypes.util.find_library would run ldconfig in a subprocess."""
    lib = ctypes.CDLL("libgmp.so.10")
    mpz = ctypes.POINTER(_Mpz)
    size = ctypes.c_size_t
    for name, argtypes, restype in (
            ("__gmpz_init", [mpz], None),
            ("__gmpz_import", [mpz, size, ctypes.c_int, size, ctypes.c_int, size,
                               ctypes.c_char_p], None),
            ("__gmpz_jacobi", [mpz, mpz], ctypes.c_int),
            ("__gmpz_clear", [mpz], None)):
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


try:
    _GMP = _load_gmp()
except (OSError, AttributeError):
    _GMP = None


def _gmp_jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for 0 <= a and odd m > 0, by GMP's mpz_jacobi.
    ctypes releases the GIL during each call, so every call owns its mpz
    values; none is shared between threads."""
    gmp = _GMP
    x, y = _Mpz(), _Mpz()
    gmp.__gmpz_init(x)
    gmp.__gmpz_init(y)
    try:
        for z, v in ((x, a), (y, m)):
            raw = v.to_bytes((v.bit_length() + 7) // 8, "big")
            gmp.__gmpz_import(z, len(raw), 1, 1, 0, 0, raw)
        return gmp.__gmpz_jacobi(x, y)
    finally:
        gmp.__gmpz_clear(x)
        gmp.__gmpz_clear(y)


def is_member(e: int, params: GroupParams) -> bool:
    """Subgroup membership test.

    Precondition: params have passed validate(), so n is a safe prime and
    the order-q subgroup is exactly the set of quadratic residues, the
    elements of Jacobi symbol 1.  For a composite n the answer means
    nothing.  On the RFC 7919 groups the symbol is GMP's mpz_jacobi when
    libgmp.so.10 loaded.  Desk groups take _jacobi, as every group does
    without GMP: at 64 bits the loop costs about what the ctypes call does,
    and GMP leaves the symbol undefined for an even modulus, which only
    validate() rules out.  Both paths give the same answer, in time that
    depends on e, as CPython's pow does; every element checked here is
    public (blinded requests and responses, catalog entries, proof
    commitments), so no secret leaks through it.
    """
    n = params.n
    if not 0 < e < n:
        return False
    if _GMP is not None and n in _NAMED_PRIMES:
        return _gmp_jacobi(e, n) == 1
    return _jacobi(e, n) == 1


def ensure_member(e: int, params: GroupParams) -> int:
    if not is_member(e, params):
        raise MalformedElement(f"{e} is not a member of the order-{params.q} subgroup")
    return e


def pow_mod(base: int, e: int, params: GroupParams) -> int:
    """base^e mod n.  Exponents are reduced mod q, the subgroup order."""
    return pow(base, e % params.q, params.n)


# OpenSSL knows the RFC 7919 primes and skips its parameter check for them.
_DH_NUMBERS = {n: dh.DHParameterNumbers(n, 2) for n in _NAMED_PRIMES}


def pow_fast(base: int, e: int, params: GroupParams) -> int:
    """base^e mod n, reduced mod q exactly as pow_mod, and equal to it.

    On the named groups it is an OpenSSL DH derivation: private value e,
    peer value base.  The key's own public value is never read, so a
    placeholder stands in for it.  OpenSSL refuses a peer value outside
    (1, n - 1) and a zero private value; those inputs, and desk groups,
    take builtin pow.  No other input yields the secrets 1 and
    n - 1 that OpenSSL also refuses: an element of order q or 2q raised to
    an exponent in (0, q) gives neither."""
    n = params.n
    base %= n
    e %= params.q
    numbers = _DH_NUMBERS.get(n)
    if numbers is None or not 1 < base < n - 1 or e == 0:
        return pow(base, e, n)
    key = dh.DHPrivateNumbers(e, dh.DHPublicNumbers(2, numbers)).private_key()
    shared = key.exchange(dh.DHPublicNumbers(base, numbers).public_key())
    return int.from_bytes(shared, "big")


def mul_mod(a: int, b: int, params: GroupParams) -> int:
    return (a * b) % params.n


def div_mod(a: int, b: int, params: GroupParams) -> int:
    """a / b mod n; the unblinding operation of the purchase protocol."""
    return (a * pow(b, -1, params.n)) % params.n


def hash_to_group(label: bytes, params: GroupParams) -> int:
    """Deterministically map a label to a subgroup element != 1.

    The digest is expanded to cover the modulus with slack, reduced mod n
    and squared (cofactor clearing).  Outputs of distinct labels carry no
    known exponent relation to each other, which is exactly the property
    license encryption factors need.
    """
    if not label:
        raise ValueError("label must be nonempty")
    want = (params.bits + 7) // 8 + 8
    for ctr in range(2**32):
        blocks = []
        for i in range((want + 31) // 32):
            h = hashlib.sha256()
            h.update(b"h2g-v1")
            h.update(ctr.to_bytes(4, "big"))
            h.update(i.to_bytes(2, "big"))
            h.update(label)
            blocks.append(h.digest())
        v = int.from_bytes(b"".join(blocks)[:want], "big") % params.n
        e = pow(v, 2, params.n)
        if e not in (0, 1):
            return e
    raise RuntimeError("unreachable: hash_to_group exhausted counters")


# --- discrete-log equality proofs (Chaum-Pedersen made non-interactive) ------

@dataclass(frozen=True)
class DlEqProof:
    """Proof that log_{base1}(y1) = log_{base2}(y2)."""

    commitment_a: int
    commitment_b: int
    challenge: int
    response: int


def _dleq_challenge(params: GroupParams, base1: int, y1: int, base2: int,
                    y2: int, a1: int, a2: int) -> int:
    h = hashlib.sha256()
    h.update(b"dleq-v1")
    for v in (params.n, params.g, base1, y1, base2, y2, a1, a2):
        h.update(enc_int(v))
    return int.from_bytes(h.digest(), "big") % params.q


def dleq_prove(secret: int, base1: int, base2: int, params: GroupParams,
               rng: random.Random = SYSTEM_RANDOM,
               claim: tuple[int, int] | None = None,
               y2: int | None = None) -> DlEqProof | None:
    """Prove knowledge of `secret` with base1^secret and base2^secret linked.

    The challenge is a hash over the canonical transcript, so the proof is
    non-interactive and verifiable offline.  With a claim (y1, y2), the
    proof is made only if the secret yields exactly those values; otherwise
    the result is None.  A caller that already holds y2 = base2^secret
    passes it, and it is not computed again.
    """
    secret %= params.q
    y1 = pow_fast(base1, secret, params)
    if y2 is None:
        y2 = pow_fast(base2, secret, params)
    if claim is not None and claim != (y1, y2):
        return None
    w = rng.randrange(params.q)
    a1 = pow_fast(base1, w, params)
    a2 = pow_fast(base2, w, params)
    c = _dleq_challenge(params, base1, y1, base2, y2, a1, a2)
    z = (w + c * secret) % params.q
    return DlEqProof(commitment_a=a1, commitment_b=a2, challenge=c, response=z)


def dleq_equations_hold(challenge: int, response: int, base1: int, y1: int,
                        base2: int, y2: int, a1: int, a2: int,
                        params: GroupParams) -> bool:
    """The bare sigma-protocol acceptance predicate, without the hash
    binding: base1^z = a1 * y1^c and base2^z = a2 * y2^c, checked one by
    one.  dleq_verify checks the two as one; this is the exact reference it
    is tested against, and soundness is measured by enumerating
    (challenge, response) pairs through it directly."""
    n = params.n
    lhs1 = pow_fast(base1, response, params)
    rhs1 = (a1 * pow_fast(y1, challenge, params)) % n
    if lhs1 != rhs1:
        return False
    lhs2 = pow_fast(base2, response, params)
    rhs2 = (a2 * pow_fast(y2, challenge, params)) % n
    return lhs2 == rhs2


def _dleq_weight(params: GroupParams, base1: int, y1: int, base2: int, y2: int,
                 a1: int, a2: int, c: int, z: int) -> int:
    h = hashlib.sha256()
    h.update(b"dleq-verify-v1")
    for v in (params.n, base1, y1, base2, y2, a1, a2, c, z):
        h.update(enc_int(v))
    return int.from_bytes(h.digest()[:16], "big")


def dleq_verify(proof: DlEqProof, base1: int, y1: int, base2: int, y2: int,
                params: GroupParams) -> bool:
    """Check a proof against the statement (base1, y1, base2, y2).

    Raises MalformedElement if any input is outside the subgroup; returns
    False for any proof that fails the recomputed challenge or the
    verification equations.

    The two equations of dleq_equations_hold are checked as one,
    (base1 * base2^r)^z = (a1 * a2^r) * (y1 * y2^r)^c, with a 128-bit
    weight r hashed from n, the statement, both commitments, c and z (the
    small-exponents test of Bellare-Garay-Rabin): one power of q's size
    instead of two.  When both equations hold, so does this one.  When
    either fails, each side's quotient is a subgroup member, so at most
    one r mod q satisfies it: a false proof passes with probability about
    2^-128 above q = 2^128, and of order 1/q on desk groups, like the
    challenge itself.
    """
    a1, a2 = proof.commitment_a, proof.commitment_b
    for e in (base1, y1, base2, y2, a1, a2):
        ensure_member(e, params)
    c, z = proof.challenge, proof.response
    if not (0 <= c < params.q and 0 <= z < params.q):
        return False
    if c != _dleq_challenge(params, base1, y1, base2, y2, a1, a2):
        return False
    r = _dleq_weight(params, base1, y1, base2, y2, a1, a2, c, z)
    n = params.n
    lhs = pow_fast(base1 * pow_fast(base2, r, params) % n, z, params)
    rhs = (a1 * pow_fast(a2, r, params) % n
           * pow_fast(y1 * pow_fast(y2, r, params) % n, c, params) % n)
    return lhs == rhs


def dleq_composite(pairs: list[tuple[int, int]], base: int, y: int,
                   params: GroupParams) -> tuple[int, int]:
    """Fold the statements log_base(y) = log_{m_i}(m_out_i), one per pair
    (m_i, m_out_i), into one statement log_base(y) = log_M(Z), with
    M = prod m_i^(d_i) and Z = prod m_out_i^(d_i) (ComputeComposites,
    RFC 9497 section 2.2).

    The 128-bit weights d_i are hashed from the group, the statement and
    every pair, so a false pair survives the fold with probability about
    2^-128 (the small-exponents test of Bellare-Garay-Rabin).  That bound
    needs every input to be a subgroup member: an order-2 component
    vanishes under every even weight, so callers check membership first.
    Every pair is weighted, a single one too: a caller may fold in one more
    pair at weight one, whose error an unweighted pair could cancel.
    """
    h = hashlib.sha256(b"dleq-composite-v1")
    for v in (params.n, params.g, base, y, len(pairs)):
        h.update(enc_int(v))
    for m, m_out in pairs:
        h.update(enc_int(m))
        h.update(enc_int(m_out))
    seed = h.digest()
    n = params.n
    big_m = big_z = 1
    for i, (m, m_out) in enumerate(pairs):
        digest = hashlib.sha256(seed + i.to_bytes(4, "big")).digest()
        d = int.from_bytes(digest[:16], "big")
        big_m = big_m * pow_fast(m, d, params) % n
        big_z = big_z * pow_fast(m_out, d, params) % n
    return big_m, big_z
