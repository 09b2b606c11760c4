"""The RFC 7919 ffdhe2048 group, derived from its formula and pinned by digest.

    p = 2^b - 2^(b-64) + (floor(2^(b-130) * e) + X) * 2^64 - 1,  b = 2048, X = 560316

p is a safe prime with p = 7 (mod 8), so g = 2 lies in the order-q
subgroup.  The digest pin makes a wrong derivation fail before any run
instead of silently measuring another group.
"""

from __future__ import annotations

import hashlib

BITS = 2048
X_2048 = 560316
SHA256_2048 = "9cd3b7f336872f46c09428d1bbc19877a4d440512cda8d1c1cf0cd6e33698966"


def _e_fixed(bits: int) -> int:
    """floor(e * 2^bits) from the series sum(1/k!), with 64 guard bits."""
    one = 1 << (bits + 64)
    total, term, k = 0, one, 0
    while term:
        total += term
        k += 1
        term //= k
    return total >> 64


def ffdhe_prime(bits: int, x: int) -> int:
    return 2**bits - 2**(bits - 64) + (_e_fixed(bits - 130) + x) * 2**64 - 1


def ffdhe2048(group_params_cls):
    """GroupParams for ffdhe2048; raises ValueError if the digest differs."""
    n = ffdhe_prime(BITS, X_2048)
    digest = hashlib.sha256(n.to_bytes(BITS // 8, "big")).hexdigest()
    if digest != SHA256_2048:
        raise ValueError(f"ffdhe2048 derivation has digest {digest}, want {SHA256_2048}")
    return group_params_cls(n=n, q=(n - 1) // 2, g=2, bits=BITS)
