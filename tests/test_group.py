import ast
import hashlib
import pathlib
import random
import re
import sys
import threading
from dataclasses import astuple, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blindpay import group
from blindpay.errors import MalformedElement
from blindpay.group import (
    _MR_BASES,
    _MR_DETERMINISTIC_BOUND,
    DlEqProof,
    NAMED_GROUPS,
    _jacobi,
    GroupParams,
    dleq_composite,
    dleq_equations_hold,
    dleq_prove,
    dleq_verify,
    gen_params,
    group_for,
    div_mod,
    hash_to_group,
    is_member,
    is_probable_prime,
    mul_mod,
    pow_fast,
    pow_mod,
)

from conftest import PARAMS23, UNNAMED65, UNNAMED128


# --- independent oracles ---------------------------------------------------------

def naive_pow(base, e, n):
    """Exponentiation by repeated multiplication; the oracle pow_mod is
    checked against at desk scale."""
    acc = 1
    for _ in range(e):
        acc = (acc * base) % n
    return acc


def egcd_inverse(a, n):
    """Extended Euclid, kept independent of pow(-1)."""
    t, new_t = 0, 1
    r, new_r = n, a
    while new_r != 0:
        q = r // new_r
        t, new_t = new_t, t - q * new_t
        r, new_r = new_r, r - q * new_r
    assert r == 1, "not invertible"
    return t % n


def multiplicative_order(e, n):
    acc = e % n
    for k in range(1, n):
        if acc == 1:
            return k
        acc = (acc * e) % n
    raise AssertionError("no order found")


def trial_division_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


# --- parameter generation ----------------------------------------------------------

def test_gen_params_shape_and_determinism():
    p1 = gen_params(16, seed=7)
    p2 = gen_params(16, seed=7)
    assert p1 == p2
    assert p1.n == 2 * p1.q + 1
    assert p1.n.bit_length() == 16
    assert is_probable_prime(p1.n) and is_probable_prime(p1.q)
    assert pow(p1.g, p1.q, p1.n) == 1 and p1.g != 1
    assert gen_params(16, seed=8) != p1


# psi_13, the least strong pseudoprime to the 13 smallest prime bases
# (Sorenson and Webster, 2017)
PSI13 = 1287836182261 * 2575672364521


def strong_liar(a, m):
    """a does not witness that odd m is composite (one Miller-Rabin round)."""
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, m)
    return x in (1, m - 1) or any(pow(x, 2**i, m) == m - 1 for i in range(1, r))


def test_miller_rabin_refuses_from_the_deterministic_bound():
    # psi_13 is the bound itself: every base is a strong liar for it, so no
    # answer at or above the bound would be exact, and none is given
    assert PSI13 == _MR_DETERMINISTIC_BOUND == 3317044064679887385961981
    assert all(strong_liar(a, PSI13) for a in _MR_BASES)
    with pytest.raises(ValueError, match="deterministic"):
        is_probable_prime(PSI13)
    with pytest.raises(ValueError, match="deterministic"):
        is_probable_prime(2**127 - 1)
    assert is_probable_prime(2**61 - 1) and is_probable_prime(2**64 - 59)
    assert not is_probable_prime(3215031751)  # strong pseudoprime to 2, 3, 5, 7


def test_known_small_group_is_valid():
    # oracle: exhaustive order computation over Z*_23
    assert trial_division_prime(23) and trial_division_prime(11)
    assert multiplicative_order(4, 23) == 11
    PARAMS23.validate()


def test_validate_rejects_bad_params():
    with pytest.raises(ValueError):
        GroupParams(n=25, q=12, g=4, bits=5).validate()  # n not prime
    with pytest.raises(ValueError):
        GroupParams(n=23, q=11, g=5, bits=5).validate()  # 5 is not a QR mod 23
    with pytest.raises(ValueError):
        GroupParams(n=23, q=11, g=1, bits=5).validate()


# --- RFC 7919 named groups ---------------------------------------------------------

FFDHE_SHA256 = {
    "ffdhe2048": "9cd3b7f336872f46c09428d1bbc19877a4d440512cda8d1c1cf0cd6e33698966",
    "ffdhe3072": "0eaf67db3a839156d5013494a5318a772b5697d270d721f37f092efc69ea5a17",
}


@pytest.mark.parametrize("name,bits", [("ffdhe2048", 2048), ("ffdhe3072", 3072)])
def test_named_groups_are_the_pinned_primes(name, bits):
    p = NAMED_GROUPS[name]
    assert hashlib.sha256(p.n.to_bytes(bits // 8, "big")).hexdigest() == FFDHE_SHA256[name]
    assert p.bits == bits == p.n.bit_length()
    assert p.g == 2 and p.n % 8 == 7
    assert p.n == 2 * p.q + 1


def test_unknown_group_name_is_refused():
    with pytest.raises(ValueError, match="'ffdhe1024' is neither"):
        group_for("ffdhe1024", random.Random(0))


@pytest.mark.parametrize("spec", ["65", "4", "3_2", "+32", " 64", "", "FFDHE2048"])
def test_group_for_refuses_text_that_names_no_group(spec):
    with pytest.raises(ValueError, match=re.escape(spec or "''")):
        group_for(spec, random.Random(0))


def test_group_for_draws_one_seed_for_a_desk_group_and_none_for_a_named_one():
    rng, twin = random.Random(5), random.Random(5)
    assert group_for("32", rng) == gen_params(32, seed=twin.randrange(2**63))
    for name, params in NAMED_GROUPS.items():
        assert group_for(name, rng) is params
    assert rng.random() == twin.random()


def test_ffdhe2048_equals_the_benchmark_copy(monkeypatch):
    # perfbench/ derives the same group for itself; it is imported, never edited
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    import ffdhe

    assert ffdhe.ffdhe2048(GroupParams) == NAMED_GROUPS["ffdhe2048"]


def test_named_groups_validate_without_miller_rabin(prime_tests):
    for name in FFDHE_SHA256:
        assert NAMED_GROUPS[name].validate() == NAMED_GROUPS[name]
    assert prime_tests == []


@pytest.mark.parametrize("edit", [
    lambda p: {"q": p.q + 1},       # n != 2q + 1
    lambda p: {"q": p.q - 1},
    lambda p: {"bits": p.bits + 1},
    lambda p: {"g": 1},
    lambda p: {"g": p.n - 1},       # -1 is a non-residue mod a p = 7 (mod 8)
    lambda p: {"g": 0},
    lambda p: {"g": p.n},
])
@pytest.mark.parametrize("name", list(FFDHE_SHA256))
def test_named_groups_keep_every_cheap_check(name, edit, prime_tests):
    p = NAMED_GROUPS[name]
    with pytest.raises(ValueError):
        replace(p, **edit(p)).validate()
    assert prime_tests == []


def test_an_unnamed_2048_bit_modulus_is_refused_without_miller_rabin(prime_tests):
    rng = random.Random(2048)
    q = rng.getrandbits(2047) | 1 << 2046 | 1
    n = 2 * q + 1
    with pytest.raises(ValueError, match="ffdhe2048 or ffdhe3072"):
        GroupParams(n=n, q=q, g=4, bits=2048).validate()
    assert prime_tests == []


@pytest.mark.parametrize("params", [
    UNNAMED65,
    UNNAMED128,
    replace(UNNAMED128, bits=64),  # the kind is read from n, not from bits
    replace(UNNAMED128, bits=5),
], ids=["65", "128", "128-says-64", "128-says-5"])
def test_validate_refuses_every_unnamed_group_above_64_bits(params, prime_tests):
    # each n is a safe prime of 4's subgroup, so its size is all that is wrong
    assert pow(params.g, params.q, params.n) == 1
    with pytest.raises(ValueError, match="ffdhe2048 or ffdhe3072"):
        params.validate()
    assert prime_tests == []


def test_gen_params_8bit_subgroup_closure():
    # brute-force subgroup enumeration: the set {g^k} has exactly q elements
    # and is closed under multiplication
    p = gen_params(8, seed=3)
    subgroup = set()
    acc = 1
    for _ in range(p.q):
        acc = (acc * p.g) % p.n
        subgroup.add(acc)
    assert len(subgroup) == p.q
    for a in subgroup:
        for b in subgroup:
            assert (a * b) % p.n in subgroup


def test_gen_params_rejects_tiny(prime_tests):
    with pytest.raises(ValueError):
        gen_params(4)
    # and above the desk groups: only the named groups serve there
    with pytest.raises(ValueError, match="ffdhe2048 or ffdhe3072"):
        gen_params(65)
    assert prime_tests == []
    assert gen_params(64, seed=1).validate().bits == 64


# --- modular arithmetic ---------------------------------------------------------------

def test_pow_mod_trivials(params23):
    assert pow_mod(4, 0, params23) == 1
    assert pow_mod(4, 1, params23) == 4


def test_pow_mod_hand_value(params23):
    # 4^3 = 64 = 2*23 + 18
    assert naive_pow(4, 3, 23) == 18
    assert pow_mod(4, 3, params23) == 18


def test_pow_mod_matches_naive_oracle(params23):
    for base in (2, 3, 4, 8, 9, 16):
        for e in range(12):
            assert pow_mod(base, e, params23) == naive_pow(base, e % 11, 23)


def edge_exponents(q):
    return (0, 1, q - 1, q, q + 1, -1, 2 * q + 3)


@pytest.mark.parametrize("name", ["params23", "params16", "params64"])
def test_pow_fast_matches_pow_at_edge_exponents(name, request, no_openssl):
    params = request.getfixturevalue(name)
    for base in (params.g, hash_to_group(b"pow-base", params)):
        for e in edge_exponents(params.q):
            assert pow_fast(base, e, params) == pow(base, e % params.q, params.n), e


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["params23", "params16", "params64"]),
       st.integers(min_value=-2**80, max_value=2**80), st.booleans())
def test_pow_fast_matches_pow(request, no_openssl, name, e, use_g):
    params = request.getfixturevalue(name)
    base = params.g if use_g else hash_to_group(b"pow-base", params)
    assert pow_fast(base, e, params) == pow(base, e % params.q, params.n)


def test_pow_fast_matches_pow_at_2048_bits(no_openssl):
    # a modulus of full size that is no named group takes builtin pow
    rng = random.Random(41)
    n = rng.getrandbits(2048) | (1 << 2047) | 1
    params = GroupParams(n=n, q=(n - 1) // 2, g=2, bits=2048)
    base = rng.randrange(2, n)
    exponents = list(edge_exponents(params.q)) + [rng.randrange(params.q)
                                                  for _ in range(3)]
    for e in exponents:
        assert pow_fast(base, e, params) == pow(base, e % params.q, n)


def kernel_bases(p):
    member, non_member = hash_to_group(b"kernel-base", p), p.n - p.g
    assert is_member(member, p) and not is_member(non_member, p)
    return (p.g, member, non_member, 0, 1, p.n - 1, p.n + 1, -5)


def test_pow_fast_matches_pow_on_ffdhe2048():
    p = NAMED_GROUPS["ffdhe2048"]
    exponents = [*edge_exponents(p.q), random.Random(43).randrange(p.q)]
    for base in kernel_bases(p):
        for e in exponents:
            assert pow_fast(base, e, p) == pow(base, e % p.q, p.n), (base, e)


def test_pow_fast_matches_pow_on_ffdhe3072():
    p = NAMED_GROUPS["ffdhe3072"]
    e = random.Random(44).randrange(p.q)
    for base in kernel_bases(p)[:3]:
        assert pow_fast(base, e, p) == pow(base, e, p.n), base
        assert pow_fast(base, -1, p) == pow(base, p.q - 1, p.n), base


def test_group_arithmetic_stays_in_group():
    """Every power and inverse mod n is taken in group.py, so a faster
    kernel reaches every caller; exponent arithmetic mod q stays anywhere."""
    found = []
    for path in pathlib.Path(group.__file__).parent.glob("*.py"):
        if path.name == "group.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "pow" and len(node.args) == 3
                    and isinstance(node.args[2], ast.Attribute)
                    and node.args[2].attr == "n"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"pow mod n outside group.py at {found}"


POW_MOD_CALLERS = {"purchase.seller_handle_step"}


def test_pow_mod_is_called_only_where_it_must_stay():
    """Every other power takes pow_fast.  The seller's step stays on pow_mod
    because a seller faster than the seller_steps benchmark's request pool
    empties its traced pass."""
    found = set()
    for path in pathlib.Path(group.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "pow_mod"):
                        found.add(f"{path.stem}.{fn.name}")
    extra = found - POW_MOD_CALLERS
    assert not extra, (f"pow_mod called from {sorted(extra)}: call group.pow_fast, its "
                       "equal; ROADMAP item 1 moves the last callers and retires the name")


def test_div_mod_property(params64):
    assert egcd_inverse(4, 23) == 6
    rng = random.Random(5)
    for _ in range(100):
        e = pow_mod(params64.g, rng.randrange(1, params64.q), params64)
        a = pow_mod(params64.g, rng.randrange(1, params64.q), params64)
        assert div_mod(mul_mod(a, e, params64), e, params64) == a
        assert div_mod(1, e, params64) == egcd_inverse(e, params64.n)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=1, max_value=10**9))
def test_exponent_reduction_mod_q(a, b, xseed):
    params = gen_params(16, seed=31)
    x = pow_mod(params.g, xseed, params)
    assert pow_mod(pow_mod(x, a, params), b, params) == \
        pow_mod(x, (a * b) % params.q, params)


def test_subgroup_closure_after_public_ops(params32):
    rng = random.Random(9)
    for _ in range(50):
        x = pow_mod(params32.g, rng.randrange(params32.q), params32)
        y = pow_mod(params32.g, rng.randrange(params32.q), params32)
        for e in (x, y, mul_mod(x, y, params32), pow(x, -1, params32.n),
                  pow_mod(x, rng.randrange(10**6), params32)):
            assert pow(e, params32.q, params32.n) == 1


def test_is_member(params23):
    members = {pow(4, k, 23) for k in range(11)}
    for e in range(1, 23):
        assert is_member(e, params23) == (e in members)
    assert not is_member(0, params23)
    assert not is_member(23, params23)


def euler_member(e, params):
    """Euler's criterion, the exponentiation is_member must agree with."""
    return 0 < e < params.n and pow(e, params.q, params.n) == 1


def legendre_product(a, m):
    """Jacobi symbol from its definition: the product of Euler-criterion
    Legendre symbols over the prime factors of m, found by trial division."""
    out, d = 1, 3
    while m > 1:
        if d * d > m:
            d = m
        while m % d == 0:
            out *= 0 if a % d == 0 else (1 if pow(a, (d - 1) // 2, d) == 1 else -1)
            m //= d
        d += 2
    return out


def test_jacobi_matches_definition_on_small_odd_moduli():
    for m in range(1, 400, 2):
        for a in range(-3, 2 * m + 3):
            assert _jacobi(a, m) == legendre_product(a, m), (a, m)


@pytest.mark.parametrize("name", ["params23", "params16"])
def test_is_member_matches_euler_exhaustively(name, request):
    params = request.getfixturevalue(name)
    for e in range(-1, params.n + 2):
        assert is_member(e, params) == euler_member(e, params), e


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.booleans())
def test_is_member_matches_euler_at_64_bits(params64, v, square):
    e = pow(v, 2, params64.n) if square else v
    assert is_member(e, params64) == euler_member(e, params64)


def test_is_member_edges(params16, params64):
    for params in (params16, params64):
        n = params.n
        assert not is_member(0, params)
        assert is_member(1, params)
        assert not is_member(n - 1, params)  # -1 is a non-residue: q is odd
        assert not is_member(n, params)
        for e in (0, 1, n - 1, n):
            assert is_member(e, params) == euler_member(e, params)


# --- membership through GMP on the named groups ----------------------------------

needs_gmp = pytest.mark.skipif(group._GMP is None,
                               reason="libgmp.so.10 did not load: is_member has no GMP path")
NAMED = ("ffdhe2048", "ffdhe3072")


def square_or_not(v, square, params):
    """v^2 mod n, a residue, or -(v^2) mod n, a non-residue (-1 is one, q
    being odd) unless v^2 = 0 mod n."""
    e = pow(v, 2, params.n)
    return e if square else (params.n - e) % params.n


@needs_gmp
@pytest.mark.parametrize("name", NAMED)
@settings(max_examples=25, deadline=None)
@given(v=st.integers(min_value=0, max_value=2**3072), square=st.booleans())
def test_is_member_on_named_groups_matches_jacobi_and_euler(name, v, square):
    params = NAMED_GROUPS[name]
    e = square_or_not(v, square, params)
    assert is_member(e, params) == (square and e != 0)
    assert is_member(e, params) == (_jacobi(e, params.n) == 1) == euler_member(e, params)


@needs_gmp
@pytest.mark.parametrize("name", NAMED)
def test_is_member_on_named_groups_at_the_edges(name):
    params = NAMED_GROUPS[name]
    n = params.n
    for e in (1, 2, params.g, n - 2, n - 1, n, n + 1, 0):
        want = euler_member(e, params)
        assert is_member(e, params) == want, e
        assert want == (0 < e < n and _jacobi(e, n) == 1), e


def test_is_member_without_gmp_takes_the_python_loop(no_gmp, monkeypatch):
    params = NAMED_GROUPS["ffdhe2048"]
    calls = []
    jacobi = group._jacobi
    monkeypatch.setattr(group, "_jacobi", lambda a, m: calls.append(a) or jacobi(a, m))
    rng = random.Random(17)
    for square in (True, False) * 4:
        e = square_or_not(rng.randrange(1, params.n), square, params)
        assert is_member(e, params) == square
    assert is_member(params.g, params) and not is_member(params.n - 1, params)
    assert len(calls) == 10


def test_is_member_below_the_named_groups_never_calls_gmp(monkeypatch, params16, params64):
    class Refused:
        def __getattr__(self, name):
            raise AssertionError(f"is_member called GMP ({name})")

    monkeypatch.setattr(group, "_GMP", Refused())
    with pytest.raises(AssertionError, match="GMP"):
        is_member(2, NAMED_GROUPS["ffdhe2048"])
    for params in (params16, params64):
        rng = random.Random(params.bits)
        for e in [0, 1, params.g, params.n - 1, params.n] + [
                rng.randrange(params.n) for _ in range(200)]:
            assert is_member(e, params) == euler_member(e, params), e


@needs_gmp
def test_is_member_agrees_in_two_threads_at_once():
    params = NAMED_GROUPS["ffdhe2048"]
    rng = random.Random(23)
    work = [[square_or_not(rng.randrange(params.n), rng.random() < 0.5, params)
             if k % 3 else rng.randrange(params.n) for k in range(200)] for _ in range(2)]
    got = [None, None]
    barrier = threading.Barrier(2)

    def check(i):
        barrier.wait()
        got[i] = [is_member(e, params) for e in work[i]]

    threads = [threading.Thread(target=check, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(2):
        assert got[i] == [0 < e and _jacobi(e, params.n) == 1 for e in work[i]]


def test_only_group_loads_native_code():
    """ctypes is imported in group.py alone, so the one native library the
    package loads is loaded, typed and fallen back from in one place."""
    importers = set()
    for path in pathlib.Path(group.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "ctypes" for m in modules):
                importers.add(path.stem)
    assert importers == {"group"}, f"ctypes imported by {sorted(importers)}"


def test_only_group_decides_the_group_kind():
    """The named primes and the primality test appear in group.py alone, so
    whether a group is named, desk-sized or refused is decided in one place."""
    users = {path.stem for path in pathlib.Path(group.__file__).parent.glob("*.py")
             if re.search(r"\b(_NAMED_PRIMES|is_probable_prime)\b", path.read_text())}
    assert users == {"group"}, f"group kind decided in {sorted(users)}"


# --- hash-to-group ----------------------------------------------------------------------

def test_hash_to_group_deterministic(params64):
    assert hash_to_group(b"L1", params64) == hash_to_group(b"L1", params64)
    assert hash_to_group(b"L1", params64) != hash_to_group(b"L2", params64)


def test_hash_to_group_membership(params16, params64):
    for params in (params16, params64):
        for i in range(50):
            e = hash_to_group(f"label-{i}".encode(), params)
            assert e != 1
            assert pow(e, params.q, params.n) == 1


def test_hash_to_group_empty_label_rejected(params64):
    with pytest.raises(ValueError):
        hash_to_group(b"", params64)


def test_hash_to_group_collision_rate_birthday(params16):
    # 10^4 labels into a subgroup of ~q values; distinct count should sit
    # near the birthday expectation N*(1 - (1 - 1/N)^k)
    n_labels = 10**4
    values = {hash_to_group(f"bday-{i}".encode(), params16) for i in range(n_labels)}
    big_n = params16.q
    expected_distinct = big_n * (1 - (1 - 1 / big_n) ** n_labels)
    assert abs(len(values) - expected_distinct) / expected_distinct < 0.05


# --- discrete-log equality proofs ----------------------------------------------------------

def test_dleq_completeness_1000(params64):
    rng = random.Random(17)
    g = params64.g
    ok = 0
    for _ in range(1000):
        s = rng.randrange(1, params64.q)
        base1 = pow_mod(g, rng.randrange(1, params64.q), params64)
        y1 = pow_mod(base1, s, params64)
        y2 = pow_mod(g, s, params64)
        proof = dleq_prove(s, base1, g, params64, rng)
        ok += dleq_verify(proof, base1, y1, g, y2, params64)
    assert ok == 1000


def test_dleq_rejects_wrong_secret(params64):
    rng = random.Random(23)
    s = rng.randrange(2, params64.q - 1)
    base1 = pow_mod(params64.g, 12345, params64)
    y1 = pow_mod(base1, s, params64)
    y2 = pow_mod(params64.g, s, params64)
    forged = dleq_prove(s + 1, base1, params64.g, params64, rng)
    assert not dleq_verify(forged, base1, y1, params64.g, y2, params64)


def test_dleq_tamper_any_field_rejects(params64):
    rng = random.Random(29)
    s = rng.randrange(1, params64.q)
    base1 = pow_mod(params64.g, 777, params64)
    y1 = pow_mod(base1, s, params64)
    y2 = pow_mod(params64.g, s, params64)
    proof = dleq_prove(s, base1, params64.g, params64, rng)
    assert dleq_verify(proof, base1, y1, params64.g, y2, params64)
    for fieldname in ("commitment_a", "commitment_b", "challenge", "response"):
        bad = {f: getattr(proof, f) for f in
               ("commitment_a", "commitment_b", "challenge", "response")}
        if fieldname.startswith("commitment"):
            bad[fieldname] = mul_mod(bad[fieldname], params64.g, params64)
        else:
            bad[fieldname] = (bad[fieldname] + 1) % params64.q
        assert not dleq_verify(DlEqProof(**bad), base1, y1, params64.g, y2, params64)


def test_dleq_shifted_statement_rejects(params64):
    rng = random.Random(31)
    for _ in range(100):
        s = rng.randrange(1, params64.q)
        base1 = pow_mod(params64.g, rng.randrange(1, params64.q), params64)
        y1 = pow_mod(base1, s, params64)
        y2 = pow_mod(params64.g, s, params64)
        proof = dleq_prove(s, base1, params64.g, params64, rng)
        shifted = mul_mod(y2, params64.g, params64)
        assert not dleq_verify(proof, base1, y1, params64.g, shifted, params64)


def test_dleq_rejects_nonmember_inputs(params23):
    rng = random.Random(3)
    proof = dleq_prove(3, 4, 9, params23, rng)
    with pytest.raises(MalformedElement):
        dleq_verify(proof, 4, 18, 9, 5, params23)  # 5 is not a QR mod 23


def test_dleq_soundness_exhaustive_q11(params23):
    # false statement: log_4(y1) = 3 but log_9(y2) = 5; enumerate every
    # commitment pair and every (challenge, response).  At most one
    # accepting pair per commitment pair means the cheating chance is at
    # most 1/q per challenge.
    n, q = params23.n, params23.q
    base1, base2 = 4, 9
    y1 = pow(base1, 3, n)
    y2 = pow(base2, 5, n)
    subgroup = sorted({pow(4, k, 23) for k in range(11)})
    total_accepting = 0
    for a1 in subgroup:
        for a2 in subgroup:
            accepting = [
                (c, z)
                for c in range(q)
                for z in range(q)
                if dleq_equations_hold(c, z, base1, y1, base2, y2, a1, a2, params23)
            ]
            assert len(accepting) <= 1
            total_accepting += len(accepting)
    # across all commitments: one challenge in q works, never more
    assert total_accepting <= len(subgroup) ** 2
    assert total_accepting / (len(subgroup) ** 2 * q * q) <= 1 / q


def test_dleq_prove_equals_plain_pow_with_the_comb_on_g(params64):
    # the proof is the one plain pow gives for the same nonce
    p = params64
    s, w = 987654321, random.Random(41).randrange(p.q)
    base1 = pow(p.g, 1234, p.n)
    proof = dleq_prove(s, base1, p.g, p, random.Random(41))
    assert (proof.commitment_a, proof.commitment_b) == (pow(base1, w, p.n), pow(p.g, w, p.n))
    assert proof.response == (w + proof.challenge * s) % p.q
    assert dleq_verify(proof, base1, pow(base1, s, p.n), p.g, pow(p.g, s, p.n), p)


def _pairs(params, e, count, seed):
    rng = random.Random(seed)
    ms = [pow(params.g, rng.randrange(1, params.q), params.n) for _ in range(count)]
    return [(m, pow(m, e, params.n)) for m in ms]


def test_dleq_composite_weights_a_single_pair(params64):
    # A lone pair is weighted too: a caller that folds in another pair at
    # weight one relies on it, or errors by inverse factors would cancel.
    p = params64
    y = pow(p.g, 5, p.n)
    (m, m_out), = _pairs(p, 5, 1, 42)
    big_m, big_z = dleq_composite([(m, m_out)], p.g, y, p)
    assert (big_m, big_z) != (m, m_out)
    assert big_z == pow(big_m, 5, p.n)
    # a pair (g, y*u) at weight one and (m, m_out/u): unweighted they cancel
    u = pow(p.g, 7, p.n)
    bad = (m, mul_mod(m_out, pow(u, -1, p.n), p))
    lead_m, lead_z = p.g, mul_mod(y, u, p)
    assert mul_mod(lead_z, bad[1], p) == pow(mul_mod(lead_m, m, p), 5, p.n)
    big_m, big_z = dleq_composite([bad], p.g, y, p)
    assert mul_mod(lead_z, big_z, p) != pow(mul_mod(lead_m, big_m, p), 5, p.n)


def test_dleq_composite_keeps_true_statements_and_breaks_false_ones(params64):
    p = params64
    e = 31337
    y = pow(p.g, e, p.n)
    pairs = _pairs(p, e, 5, 43)
    big_m, big_z = dleq_composite(pairs, p.g, y, p)
    assert is_member(big_m, p) and big_z == pow(big_m, e, p.n)
    # the weights hash every input: reordering the pairs changes the composite
    assert dleq_composite(pairs[::-1], p.g, y, p) != (big_m, big_z)
    for i in range(len(pairs)):
        bad = list(pairs)
        bad[i] = (bad[i][0], mul_mod(bad[i][1], p.g, p))
        big_m, big_z = dleq_composite(bad, p.g, y, p)
        assert big_z != pow(big_m, e, p.n)
    # errors that cancel in a plain product do not cancel under the weights
    bad = list(pairs)
    bad[0] = (bad[0][0], mul_mod(bad[0][1], p.g, p))
    bad[1] = (bad[1][0], mul_mod(bad[1][1], pow(p.g, -1, p.n), p))
    big_m, big_z = dleq_composite(bad, p.g, y, p)
    assert big_z != pow(big_m, e, p.n)


def test_batched_proof_verifies_for_the_composite(params64):
    p = params64
    e = 2718281
    y = pow(p.g, e, p.n)
    pairs = _pairs(p, e, 4, 44)
    big_m, big_z = dleq_composite(pairs, p.g, y, p)
    proof = dleq_prove(e, big_m, p.g, p, random.Random(45), claim=(big_z, y))
    assert dleq_verify(proof, big_m, big_z, p.g, y, p)
    # a claim the secret does not yield gets no proof
    assert dleq_prove(e + 1, big_m, p.g, p, random.Random(45), claim=(big_z, y)) is None


def test_dleq_prove_takes_a_y2_the_caller_holds(params64):
    # the proof is the one it computes y2 for, one power fewer
    p = params64
    base1, s = pow(p.g, 4321, p.n), 271828
    y2 = pow(p.g, s, p.n)
    held = dleq_prove(s, base1, p.g, p, random.Random(46), y2=y2)
    assert held == dleq_prove(s, base1, p.g, p, random.Random(46))
    assert dleq_verify(held, base1, pow(base1, s, p.n), p.g, y2, p)


# --- dleq_verify against the one-equation-at-a-time reference ------------------------------

def _reference_verify(proof, base1, y1, base2, y2, params):
    """The proof checked as the Chaum-Pedersen definition reads: scalars in
    range, the recomputed challenge, then dleq_equations_hold."""
    a1, a2, c, z = astuple(proof)
    return (0 <= c < params.q and 0 <= z < params.q
            and c == group._dleq_challenge(params, base1, y1, base2, y2, a1, a2)
            and dleq_equations_hold(c, z, base1, y1, base2, y2, a1, a2, params))


def _proof_and_tampers(params, s, base1, base2, lie, rng):
    """A proof of log_{base1}(y1) = log_{base2}(y2) made with secret s, where
    y2 = base2^(s + lie): for lie != 0 only the second equation fails.  Then
    every copy with one field changed: an element times g, a scalar plus 1."""
    n, q = params.n, params.q
    y2 = pow(base2, (s + lie) % q, n)
    proof = dleq_prove(s, base1, base2, params, rng, y2=y2)
    fields = [*astuple(proof), base1, pow(base1, s % q, n), base2, y2]
    out = [fields]
    for i, v in enumerate(fields):
        bad = list(fields)
        bad[i] = (v + 1) % q if i in (2, 3) else v * params.g % n
        out.append(bad)
    return [(DlEqProof(*f[:4]), *f[4:]) for f in out]


def _assert_verify_is_the_reference(params, s, base1, base2, lie, rng):
    cases = _proof_and_tampers(params, s, base1, base2, lie, rng)
    got = [dleq_verify(proof, *stmt, params) for proof, *stmt in cases]
    assert got == [_reference_verify(proof, *stmt, params) for proof, *stmt in cases]
    assert got[0] == (lie % params.q == 0)
    assert not any(got[1:])


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_dleq_verify_equals_the_reference_on_64_bits(params64, data):
    p = params64
    draw = lambda: data.draw(st.integers(min_value=1, max_value=p.q - 1))  # noqa: E731
    base1 = pow(p.g, draw(), p.n)
    base2 = p.g if data.draw(st.booleans()) else pow(p.g, draw(), p.n)
    lie = data.draw(st.sampled_from([0, 0, 1, draw()]))
    _assert_verify_is_the_reference(p, draw(), base1, base2, lie,
                                    random.Random(data.draw(st.integers(0, 2**32))))


@pytest.mark.parametrize("lie", [0, 1, 12345])
def test_dleq_verify_equals_the_reference_at_ffdhe2048(lie):
    p = NAMED_GROUPS["ffdhe2048"]
    rng = random.Random(47 + lie)
    base1 = hash_to_group(b"verify-base1", p)
    base2 = hash_to_group(b"verify-base2", p)
    _assert_verify_is_the_reference(p, rng.randrange(1, p.q), base1, base2, lie, rng)
    _assert_verify_is_the_reference(p, rng.randrange(1, p.q), base1, p.g, lie, rng)


def test_dleq_verify_makes_one_power_of_q_size(monkeypatch):
    p = NAMED_GROUPS["ffdhe2048"]
    rng = random.Random(48)
    s, base1 = rng.randrange(1, p.q), hash_to_group(b"verify-base1", p)
    proof = dleq_prove(s, base1, p.g, p, rng)
    sizes = []
    original = group.pow_fast

    def counting(base, e, params):
        sizes.append((e % params.q).bit_length())
        return original(base, e, params)

    monkeypatch.setattr(group, "pow_fast", counting)
    assert dleq_verify(proof, base1, pow_fast(base1, s, p), p.g, pow_fast(p.g, s, p), p)
    # z on the folded base; c, and the weight r three times, are 256 bits or less
    assert len(sizes) == 5 and sum(b > 256 for b in sizes) == 1
