import random

import pytest

from blindpay import group
from blindpay.catalog import LicensePlaintext, LicenseSpec, setup
from blindpay.group import NAMED_GROUPS, GroupParams, gen_params, pow_fast

# Tiny hand-checkable group: 23 = 2*11 + 1, and 4 generates the 11 quadratic
# residues mod 23.
PARAMS23 = GroupParams(n=23, q=11, g=4, bits=5)

# Unnamed safe primes just above the desk groups' 64 bits (4 generates the
# order-q subgroup of each); validate() must refuse them on their size alone.
UNNAMED65 = GroupParams(n=31281344415194828567, q=15640672207597414283, g=4, bits=65)
UNNAMED128 = GroupParams(n=247882374964466167615874452021369419059,
                         q=123941187482233083807937226010684709529, g=4, bits=128)


@pytest.fixture(scope="session")
def params23():
    return PARAMS23.validate()


@pytest.fixture(scope="session")
def params16():
    return gen_params(16, seed=101).validate()


@pytest.fixture(scope="session")
def params32():
    return gen_params(32, seed=102).validate()


@pytest.fixture(scope="session")
def params64():
    return gen_params(64, seed=103).validate()


@pytest.fixture
def prime_tests(monkeypatch):
    """The numbers put through group.is_probable_prime, in call order."""
    calls = []
    is_probable_prime = group.is_probable_prime

    def counting(m):
        calls.append(m)
        return is_probable_prime(m)

    monkeypatch.setattr(group, "is_probable_prime", counting)
    return calls


@pytest.fixture
def no_openssl(monkeypatch):
    """Fail the test on any call into OpenSSL's DH, so pow_fast is seen to
    take builtin pow."""
    class Refused:
        def __getattr__(self, name):
            raise AssertionError(f"pow_fast called OpenSSL (dh.{name})")

    monkeypatch.setattr(group, "dh", Refused())
    with pytest.raises(AssertionError, match="OpenSSL"):
        pow_fast(2, 5, NAMED_GROUPS["ffdhe2048"])


@pytest.fixture
def no_gmp(monkeypatch):
    """is_member as on a machine where libgmp.so.10 did not load."""
    monkeypatch.setattr(group, "_GMP", None)


def make_catalog(params, prices=(1, 2, 3, 5), seed=7, shared_x=None, terms="read-only"):
    rng = random.Random(seed)
    specs = []
    for p in prices:
        lid = f"lic-{p}"
        plain = LicensePlaintext(license_id=lid, terms=terms,
                                 content_key=rng.randbytes(16),
                                 permissions=("read",))
        specs.append(LicenseSpec(license_id=lid, content_id=f"content-{p}", price=p,
                                 terms=terms, plaintext=plain, x_label=shared_x))
    return setup(params, specs, rng=rng)


@pytest.fixture()
def small_catalog(params64):
    keys, cat = make_catalog(params64)
    return keys, cat
