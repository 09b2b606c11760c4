import random

import pytest

from blindpay import group
from blindpay.catalog import LicensePlaintext, LicenseSpec, setup
from blindpay.group import GroupParams, gen_params, named_group, pow_fast

# Tiny hand-checkable group: 23 = 2*11 + 1, and 4 generates the 11 quadratic
# residues mod 23.
PARAMS23 = GroupParams(n=23, q=11, g=4, bits=5)


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
        pow_fast(2, 5, named_group("ffdhe2048"))


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
