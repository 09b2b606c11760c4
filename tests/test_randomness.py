"""Every secret draw goes through the caller's generator, which defaults to
the OS generator (group.SYSTEM_RANDOM); a seeded random.Random makes a run
reproducible.  No module falls back on `secrets` or on the `random`
module's shared Mersenne Twister."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import random

import pytest

import blindpay
from blindpay.cards import CardLedger
from blindpay.catalog import LicensePlaintext, LicenseSpec, setup
from blindpay.group import SYSTEM_RANDOM, dleq_prove, pow_mod
from blindpay.purchase import PurchaseSession, buyer_begin

from conftest import make_catalog

SRC = pathlib.Path(blindpay.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_draws_outside_the_callers_generator(path):
    tree = ast.parse(path.read_text(), str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert "secrets" not in [a.name for a in node.names], node.lineno
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("secrets", "random"), node.lineno
        if isinstance(node, ast.Name) and node.id == "random":
            parent = parents.get(node)
            assert isinstance(parent, ast.Attribute) and parent.attr in (
                "Random", "SystemRandom"), f"bare `random` at line {node.lineno}"
        if isinstance(node, ast.arg) and node.arg == "rng" and node.annotation is not None:
            assert ast.unparse(node.annotation) == "random.Random", node.lineno


def _rng_defaults():
    for path in MODULES:
        module = importlib.import_module(f"blindpay.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            funcs = [obj.__init__] if inspect.isclass(obj) else [obj]
            for fn in funcs:
                if not inspect.isfunction(fn):
                    continue
                param = inspect.signature(fn).parameters.get("rng")
                if param is not None and param.default is not inspect.Parameter.empty:
                    yield f"{module.__name__}.{name}", param.default


def test_every_rng_defaults_to_the_os_generator():
    found = dict(_rng_defaults())
    assert {"blindpay.group.dleq_prove", "blindpay.catalog.setup",
            "blindpay.cards.CardLedger", "blindpay.purchase.buyer_begin",
            "blindpay.dispute.SellerDisputeAgent"} <= set(found)
    assert all(default is SYSTEM_RANDOM for default in found.values()), found
    (field,) = [f for f in dataclasses.fields(PurchaseSession) if f.name == "_rng"]
    assert field.default is SYSTEM_RANDOM


def test_unseeded_secrets_are_fresh(params64):
    spec = LicenseSpec(license_id="a", content_id="c", price=2, terms="t",
                       plaintext=LicensePlaintext("a", "t", b"k" * 16, ("play",)))
    (keys_a, cat_a), (keys_b, cat_b) = setup(params64, [spec]), setup(params64, [spec])
    assert keys_a.s != keys_b.s and keys_a.sign_sk != keys_b.sign_sk
    assert cat_a.licenses[0].encrypted_license[:12] != cat_b.licenses[0].encrypted_license[:12]
    assert CardLedger().issue_cards(1)[0].card_id != CardLedger().issue_cards(1)[0].card_id
    _, cat = make_catalog(params64)
    cards = [("00" * 16, 1)]
    assert buyer_begin(cat, "lic-1", cards).alpha != buyer_begin(cat, "lic-1", cards).alpha
    g, base = params64.g, pow_mod(params64.g, 5, params64)
    assert dleq_prove(7, base, g, params64) != dleq_prove(7, base, g, params64)
    # and a seeded generator reproduces them all
    assert setup(params64, [spec], random.Random(1)) == setup(params64, [spec], random.Random(1))
