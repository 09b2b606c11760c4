"""The benchmark in perfbench/ times the program's layers by wrapping the
module and class attributes its tracer names (``catalog.pow_mod``,
``purchase.div_mod`` and so on), and drives the program through public
calls whose names, arguments and verdicts its workloads rely on.  A change
to src/ that breaks either breaks the benchmark run; these tests make it
fail here too.  perfbench/ is imported, never edited."""

import ast
import importlib
import pathlib

import pytest

import blindpay

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # loads every module the benchmark drives before the package is read,
    # as perfbench/run.py does
    import workloads  # noqa: F401
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install(blindpay)
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, (owner.__name__, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner.__name__, attr)


@pytest.mark.parametrize("name", ["purchase", "seller_steps", "arbitrate"])
def test_one_round_of_each_workload_runs_clean(monkeypatch, tmp_path, params64, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    tmp = str(tmp_path)
    wl = {
        "purchase": lambda: workloads.PurchaseWorkload(params64, 1, tmp, 1),
        # a pool for 0.1 s at the provisioned rate is one round of 20 steps
        "seller_steps": lambda: workloads.SellerStepsWorkload(params64, 1, tmp, 1, 0.1, 1),
        "arbitrate": lambda: workloads.ArbitrateWorkload(params64, 1, tmp),
    }[name]()
    env = wl.setup()
    try:
        # a window of 0 s holds exactly one round; seller_steps ends with its pool
        run = wl.run(env, 60.0 if name == "seller_steps" else 0.0, None)
        problems = wl.check(env, [run])
    finally:
        wl.close(env)
    assert run.ops and [op for op in run.ops if not op.ok] == []
    assert problems == []
    if name != "arbitrate":  # the benchmark finds the spend records by their op field
        assert run.counts["ledger_bytes"] > 0


# The layers each workload's per-layer metrics read.  A change that routes
# a call around its wrap point zeroes a metric with no error; this fails.
LAYERS_READ = {
    "purchase": {
        "purchase.buyer_begin", "purchase.buyer_step_request",
        "purchase.buyer_process_response", "purchase.buyer_finish",
        "purchase.seller_handle_step", "group.pow_mod", "group.div_mod", "group.is_member",
        "catalog.decrypt_license", "catalog.sign_payload", "catalog.verify_payload",
        "cards.spend_atomic", "wire.bank_rtt", "wire.connect", "wire.encode", "wire.decode",
    },
    "seller_steps": {
        "purchase.seller_handle_step", "group.pow_mod", "group.is_member",
        "catalog.sign_payload", "cards.spend_atomic", "wire.bank_rtt", "wire.encode",
        "wire.decode",
    },
    "arbitrate": {
        "dispute.method1", "dispute.method2", "dispute.method3", "dispute.agent_prove",
        "dispute.agent_reveal_chain", "group.dleq_prove", "group.dleq_verify",
        "group.is_member", "catalog.decrypt_license", "catalog.verify_payload",
    },
}


@pytest.mark.parametrize("name", sorted(LAYERS_READ))
def test_a_traced_round_passes_through_the_layers_its_metrics_read(monkeypatch, tmp_path,
                                                                  params64, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from tracer import Tracer

    tmp = str(tmp_path)
    wl = {
        "purchase": lambda: workloads.PurchaseWorkload(params64, 1, tmp, 1),
        "seller_steps": lambda: workloads.SellerStepsWorkload(params64, 1, tmp, 1, 0.1, 1),
        "arbitrate": lambda: workloads.ArbitrateWorkload(params64, 1, tmp),
    }[name]()
    env = wl.setup()
    # installed after set-up, as perfbench/run.py installs it for its traced pass
    tracer = Tracer()
    tracer.phase = "window"
    tracer.install(blindpay)
    try:
        wl.run(env, 60.0 if name == "seller_steps" else 0.0, tracer)
    finally:
        tracer.uninstall()
        wl.close(env)
    recorded = {s.name for s in tracer.spans if s.phase == "window"}
    assert LAYERS_READ[name] - recorded == set()


# The program names perfbench/workloads.py takes from blindpay: attributes
# of the six modules it imports, and its blindpay.errors imports.
WORKLOAD_NAMES = {
    "cards.CardLedger", "cards.CardStatus",
    "catalog.LicensePlaintext", "catalog.LicenseSpec", "catalog.parse_catalog",
    "catalog.setup", "catalog.verify_catalog", "catalog.verify_payload",
    "dispute.BUYER_CLAIM_REJECTED", "dispute.SELLER_AT_FAULT", "dispute.SellerDisputeAgent",
    "dispute.build_type_d_case", "dispute.resolve_type_d_method1",
    "dispute.resolve_type_d_method2", "dispute.resolve_type_d_method3",
    "harness.FaultingSeller", "harness.OpCounter", "harness.RemoteBank",
    "harness.make_bank_handler", "harness.make_seller_handler",
    "purchase.MODE_BASIC", "purchase.MODE_ENHANCED", "purchase.SellerStepHandler",
    "purchase.StepRequest", "purchase.StepResponse", "purchase.buyer_begin",
    "purchase.plan_steps", "purchase.run_purchase", "purchase.step_payload",
    "wire.CatalogDoc", "wire.CatalogGet", "wire.Server", "wire.StepErr", "wire.StepReq",
    "wire.StepResp", "wire.connect",
    "errors.AuthenticationFailure", "errors.BlindpayError", "errors.LedgerCorrupt",
    "errors.StepRejected",
}
# An annotation of a nested function, never evaluated, so the benchmark runs
# without it; src/ no longer defines it.
UNEVALUATED = {"purchase.StepRequest"}

# (owner, attribute) for every wrap point the tracer installs.
TRACED = {
    ("blindpay.cards.CardLedger", "issue_cards"), ("blindpay.cards.CardLedger", "spend_atomic"),
    *(("blindpay.catalog", a) for a in (
        "decrypt_license", "hash_to_group", "is_member", "parse_catalog", "pow_mod", "setup",
        "sign_payload", "verify_catalog", "verify_payload")),
    ("blindpay.dispute.SellerDisputeAgent", "prove"),
    ("blindpay.dispute.SellerDisputeAgent", "reveal_chain"),
    *(("blindpay.dispute", a) for a in (
        "decrypt_license", "dleq_prove", "dleq_verify", "resolve_type_d_method1",
        "resolve_type_d_method2", "resolve_type_d_method3", "sign_payload", "verify_payload")),
    ("blindpay.group.GroupParams", "validate"),
    *(("blindpay.group", a) for a in (
        "div_mod", "dleq_prove", "dleq_verify", "hash_to_group", "is_member", "pow_mod")),
    ("blindpay.harness.RemoteBank", "spend_atomic"),
    *(("blindpay.purchase", a) for a in (
        "buyer_begin", "buyer_finish", "buyer_process_response", "buyer_step_request",
        "decrypt_license", "div_mod", "pow_mod", "seller_handle_step", "sign_payload",
        "verify_payload")),
    *(("blindpay.wire", a) for a in ("connect", "decode", "encode")),
}


def _owner(obj) -> str:
    return f"{obj.__module__}.{obj.__qualname__}" if isinstance(obj, type) else obj.__name__


def test_the_benchmark_uses_the_names_pinned_here(monkeypatch):
    # A name added to or gone from either set is a change to the program's
    # surface that the benchmark sees: the pins move only with perfbench/.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "blindpay" for alias in node.names}
    used = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    used |= {f"errors.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "blindpay.errors"
             for alias in node.names}
    assert len(WORKLOAD_NAMES) == 40
    assert used == WORKLOAD_NAMES, (f"added {sorted(used - WORKLOAD_NAMES)}, "
                                    f"gone {sorted(WORKLOAD_NAMES - used)}")
    unresolved = {name for name in WORKLOAD_NAMES if not hasattr(
        importlib.import_module(f"blindpay.{name.split('.')[0]}"), name.split(".")[1])}
    assert unresolved == UNEVALUATED

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads  # noqa: F401
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install(blindpay)
        traced = {(_owner(owner), attr) for owner, attr, _ in tracer._saved}
    finally:
        tracer.uninstall()
    assert traced == TRACED, (f"added {sorted(traced - TRACED)}, "
                              f"gone {sorted(TRACED - traced)}")
