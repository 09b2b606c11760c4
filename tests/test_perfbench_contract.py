"""The benchmark in perfbench/ times the program's layers by wrapping the
module and class attributes its tracer names (``catalog.pow_mod``,
``purchase.div_mod`` and so on), and drives the program through public
calls whose names, arguments and verdicts its workloads rely on.  A change
to src/ that breaks either breaks the benchmark run; these tests make it
fail here too.  perfbench/ is imported, never edited."""

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
