"""The benchmark in perfbench/ times the program's layers by wrapping the
module and class attributes its tracer names (``catalog.pow_mod``,
``purchase.div_mod`` and so on).  A change to src/ that drops one of those
imports breaks the traced benchmark run; this test makes it fail here too.
perfbench/ is imported, never edited."""

import pathlib

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
