"""blindpay benchmark on the RFC 7919 ffdhe2048 group.

    python3 perfbench/run.py --workload purchase --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ./src.
Workloads: purchase, seller_steps, arbitrate (see workloads.py).  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it makes
an untraced pass, then a traced pass with wrappers at every layer
boundary, and prints the per-layer metrics.  The human-readable report
comes first; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Every workload makes three complete set-ups and reports their median as
setup_s, then measures whole rounds of its operations for about
--seconds.  Times are scaled to a reference machine speed measured by a
probe during the run; the report gives each as measured too.  Metric
definitions, the scaling and the layer each metric watches are in
METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
# Times are reported at the speed of a machine on which the probe's
# builtin pow (2048-bit modulus, 128-bit exponent) takes this long: a
# quiet core of a 2-CPU cloud machine, where a full 2048-bit pow takes
# about 30 ms.
REF_PROBE_MS = 2.0
PROBE_INTERVAL_S = 0.5

E2E = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "step_p50_ms": "ms", "step_tail_ms": "ms",
    "method1_p50_ms": "ms", "method2_p50_ms": "ms", "method3_p50_ms": "ms",
}


SETUP_LAYER = ("group.validate_ms", "group.hash_to_group_ms", "catalog.setup_ms",
               "catalog.parse_catalog_ms", "catalog.verify_catalog_ms", "cards.issue_ms")


def _layer_units() -> dict[str, str]:
    units = {}
    for name in ("group.pow_mod", "group.is_member", "group.dleq_prove", "group.dleq_verify",
                 "cards.spend_atomic", "catalog.sign_payload", "catalog.verify_payload",
                 "dispute.agent_prove"):
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_ms"] = "ms/op"
    for name in ("group.div_mod", "catalog.decrypt_license", "purchase.buyer_begin",
                 "purchase.buyer_step_request", "purchase.buyer_process_response",
                 "purchase.buyer_finish", "purchase.seller_handle_step",
                 "dispute.agent_reveal_chain", "wire.encode", "wire.decode",
                 "dispute.method1", "dispute.method2", "dispute.method3"):
        units[f"{name}.self_ms"] = "ms/op"
    for name in SETUP_LAYER:
        units[name] = "ms"
    units.update({
        "cards.spend_refused_ratio": "ratio", "cards.ledger_bytes_per_spend": "bytes",
        "purchase.steps_per_purchase": "count", "purchase.buyer_exps_per_purchase": "count",
        "purchase.buyer_divs_per_purchase": "count", "purchase.seller_exps_per_step": "count",
        "purchase.seller_signings_per_step": "count",
        "wire.step_rtt_overhead_ms": "ms", "wire.handler_wait_ms": "ms", "wire.bank_rtt_ms": "ms",
        "wire.bytes_per_step": "bytes", "wire.connections_per_purchase": "count",
        "dispute.proofs_per_case": "count",
        "trace.overhead_ratio": "ratio", "trace.unattributed_share": "ratio",
        "trace.probe_ms": "ms",
    })
    return units


LAYER = _layer_units()


def tail(values) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and its value.  Below eleven samples: the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    k = 100 * (n - 10) // n
    rank = -(-k * n // 100)
    return k, xs[rank - 1]


def git_revision() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SpeedProbe:
    """Measures how fast the machine runs while a phase of the benchmark runs.

    On a shared machine the cost of the same computation swings by 20-30%
    within seconds, and every time the benchmark measures follows it.  The
    probe times CPython's builtin three-argument pow on the pinned group
    with a short exponent: once when the phase starts, every
    PROBE_INTERVAL_S in its own thread, and once when it ends.  It uses
    thread CPU time, so waiting for the GIL does not count.  Each sample
    holds the GIL for about 2 ms.  The program does not run this code, so
    a change to the program leaves the probe alone.  `scale` converts a
    time measured in the phase to the reference speed.
    """

    def __init__(self, n: int):
        rng = random.Random(7)
        self._args = [(rng.randrange(2, n - 1), rng.getrandbits(128) | 1 << 127, n)
                      for _ in range(8)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop)
        self.samples: list[float] = []

    def _sample(self):
        a = self._args[len(self.samples) % len(self._args)]
        start = time.thread_time()
        pow(*a)
        self.samples.append(1e3 * (time.thread_time() - start))

    def _loop(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def probe_ms(self) -> float:
        return statistics.mean(self.samples)

    @property
    def scale(self) -> float:
        return REF_PROBE_MS / self.probe_ms


def end_to_end(wl, setup_times, setup_scale: float, p, scale: float):
    """End-to-end metrics at reference speed, and report lines that also
    give each time as measured."""
    ops_ms = [op.ms for op in p.ops]
    step_ms = wl.step_ms(p)
    op_pct, op_tail = tail(ops_ms)
    step_pct, step_tail = tail(step_ms)
    measured = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": len(p.ops) / p.seconds,
        "op_p50_ms": statistics.median(ops_ms),
        "op_tail_ms": op_tail,
        "step_p50_ms": statistics.median(step_ms),
        "step_tail_ms": step_tail,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups: "
                   + ", ".join(f"{t:.3f}" for t in setup_times),
        "ops_per_s": f"{len(p.ops)} ops in {p.seconds:.3f} s",
        "op_p50_ms": f"n={len(ops_ms)}",
        "op_tail_ms": f"p{op_pct} of n={len(ops_ms)}",
        "step_p50_ms": f"n={len(step_ms)}",
        "step_tail_ms": f"p{step_pct} of n={len(step_ms)}",
    }
    for k in (1, 2, 3):
        cls_ms = [op.ms for op in p.ops if op.cls == k]
        measured[f"method{k}_p50_ms"] = statistics.median(cls_ms)
        notes[f"method{k}_p50_ms"] = f"op class {k}, n={len(cls_ms)}"
    factor = {name: scale for name in measured}
    factor.update({"setup_s": setup_scale, "peak_rss_mb": 1.0, "ops_per_s": 1 / scale})
    values = {name: measured[name] * factor[name] for name in E2E}
    lines = [f"{name:<16} {values[name]:>12.4f} {E2E[name]:<4} measured {measured[name]:>10.4f}"
             f"  {notes.get(name, '')}" for name in E2E]
    return values, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("purchase", "seller_steps", "arbitrate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--clients", type=int, choices=(1, 2), default=1,
                    help="concurrent clients in purchase and seller_steps; 2 exposes the "
                         "shared RemoteBank race (see METRICS.md)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "blindpay", "__init__.py")):
        print(f"no blindpay sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import blindpay
    import ffdhe
    import tracer as tr
    import workloads

    try:
        params = ffdhe.ffdhe2048(blindpay.group.GroupParams)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"env: group=ffdhe2048 bits={params.bits} python={platform.python_version()} "
          f"cpus={os.cpu_count()} git={git_revision()}")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} clients={args.clients}")

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        return _run(args, params, blindpay, tr, workloads, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
        for t in threading.enumerate():
            if t is not threading.main_thread():
                t.join(timeout=10)


def _run(args, params, blindpay, tr, workloads, tmpdir) -> int:
    passes = 2 if args.trace else 1
    wl = {
        "purchase": lambda: workloads.PurchaseWorkload(params, args.seed, tmpdir,
                                                       args.clients),
        "seller_steps": lambda: workloads.SellerStepsWorkload(params, args.seed, tmpdir,
                                                              args.clients, args.seconds,
                                                              passes),
        "arbitrate": lambda: workloads.ArbitrateWorkload(params, args.seed, tmpdir),
    }[args.workload]()

    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.install(blindpay)
    setup_times, env = [], None
    try:
        with SpeedProbe(params.n) as setup_probe:
            for _ in range(SETUPS):
                if env is not None:
                    wl.close(env)
                start = time.perf_counter()
                env = wl.setup()
                setup_times.append(time.perf_counter() - start)
    finally:
        if tracer:
            tracer.uninstall()

    probes = []
    try:
        with SpeedProbe(params.n) as probe:
            runs = [wl.run(env, args.seconds, None)]
        probes.append(probe)
        if tracer:
            tracer.phase = "window"
            tracer.install(blindpay)
            try:
                with SpeedProbe(params.n) as probe:
                    runs.append(wl.run(env, args.seconds, tracer))
                probes.append(probe)
            finally:
                tracer.uninstall()
        problems = wl.check(env, runs)
    finally:
        wl.close(env)

    attempted = sum(len(p.ops) for p in runs)
    failed = sum(not op.ok for p in runs for op in p.ops)
    e2e, lines = end_to_end(wl, setup_times, setup_probe.scale, runs[0], probes[0].scale)
    print(f"speed probe: reference {REF_PROBE_MS} ms, measured {setup_probe.probe_ms:.3f} ms "
          "in set-up, " + ", ".join(f"{p.probe_ms:.3f} ms in pass {i + 1}"
                                    for i, p in enumerate(probes)))
    if tracer:
        traced, scale = runs[1], probes[1].scale
        method_ops = {k: sum(op.cls == k for op in traced.ops) for k in (1, 2, 3)}
        if args.workload != "arbitrate":
            method_ops = {}
        purchases = len(traced.ops) if args.workload == "purchase" else 0
        layer = tr.layer_metrics(tracer, len(traced.ops), SETUPS, method_ops, traced.steps,
                                 traced.counts, purchases)
        for name, unit in LAYER.items():
            if unit == "ms/op" or name.endswith("_ms"):
                is_setup = name in SETUP_LAYER
                layer[name] = layer.get(name, 0.0) * (setup_probe.scale if is_setup else scale)
        layer["trace.overhead_ratio"] = (statistics.median(op.ms for op in traced.ops) * scale
                                         / e2e["op_p50_ms"])
        layer["trace.probe_ms"] = probes[1].probe_ms
        values = {name: layer.get(name, 0.0) for name in LAYER}
        units = LAYER
        print("untraced pass:")
        for line in lines:
            print("  " + line)
        print(f"traced pass: {len(traced.ops)} ops in {traced.seconds:.3f} s")
        for name in LAYER:
            print(f"  {name:<40} {values[name]:>12.4f} {LAYER[name]}")
    else:
        values, units = e2e, E2E
        for line in lines:
            print(line)
    print(f"attempted {attempted}, failed {failed} ({100 * failed / attempted:.1f}%)")
    for problem in problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
