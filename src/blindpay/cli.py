"""Command line front end.

Exit codes: 0 success, 1 protocol failure, 2 usage error, 3 a dispute was
raised (and arbitrated where possible).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import random
import sys

from . import harness, wire
from .cards import CardLedger
from .catalog import (
    LicensePlaintext,
    LicenseSpec,
    SellerKeys,
    parse_catalog,
    serialize_catalog,
    setup,
    verify_catalog,
)
from .dispute import (
    SellerDisputeAgent,
    answer_case,
    build_type_c_case,
    check_commitments,
    parse_case,
    resolve_case,
    write_case,
)
from .errors import BadStepSignature, BlindpayError, ScenarioInvalid, StepRejected
from .group import NAMED_GROUPS, gen_params, named_group
from .purchase import SellerStepHandler, buyer_begin, run_purchase

EXIT_OK = 0
EXIT_PROTOCOL = 1
EXIT_USAGE = 2
EXIT_DISPUTE = 3


def _addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"address {text!r} is not HOST:PORT")
    return host or "127.0.0.1", int(port)


def _group_bits(text: str) -> int | str:
    """A bit length for a generated group, or the name of an RFC 7919 group."""
    if text in NAMED_GROUPS:
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither a bit length nor one of {', '.join(NAMED_GROUPS)}") from None


def _read_secrets(path: str) -> SellerKeys:
    kv = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition(": ")
            kv[key] = value
    if kv.get("blindpay-secrets") != "v1":
        raise BlindpayError(f"{path} is not a seller secrets file")
    from cryptography.hazmat.primitives.asymmetric import ed25519
    try:
        sk = bytes.fromhex(kv["sign_sk"])
        pk = ed25519.Ed25519PrivateKey.from_private_bytes(sk).public_key().public_bytes_raw()
        return SellerKeys(s=int(kv["s"]), sign_sk=sk, verify_pk=pk)
    except (KeyError, ValueError) as exc:
        raise BlindpayError(f"{path}: s or sign_sk missing or malformed ({exc})") from None


def _write_secrets(path: str, keys: SellerKeys):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("blindpay-secrets: v1\n")
        fh.write(f"s: {keys.s}\n")
        fh.write(f"sign_sk: {keys.sign_sk.hex()}\n")


def _read_cards(path: str) -> list[tuple[str, int]]:
    """One card a line: a hex card id and a value >= 1, which defaults to 1."""
    cards = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                bytes.fromhex(parts[0])
                value = int(parts[1]) if len(parts) > 1 else 1
            except ValueError:
                value = 0  # refused below, as any value < 1 is
            if value < 1 or len(parts) > 2:
                raise BlindpayError(f"{path} line {lineno}: want a hex card id and a "
                                    f"value >= 1, got {line.strip()!r}")
            cards.append((parts[0], value))
    return cards


def _plaintext_text(plain: LicensePlaintext) -> str:
    lines = [
        f"license: {plain.license_id}",
        f"terms: {plain.terms}",
        f"content_key: {plain.content_key.hex()}",
        f"permissions: {' '.join(plain.permissions)}",
    ]
    return "\n".join(lines) + "\n"


# --- subcommands ---------------------------------------------------------------

def _serve(who: str, address: tuple[str, int], handle, resource) -> int:
    """Serve until the server stops or the operator interrupts, then close
    resource (the ledger or bank connection the handler uses)."""
    try:
        srv = wire.Server(*address, handle).start()
        print(f"{who} listening on {srv.address[0]}:{srv.address[1]}", flush=True)
        try:
            srv._thread.join()
        except KeyboardInterrupt:
            srv.stop()
    finally:
        resource.close()
    return EXIT_OK


def cmd_bank_serve(args) -> int:
    ledger = CardLedger(path=args.ledger)
    return _serve("bank", args.listen, harness.make_bank_handler(ledger), ledger)


def cmd_bank_issue(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    ledger = CardLedger(path=args.ledger, rng=rng)
    try:
        cards = ledger.issue_cards(args.count, args.value)
        if args.store:
            ledger.distribute([c.card_id for c in cards], args.store)
    finally:
        ledger.close()
    for c in cards:
        print(f"{c.card_id} {c.value}")
    return EXIT_OK


def cmd_seller_init(args) -> int:
    rng = random.Random(args.seed)
    params = (named_group(args.group_bits) if isinstance(args.group_bits, str)
              else gen_params(args.group_bits, seed=rng.randrange(2**63)))
    specs = []
    for text in args.license:
        try:
            license_id, price_s, terms = text.split(":", 2)
            price = int(price_s)
        except ValueError:
            print(f"bad --license value {text!r}, want ID:PRICE:TERMS", file=sys.stderr)
            return EXIT_USAGE
        plain = LicensePlaintext(license_id=license_id, terms=terms,
                                 content_key=rng.randbytes(16), permissions=("play",))
        specs.append(LicenseSpec(license_id=license_id,
                                 content_id=f"content-{license_id}",
                                 price=price, terms=terms, plaintext=plain,
                                 x_label=args.x_label))
    keys, cat = setup(params, specs, rng=rng)
    with open(args.catalog, "w", encoding="utf-8") as fh:
        fh.write(serialize_catalog(cat))
    _write_secrets(args.secrets, keys)
    print(f"catalog written to {args.catalog}, secrets to {args.secrets}")
    return EXIT_OK


def cmd_seller_serve(args) -> int:
    with open(args.catalog, encoding="utf-8") as fh:
        cat = parse_catalog(fh.read())
    keys = _read_secrets(args.secrets)
    if args.bank is not None:
        bank = harness.RemoteBank(wire.connect(*args.bank))
    elif args.ledger is not None:
        os.stat(args.ledger)  # a seller opens the bank's ledger, never creates one
        bank = CardLedger(path=args.ledger)
    else:
        print("seller serve needs --bank or --ledger", file=sys.stderr)
        return EXIT_USAGE
    handler = SellerStepHandler(keys, cat.params, bank, args.account)
    return _serve("seller", args.listen, harness.make_seller_handler(handler, cat), bank)


def cmd_seller_answer(args) -> int:
    """Answer a case record as the seller (see dispute.answer_case)."""
    with open(args.case, encoding="utf-8") as fh:
        case = parse_case(fh.read())
    with open(args.catalog, encoding="utf-8") as fh:
        cat = parse_catalog(fh.read())
    answered = answer_case(case, cat, SellerDisputeAgent(_read_secrets(args.secrets), cat))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_case(answered))
    print(f"answered case written to {args.out}")
    return EXIT_OK


def cmd_buyer_purchase(args) -> int:
    if args.catalog:
        with open(args.catalog, encoding="utf-8") as fh:
            cat = parse_catalog(fh.read())
    else:
        ep = wire.connect(*args.connect)
        try:
            ep.send(wire.CatalogGet())
            doc = ep.recv()
        finally:
            ep.close()
        if not isinstance(doc, wire.CatalogDoc):
            print("seller did not return a catalog", file=sys.stderr)
            return EXIT_PROTOCOL
        cat = parse_catalog(doc.text)
    problems = verify_catalog(cat)
    if problems:
        for p in problems:
            print(f"catalog rejected: {p}", file=sys.stderr)
        return EXIT_PROTOCOL
    cards = _read_cards(args.cards)
    rng = random.Random(args.seed) if args.seed is not None else None
    session = buyer_begin(cat, args.license, cards, mode=args.mode, rng=rng)
    try:
        plain = run_purchase(session, functools.partial(harness.remote_step, args.connect))
    except BadStepSignature as bad:
        case = build_type_c_case(cat, bad)
        with open(args.case_out, "w", encoding="utf-8") as fh:
            fh.write(write_case(case))
        print(f"corrupt step signature; type C case written to {args.case_out}",
              file=sys.stderr)
        return EXIT_DISPUTE
    except StepRejected as rej:
        print(f"purchase aborted: {rej.code} {rej.detail}", file=sys.stderr)
        return EXIT_PROTOCOL
    text = _plaintext_text(plain)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_arbitrate(args) -> int:
    with open(args.case, encoding="utf-8") as fh:
        case = parse_case(fh.read())
    with open(args.catalog, encoding="utf-8") as fh:
        cat = parse_catalog(fh.read())
    check_commitments(case, cat)
    for label, verdict in resolve_case(case, catalog=cat):
        print(f"{label}: {verdict.outcome} (steps checked: {verdict.checked_steps})")
        print(f"  {verdict.rationale}")
    return EXIT_OK


def cmd_scenario_run(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        sc = harness.parse_scenario(fh.read())
    if args.transport:
        sc = dataclasses.replace(sc, transport=args.transport)
    if args.seed is not None:
        sc = dataclasses.replace(sc, seed=args.seed)
    report = harness.run_scenario(sc)
    print(report.render(), end="")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(report.metrics.render_tsv())
    if report.verdicts:
        return EXIT_DISPUTE
    if report.outcome != "completed":
        return EXIT_PROTOCOL
    return EXIT_OK


def cmd_scenario_sweep(args) -> int:
    sweep = harness.run_sweep(group_bits=args.group_bits, seed=args.seed,
                              transport=args.transport)
    table = harness.report_tables(sweep)
    print(table, end="")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            for mode, reports in sweep.items():
                for rep in reports:
                    for a, k, v in rep.metrics.records():
                        fh.write(f"{mode}\tp={rep.scenario.price}\t{a}\t{k}\t{v}\n")
    return EXIT_PROTOCOL if "FAIL" in table else EXIT_OK


def cmd_verify_catalog(args) -> int:
    with open(args.catalog, encoding="utf-8") as fh:
        cat = parse_catalog(fh.read())
    problems = verify_catalog(cat)
    if problems:
        for p in problems:
            print(p)
        return EXIT_PROTOCOL
    print(f"catalog ok: {len(cat.licenses)} licenses, "
          f"{len(cat.k_table)} unblinding keys")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="blindpay")
    sub = ap.add_subparsers(dest="cmd", required=True)

    bank = sub.add_parser("bank", help="card-issuing bank")
    bank_sub = bank.add_subparsers(dest="bank_cmd", required=True)
    serve = bank_sub.add_parser("serve", help="answer spend requests")
    serve.add_argument("--listen", type=_addr, default=("127.0.0.1", 0))
    serve.add_argument("--ledger", required=True)
    serve.set_defaults(fn=cmd_bank_serve)
    issue = bank_sub.add_parser("issue", help="issue (and optionally distribute) cards")
    issue.add_argument("--ledger", required=True)
    issue.add_argument("--count", type=int, default=1)
    issue.add_argument("--value", type=int, default=1)
    issue.add_argument("--store", default="")
    issue.add_argument("--seed", type=int)
    issue.set_defaults(fn=cmd_bank_issue)

    seller = sub.add_parser("seller", help="content provider")
    seller_sub = seller.add_subparsers(dest="seller_cmd", required=True)
    init = seller_sub.add_parser("init", help="run setup and publish a catalog")
    init.add_argument("--catalog", required=True)
    init.add_argument("--secrets", required=True)
    init.add_argument("--group-bits", type=_group_bits, default=64,
                      help="bits of a generated group, or ffdhe2048 or ffdhe3072")
    init.add_argument("--seed", type=int, default=0)
    init.add_argument("--x-label", default=None,
                      help="shared encryption factor label (enables upgrades)")
    init.add_argument("--license", action="append", required=True,
                      metavar="ID:PRICE:TERMS")
    init.set_defaults(fn=cmd_seller_init)
    sserve = seller_sub.add_parser("serve", help="answer purchase steps")
    sserve.add_argument("--catalog", required=True)
    sserve.add_argument("--secrets", required=True)
    sserve.add_argument("--listen", type=_addr, default=("127.0.0.1", 0))
    sserve.add_argument("--bank", type=_addr)
    sserve.add_argument("--ledger")
    sserve.add_argument("--account", default="seller-1")
    sserve.set_defaults(fn=cmd_seller_serve)
    answer = seller_sub.add_parser("answer", help="answer a dispute case record")
    answer.add_argument("--case", required=True)
    answer.add_argument("--catalog", required=True)
    answer.add_argument("--secrets", required=True)
    answer.add_argument("--out", required=True)
    answer.set_defaults(fn=cmd_seller_answer)

    buyer = sub.add_parser("buyer", help="license buyer")
    buyer_sub = buyer.add_subparsers(dest="buyer_cmd", required=True)
    purchase = buyer_sub.add_parser("purchase", help="buy a license")
    purchase.add_argument("--license", required=True)
    purchase.add_argument("--mode", choices=("basic", "enhanced"), default="basic")
    purchase.add_argument("--cards", required=True)
    purchase.add_argument("--connect", type=_addr, required=True)
    purchase.add_argument("--catalog")
    purchase.add_argument("--seed", type=int)
    purchase.add_argument("--out")
    purchase.add_argument("--case-out", default="case-c.txt")
    purchase.set_defaults(fn=cmd_buyer_purchase)

    arb = sub.add_parser("arbitrate", help="replay a dispute case record")
    arb.add_argument("--case", required=True)
    arb.add_argument("--catalog", required=True)
    arb.set_defaults(fn=cmd_arbitrate)

    scenario = sub.add_parser("scenario", help="deterministic end-to-end runs")
    scen_sub = scenario.add_subparsers(dest="scenario_cmd", required=True)
    run = scen_sub.add_parser("run", help="run one scenario spec file")
    run.add_argument("--spec", required=True)
    run.add_argument("--transport", choices=("memory", "socket"))
    run.add_argument("--seed", type=int)
    run.add_argument("--metrics-out")
    run.set_defaults(fn=cmd_scenario_run)
    sweep = scen_sub.add_parser("sweep", help="price sweep with table comparison")
    sweep.add_argument("--group-bits", type=int, default=64)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--transport", choices=("memory", "socket"), default="memory")
    sweep.add_argument("--metrics-out")
    sweep.set_defaults(fn=cmd_scenario_sweep)

    vc = sub.add_parser("verify-catalog", help="public checks on a catalog file")
    vc.add_argument("catalog")
    vc.set_defaults(fn=cmd_verify_catalog)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioInvalid as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except BlindpayError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
