"""Command line front end.

Exit codes: 0 success, 1 protocol failure, 2 usage error, 3 a dispute was
raised (and arbitrated where possible).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import random
import sys

from . import harness, wire
from .cards import CardLedger, checked_card_id, plain_token
from .catalog import (
    Catalog,
    LicensePlaintext,
    LicenseSpec,
    SellerKeys,
    parse_catalog,
    setup,
    verify_catalog,
)
from .dispute import (
    SellerDisputeAgent,
    answer_case,
    parse_case,
    resolve_case,
    settle_purchase,
    write_case,
)
from .encoding import HEX, INT, STR, Codec, RecordFormat
from .errors import BlindpayError, ScenarioInvalid, StepRejected
from .group import SYSTEM_RANDOM, group_for, pow_fast
from .purchase import SellerStepHandler, buyer_begin

EXIT_OK = 0
EXIT_PROTOCOL = 1
EXIT_USAGE = 2
EXIT_DISPUTE = 3


def _addr(text: str) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    try:
        if not sep or (port := INT.read(port_text)) > 65535:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"address {text!r} is not HOST:PORT, PORT 0-65535") from None
    return host or "127.0.0.1", port


def _read_file(path: str) -> str:
    """Every file a command reads: UTF-8 text, else a BlindpayError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise BlindpayError(f"{path}: not UTF-8 text") from None


def _write_file(path: str, text: str):
    """Every file a command writes: owner-only (0600), whole or not at all.
    The text goes to a new file beside path, synced, then renamed over it,
    so a write killed or failed partway leaves the old file as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fd)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:  # the rename itself survives a crash only once its directory is synced
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:  # name the file the operator gave, not the temporary one
        raise OSError(f"{path}: {exc.strerror or exc}") from None


def _check_writable(path: str):
    """Raise the OSError, naming path, of a path _write_file cannot write:
    a directory, or one in a directory that is missing or not writable."""
    if os.path.isdir(path):
        raise OSError(f"{path}: is a directory")
    if not os.access(os.path.dirname(path) or ".", os.W_OK | os.X_OK):
        raise OSError(f"{path}: its directory is missing or not writable")


def _rng(seed: int | None) -> random.Random:
    """A --seed makes a reproducible demo; without one, the OS generator."""
    return random.Random(seed) if seed is not None else SYSTEM_RANDOM


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def integer(text: str) -> int:
        value = INT.read(text)  # a ValueError reads "invalid integer value: ..."
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is below {low}")
        return value
    return integer


def _token(text: str) -> str:
    """An account or store name the ledger can record (cards.plain_token)."""
    try:
        return plain_token(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


SECRETS = RecordFormat("secrets", once={"s": INT, "sign_sk": HEX}, many={},
                       error=BlindpayError)


def _read_secrets(path: str) -> SellerKeys:
    """The seller's keys.  As ssh refuses a private key others can read, a
    file whose mode has any group or other bit is refused: whoever reads s
    can open every license, and sign_sk signs as the seller."""
    from cryptography.hazmat.primitives.asymmetric import ed25519
    mode = os.stat(path).st_mode & 0o777
    if mode & 0o077:
        raise BlindpayError(f"{path}: mode {mode:04o} opens the seller's secrets to "
                            "others than its owner; chmod 600 it")
    text = _read_file(path)
    try:
        rec = SECRETS.read(text)
        sk = ed25519.Ed25519PrivateKey.from_private_bytes(rec["sign_sk"])
        return SellerKeys(s=rec["s"], sign_sk=rec["sign_sk"],
                          verify_pk=sk.public_key().public_bytes_raw())
    except (BlindpayError, ValueError) as exc:
        raise BlindpayError(f"{path}: not a usable seller secrets file: {exc}") from None


def _read_seller(catalog_path: str, secrets_path: str) -> tuple[Catalog, SellerKeys]:
    """A catalog and the secrets it was made with.  Secrets of another
    catalog are refused naming both files: they would sign steps the
    catalog's key does not verify and answer disputes with the wrong s."""
    cat = parse_catalog(_read_file(catalog_path))
    keys = _read_secrets(secrets_path)
    if (keys.verify_pk != cat.verify_pk
            or pow_fast(cat.params.g, keys.s, cat.params) != cat.k_table.get(1)):
        raise BlindpayError(f"{secrets_path}: not the secrets of the catalog {catalog_path}")
    return cat, keys


def _write_secrets(path: str, keys: SellerKeys):
    _write_file(path, SECRETS.write([("s", keys.s), ("sign_sk", keys.sign_sk)]))


def _read_cards(path: str) -> list[tuple[str, int]]:
    """One card a line: a card id (cards.checked_card_id) once lowercased,
    and a value >= 1 in ASCII digits, which defaults to 1."""
    cards = []
    for lineno, line in enumerate(_read_file(path).split("\n"), 1):
        parts = line.split()
        if not parts:
            continue
        try:
            card_id = checked_card_id(parts[0].lower())
            value = INT.read(parts[1]) if len(parts) > 1 else 1
        except ValueError:
            value = 0  # refused below, as any value < 1 is
        if value < 1 or len(parts) > 2:
            raise BlindpayError(f"{path} line {lineno}: want a hex card id and a "
                                f"value >= 1, got {line.strip()!r}")
        cards.append((card_id, value))
    return cards


def _permissions_text(permissions: tuple[str, ...]) -> str:
    """The permissions, space separated.  One that is empty or holds
    whitespace raises ValueError: str.split would read another list back."""
    if any(p.split() != [p] for p in permissions):
        raise ValueError(f"permissions value {permissions!r} holds a permission that is "
                         f"empty or not one word")
    return " ".join(permissions)


# The seller picks every value sealed in a license, so the printout is a
# record whose writer refuses a value that would print as more than one line.
LICENSE = RecordFormat("license", once={"license": STR, "terms": STR, "content_key": HEX,
                                        "permissions": Codec(_permissions_text, str.split)},
                       many={}, error=BlindpayError)


def _plaintext_text(plain: LicensePlaintext) -> str:
    """The license as printed; ValueError names a value that is not one line."""
    return LICENSE.write([("license", plain.license_id), ("terms", plain.terms),
                          ("content_key", plain.content_key),
                          ("permissions", plain.permissions)])


# --- subcommands ---------------------------------------------------------------

def _serve(who: str, address: tuple[str, int], open_resource, make_handle) -> int:
    """Bind address first, so one that cannot be served leaves no file behind;
    then open the handler's resource (the ledger or bank connection), serve
    until the server stops or the operator interrupts, and close it."""
    srv = wire.Server(*address, lambda msg: handle(msg))  # handle is bound before start
    resource = None
    try:
        resource = open_resource()
        handle = make_handle(resource)
        srv.start()
        print(f"{who} listening on {srv.address[0]}:{srv.address[1]}", flush=True)
        with contextlib.suppress(KeyboardInterrupt):
            srv.wait()
    finally:
        srv.stop()
        if resource is not None:
            resource.close()
    return EXIT_OK


def cmd_bank_serve(args) -> int:
    return _serve("bank", args.listen, lambda: CardLedger(path=args.ledger),
                  harness.make_bank_handler)


def cmd_bank_issue(args) -> int:
    ledger = CardLedger(path=args.ledger, rng=_rng(args.seed))
    try:
        cards = ledger.issue_cards(args.count, args.value)
        ledger.distribute([c.card_id for c in cards], args.store)
    finally:
        ledger.close()
    for c in cards:
        print(f"{c.card_id} {c.value}")
    return EXIT_OK


def cmd_bank_balance(args) -> int:
    # replay reads without the writer's lock, so this works beside `bank serve`
    print(CardLedger.replay(args.ledger).balance(args.account))
    return EXIT_OK


def _license_spec(text: str, x_label: str | None, rng: random.Random) -> LicenseSpec:
    try:
        license_id, price_s, terms = text.split(":", 2)
        price = INT.read(price_s)
    except ValueError:
        raise ValueError(f"bad --license value {text!r}, want ID:PRICE:TERMS") from None
    plain = LicensePlaintext(license_id=license_id, terms=terms,
                             content_key=rng.randbytes(16), permissions=("play",))
    return LicenseSpec(license_id=license_id, content_id=f"content-{license_id}",
                       price=price, terms=terms, plaintext=plain, x_label=x_label)


def cmd_seller_init(args) -> int:
    if os.path.lexists(args.secrets):  # it may hold an earlier catalog's only s and sign_sk
        raise BlindpayError(f"{args.secrets}: already there; seller init replaces no "
                            "secrets (remove the file first)")
    for path in (args.secrets, args.catalog):  # so no secrets are left without a catalog
        _check_writable(path)
    rng = _rng(args.seed)
    try:  # every value is checked here, before a file is written
        params = group_for(args.group_bits, rng)
        specs = [_license_spec(text, args.x_label, rng) for text in args.license]
        keys, cat = setup(params, specs, rng=rng)
        catalog_text = harness.catalog_reply(cat).text  # one line a value, and sendable
    except ValueError as exc:
        print(f"seller init: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_secrets(args.secrets, keys)  # an int and a hex key: one line each
    _write_file(args.catalog, catalog_text)  # never a catalog whose secrets are not on file
    print(f"catalog written to {args.catalog}, secrets to {args.secrets}")
    return EXIT_OK


def cmd_seller_serve(args) -> int:
    cat, keys = _read_seller(args.catalog, args.secrets)
    harness.catalog_reply(cat)  # a catalog too big to send fails before the bind
    return _serve("seller", args.listen, lambda: harness.RemoteBank(wire.connect(*args.bank)),
                  lambda bank: harness.make_seller_handler(
                      SellerStepHandler(keys, cat.params, bank, args.account), cat))


def cmd_seller_answer(args) -> int:
    """Answer a case record as the seller (see dispute.answer_case)."""
    case = parse_case(_read_file(args.case))
    cat, keys = _read_seller(args.catalog, args.secrets)
    answered = answer_case(case, SellerDisputeAgent(keys, cat))
    _write_file(args.out, write_case(answered))
    print(f"answered case written to {args.out}")
    return EXIT_OK


def cmd_buyer_purchase(args) -> int:
    for path in filter(None, (args.out, args.case_out)):  # before a card is spent
        _check_writable(path)
    if args.catalog:
        cat = parse_catalog(_read_file(args.catalog))
    else:
        doc = wire.exchange(args.connect, wire.CatalogGet())
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
    session = buyer_begin(cat, args.license, cards, mode=args.mode, rng=_rng(args.seed))
    try:
        outcome, plain, case = settle_purchase(
            session, functools.partial(harness.remote_step, args.connect))
    except StepRejected as rej:
        print(f"purchase aborted: {rej.code} {rej.detail}", file=sys.stderr)
        return EXIT_PROTOCOL
    text = None
    if plain is not None:
        try:
            text = _plaintext_text(plain)
        except ValueError as exc:
            print(f"license not written: {exc}", file=sys.stderr)
    if text is not None and args.out:
        _write_file(args.out, text)
    elif text is not None:
        print(text, end="")
    if case is not None:
        _write_file(args.case_out, write_case(case))
        print(f"{outcome}; type {case.kind} case written to {args.case_out}", file=sys.stderr)
        return EXIT_DISPUTE
    return EXIT_OK if text is not None else EXIT_PROTOCOL


def cmd_arbitrate(args) -> int:
    case = parse_case(_read_file(args.case))
    cat = parse_catalog(_read_file(args.catalog))
    for label, verdict in resolve_case(case, cat):
        print(f"{label}: {verdict.outcome} (steps checked: {verdict.checked_steps})")
        print(f"  {verdict.rationale}")
    return EXIT_OK


def cmd_scenario_run(args) -> int:
    sc = harness.parse_scenario(_read_file(args.spec))
    report = harness.run_scenario(sc)
    print(report.render(), end="")
    if args.metrics_out:
        _write_file(args.metrics_out, report.metrics.render_tsv())
    if report.verdicts:
        return EXIT_DISPUTE
    if report.outcome != "completed":
        return EXIT_PROTOCOL
    return EXIT_OK


def cmd_scenario_sweep(args) -> int:
    try:  # refused here, so the message names the flag rather than a scenario key
        group_for(args.group_bits, random.Random(args.seed))
    except ValueError as exc:
        print(f"scenario sweep: --group-bits: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sweep = harness.run_sweep(group_bits=args.group_bits, seed=args.seed)
    table = harness.report_tables(sweep)
    print(table, end="")
    if args.metrics_out:
        _write_file(args.metrics_out, "".join(
            f"{mode}\tp={rep.scenario.price}\t{a}\t{k}\t{v}\n"
            for mode, reports in sweep.items() for rep in reports
            for a, k, v in rep.metrics.records()))
    return EXIT_PROTOCOL if "FAIL" in table else EXIT_OK


def cmd_verify_catalog(args) -> int:
    cat = parse_catalog(_read_file(args.catalog))
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
    issue = bank_sub.add_parser("issue", help="issue cards and distribute them to a store")
    issue.add_argument("--ledger", required=True)
    issue.add_argument("--count", type=_at_least(0), default=1)
    issue.add_argument("--value", type=_at_least(1), default=1)
    issue.add_argument("--store", type=_token, required=True)
    issue.add_argument("--seed", type=_at_least(0), help="reproducible card ids, for a demo only")
    issue.set_defaults(fn=cmd_bank_issue)
    balance = bank_sub.add_parser("balance", help="print a seller account's balance")
    balance.add_argument("--ledger", required=True)
    balance.add_argument("--account", type=_token, required=True)
    balance.set_defaults(fn=cmd_bank_balance)

    seller = sub.add_parser("seller", help="content provider")
    seller_sub = seller.add_subparsers(dest="seller_cmd", required=True)
    init = seller_sub.add_parser("init", help="run setup and publish a catalog")
    init.add_argument("--catalog", required=True)
    init.add_argument("--secrets", required=True)
    init.add_argument("--group-bits", default="64",
                      help="bits of a generated desk group (8-64), or ffdhe2048 or ffdhe3072")
    init.add_argument("--seed", type=_at_least(0), help="reproducible keys, for a demo only")
    init.add_argument("--x-label", default=None,
                      help="shared encryption factor label (enables upgrades)")
    init.add_argument("--license", action="append", required=True,
                      metavar="ID:PRICE:TERMS")
    init.set_defaults(fn=cmd_seller_init)
    sserve = seller_sub.add_parser("serve", help="answer purchase steps")
    sserve.add_argument("--catalog", required=True)
    sserve.add_argument("--secrets", required=True)
    sserve.add_argument("--listen", type=_addr, default=("127.0.0.1", 0))
    sserve.add_argument("--bank", type=_addr, required=True)
    sserve.add_argument("--account", type=_token, default="seller-1")
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
    purchase.add_argument("--seed", type=_at_least(0),
                          help="reproducible blinding, for a demo only")
    purchase.add_argument("--out")
    purchase.add_argument("--case-out", default="case.txt")
    purchase.set_defaults(fn=cmd_buyer_purchase)

    arb = sub.add_parser("arbitrate", help="replay a dispute case record")
    arb.add_argument("--case", required=True)
    arb.add_argument("--catalog", required=True)
    arb.set_defaults(fn=cmd_arbitrate)

    scenario = sub.add_parser("scenario", help="deterministic end-to-end runs")
    scen_sub = scenario.add_subparsers(dest="scenario_cmd", required=True)
    run = scen_sub.add_parser("run", help="run one scenario spec file")
    run.add_argument("--spec", required=True)
    run.add_argument("--metrics-out")
    run.set_defaults(fn=cmd_scenario_run)
    sweep = scen_sub.add_parser("sweep", help="price sweep with table comparison")
    sweep.add_argument("--group-bits", default="64", help="as seller init --group-bits")
    sweep.add_argument("--seed", type=_at_least(0), default=7)
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
    except OSError as exc:  # a file or an address the command cannot use
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except BlindpayError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
