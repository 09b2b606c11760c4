import contextlib
import random
import socket
import threading

import pytest

from blindpay import cli, wire
from blindpay.cards import CardLedger
from blindpay.catalog import parse_catalog
from blindpay.dispute import build_type_d_case, SellerDisputeAgent, write_case
from blindpay.harness import RemoteBank, make_bank_handler, make_seller_handler
from blindpay.purchase import SellerStepHandler

from test_dispute import completed_session


def run_cli(*argv):
    return cli.main(list(argv))


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("nonsense")
    assert exc.value.code == 2


def test_seller_init_and_verify_catalog(tmp_path, capsys):
    cat = str(tmp_path / "cat.txt")
    sec = str(tmp_path / "sec.txt")
    assert run_cli("seller", "init", "--catalog", cat, "--secrets", sec,
                   "--seed", "3", "--group-bits", "32",
                   "--license", "lic-a:3:read-only") == 0
    assert run_cli("verify-catalog", cat) == 0
    out = capsys.readouterr().out
    assert "catalog ok" in out


def test_verify_catalog_flags_tampering(tmp_path, capsys):
    cat = str(tmp_path / "cat.txt")
    sec = str(tmp_path / "sec.txt")
    run_cli("seller", "init", "--catalog", cat, "--secrets", sec, "--seed", "3",
            "--group-bits", "32", "--license", "lic-a:3:read-only")
    text = open(cat).read().replace("terms: read-only", "terms: read-write")
    open(cat, "w").write(text)
    assert run_cli("verify-catalog", cat) == 1
    assert "signature" in capsys.readouterr().out


def test_bank_issue_writes_ledger(tmp_path, capsys):
    ledger = str(tmp_path / "ledger.tsv")
    assert run_cli("bank", "issue", "--ledger", ledger, "--count", "3",
                   "--value", "1", "--store", "store-1", "--seed", "4") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    replayed = CardLedger.replay(ledger)
    assert len(replayed.cards) == 3


def test_scenario_run_and_metrics(tmp_path, capsys):
    spec = tmp_path / "scenario.txt"
    spec.write_text("mode: basic\nprice: 4\nseed: 5\n")
    metrics = tmp_path / "metrics.tsv"
    assert run_cli("scenario", "run", "--spec", str(spec),
                   "--metrics-out", str(metrics)) == 0
    out = capsys.readouterr().out
    assert "outcome: completed" in out
    assert "buyer\texponentiations\t2" in metrics.read_text()


def test_scenario_run_dispute_exit_code(tmp_path, capsys):
    spec = tmp_path / "scenario.txt"
    spec.write_text("mode: basic\nprice: 4\nseed: 5\nfault: wrong-s\nfault_step: 2\n")
    assert run_cli("scenario", "run", "--spec", str(spec)) == 3
    assert "seller-at-fault" in capsys.readouterr().out


def test_scenario_run_invalid_spec(tmp_path, capsys):
    spec = tmp_path / "scenario.txt"
    spec.write_text("mode: warp\n")
    assert run_cli("scenario", "run", "--spec", str(spec)) == 2


def test_scenario_sweep(capsys):
    assert run_cli("scenario", "sweep", "--group-bits", "32", "--seed", "7") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_arbitrate_replay(tmp_path, capsys, params64):
    keys, cat, bank, session = completed_session(params64, price=3, wrong_s_at=2,
                                                 seed=80)
    agent = SellerDisputeAgent(keys, cat, random.Random(1))
    case = build_type_d_case(cat, session)
    from blindpay.dispute import resolve_type_d_method1
    resolve_type_d_method1(case, agent)  # records the proofs
    path = tmp_path / "case.txt"
    path.write_text(write_case(case))
    assert run_cli("arbitrate", "--case", str(path)) == 0
    out = capsys.readouterr().out
    assert "D-method1: seller-at-fault" in out


def test_arbitrate_type_c_record(tmp_path, capsys, params64):
    from blindpay.dispute import resolve_type_c
    from test_dispute import corrupt_signature_case
    keys, cat, case = corrupt_signature_case(params64, seed=81)
    live = resolve_type_c(case, SellerDisputeAgent(keys, cat, random.Random(2)))
    path = tmp_path / "case-c.txt"
    path.write_text(write_case(case))
    assert run_cli("arbitrate", "--case", str(path)) == 0
    out = capsys.readouterr().out
    assert f"C: {live.outcome}" in out


@contextlib.contextmanager
def cli_market(tmp_path, capsys, wrap=lambda handle: handle):
    """A seller (catalog price 3) and its bank served in-process, plus a
    cards file worth 3 units.  Yields the buyer's CLI arguments and the
    ledger.  wrap may interpose on the seller's wire handler."""
    catp = str(tmp_path / "cat.txt")
    secp = str(tmp_path / "sec.txt")
    run_cli("seller", "init", "--catalog", catp, "--secrets", secp, "--seed", "3",
            "--group-bits", "32", "--license", "lic-a:3:read-only")
    capsys.readouterr()

    ledger = CardLedger(rng=random.Random(8))
    cards = ledger.issue_cards(3, 1)
    ledger.distribute([c.card_id for c in cards], "store-1")
    cards_file = tmp_path / "cards.txt"
    cards_file.write_text("".join(f"{c.card_id} 1\n" for c in cards))

    cat = parse_catalog((tmp_path / "cat.txt").read_text())
    keys = cli._read_secrets(secp)
    bank_srv = wire.Server("127.0.0.1", 0, make_bank_handler(ledger)).start()
    bank_ep = wire.connect(*bank_srv.address)
    handler = SellerStepHandler(keys, cat.params, RemoteBank(bank_ep), "seller-1")
    seller_srv = wire.Server("127.0.0.1", 0,
                             wrap(make_seller_handler(handler, cat))).start()
    try:
        yield ["buyer", "purchase", "--license", "lic-a", "--cards", str(cards_file),
               "--connect", f"127.0.0.1:{seller_srv.address[1]}", "--seed", "1"], ledger
    finally:
        seller_srv.stop()
        bank_ep.close()
        bank_srv.stop()


def test_buyer_purchase_over_sockets(tmp_path, capsys):
    # full multi-party run through the CLI entry points, servers in-process
    with cli_market(tmp_path, capsys) as (argv, ledger):
        out_file = tmp_path / "license.txt"
        code = run_cli(*argv, "--out", str(out_file))
        assert code == 0
        assert "license: lic-a" in out_file.read_text()
        assert ledger.balance("seller-1") == 3


def test_buyer_purchase_sends_each_step_on_its_own_connection(tmp_path, capsys):
    # the server runs one thread per connection, so a thread-local record
    # holds the step requests that arrived on one connection
    conn = threading.local()
    per_connection = []

    def recording(handle):
        def handle_and_record(msg):
            if isinstance(msg, wire.StepReq):
                if not hasattr(conn, "steps"):
                    conn.steps = []
                    per_connection.append(conn.steps)
                conn.steps.append(msg)
            return handle(msg)
        return handle_and_record

    with cli_market(tmp_path, capsys, wrap=recording) as (argv, ledger):
        assert run_cli(*argv, "--out", str(tmp_path / "license.txt")) == 0
    assert [len(steps) for steps in per_connection] == [1, 1, 1]


def test_buyer_purchase_insufficient_cards(tmp_path, capsys):
    with cli_market(tmp_path, capsys) as (argv, ledger):
        (tmp_path / "cards.txt").write_text("")  # no cards at all
        assert run_cli(*argv) == 1


def test_buyer_purchase_against_closed_port_exits_1(tmp_path, capsys):
    catp = str(tmp_path / "cat.txt")
    run_cli("seller", "init", "--catalog", catp, "--secrets", str(tmp_path / "sec.txt"),
            "--seed", "3", "--group-bits", "32", "--license", "lic-a:3:read-only")
    cards_file = tmp_path / "cards.txt"
    cards_file.write_text("".join(f"{k:032x} 1\n" for k in range(3)))
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens on the port now
    capsys.readouterr()
    assert run_cli("buyer", "purchase", "--license", "lic-a", "--cards", str(cards_file),
                   "--catalog", catp, "--connect", f"127.0.0.1:{port}") == 1
    assert f"cannot connect to 127.0.0.1:{port}" in capsys.readouterr().err
