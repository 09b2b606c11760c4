import contextlib
import itertools
import pathlib
import random
import re
import shlex
import socket
import threading
from dataclasses import replace

import pytest

from blindpay import cli, wire
from blindpay.cards import CardLedger
from blindpay.catalog import (
    LicensePlaintext,
    derive_license_key,
    encrypt_license,
    parse_catalog,
    serialize_catalog,
    sign_payload,
    sign_terms,
    verify_payload,
    with_published_terms,
)
from blindpay.dispute import (
    BUYER_CLAIM_REJECTED,
    SELLER_AT_FAULT,
    SELLER_MUST_RESIGN,
    DisputeCase,
    SellerDisputeAgent,
    build_type_d_case,
    parse_case,
    resolve_type_c,
    resolve_type_d_method1,
    resolve_type_d_method2,
    write_case,
)
from blindpay.encoding import enc_int, enc_u32
from blindpay.errors import AuthenticationFailure, BlindpayError
from blindpay.group import DlEqProof, hash_to_group, named_group, pow_mod
from blindpay.harness import RemoteBank, make_bank_handler, make_seller_handler, run_sweep
from blindpay.purchase import SellerStepHandler, run_purchase, step_payload

from conftest import make_catalog
from test_dispute import completed_session, type_c_evidence, type_d_evidence
from test_purchase import rig


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


def test_seller_init_with_a_named_group(tmp_path, capsys):
    cat = str(tmp_path / "cat.txt")
    sec = str(tmp_path / "sec.txt")
    assert run_cli("seller", "init", "--catalog", cat, "--secrets", sec,
                   "--group-bits", "ffdhe2048", "--license", "a:2:t") == 0
    assert run_cli("verify-catalog", cat) == 0
    assert "catalog ok" in capsys.readouterr().out
    assert parse_catalog((tmp_path / "cat.txt").read_text()).params == named_group("ffdhe2048")


def test_seller_init_draws_fresh_keys_unless_seeded(tmp_path, capsys):
    def init(name, *seed):
        catp, secp = str(tmp_path / f"cat-{name}.txt"), str(tmp_path / f"sec-{name}.txt")
        assert run_cli("seller", "init", "--catalog", catp, "--secrets", secp, *seed,
                       "--group-bits", "ffdhe2048", "--license", "a:2:t") == 0
        return cli._read_secrets(secp), (tmp_path / f"cat-{name}.txt").read_text()

    (keys_a, _), (keys_b, _) = init("a"), init("b")
    assert keys_a.s != keys_b.s and keys_a.sign_sk != keys_b.sign_sk
    assert init("c", "--seed", "3") == init("d", "--seed", "3")


README = pathlib.Path(__file__).parent.parent / "README.md"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def readme_commands() -> list[str]:
    """Every `blindpay ...` command line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("blindpay ")]


def test_the_readme_shows_its_commands():
    assert len(readme_commands()) >= 11


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    argv = list(itertools.takewhile(lambda arg: arg not in (">", "&"), argv))
    cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("value", ["ffdhe1024", "2048bits", ""])
def test_seller_init_refuses_an_unknown_group(tmp_path, value):
    with pytest.raises(SystemExit) as exc:
        run_cli("seller", "init", "--catalog", str(tmp_path / "cat.txt"),
                "--secrets", str(tmp_path / "sec.txt"), "--group-bits", value,
                "--license", "a:2:t")
    assert exc.value.code == 2


def test_verify_catalog_flags_tampering(tmp_path, capsys):
    cat = str(tmp_path / "cat.txt")
    sec = str(tmp_path / "sec.txt")
    run_cli("seller", "init", "--catalog", cat, "--secrets", sec, "--seed", "3",
            "--group-bits", "32", "--license", "lic-a:3:read-only")
    path = tmp_path / "cat.txt"
    path.write_text(path.read_text().replace("terms: read-only", "terms: read-write"))
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


def test_bank_balance_reads_a_ledger_another_writer_holds(tmp_path, capsys):
    ledger = str(tmp_path / "ledger.tsv")
    run_cli("bank", "issue", "--ledger", ledger, "--count", "3", "--value", "2",
            "--store", "store-1", "--seed", "4")
    writer = CardLedger(path=ledger)
    try:
        writer.spend_atomic(list(writer.cards)[:2], "seller-1")
        assert run_cli("bank", "issue", "--ledger", ledger, "--store", "store-1") == 1
        capsys.readouterr()
        for account in ("seller-1", "seller-2"):
            assert run_cli("bank", "balance", "--ledger", ledger, "--account", account) == 0
    finally:
        writer.close()
    assert capsys.readouterr().out.split() == ["4", "0"]
    assert run_cli("bank", "balance", "--ledger", str(tmp_path / "none.tsv"),
                   "--account", "seller-1") == 2


@pytest.mark.parametrize("argv, value", [
    (("seller", "init", "--license", "a:0:t"), "0"),
    (("seller", "init", "--license", "a:1:t", "--license", "a:2:t"), "'a'"),
    (("seller", "init", "--license", "a:1:t", "--group-bits", "4"), "4"),
    (("bank", "issue", "--count", "-1"), "-1"),
    (("bank", "issue", "--value", "0"), "0"),
    (("seller", "init", "--license", "a:1:t", "--group-bits", "128"), "128"),
])
def test_a_bad_value_exits_2_naming_it_and_writes_nothing(tmp_path, capsys, argv, value):
    files = {"seller": ("--catalog", tmp_path / "cat.txt", "--secrets", tmp_path / "sec.txt"),
             "bank": ("--ledger", tmp_path / "ledger.tsv")}[argv[0]]
    try:
        code = run_cli(*argv[:2], *map(str, files), *argv[2:])
    except SystemExit as exc:  # refused by the argument parser
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert value in err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


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


def test_scenario_run_refused_step_exit_code(tmp_path, capsys):
    # a refused step ends the purchase with no dispute to raise
    spec = tmp_path / "scenario.txt"
    spec.write_text("mode: basic\nprice: 3\nseed: 5\nfault: double-spend\nfault_step: 2\n")
    assert run_cli("scenario", "run", "--spec", str(spec)) == 1
    out = capsys.readouterr().out
    assert "outcome: aborted:already-spent" in out and "verdicts: 0" in out


@pytest.mark.parametrize("fault", ["corrupt-signature", "wrong-s", "double-spend"])
def test_scenario_run_refuses_a_step_fault_beyond_the_plan(tmp_path, capsys, fault):
    # a fault that would never strike must not pass for a clean purchase
    spec = tmp_path / "scenario.txt"
    spec.write_text(f"mode: basic\nprice: 3\nseed: 5\nfault: {fault}\nfault_step: 9\n")
    assert run_cli("scenario", "run", "--spec", str(spec)) == 2
    out, err = capsys.readouterr()
    assert out == "" and "beyond the plan" in err


def test_scenario_run_invalid_spec(tmp_path, capsys):
    spec = tmp_path / "scenario.txt"
    spec.write_text("mode: warp\n")
    assert run_cli("scenario", "run", "--spec", str(spec)) == 2


def test_scenario_sweep(tmp_path, capsys):
    assert run_cli("scenario", "sweep", "--group-bits", "32", "--seed", "7") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    # at its defaults it prints the pinned tables, and --metrics-out writes
    # one line per mode, price, actor and counter
    metrics = tmp_path / "metrics.tsv"
    assert run_cli("scenario", "sweep", "--metrics-out", str(metrics)) == 0
    assert capsys.readouterr().out == (FIXTURES / "sweep_report.txt").read_text()
    assert metrics.read_text() == "".join(
        f"{mode}\tp={rep.scenario.price}\t{a}\t{k}\t{v}\n"
        for mode, reports in run_sweep().items() for rep in reports
        for a, k, v in rep.metrics.records())


@pytest.mark.parametrize("argv", [
    ("run", "--spec", "scenario.txt", "--transport", "socket"),
    ("run", "--spec", "scenario.txt", "--seed", "3"),
    ("sweep", "--transport", "memory"),
], ids=["run-transport", "run-seed", "sweep-transport"])
def test_the_spec_file_is_the_one_place_for_transport_and_seed(tmp_path, capsys, argv):
    (tmp_path / "scenario.txt").write_text("price: 2\n")
    argv = [str(tmp_path / arg) if arg == "scenario.txt" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli("scenario", *argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_arbitrate_replay(tmp_path, capsys, params64):
    keys, cat, bank, session = completed_session(params64, price=3, wrong_s_at=2,
                                                 seed=80)
    agent = SellerDisputeAgent(keys, cat, random.Random(1))
    case = build_type_d_case(cat, session)
    from blindpay.dispute import resolve_type_d_method1
    resolve_type_d_method1(case, agent)  # records the proofs
    path, catp = tmp_path / "case.txt", tmp_path / "cat.txt"
    path.write_text(write_case(case))
    catp.write_text(serialize_catalog(cat))
    assert run_cli("arbitrate", "--case", str(path), "--catalog", str(catp)) == 0
    out = capsys.readouterr().out
    assert "D-method1: seller-at-fault" in out


def test_arbitrate_type_c_record(tmp_path, capsys, params64):
    from blindpay.dispute import resolve_type_c
    from test_dispute import corrupt_signature_case
    keys, cat, case = corrupt_signature_case(params64, seed=81)
    live = resolve_type_c(case, SellerDisputeAgent(keys, cat, random.Random(2)))
    path, catp = tmp_path / "case-c.txt", tmp_path / "cat.txt"
    path.write_text(write_case(case))
    catp.write_text(serialize_catalog(cat))
    assert run_cli("arbitrate", "--case", str(path), "--catalog", str(catp)) == 0
    out = capsys.readouterr().out
    assert f"C: {live.outcome}" in out


def seller_answer(tmp_path, keys, cat, case):
    """Run ``seller answer`` on case; return its exit code and the out path."""
    case_in, answered = tmp_path / "case.txt", tmp_path / "case-answered.txt"
    case_in.write_text(write_case(case))
    (tmp_path / "cat.txt").write_text(serialize_catalog(cat))
    cli._write_secrets(str(tmp_path / "sec.txt"), keys)
    code = run_cli("seller", "answer", "--case", str(case_in),
                   "--catalog", str(tmp_path / "cat.txt"),
                   "--secrets", str(tmp_path / "sec.txt"), "--out", str(answered))
    return code, answered


EXPECTED_VERDICT = {
    "C-t=1": SELLER_MUST_RESIGN, "C-t=4": SELLER_MUST_RESIGN,
    "D-honest": BUYER_CLAIM_REJECTED, "D-wrong-s": SELLER_AT_FAULT,
}


@pytest.mark.parametrize("evidence", list(EXPECTED_VERDICT))
def test_seller_answer_then_arbitrate_matches_live(tmp_path, capsys, params64, evidence):
    if evidence.startswith("C"):
        keys, cat, new_case = type_c_evidence(params64, int(evidence[4:]))
    else:
        keys, cat, new_case = type_d_evidence(params64,
                                               2 if evidence == "D-wrong-s" else None)
    # live: the resolvers asking the seller's agent; method 3 would disclose
    # the generation factor, which the file channel never carries
    agent = SellerDisputeAgent(keys, cat, random.Random(17))
    if evidence.startswith("C"):
        live = [("C", resolve_type_c(new_case(), agent))]
    else:
        live = [("D-method1", resolve_type_d_method1(new_case(), agent)),
                ("D-method2", resolve_type_d_method2(new_case(), cat, agent,
                                                     random.Random(16)))]
    assert [v.outcome for _, v in live] == [EXPECTED_VERDICT[evidence]] * len(live)

    code, answered = seller_answer(tmp_path, keys, cat, new_case())
    assert code == 0
    assert not any(line.startswith("s_revealed:")
                   for line in answered.read_text().splitlines())
    capsys.readouterr()
    assert run_cli("arbitrate", "--case", str(answered),
                   "--catalog", str(tmp_path / "cat.txt")) == 0
    assert capsys.readouterr().out == "".join(
        f"{label}: {v.outcome} (steps checked: {v.checked_steps})\n  {v.rationale}\n"
        for label, v in live)


def test_seller_answer_signs_only_its_own_values(tmp_path, capsys, params64):
    # A type C record that already names the buyer's pair as the seller's
    # values must not come back with the seller's signature on that pair:
    # such a signed step would convict an honest seller in a type D case.
    keys, cat, new_case = type_c_evidence(params64, 1)
    case = new_case()
    m, forged_out = case.steps[0].m, pow_mod(params64.g, 12345, params64)
    case.steps[0] = replace(case.steps[0], m_out=forged_out)
    case.seller_values = (m, forged_out)
    code, answered = seller_answer(tmp_path, keys, cat, case)
    assert code == 0
    record = parse_case(answered.read_text())
    assert record.seller_values != (m, forged_out)
    assert record.seller_resign is None or not verify_payload(
        cat.verify_pk, step_payload(m, forged_out), record.seller_resign)
    capsys.readouterr()
    assert run_cli("arbitrate", "--case", str(answered),
                   "--catalog", str(tmp_path / "cat.txt")) == 0
    assert f"C: {BUYER_CLAIM_REJECTED}" in capsys.readouterr().out


def test_seller_answer_ignores_seller_material_in_the_record(tmp_path, capsys, params64):
    # Proofs, an audit license and a chain the buyer wrote into the record
    # are dropped: the honest seller answers from its own secrets and picks
    # the audited license itself.
    keys, cat, new_case = type_d_evidence(params64, None)
    case, entry = new_case(), cat.licenses[0]
    bogus = DlEqProof(commitment_a=1, commitment_b=1, challenge=1, response=1)
    case.step_proofs = [bogus] * len(case.steps)
    case.audit_license_id, case.audit_price = entry.license_id, entry.price
    case.audit_x, case.audit_blob = params64.g, entry.encrypted_license
    case.chain = [params64.g] * (entry.price + 1)
    case.link_proofs = [bogus] * (entry.price - 1)
    case.segment_proofs = [bogus] * len(case.steps)
    case.batch_proofs = {("step", 1): bogus, ("segment", 1): bogus, ("link", 1): bogus}
    code, answered = seller_answer(tmp_path, keys, cat, case)
    assert code == 0
    record = parse_case(answered.read_text())
    assert record.audit_x == cat.entry(record.audit_license_id).x
    # the batch proofs in the answer are the seller's own, none the buyer's
    assert set(record.batch_proofs) == {("step", 1), ("segment", 1), ("link", 1)}
    assert bogus not in record.batch_proofs.values()
    capsys.readouterr()
    assert run_cli("arbitrate", "--case", str(answered),
                   "--catalog", str(tmp_path / "cat.txt")) == 0
    out = capsys.readouterr().out
    assert f"D-method1: {BUYER_CLAIM_REJECTED}" in out
    assert f"D-method2: {BUYER_CLAIM_REJECTED}" in out


@pytest.mark.parametrize("edit", [
    lambda case: case.k_table.update({1: pow_mod(case.params.g, 2, case.params)}),
    lambda case: setattr(case, "verify_pk", bytes(32)),
    lambda case: setattr(case, "params", replace(
        case.params, g=pow_mod(case.params.g, 2, case.params))),
], ids=["k-table", "verify-pk", "group"])
def test_seller_answer_refuses_a_record_not_of_its_catalog(tmp_path, capsys, params64, edit):
    # proofs against an edited K_1 fail however honest the seller, so a
    # record that does not carry the seller's own commitments gets no answer
    keys, cat, new_case = type_c_evidence(params64, 1)
    case = new_case()
    edit(case)
    code, answered = seller_answer(tmp_path, keys, cat, case)
    assert code == 1
    assert "differs from the seller's catalog" in capsys.readouterr().err
    assert not answered.exists()


@pytest.fixture()
def started(monkeypatch):
    """The wire servers started from here on, in start order."""
    servers = []

    class RecordedServer(wire.Server):
        def start(self):
            servers.append(self)
            return super().start()

    monkeypatch.setattr(wire, "Server", RecordedServer)
    return servers


@contextlib.contextmanager
def serving(started, *argv):
    """Run a ``serve`` subcommand in a thread and yield its server.  On
    exit, stop the server and check that the command returned 0."""
    before, codes = len(started), []
    thread = threading.Thread(target=lambda: codes.append(run_cli(*argv)), daemon=True)
    thread.start()
    for _ in range(500):
        if len(started) > before or not thread.is_alive():
            break
        thread.join(timeout=0.01)
    assert len(started) > before, f"{' '.join(argv[:2])} did not start"
    try:
        yield started[before]
    finally:
        started[before].stop()
        thread.join(timeout=5)
    assert codes == [0]


def seller_files(tmp_path, *licenses):
    catp, secp = str(tmp_path / "cat.txt"), str(tmp_path / "sec.txt")
    assert run_cli("seller", "init", "--catalog", catp, "--secrets", secp, "--seed", "3",
                   *(arg for lic in licenses for arg in ("--license", lic))) == 0
    return catp, secp


def test_seller_serve_answers_no_dispute_query(tmp_path, capsys, started):
    # A seller's listener answers no dispute query: a values query (tag 18)
    # for a license factor x at its price would return the license key
    # x^(s^price) to any client, with no card spent.
    catp, secp = seller_files(tmp_path, "lic-a:2:read-only")
    ledger = str(tmp_path / "ledger.tsv")
    run_cli("bank", "issue", "--ledger", ledger, "--count", "1", "--store", "store-1",
            "--seed", "4")
    cat = parse_catalog((tmp_path / "cat.txt").read_text())
    entry, g = cat.entry("lic-a"), cat.params.g
    assert entry.price in cat.k_table
    queries = [
        bytes([18]) + enc_int(entry.x) + enc_u32(entry.price),
        bytes([20]) + enc_int(entry.x) + enc_int(g) + enc_int(g)
        + enc_int(cat.k_table[entry.price]) + enc_u32(entry.price),
    ]
    with serving(started, "seller", "serve", "--catalog", catp, "--secrets", secp,
                 "--ledger", ledger) as srv:
        sock = socket.create_connection(srv.address)
        ep = wire.SocketEndpoint(sock)
        try:
            for query in queries:
                sock.sendall(wire.frame(query))
                reply = ep.recv()
                assert isinstance(reply, wire.StepErr), type(reply).__name__
        finally:
            ep.close()


def test_readme_tour(tmp_path, capsys, started):
    # the README's multi-process tour, each party through the CLI entry point
    catp, secp = seller_files(tmp_path, "basic:2:read-only", "full:5:read-print")
    assert run_cli("verify-catalog", catp) == 0
    ledger, cards = str(tmp_path / "ledger.tsv"), tmp_path / "cards.txt"
    capsys.readouterr()
    assert run_cli("bank", "issue", "--ledger", ledger, "--count", "2", "--value", "1",
                   "--store", "store-1") == 0
    cards.write_text(capsys.readouterr().out)
    with serving(started, "bank", "serve", "--listen", "127.0.0.1:0",
                 "--ledger", ledger) as bank:
        # the serving bank is the ledger's one writer: issuing waits for it to stop
        assert run_cli("bank", "issue", "--ledger", ledger, "--count", "1",
                       "--store", "store-1") == 1
        assert ledger in capsys.readouterr().err
        with serving(started, "seller", "serve", "--catalog", catp, "--secrets", secp,
                     "--listen", "127.0.0.1:0",
                     "--bank", f"127.0.0.1:{bank.address[1]}") as seller:
            assert run_cli("buyer", "purchase", "--license", "basic", "--cards", str(cards),
                           "--connect", f"127.0.0.1:{seller.address[1]}") == 0
        assert "license: basic" in capsys.readouterr().out
        assert run_cli("bank", "balance", "--ledger", ledger, "--account", "seller-1") == 0
        assert capsys.readouterr().out == "2\n"
    replayed = CardLedger.replay(ledger)
    assert (len(replayed.cards), replayed.balance("seller-1")) == (2, 2)
    replayed.check_conservation()


def test_seller_serve_holds_its_ledger_until_it_stops(tmp_path, capsys, started):
    catp, secp = seller_files(tmp_path, "lic-a:2:read-only")
    ledger = str(tmp_path / "ledger.tsv")
    run_cli("bank", "issue", "--ledger", ledger, "--count", "1", "--store", "store-1")
    with serving(started, "seller", "serve", "--catalog", catp, "--secrets", secp,
                 "--ledger", ledger):
        with pytest.raises(BlindpayError, match=re.escape(ledger)):
            CardLedger(path=ledger)
    CardLedger(path=ledger).close()


def test_seller_serve_missing_ledger_exits_2(tmp_path, capsys):
    catp, secp = seller_files(tmp_path, "lic-a:2:read-only")
    missing = tmp_path / "ledger.tsv"
    assert run_cli("seller", "serve", "--catalog", catp, "--secrets", secp,
                   "--ledger", str(missing)) == 2
    assert not missing.exists()


def test_seller_serve_without_a_bank_exits_2(tmp_path, capsys):
    catp, secp = seller_files(tmp_path, "lic-a:2:read-only")
    capsys.readouterr()
    assert run_cli("seller", "serve", "--catalog", catp, "--secrets", secp) == 2
    assert capsys.readouterr().err == "seller serve needs --bank or --ledger\n"


def test_buyer_purchase_refresh_cannot_be_turned_off():
    # one blinding factor for a whole purchase would let the seller link its steps
    with pytest.raises(SystemExit) as exc:
        run_cli("buyer", "purchase", "--license", "lic-a", "--cards", "cards.txt",
                "--connect", "127.0.0.1:9", "--no-refresh")
    assert exc.value.code == 2


@pytest.mark.parametrize("license_text", ["lic\nb:2:t", "a:2:x\ry", "a:2:x\x0cy",
                                          "a:2:x\x85y", "a:2:x\u2028y"])
def test_seller_init_refuses_a_value_its_catalog_could_not_hold(tmp_path, capsys, license_text):
    # before, it wrote a catalog that no command could read back
    code = run_cli("seller", "init", "--catalog", str(tmp_path / "cat.txt"),
                   "--secrets", str(tmp_path / "sec.txt"), "--seed", "3",
                   "--license", license_text)
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(r"seller init: (license|terms) value .* is not a single line\n", err,
                        re.DOTALL), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("bank", "issue", "--ledger", "L", "--store", "store 1"),
    ("bank", "issue", "--ledger", "L", "--store", ""),
    ("seller", "serve", "--catalog", "C", "--secrets", "S", "--ledger", "L",
     "--account", "seller-1\n3\tISSUE\tcd\t9\t-"),
])
def test_a_name_the_ledger_cannot_record_exits_2(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a in ("L", "C", "S") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "is not 1 to 64 of" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bank_issue_requires_a_store(tmp_path, capsys):
    # cards no store holds could never be spent
    ledger = tmp_path / "ledger.tsv"
    with pytest.raises(SystemExit) as exc:
        run_cli("bank", "issue", "--ledger", str(ledger), "--count", "2")
    assert exc.value.code == 2
    assert "--store" in capsys.readouterr().err
    assert not ledger.exists()


def test_arbitrate_requires_the_catalog(tmp_path, params64):
    # without it the record's own group, verify_pk and K table, which the
    # buyer wrote, would be the commitments it is judged against
    keys, cat, new_case = type_d_evidence(params64, None)
    path = tmp_path / "case.txt"
    path.write_text(write_case(new_case()))
    with pytest.raises(SystemExit) as exc:
        run_cli("arbitrate", "--case", str(path))
    assert exc.value.code == 2


def test_seller_answer_refuses_a_record_of_an_unknown_kind(tmp_path, capsys, params64):
    keys, cat, new_case = type_d_evidence(params64, None)
    code, answered = seller_answer(tmp_path, keys, cat, replace(new_case(), kind="X"))
    assert code == 1
    assert "line 2: bad 'kind' value" in capsys.readouterr().err
    assert not answered.exists()


def test_arbitrate_refuses_a_record_of_an_unknown_kind(tmp_path, capsys, params64):
    keys, cat, new_case = type_d_evidence(params64, None)
    path, catp = tmp_path / "case.txt", tmp_path / "cat.txt"
    path.write_text(write_case(replace(new_case(), kind="X")))
    catp.write_text(serialize_catalog(cat))
    assert run_cli("arbitrate", "--case", str(path), "--catalog", str(catp)) == 1
    captured = capsys.readouterr()
    assert "line 2: bad 'kind' value" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["seller answer", "arbitrate"])
def test_a_signed_step_number_exits_1(tmp_path, capsys, params64, command):
    # a minus sign on step 1's m once passed the record reader and crashed
    # the step-signature check with a ValueError
    text = (FIXTURES / "case_d_answered_honest.txt").read_text()
    record = parse_case(text)
    assert record.params == params64
    keys, cat = make_catalog(params64, prices=(2, 3))
    cat = replace(cat, verify_pk=record.verify_pk, k_table=record.k_table)
    m = str(record.steps[0].m)
    path, catp, secrets, out = (tmp_path / name for name in ("case.txt", "cat.txt",
                                                              "sec.txt", "out.txt"))
    path.write_text(text.replace(f"step: {m} ", f"step: -{m} ", 1))
    catp.write_text(serialize_catalog(cat))
    cli._write_secrets(str(secrets), keys)
    if command == "arbitrate":
        code = run_cli("arbitrate", "--case", str(path), "--catalog", str(catp))
    else:
        code = run_cli("seller", "answer", "--case", str(path), "--catalog", str(catp),
                       "--secrets", str(secrets), "--out", str(out))
    assert code == 1
    captured = capsys.readouterr()
    assert "bad 'step' value" in captured.err
    assert captured.out == "" and not out.exists()


def test_a_signed_chain_number_exits_1(tmp_path, capsys, params64):
    # a minus sign on the last chain entry once passed the record reader and
    # crashed method 2's license decryption with a ValueError
    keys, cat, new_case = type_d_evidence(params64, None)
    code, answered = seller_answer(tmp_path, keys, cat, new_case())
    assert code == 0
    record = parse_case(answered.read_text())
    record.chain[-1] = -record.chain[-1]
    text = write_case(record)
    answered.write_text(text)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith("chain: "))
    capsys.readouterr()
    code = run_cli("arbitrate", "--case", str(answered), "--catalog", str(tmp_path / "cat.txt"))
    captured = capsys.readouterr()
    assert code == 1
    assert f"line {lineno}: bad 'chain' value" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_arbitrate_refuses_a_record_not_of_the_catalog(tmp_path, capsys, params64):
    # a buyer who edits K_1 in an answered record must not get a verdict
    keys, cat, new_case = type_d_evidence(params64, None)
    code, answered = seller_answer(tmp_path, keys, cat, new_case())
    assert code == 0
    catp = str(tmp_path / "cat.txt")
    assert run_cli("arbitrate", "--case", str(answered), "--catalog", catp) == 0
    record = parse_case(answered.read_text())
    record.k_table[1] = pow_mod(params64.g, 2, params64)
    answered.write_text(write_case(record))
    capsys.readouterr()
    assert run_cli("arbitrate", "--case", str(answered), "--catalog", catp) == 1
    captured = capsys.readouterr()
    assert "differs from the seller's catalog" in captured.err
    assert "seller-at-fault" not in captured.out


def test_arbitrate_refuses_an_audit_of_a_license_not_in_the_catalog(tmp_path, capsys,
                                                                    params64):
    # A seller answers every step with s + 1, so the buyer's key is dead.  It
    # then audits a license of its own making, consistent with s + 1 (x, blob,
    # chain, link and segment proofs), and offers no step proofs.
    keys, cat, bank, _, session = rig(params64, price=3, seed=84, prices=(2, 3))
    liar = replace(keys, s=(keys.s + 1) % params64.q)
    with pytest.raises(AuthenticationFailure):
        run_purchase(session, SellerStepHandler(liar, params64, bank, "seller-1").handle)
    x = hash_to_group(b"not-for-sale", params64)
    plain = LicensePlaintext(license_id="lic-3", terms="read-only", content_key=bytes(16),
                             permissions=("read",))
    blob = encrypt_license(derive_license_key(x, 3, liar.s, params64), plain)
    own = replace(cat, licenses=[replace(cat.entry("lic-3"), license_id="lic-x", x=x,
                                         encrypted_license=blob)])
    case = build_type_d_case(cat, session)
    assert resolve_type_d_method2(case, own, SellerDisputeAgent(liar, own, random.Random(1)),
                                  random.Random(2)).outcome == BUYER_CLAIM_REJECTED
    path, catp = tmp_path / "case.txt", tmp_path / "cat.txt"
    catp.write_text(serialize_catalog(cat))
    for audited in ("lic-x", "lic-3"):  # an unknown id, then a catalog id
        case.audit_license_id = audited
        path.write_text(write_case(case))
        capsys.readouterr()
        assert run_cli("arbitrate", "--case", str(path), "--catalog", str(catp)) == 0
        assert capsys.readouterr().out == (f"D-method2: {SELLER_AT_FAULT} (steps checked: 0)\n"
                                           "  audited license is not the catalog's\n")


def per_pair_record(params64):
    """An answered method-2 record that proves each link and each step on
    its own, with no batch proofs, and the catalog it was answered from."""
    keys, cat, new_case = type_d_evidence(params64, None)
    agent = SellerDisputeAgent(keys, cat, random.Random(18))
    case = new_case()
    resolve_type_d_method2(case, cat, agent, random.Random(19))
    chain = case.chain
    case.link_proofs = [agent.prove(chain[j - 1], chain[j], chain[0], chain[1], 1)
                        for j in range(2, len(chain))]
    case.segment_proofs = [agent.prove(st.m, st.m_out, chain[0], chain[st.t], st.t)
                           for st in case.steps]
    case.batch_proofs = {}
    assert len(case.link_proofs) >= 2 and len(case.steps) >= 2
    return case, cat


@pytest.mark.parametrize("family", ["link", "segment"])
def test_arbitrate_refuses_a_record_short_of_proof_lines(tmp_path, capsys, params64,
                                                         family):
    case, cat = per_pair_record(params64)
    path, catp = tmp_path / "case.txt", tmp_path / "cat.txt"
    catp.write_text(serialize_catalog(cat))
    path.write_text(write_case(case))
    assert run_cli("arbitrate", "--case", str(path), "--catalog", str(catp)) == 0
    assert f"D-method2: {BUYER_CLAIM_REJECTED}" in capsys.readouterr().out
    proofs = getattr(case, f"{family}_proofs")
    setattr(case, f"{family}_proofs", proofs[:-1])
    path.write_text(write_case(case))
    assert run_cli("arbitrate", "--case", str(path), "--catalog", str(catp)) == 1
    assert f"{len(proofs) - 1} {family}_proof lines" in capsys.readouterr().err


def test_an_edited_step_value_convicts_an_honest_seller(tmp_path, capsys, params64):
    """ROADMAP item 14's open hole: step_payload signs (m, m_out) but not t.
    A buyer who changes a step's t in an honest record gets the seller
    convicted by both methods.  Its fix, signing t, must flip this test:
    the edited step's signature no longer verifies, so the record is
    refused instead."""
    keys, cat, bank, session = completed_session(params64, price=3, seed=85)
    assert [tr.t for tr in session.transcripts] == [1, 1, 1] and 2 in cat.k_table
    case = build_type_d_case(cat, session)
    case.steps[0] = replace(case.steps[0], t=2)
    code, answered = seller_answer(tmp_path, keys, cat, case)
    assert code == 0
    capsys.readouterr()
    assert run_cli("arbitrate", "--case", str(answered),
                   "--catalog", str(tmp_path / "cat.txt")) == 0
    out = capsys.readouterr().out
    assert f"D-method1: {SELLER_AT_FAULT} (steps checked: 1)" in out
    assert f"D-method2: {SELLER_AT_FAULT} (steps checked: 1)" in out


@pytest.mark.parametrize("command", ["serve", "answer"])
@pytest.mark.parametrize("key, value", [
    ("sign_sk", "00"), ("sign_sk", None), ("s", "x"), ("s", None),
], ids=["short-sign_sk", "no-sign_sk", "bad-s", "no-s"])
def test_a_bad_secrets_file_exits_1_naming_it(tmp_path, capsys, command, key, value):
    catp, secp = seller_files(tmp_path, "lic-a:2:read-only")
    sec = tmp_path / "sec.txt"
    lines = [line for line in sec.read_text().splitlines()
             if not line.startswith(f"{key}: ")]
    if value is not None:
        lines.append(f"{key}: {value}")
    sec.write_text("\n".join(lines) + "\n")
    cat = parse_catalog((tmp_path / "cat.txt").read_text())
    case, out = tmp_path / "case.txt", tmp_path / "answered.txt"
    case.write_text(write_case(DisputeCase(kind="D", params=cat.params, verify_pk=cat.verify_pk,
                                           k_table=cat.k_table, steps=[])))
    more = (["--ledger", str(tmp_path / "ledger.tsv")] if command == "serve"
            else ["--case", str(case), "--out", str(out)])
    capsys.readouterr()
    assert run_cli("seller", command, "--catalog", catp, "--secrets", secp, *more) == 1
    assert secp in capsys.readouterr().err
    assert not out.exists()


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
        # the same cards again: the seller refuses the first step
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith("purchase aborted: already-spent ")
        assert ledger.balance("seller-1") == 3


def test_buyer_purchase_sends_each_step_on_its_own_connection(tmp_path, capsys, monkeypatch):
    # each endpoint the buyer dials records the step requests sent on it
    per_connection = []
    dial = wire.connect

    def recording_connect(*address, **kwargs):
        ep, steps = dial(*address, **kwargs), []
        per_connection.append(steps)
        send = ep.send

        def send_and_record(msg):
            if isinstance(msg, wire.StepReq):
                steps.append(msg)
            send(msg)
        ep.send = send_and_record
        return ep

    monkeypatch.setattr(wire, "connect", recording_connect)
    with cli_market(tmp_path, capsys) as (argv, ledger):
        assert run_cli(*argv, "--out", str(tmp_path / "license.txt")) == 0
    assert [len(steps) for steps in per_connection if steps] == [1, 1, 1]


def test_buyer_purchase_refuses_a_catalog_that_fails_verification(tmp_path, capsys):
    with cli_market(tmp_path, capsys) as (argv, ledger):
        catp = tmp_path / "cat.txt"
        catp.write_text(catp.read_text().replace("terms: read-only", "terms: read-write"))
        assert run_cli(*argv, "--catalog", str(catp)) == 1
        assert "catalog rejected: lic-a: terms signature invalid" in capsys.readouterr().err
        assert ledger.balance("seller-1") == 0


def test_buyer_purchase_files_a_type_c_record_the_seller_answers(tmp_path, capsys):
    # README's type C flow: a corrupt step signature, then answer and arbitrate
    def corrupt_second_step(handle):
        steps = []

        def handle_and_corrupt(msg):
            reply = handle(msg)
            if isinstance(msg, wire.StepReq):
                steps.append(msg)
                if len(steps) == 2:
                    sig = bytes([reply.signature[0] ^ 0xFF]) + reply.signature[1:]
                    return replace(reply, signature=sig)
            return reply
        return handle_and_corrupt

    case, answered = tmp_path / "case-c.txt", tmp_path / "case-c-answered.txt"
    catp, secp = str(tmp_path / "cat.txt"), str(tmp_path / "sec.txt")
    with cli_market(tmp_path, capsys, wrap=corrupt_second_step) as (argv, ledger):
        assert run_cli(*argv, "--case-out", str(case)) == 3
    assert f"type C case written to {case}" in capsys.readouterr().err
    assert parse_case(case.read_text()).kind == "C"
    assert run_cli("seller", "answer", "--case", str(case), "--catalog", catp,
                   "--secrets", secp, "--out", str(answered)) == 0
    capsys.readouterr()
    assert run_cli("arbitrate", "--case", str(answered), "--catalog", catp) == 0
    assert capsys.readouterr().out.startswith(f"C: {SELLER_MUST_RESIGN} ")


def answer_and_arbitrate(tmp_path, capsys, case):
    """``seller answer`` the record at case, then ``arbitrate`` it; return
    what arbitrate printed."""
    catp, answered = str(tmp_path / "cat.txt"), tmp_path / "answered.txt"
    assert run_cli("seller", "answer", "--case", str(case), "--catalog", catp,
                   "--secrets", str(tmp_path / "sec.txt"), "--out", str(answered)) == 0
    capsys.readouterr()
    assert run_cli("arbitrate", "--case", str(answered), "--catalog", catp) == 0
    return capsys.readouterr().out


def test_buyer_purchase_files_a_type_d_record_for_a_dead_key(tmp_path, capsys, monkeypatch):
    # every step is signed, but the second is answered with s + 1: the key
    # opens nothing, and the buyer keeps its signed steps as type D evidence
    def wrong_s_at_second_step(handle):
        keys = cli._read_secrets(str(tmp_path / "sec.txt"))
        p = parse_catalog((tmp_path / "cat.txt").read_text()).params
        steps = []

        def handle_and_lie(msg):
            reply = handle(msg)
            if isinstance(msg, wire.StepReq):
                steps.append(msg)
                if len(steps) == 2:
                    m_out = pow(msg.m, (keys.s + 1) % p.q, p.n)
                    return wire.StepResp(m_out=m_out, signature=sign_payload(
                        keys.sign_sk, step_payload(msg.m, m_out)))
            return reply
        return handle_and_lie

    monkeypatch.chdir(tmp_path)  # the record goes to --case-out's default, case.txt
    with cli_market(tmp_path, capsys, wrap=wrong_s_at_second_step) as (argv, ledger):
        assert run_cli(*argv, "--out", "license.txt") == 3
        assert ledger.balance("seller-1") == 3
    assert "key-unusable; type D case written to case.txt" in capsys.readouterr().err
    assert not (tmp_path / "license.txt").exists()
    assert parse_case((tmp_path / "case.txt").read_text()).kind == "D"
    out = answer_and_arbitrate(tmp_path, capsys, tmp_path / "case.txt")
    assert f"D-method1: {SELLER_AT_FAULT}" in out
    assert f"D-method2: {SELLER_AT_FAULT}" in out


def test_buyer_purchase_files_a_type_b_record_for_other_terms(tmp_path, capsys):
    # the catalog the buyer checks publishes lic-a as read-print, signed by
    # the seller, while the license itself says read-only
    case, license_file = tmp_path / "case-b.txt", tmp_path / "license.txt"
    with cli_market(tmp_path, capsys) as (argv, ledger):
        cat = parse_catalog((tmp_path / "cat.txt").read_text())
        keys = cli._read_secrets(str(tmp_path / "sec.txt"))
        published = tmp_path / "cat-read-print.txt"
        published.write_text(serialize_catalog(
            with_published_terms(cat, keys, "lic-a", "read-print")))
        assert run_cli(*argv, "--catalog", str(published), "--out", str(license_file),
                       "--case-out", str(case)) == 3
    assert f"completed; type B case written to {case}" in capsys.readouterr().err
    assert "terms: read-only" in license_file.read_text()
    assert parse_case(case.read_text()).kind == "B"
    assert answer_and_arbitrate(tmp_path, capsys, case).startswith(f"B: {SELLER_AT_FAULT} ")


def resealed_catalog(tmp_path, **sealed):
    """cli_market's catalog with lic-a sealed anew: the plaintext fields
    given replace those of an honest license, and the terms signature is
    renewed, so the catalog still verifies."""
    cat = parse_catalog((tmp_path / "cat.txt").read_text())
    keys = cli._read_secrets(str(tmp_path / "sec.txt"))
    entry = cat.entry("lic-a")
    plain = LicensePlaintext(**{"license_id": "lic-a", "terms": entry.terms,
                                "content_key": bytes(16), "permissions": ("play",), **sealed})
    blob = encrypt_license(derive_license_key(entry.x, entry.price, keys.s, cat.params), plain)
    resealed = replace(entry, encrypted_license=blob,
                       terms_signature=sign_terms(keys, entry.terms, blob))
    path = tmp_path / "cat-resealed.txt"
    path.write_text(serialize_catalog(replace(cat, licenses=[resealed])))
    return path


def test_sealed_terms_cannot_forge_a_license_line(tmp_path, capsys):
    # the terms differ from the catalog's, so the buyer files type B; the
    # license, whose terms would print a second permissions line, is not written
    case, license_file = tmp_path / "case.txt", tmp_path / "license.txt"
    with cli_market(tmp_path, capsys) as (argv, ledger):
        resealed = resealed_catalog(tmp_path, terms="read-only\npermissions: copy print")
        assert run_cli(*argv, "--catalog", str(resealed), "--out", str(license_file),
                       "--case-out", str(case)) == 3
    err = capsys.readouterr().err
    assert "license not written: terms value " in err
    assert f"completed; type B case written to {case}" in err
    assert not license_file.exists()
    assert parse_case(case.read_text()).kind == "B"


def test_sealed_permissions_cannot_forge_a_license_line(tmp_path, capsys):
    # the terms match the catalog's, so no case is filed: the purchase fails
    case = tmp_path / "case.txt"
    with cli_market(tmp_path, capsys) as (argv, ledger):
        resealed = resealed_catalog(tmp_path, permissions=("play\ncontent_key: 00",))
        assert run_cli(*argv, "--catalog", str(resealed), "--case-out", str(case)) == 1
        assert ledger.balance("seller-1") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("license not written: permissions value ")
    assert not case.exists()


PRINT_ALIKE = [(("play copy",), ("play", "copy")), (("",), ())]


@pytest.mark.parametrize("refused, kept", PRINT_ALIKE, ids=["whitespace", "empty"])
def test_a_permission_that_would_print_as_another_list_is_refused(refused, kept):
    plain = LicensePlaintext(license_id="lic-a", terms="read-only", content_key=bytes(16),
                             permissions=kept)
    assert cli.LICENSE.read(cli._plaintext_text(plain))["permissions"] == list(kept)
    with pytest.raises(ValueError, match=r"^permissions value "):
        cli._plaintext_text(replace(plain, permissions=refused))


@pytest.mark.parametrize("refused", [refused for refused, _ in PRINT_ALIKE],
                         ids=["whitespace", "empty"])
def test_buyer_purchase_writes_no_license_whose_permissions_print_alike(tmp_path, capsys,
                                                                        refused):
    with cli_market(tmp_path, capsys) as (argv, ledger):
        resealed = resealed_catalog(tmp_path, permissions=refused)
        assert run_cli(*argv, "--catalog", str(resealed), "--out",
                       str(tmp_path / "license.txt")) == 1
        assert ledger.balance("seller-1") == 3
    assert capsys.readouterr().err.startswith("license not written: permissions value ")
    assert not (tmp_path / "license.txt").exists()


def test_buyer_purchase_prints_the_license_as_a_record(tmp_path, capsys):
    with cli_market(tmp_path, capsys) as (argv, ledger):
        assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    assert cli.LICENSE.read(out)["license"] == "lic-a"
    assert out.startswith("blindpay-license: v1\nlicense: lic-a\nterms: read-only\n")


def test_buyer_purchase_exits_1_when_the_seller_sends_no_catalog(tmp_path, capsys):
    def refuse_catalog(handle):
        def handle_or_refuse(msg):
            if isinstance(msg, wire.CatalogGet):
                return wire.StepErr(code="unsupported", detail="CatalogGet")
            return handle(msg)
        return handle_or_refuse

    with cli_market(tmp_path, capsys, wrap=refuse_catalog) as (argv, ledger):
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == "seller did not return a catalog\n"
        assert ledger.balance("seller-1") == 0


def test_buyer_purchase_insufficient_cards(tmp_path, capsys):
    with cli_market(tmp_path, capsys) as (argv, ledger):
        (tmp_path / "cards.txt").write_text("")  # no cards at all
        assert run_cli(*argv) == 1


@pytest.mark.parametrize("bad_line", [
    "{cid} one", "{cid} 0", "{cid} -1", "zz{cid} 1", "{cid} 1 extra",
], ids=["non-integer-value", "zero-value", "negative-value", "non-hex-id", "three-fields"])
def test_buyer_purchase_with_a_malformed_cards_file_exits_1(tmp_path, capsys, bad_line):
    with cli_market(tmp_path, capsys) as (argv, ledger):
        cards = tmp_path / "cards.txt"
        lines = cards.read_text().splitlines()
        lines[1] = bad_line.format(cid=lines[1].split()[0])
        cards.write_text("\n".join(lines) + "\n")
        assert run_cli(*argv) == 1
        assert f"{cards} line 2" in capsys.readouterr().err
        assert ledger.balance("seller-1") == 0


def test_buyer_purchase_of_an_unknown_license_exits_1(tmp_path, capsys):
    with cli_market(tmp_path, capsys) as (argv, ledger):
        argv[argv.index("lic-a")] = "nope"
        assert run_cli(*argv, "--catalog", str(tmp_path / "cat.txt")) == 1
        assert capsys.readouterr().err == "no license 'nope' in the catalog\n"
        assert ledger.balance("seller-1") == 0


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
