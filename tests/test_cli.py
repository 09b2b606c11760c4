import contextlib
import random
import re
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
    verify_payload,
)
from blindpay.dispute import (
    BUYER_CLAIM_REJECTED,
    SELLER_AT_FAULT,
    SELLER_MUST_RESIGN,
    DisputeCase,
    SellerDisputeAgent,
    build_type_d_case,
    parse_case,
    resolve_case,
    resolve_type_d_method2,
    write_case,
)
from blindpay.encoding import enc_int, enc_u32
from blindpay.errors import AuthenticationFailure, BlindpayError
from blindpay.group import DlEqProof, hash_to_group, named_group, pow_mod
from blindpay.harness import RemoteBank, make_bank_handler, make_seller_handler
from blindpay.purchase import SellerStepHandler, run_purchase, step_payload

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
    live = resolve_case(new_case(), catalog=cat, rng=random.Random(16),
                        seller=SellerDisputeAgent(keys, cat, random.Random(17)))
    # method 3 discloses the generation factor, which the file channel never carries
    live = [(label, v) for label, v in live if label != "D-method3"]
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
    run_cli("bank", "issue", "--ledger", ledger, "--count", "1", "--seed", "4")
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
        assert run_cli("bank", "issue", "--ledger", ledger, "--count", "1") == 1
        assert ledger in capsys.readouterr().err
        with serving(started, "seller", "serve", "--catalog", catp, "--secrets", secp,
                     "--listen", "127.0.0.1:0",
                     "--bank", f"127.0.0.1:{bank.address[1]}") as seller:
            assert run_cli("buyer", "purchase", "--license", "basic", "--cards", str(cards),
                           "--connect", f"127.0.0.1:{seller.address[1]}") == 0
    assert "license: basic" in capsys.readouterr().out
    replayed = CardLedger.replay(ledger)
    assert (len(replayed.cards), replayed.balance("seller-1")) == (2, 2)
    replayed.check_conservation()


def test_seller_serve_holds_its_ledger_until_it_stops(tmp_path, capsys, started):
    catp, secp = seller_files(tmp_path, "lic-a:2:read-only")
    ledger = str(tmp_path / "ledger.tsv")
    run_cli("bank", "issue", "--ledger", ledger, "--count", "1")
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


def test_buyer_purchase_refresh_cannot_be_turned_off():
    # one blinding factor for a whole purchase would let the seller link its steps
    with pytest.raises(SystemExit) as exc:
        run_cli("buyer", "purchase", "--license", "lic-a", "--cards", "cards.txt",
                "--connect", "127.0.0.1:9", "--no-refresh")
    assert exc.value.code == 2


def test_arbitrate_requires_the_catalog(tmp_path, params64):
    # without it the record's own group, verify_pk and K table, which the
    # buyer wrote, would be the commitments it is judged against
    keys, cat, new_case = type_d_evidence(params64, None)
    path = tmp_path / "case.txt"
    path.write_text(write_case(new_case()))
    with pytest.raises(SystemExit) as exc:
        run_cli("arbitrate", "--case", str(path))
    assert exc.value.code == 2


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
