"""The text records: catalog, case record, session checkpoint and seller
secrets share one reader (encoding.RecordFormat), which refuses malformed
lines the same way for each, raising that document's own error."""

import random

import pytest

from blindpay import cli
from blindpay.catalog import parse_catalog, serialize_catalog
from blindpay.dispute import DisputeCase, parse_case, write_case
from blindpay.errors import (
    BlindpayError,
    CatalogFormatError,
    MalformedEvidence,
    SessionStateError,
)
from blindpay.purchase import (
    buyer_process_response,
    buyer_step_request,
    load_session,
    save_session,
)

from conftest import make_catalog
from test_purchase import rig


def _documents(tmp_path, params):
    """For each document: valid text, a reader of text, its error, and a
    line of a key that may appear only once."""
    keys, cat, bank, handler, session = rig(params, price=3)
    buyer_process_response(session, handler.handle(buyer_step_request(session)))
    session_path, secrets_path = tmp_path / "session.txt", tmp_path / "sec.txt"
    save_session(session, str(session_path))
    cli._write_secrets(str(secrets_path), keys)

    def read_file(path, read):
        def reader(text):
            path.write_text(text)
            return read(str(path))
        return reader

    case = DisputeCase(kind="D", params=cat.params, verify_pk=cat.verify_pk,
                       k_table=cat.k_table, steps=list(session.transcripts))
    return {
        "catalog": (serialize_catalog(cat), parse_catalog, CatalogFormatError, "n: 5"),
        "case": (write_case(case), parse_case, MalformedEvidence, "kind: B"),
        "session": (session_path.read_text(),
                    read_file(session_path, lambda p: load_session(p, cat)),
                    SessionStateError, "mode: enhanced"),
        "secrets": (secrets_path.read_text(), read_file(secrets_path, cli._read_secrets),
                    BlindpayError, "s: 5"),
    }


DOCUMENTS = ["catalog", "case", "session", "secrets"]


@pytest.mark.parametrize("fault", ["repeated", "unknown", "no-separator"])
@pytest.mark.parametrize("document", DOCUMENTS)
def test_a_bad_line_raises_the_documents_error_naming_it(tmp_path, params64, document, fault):
    text, read, error, once_line = _documents(tmp_path, params64)[document]
    read(text)
    bad = {"repeated": once_line, "unknown": "bogus: 1", "no-separator": "garbage"}[fault]
    lineno = len(text.splitlines()) + 1
    with pytest.raises(error, match=rf"line {lineno}\b"):
        read(text + bad + "\n")


@pytest.mark.parametrize("document", DOCUMENTS)
def test_a_truncated_document_raises_its_error(tmp_path, params64, document):
    text, read, error, _ = _documents(tmp_path, params64)[document]
    for keep in (0, 1, 2):
        with pytest.raises(error):
            read("".join(text.splitlines(keepends=True)[:keep]))


def test_session_checkpoint_round_trips_byte_exact(tmp_path, params64):
    _, cat, _, handler, session = rig(params64, price=3, refresh=True)
    buyer_process_response(session, handler.handle(buyer_step_request(session)))
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    save_session(session, str(first))
    save_session(load_session(str(first), cat, rng=random.Random(1)), str(second))
    text = first.read_text()
    assert "transcript: " in text and "cards: " in text and "refresh: on" in text
    assert second.read_text() == text


def test_a_checkpoint_of_a_license_not_in_the_catalog_is_refused(tmp_path, params64):
    _, cat, _, _, session = rig(params64, price=3)
    path = tmp_path / "session.txt"
    save_session(session, str(path))
    path.write_text(path.read_text().replace("license: lic-3\n", "license: lic-9\n"))
    with pytest.raises(SessionStateError, match="'lic-9'"):
        load_session(str(path), cat)


def test_secrets_file_round_trips_byte_exact(tmp_path, params64):
    keys, _ = make_catalog(params64)
    first, second = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    cli._write_secrets(first, keys)
    assert cli._read_secrets(first) == keys
    cli._write_secrets(second, cli._read_secrets(first))
    assert (tmp_path / "b.txt").read_text() == (tmp_path / "a.txt").read_text()
    assert (tmp_path / "a.txt").read_text() == (
        f"blindpay-secrets: v1\ns: {keys.s}\nsign_sk: {keys.sign_sk.hex()}\n")
