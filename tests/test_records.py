"""The text records: catalog, case record and seller secrets share one
reader (encoding.RecordFormat), which refuses malformed lines the same way
for each, raising that document's own error."""

from dataclasses import replace

import pytest

from blindpay import cli
from blindpay.catalog import parse_catalog, serialize_catalog
from blindpay.dispute import DisputeCase, parse_case, write_case
from blindpay.encoding import STR, RecordFormat
from blindpay.errors import BlindpayError, CatalogFormatError, MalformedEvidence
from blindpay.purchase import buyer_process_response, buyer_step_request

from conftest import make_catalog
from test_purchase import rig


def _documents(tmp_path, params):
    """For each document: valid text, a reader of text, its error, and a
    line of a key that may appear only once."""
    keys, cat, bank, handler, session = rig(params, price=3)
    buyer_process_response(session, handler.handle(buyer_step_request(session)))
    secrets_path = tmp_path / "sec.txt"
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
        "secrets": (secrets_path.read_text(), read_file(secrets_path, cli._read_secrets),
                    BlindpayError, "s: 5"),
    }


DOCUMENTS = ["catalog", "case", "secrets"]


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


def test_secrets_file_round_trips_byte_exact(tmp_path, params64):
    keys, _ = make_catalog(params64)
    first, second = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    cli._write_secrets(first, keys)
    assert cli._read_secrets(first) == keys
    cli._write_secrets(second, cli._read_secrets(first))
    assert (tmp_path / "b.txt").read_text() == (tmp_path / "a.txt").read_text()
    assert (tmp_path / "a.txt").read_text() == (
        f"blindpay-secrets: v1\ns: {keys.s}\nsign_sk: {keys.sign_sk.hex()}\n")


def test_the_writer_refuses_every_value_its_reader_would_split():
    # read() splits a record with str.splitlines, so each boundary it honours
    # must be refused inside a value, wherever it stands
    boundaries = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1]
    assert len(boundaries) == 10  # \n \v \f \r \x1c \x1d \x1e \x85 \u2028 \u2029
    record = RecordFormat("t", once={"v": STR}, many={"w": STR}, error=BlindpayError)
    for sep in [*boundaries, "\r\n"]:
        for value in (f"a{sep}b", f"a{sep}", sep):
            with pytest.raises(ValueError, match=r"^w value "):
                record.write([("v", "a"), ("w", value)])
    text = record.write([("v", ""), ("w", "a: b\tc"), ("w", " ")])
    assert text == "blindpay-t: v1\nv: \nw: a: b\tc\nw:  \n"
    assert record.read(text) == {"v": "", "w": ["a: b\tc", " "]}


def _refused_writes(tmp_path, params):
    """For each document: a call of its public writer with a value that is
    not one line, the key of that value, and the file the writer would
    overwrite (None for a writer that returns its text)."""
    keys, cat, *_ = rig(params, price=3)
    case = DisputeCase(kind="D", params=cat.params, verify_pk=cat.verify_pk,
                       k_table=cat.k_table, steps=[])
    secrets_path = tmp_path / "sec.txt"
    _, bad_catalog = make_catalog(params, terms="read\u2028only")
    return {
        "catalog": (lambda: serialize_catalog(bad_catalog), "terms", None),
        "case": (lambda: write_case(replace(case, kind="D\x85")), "kind", None),
        # an int and a hex key cannot break a line; a value of another type
        # still meets the writer's rule
        "secrets": (lambda: cli._write_secrets(str(secrets_path), replace(keys, s="1\ns: 2")),
                    "s", secrets_path),
    }


@pytest.mark.parametrize("document", DOCUMENTS)
def test_a_value_that_is_not_one_line_is_refused_and_leaves_the_file(tmp_path, params64,
                                                                     document):
    write, key, path = _refused_writes(tmp_path, params64)[document]
    if path is not None:
        path.write_text("before\n")
    with pytest.raises(ValueError, match=rf"^{key} value "):
        write()
    if path is not None:
        assert path.read_text() == "before\n"
