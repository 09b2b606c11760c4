"""The text records: catalog, case record, session checkpoint and seller
secrets share one reader (encoding.RecordFormat), which refuses malformed
lines the same way for each, raising that document's own error."""

import random
from dataclasses import replace

import pytest

from blindpay import cli
from blindpay.catalog import parse_catalog, serialize_catalog
from blindpay.dispute import DisputeCase, parse_case, write_case
from blindpay.encoding import STR, RecordFormat
from blindpay.errors import (
    BlindpayError,
    CatalogFormatError,
    MalformedEvidence,
    SessionStateError,
)
from blindpay.purchase import (
    begin_upgrade,
    buyer_begin,
    buyer_process_response,
    buyer_step_request,
    load_session,
    run_purchase,
    save_session,
)

from conftest import make_catalog
from test_purchase import fund, rig, upgrade_fixture


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
                    SessionStateError, "refresh: on"),
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


def times_4(value, n):
    """acc times 4 mod n, still a subgroup member (4 is a square)."""
    return str(int(value) * 4 % n)


def no_alpha(line, n):
    """A transcript line whose blinding exponent is dropped."""
    m, m_out, t, _, sig = line.split(" ")
    return f"{m} {m_out} {t} - {sig}"


def m_times_4(line, n):
    """A transcript line whose request m is multiplied by 4."""
    m, rest = line.split(" ", 1)
    return f"{times_4(m, n)} {rest}"


# Each case edits lines of a basic, price-3 checkpoint saved after the
# given number of steps; after one: plan 1 1 1 and one transcript.  A
# value of None drops the key's last line, and a function maps that line's
# value and the group's n to the new value.  The catalog publishes K_1
# and K_2 only.
DISAGREEING = [
    (1, {"cards": None}, "2 cards lines for a plan of 3 steps"),
    (1, {"plan": "1 1 1 1"}, "3 cards lines for a plan of 4 steps"),
    (1, {"plan": "2 1 1"}, r"transcript step values \[1\] are not the plan's first 1"),
    (1, {"plan": "1 5 1"}, r"plan values \[5\] have no K_t"),
    (1, {"plan": "1 9 1"}, r"plan values \[9\] have no K_t"),
    (0, {"acc": times_4}, "acc is not the license's x"),
    (1, {"acc": times_4}, r"acc is not the last transcript's m_out / K_t\^alpha"),
    (2, {"acc": times_4}, r"acc is not the last transcript's m_out / K_t\^alpha"),
    (1, {"transcript": no_alpha}, "the last transcript has no alpha"),
    (1, {"transcript": m_times_4}, r"the first transcript's m / g\^alpha is not the license's x"),
    # a plan short of the price: the key it builds would open nothing
    (0, {"plan": "1 1", "cards": None}, r"plan \[1, 1\] sums to 2, not the price 3"),
]


def _case_id(steps, edits):
    words = [f"{k}={getattr(v, '__name__', v)}" for k, v in edits.items()]
    return " ".join(([] if steps == 1 else [f"after {steps} steps"]) + words)


@pytest.mark.parametrize("steps, edits, names", DISAGREEING,
                         ids=[_case_id(steps, edits) for steps, edits, _ in DISAGREEING])
def test_a_checkpoint_that_disagrees_with_itself_is_refused(tmp_path, params64, steps, edits,
                                                            names):
    _, cat, _, handler, session = rig(params64, price=3)
    for _ in range(steps):
        buyer_process_response(session, handler.handle(buyer_step_request(session)))
    path = tmp_path / "session.txt"
    save_session(session, str(path))
    load_session(str(path), cat)  # unedited, the checkpoint loads
    lines = path.read_text().splitlines()
    for key, value in edits.items():
        at = max(i for i, line in enumerate(lines) if line.startswith(f"{key}: "))
        if value is None:
            del lines[at]
        else:
            if callable(value):
                value = value(lines[at].split(": ", 1)[1], cat.params.n)
            lines[at] = f"{key}: {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SessionStateError, match=f"checkpoint disagrees: {names}"):
        load_session(str(path), cat)


def test_a_checkpoint_holds_each_purchase_fact_once(tmp_path, params64):
    # the mode, the step index and the units unpaid follow from the plan
    # and the transcripts, so the checkpoint does not write them
    _, cat, _, handler, session = rig(params64, price=3)
    buyer_process_response(session, handler.handle(buyer_step_request(session)))
    path = tmp_path / "session.txt"
    save_session(session, str(path))
    keys = {line.split(": ", 1)[0] for line in path.read_text().splitlines()[1:]}
    assert keys == {"license", "refresh", "alpha", "acc", "plan", "cards", "transcript"}
    assert load_session(str(path), cat).remaining == 2


def test_a_checkpoint_with_an_idx_line_is_refused_naming_it(tmp_path, params64):
    _, cat, _, handler, session = rig(params64, price=3)
    buyer_process_response(session, handler.handle(buyer_step_request(session)))
    path = tmp_path / "session.txt"
    save_session(session, str(path))
    lines = path.read_text().splitlines()
    lines.insert(2, "idx: 1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SessionStateError, match="line 3: unknown key 'idx'"):
        load_session(str(path), cat)


def _upgrade_checkpoint(tmp_path, params, steps):
    """A checkpoint of the upgrade from lic-2 to lic-5, saved after the given
    number of steps, with the catalog and the seller's step handler."""
    _, cat, bank, handler = upgrade_fixture(params)
    owned = buyer_begin(cat, "lic-2", fund(bank, [1, 1]), rng=random.Random(1))
    run_purchase(owned, handler.handle)
    session = begin_upgrade(cat, "lic-2", owned.acc, "lic-5", fund(bank, [1, 1, 1]),
                            rng=random.Random(2))
    for _ in range(steps):
        buyer_process_response(session, handler.handle(buyer_step_request(session)))
    path = tmp_path / "session.txt"
    save_session(session, str(path))
    return path, cat, handler


def test_an_upgrade_checkpoint_before_its_first_step_resumes(tmp_path, params64):
    # its acc is the owned key, which the checkpoint does not record
    _, cat, bank, handler = upgrade_fixture(params64)
    owned = buyer_begin(cat, "lic-2", fund(bank, [1, 1]), rng=random.Random(1))
    run_purchase(owned, handler.handle)
    session = begin_upgrade(cat, "lic-2", owned.acc, "lic-5", fund(bank, [1, 1, 1]),
                            rng=random.Random(2))
    path = tmp_path / "session.txt"
    save_session(session, str(path))
    assert run_purchase(load_session(str(path), cat), handler.handle).license_id == "lic-5"


def test_an_upgrade_checkpoint_after_its_first_step_resumes(tmp_path, params64):
    # its starting key, the first transcript's m / g^alpha, opens lic-2
    path, cat, handler = _upgrade_checkpoint(tmp_path, params64, 1)
    assert run_purchase(load_session(str(path), cat), handler.handle).license_id == "lic-5"


@pytest.mark.parametrize("edit", [times_4, lambda value, n: "-1"], ids=["times_4", "negative"])
def test_an_upgrade_checkpoint_whose_acc_opens_no_owned_license_is_refused(tmp_path,
                                                                          params64, edit):
    path, cat, _ = _upgrade_checkpoint(tmp_path, params64, 0)
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("acc: "))
    lines[at] = f"acc: {edit(lines[at][5:], cat.params.n)}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SessionStateError,
                       match="checkpoint disagrees: acc opens no license the plan upgrades from"):
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
    keys, cat, _, _, session = rig(params, price=3)
    case = DisputeCase(kind="D", params=cat.params, verify_pk=cat.verify_pk,
                       k_table=cat.k_table, steps=[])
    session_path, secrets_path = tmp_path / "session.txt", tmp_path / "sec.txt"
    session.entry = replace(session.entry, license_id="lic-3\ncards: -")
    _, bad_catalog = make_catalog(params, terms="read\u2028only")
    return {
        "catalog": (lambda: serialize_catalog(bad_catalog), "terms", None),
        "case": (lambda: write_case(replace(case, kind="D\x85")), "kind", None),
        "session": (lambda: save_session(session, str(session_path)), "license",
                    session_path),
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
