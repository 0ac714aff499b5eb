import json

import pytest

from yangbaxter import MalformedTable, ParseError
from yangbaxter.documents import (
    load_document,
    parse_document,
    qcycle_to_document,
    save_document,
    solution_to_document,
)
from yangbaxter.fixtures import (
    FIXTURE_FILES,
    fixture_path,
    left_only3,
    lyubashenko3,
    qcycle_constant,
)


def test_solution_document_round_trip(tmp_path):
    doc = solution_to_document(left_only3(), labels=["a", "b", "c"])
    path = tmp_path / "sol.json"
    save_document(path, doc)
    kind, obj, labels = load_document(path)
    assert kind == "solution"
    assert obj == left_only3()
    assert labels == ("a", "b", "c")
    # emitting the parsed object reproduces the document exactly
    assert solution_to_document(obj, labels=labels) == doc


def test_qcycle_document_round_trip(tmp_path):
    doc = qcycle_to_document(qcycle_constant())
    path = tmp_path / "q.json"
    save_document(path, doc)
    kind, obj, labels = load_document(path)
    assert kind == "qcycle"
    assert obj == qcycle_constant()
    assert labels is None
    assert qcycle_to_document(obj) == doc


def test_kind_inferred_from_table_names():
    doc = qcycle_to_document(qcycle_constant())
    del doc["kind"]
    kind, obj, _ = parse_document(doc)
    assert kind == "qcycle"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_document([])
    with pytest.raises(ParseError):
        parse_document({"format_version": 2, "n": 1, "sigma": [[0]], "tau": [[0]]})
    with pytest.raises(ParseError):
        parse_document({"format_version": 1, "n": 0, "sigma": [], "tau": []})
    with pytest.raises(ParseError):
        parse_document({"format_version": 1, "n": 2, "sigma": [[0, 1]], "tau": [[0, 1], [0, 1]]})
    with pytest.raises(ParseError):
        parse_document(
            {
                "format_version": 1,
                "n": 2,
                "sigma": [[0, 1], [0, 1]],
                "tau": [[0, 1], [0, 1]],
                "labels": ["a", "a"],
            }
        )


def test_out_of_range_entries_are_malformed():
    with pytest.raises(MalformedTable):
        parse_document(
            {"format_version": 1, "n": 2, "sigma": [[0, 2], [0, 1]], "tau": [[0, 1], [0, 1]]}
        )


def test_unreadable_file(tmp_path):
    with pytest.raises(ParseError):
        load_document(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_document(bad)
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(ParseError):
        load_document(bad)


def test_over_deep_json_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ParseError, match="nests too deeply"):
        load_document(deep)


def test_integer_past_the_digit_limit_is_a_parse_error(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"format_version": 1, "n": ' + "9" * 5000 + "}")
    with pytest.raises(ParseError, match="cannot decode .*big.json"):
        load_document(big)


def test_shipped_fixture_documents_match_builders():
    kind, obj, labels = load_document(fixture_path("left_only3.json"))
    assert kind == "solution" and obj == left_only3() and labels == ("a", "b", "c")
    kind, obj, _ = load_document(fixture_path("lyubashenko3.json"))
    assert obj == lyubashenko3()
    kind, obj, _ = load_document(fixture_path("qcycle_constant.json"))
    assert kind == "qcycle" and obj == qcycle_constant()
    for name in FIXTURE_FILES:
        load_document(fixture_path(name))


def test_fixture_path_unknown_name():
    with pytest.raises(FileNotFoundError):
        fixture_path("nope.json")


def test_documents_stable_json(tmp_path):
    doc = solution_to_document(lyubashenko3())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_document(p1, doc)
    save_document(p2, doc)
    assert p1.read_text() == p2.read_text()
    assert json.loads(p1.read_text()) == doc
