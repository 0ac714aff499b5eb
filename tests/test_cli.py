import json

import pytest

from yangbaxter import search
from yangbaxter.cli import main
from yangbaxter.documents import save_document, solution_to_document
from yangbaxter.fixtures import fixture_path, left_only3


@pytest.fixture
def left_only3_path():
    return str(fixture_path("left_only3.json"))


def test_validate_ok(left_only3_path, capsys):
    assert main(["validate", left_only3_path]) == 0
    out = capsys.readouterr().out
    assert "right_nondegenerate: False" in out


def test_validate_json_output(left_only3_path, capsys):
    assert main(["validate", left_only3_path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["braid_ok"] is True
    assert report["right_nondegenerate"] is False
    assert report["labels"] == ["a", "b", "c"]


def test_validate_braid_violation_exits_1(tmp_path, capsys):
    doc = solution_to_document(left_only3())
    doc["tau"][0][0] = 0  # breaks the braid relation
    path = tmp_path / "broken.json"
    save_document(path, doc)
    assert main(["validate", str(path)]) == 1
    assert "braid_violations" in capsys.readouterr().out


def test_validate_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert main(["validate", str(path)]) == 2
    path.write_text(json.dumps({"format_version": 99, "n": 1, "sigma": [[0]], "tau": [[0]]}))
    assert main(["validate", str(path)]) == 2


def test_validate_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["validate", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_validate_qcycle_document(capsys):
    assert main(["validate", str(fixture_path("qcycle_constant.json"))]) == 0
    assert "regular: False" in capsys.readouterr().out


def test_analyze_retract_incompatibility_exits_1(left_only3_path, capsys):
    assert main(["analyze", left_only3_path, "--retract"]) == 1
    err = capsys.readouterr().err
    assert "CompatibilityError" in err
    assert "(0, 0, 0, 1)" in err


def test_analyze_mpl(capsys):
    assert main(["analyze", str(fixture_path("lyubashenko3.json")), "--mpl", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mpl"] == 1


def test_analyze_mpl_needs_nondegeneracy(left_only3_path, capsys):
    assert main(["analyze", left_only3_path, "--mpl"]) == 1
    assert "NotNondegenerate" in capsys.readouterr().err


def test_analyze_kperm_z3group(capsys):
    assert main(
        ["analyze", str(fixture_path("z3group.json")), "--kperm", "--max-k", "4", "--json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    levels = report["k_permutational"]
    assert all(levels[str(k)]["holds"] is False for k in range(1, 5))


def test_analyze_diag_z3group_constant_diagonal(capsys):
    assert main(["analyze", str(fixture_path("z3group.json")), "--diag", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagonals"]["U"] == [0, 0, 0]
    assert report["diagonals"]["T"] is None


def test_analyze_combined_flags(capsys):
    path = str(fixture_path("lyubashenko3.json"))
    code = main(
        ["analyze", path, "--diag", "--retract", "--mpl-prime", "--kred", "--qcycle",
         "--orbits", "--invert", "--star", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mpl_prime"] == 1
    assert report["retract"]["quotient_n"] == 1
    assert report["qcycle"]["round_trip_ok"] is True
    assert report["orbits"]["decomposable"] is False
    assert report["k_reductive"]["2"]["holds"] is True


def test_enumerate_writes_documents(tmp_path, capsys):
    out = tmp_path / "docs"
    assert main(["enumerate", "1", "--out", str(out)]) == 0
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["sol_000000.json"]
    assert "wrote 1 documents" in capsys.readouterr().out


def test_enumerate_out_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["enumerate", "1", "--out", str(out)]) == 2
    assert "InputError" in capsys.readouterr().err
    assert out.read_text() == ""


def test_enumerate_census_check_frozen(capsys):
    assert main(["enumerate", "2", "--nd", "--census", "--check-frozen"]) == 0
    out = capsys.readouterr().out
    assert "raw: 4" in out
    assert "match" in out


def test_enumerate_census_left_nd_n3(capsys):
    assert main(["enumerate", "3", "--left-nd", "--census", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["raw"] == 354
    assert report["iso"] == 90


def test_enumerate_size_limit_exits_2(capsys):
    assert main(["enumerate", "9"]) == 2
    assert "SizeTooLarge" in capsys.readouterr().err


def test_enumerate_nd_above_bound_exits_2(monkeypatch, capsys):
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(search, "_raw_stream", no_search)
    assert main(["enumerate", "5", "--nd"]) == 2
    captured = capsys.readouterr()
    assert "SizeTooLarge" in captured.err and "non-degenerate search at 4" in captured.err


def test_suite_n1_and_n2(capsys):
    assert main(["suite", "--n-max", "1"]) == 0
    out = capsys.readouterr().out
    assert "counterexamples: 0" in out
    assert main(["suite", "--n-max", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counterexamples"] == 0
    assert report["populations"]["2"]["count"] == 43


def test_suite_n_max_above_bound_exits_2(capsys):
    assert main(["suite", "--n-max", "5"]) == 2
    assert "n_max" in capsys.readouterr().err


def test_suite_n_max_zero_exits_2(capsys):
    assert main(["suite", "--n-max", "0"]) == 2
    captured = capsys.readouterr()
    assert "n_max" in captured.err and captured.out == ""


def test_analyze_negative_max_k_exits_2(left_only3_path, capsys):
    assert main(["analyze", left_only3_path, "--kperm", "--max-k", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--max-k" in captured.err and captured.out == ""
