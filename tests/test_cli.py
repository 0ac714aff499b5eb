import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from yangbaxter import cli, search
from yangbaxter.cli import build_parser, main
from yangbaxter.documents import qcycle_to_document, save_document, solution_to_document
from yangbaxter.core import FiniteSolution, _held
from yangbaxter.fixtures import FIXTURE_FILES, fixture_path, left_only3, lyubashenko3
from yangbaxter.qcycle import from_solution
from yangbaxter.retract import retract_relation
from yangbaxter.search import EnumFilter, enumerate_solutions

ANALYZE_FLAGS = [
    "--diag", "--retract", "--mpl", "--mpl-prime", "--kperm", "--kred", "--star",
    "--qcycle", "--orbits", "--invert", "--json", "--max-k", "2",
]
# Exit codes and SHA-256 of the concatenated stdout of each group of runs in
# test_stdout_bytes_and_exit_codes_are_pinned.  Any change to the report
# shapes, key order, indentation or exit codes shows here.
GATE = {
    "analyze nd n=3": (
        (0,) * 66, "bd166648214be91b2ed4365fc9e01d58ff0478601bdcf05717c52037f1789b19"),
    "analyze fixtures": (
        (0, 0, 1, 0, 0, 1, 1), "f970ae1d17b3daf01fb814fdac394a83bf88eeeefc366a01ebdcee364693257b"),
    "analyze max-k 11": (
        (0,), "6625b23956e8b04e3ede7c40491c9e6e70097a29479ccad27cb4c88cc376375d"),
    "non-braid": (
        (1, 0, 1), "f5fb124ad7173b62ed3003bfc6ab51b5254dab83fd63c1b244680426e7472bd4"),
    "validate fixtures": (
        (0,) * 7, "f11296846d1ad80bb1b5bee4e07135fb7ee7dba77f1ac804d44f10ae8ba01e72"),
    "suite n-max 2": (
        (0,), "be398041949d2bf9a16ba662e1e9b9d0f4dc49fd302acca0ae55f84333c31556"),
    "suite n-max 3": (
        (0,), "5e5c238f7d8e12b9e822016701c467edb9032f0afdd40b2603267811a56188c5"),
    "suite n-max 4": (
        (0,), "0d15621ac67b9c8401881d013bc4cfec9c437184705bf112f3bc719d3126dad6"),
    "analyze nd n=3 omega-identities": (
        (0,) * 66, "4fad4ff0278a153024919519cef265d30bdd9f814dc579f478587610a5e74a06"),
    "enumerate 3 left-nd": (
        (0,), "b63d62d7f2de3c8333b4f9f4e53d5da8642051714d7f83cc676066f3a1c06142"),
    "analyze non-ASCII labels": (
        (0, 0), "f03c61026c9101e1d42c6356b3d74d52a08ef512368eeda172314540be46accb"),
    "enumerate 3 nd census": (
        (0,), "a8e171c4f1ed70b81a471aa57c85faf2aeb4a5ae33d98c4fcae27235da1db915"),
    "enumerate 3 nd check-frozen": (
        (0,), "60809ffd9019aeec3a2e302f5f8defd51cb54e44cb04014ffdcbb035406c56c5"),
    "enumerate 3 nd iso": (
        (0,), "9d48b9fa3464d686953613763c6d80463b4c834d778f19db8391d4ddf039ac73"),
    "enumerate 4 nd iso": (
        (0,), "de6338d9e344d2718899a93e9e140f37a022ade90592a3c274ea365d638e96b0"),
    "enumerate 4 nd census": (
        (0, 0, 0), "45f73a893a6d0ebb89b13367b86c4adea0157db9b9d9b96a9430315dae7675dd"),
    "enumerate 3 iso": (
        (0,) * 4, "d793824596cfaadb41db4387bc72f55f21041a163fb910ce0b2a23d74bf9bc83"),
    "enumerate 3 census": (
        (0,) * 4, "6fdb67dab8784c0b2ecb07d59e56669dd3808449003fc81c3161a44616c28509"),
    "enumerate 4 left-nd census": (
        (0,), "d2a103102e36a50caac76d72d363550a3977c8547c15beaee4ddce80621a7570"),
    "analyze nd n=4 iso": (
        (0,) * 253, "c2ab4ef0a21015d0a1d8136e1cb31ac93f86920a7733e9afa003157c875a5c80"),
    "analyze degenerate stderr": (
        (0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1),
        "254ed857f736750e6c8a63ff278befe18b4450f2a8860a5242c9f44a28b6fee0"),
}
# The analysis flags, each run alone and then all together on the degenerate
# fixtures, whose runs digest stderr too: the error type, message and witness
# of each refused flag are pinned.
DEGENERATE_FLAGS = [
    "--diag", "--retract", "--mpl", "--mpl-prime", "--kperm", "--kred", "--star",
    "--omega-identities", "--qcycle", "--orbits", "--invert",
]
# the filters of the n = 3 iso and census groups, all counted by the
# watch-list pass (the nd groups above go through derived racks)
N3_FILTERS = ([], ["--left-nd"], ["--right-nd"], ["--bijective"])
# Labels that the JSON escaper must spell out: non-ASCII letters, a quote, a
# backslash, control characters, a line separator and an astral character.
ESCAPED_LABELS = ["α\"ß", "\\é\t", "日本\u2028\x00😀"]


def _plain(obj):
    """obj as the values json.dumps takes: tuples as lists, a solution as its
    two tables and dict keys as strings."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, FiniteSolution):
        return {"sigma": _plain(obj.sigma), "tau": _plain(obj.tau)}
    return obj


# Shapes the gated runs do not reach; each is written by the report writer and
# by json.dumps(_plain(obj), indent=1, sort_keys=True).
WRITER_CORPUS = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {"f": []}}},
    [[[]], [{}]],
    {10: "ten", 2: "two", True: "true", None: "none", -1: [1, 2], 0.5: "half"},
    {1: "int first", "1": "str last"},
    ["ascii", "αβγ", 'quote " here', "back\\slash", "\x00\x01\x1f\x7f\n\r\t", "\u2028😀", ""],
    {"é": 1, "e": 2, "\"": 3},
    [0.1, 1e-07, -0.0, 1e300, float("nan"), float("inf"), float("-inf")],
    [True, False, None, 0, -7, 2**70, [True, 1, False, 0]],
    [(1, 2), [(3, (4, 5)), ()], ((),)],
    {"solution": FiniteSolution([[1, 0], [1, 0]], [[1, 0], [1, 0]]), "rows": (left_only3(),)},
    "top-level string",
    3,
    None,
]


@pytest.mark.parametrize("obj", WRITER_CORPUS)
def test_json_writer_matches_json_dumps(obj, capsys):
    cli._emit(obj, True)
    assert capsys.readouterr().out == json.dumps(_plain(obj), indent=1, sort_keys=True) + "\n"


def test_json_writer_rejects_other_types():
    for obj in ({1, 2}, {"levels": [frozenset()]}, [object()]):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._emit(obj, True)


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


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_over_deep_json_exits_2_without_traceback(command, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "yangbaxter.cli", command, str(deep)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert "ParseError" in run.stderr and "nests too deeply" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("argv", [["enumerate", "3", "--left-nd"], ["suite", "--n-max", "2", "--json"]])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the read end is closed before the command starts, so its first write
    # to stdout fails as it does under `| head -1`; asserts are stripped
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    try:
        run = subprocess.run([sys.executable, "-O", "-m", "yangbaxter.cli", *argv], env=env,
                             stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr and "BrokenPipeError" not in run.stderr, run.stderr


def test_validate_qcycle_document(capsys):
    assert main(["validate", str(fixture_path("qcycle_constant.json"))]) == 0
    assert "regular: False" in capsys.readouterr().out


def test_analyze_retract_incompatibility_exits_1(left_only3_path, capsys):
    assert main(["analyze", left_only3_path, "--retract"]) == 1
    err = capsys.readouterr().err
    assert "CompatibilityError" in err
    assert "(0, 0, 0, 1)" in err


def test_analyze_retract_and_mpl_incompatibility_exits_1(left_only3_path, capsys):
    # --retract retracts the degenerate input before --mpl asks for
    # non-degeneracy, so the incompatibility is what gets reported
    assert main(["analyze", left_only3_path, "--retract", "--mpl"]) == 1
    err = capsys.readouterr().err
    assert "CompatibilityError" in err
    assert "(0, 0, 0, 1)" in err


def test_analyze_walks_the_retract_tower_once(tmp_path, monkeypatch, capsys):
    retract_module = sys.modules["yangbaxter.retract"]
    orbits_module = sys.modules["yangbaxter.orbits"]
    calls = {"retract": 0, "retract_relation": 0, "orbit_decomposition": 0, "_orbit_partition": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # a held function is counted below its holder, where it computes, so
    # reads of a fact already held do not count
    for name in calls:
        fn = getattr(retract_module if hasattr(retract_module, name) else orbits_module, name)
        wrapped = getattr(fn, "__wrapped__", None)
        replacement = counted(name, fn) if wrapped is None else _held(counted(name, wrapped))
        for module in (retract_module, orbits_module, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, replacement)
    sols = list(enumerate_solutions(3, EnumFilter(require_nd=True)))
    heights = set()
    for sol in sols:
        path = tmp_path / "sol.json"
        save_document(path, solution_to_document(sol))
        steps = len(retract_module.retract_tower(sol))
        heights.add(steps)
        for name in calls:
            calls[name] = 0
        flags = ["--retract", "--mpl", "--mpl-prime", "--orbits", "--json"]
        assert main(["analyze", str(path), *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        blocks = retract_relation(sol, "forward").blocks()
        assert report["retract"]["blocks"] == [list(block) for block in blocks]
        # one retract (and its one forward relation) per tower step, and one
        # orbit partition without the suborbits of a full decomposition
        assert calls == {
            "retract": steps, "retract_relation": steps,
            "orbit_decomposition": 0, "_orbit_partition": 1,
        }
    assert len(sols) == 66 and len(heights) > 1


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
    # --out names a file, or a directory where the first document's path is
    # a directory
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["enumerate", "1", "--out", str(out)]) == 2
    assert "InputError" in capsys.readouterr().err
    assert out.read_text() == ""
    first = tmp_path / "out" / "sol_000000.json"
    first.mkdir(parents=True)
    assert main(["enumerate", "1", "--out", str(first.parent)]) == 2
    assert f"InputError: cannot write {first}" in capsys.readouterr().err
    assert first.is_dir() and not any(first.iterdir())


def test_enumerate_out_of_reach_leaves_no_out_directory(tmp_path, monkeypatch, capsys):
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(search, "_raw_stream", no_search)
    out = tmp_path / "d"
    assert main(["enumerate", "4", "--right-nd", "--out", str(out)]) == 2
    assert "SizeTooLarge" in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_census_check_frozen(capsys):
    assert main(["enumerate", "2", "--nd", "--census", "--check-frozen"]) == 0
    out = capsys.readouterr().out
    assert "raw: 4" in out
    assert "match" in out


def test_enumerate_check_frozen_cell_not_frozen(capsys):
    assert (2, "nd+bijective") not in search.load_frozen_census()
    assert main(["enumerate", "2", "--nd", "--bijective", "--check-frozen", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["frozen"] == "cell not frozen"


def test_enumerate_check_frozen_mismatch_exits_1(monkeypatch, capsys):
    frozen = search.load_frozen_census()
    frozen[(2, "nd")] = search.CensusResult(raw=5, iso=4)
    monkeypatch.setattr(search, "load_frozen_census", lambda: frozen)
    assert main(["enumerate", "2", "--nd", "--check-frozen", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["raw"], report["iso"]) == (4, 4)
    assert report["frozen"] == "MISMATCH expected raw=5 iso=4"


@pytest.mark.parametrize("label", list(EnumFilter.labels()))
def test_enumerate_filter_flag_reports_its_label(label, capsys):
    # the filter flags are made from the EnumFilter labels
    assert main(["enumerate", "2", "--" + label.replace("_", "-"), "--census", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["filter"] == label


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


@pytest.mark.parametrize("census_flag", [[], ["--census"]], ids=["stream", "census"])
@pytest.mark.parametrize(
    "flags", [[], ["--right-nd"], ["--bijective"], ["--involutive"], ["--square-free"]]
)
def test_enumerate_n4_without_left_permutation_rows_exits_2(flags, census_flag, monkeypatch, capsys):
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(search, "_raw_stream", no_search)
    assert main(["enumerate", "4", *flags, *census_flag]) == 2
    captured = capsys.readouterr()
    assert "SizeTooLarge" in captured.err and "without left permutation rows stops at 3" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("argv", [["enumerate", "2"], ["enumerate", "2", "--census"], ["suite"]])
def test_workers_below_1_exits_2(argv, workers, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(search, "_raw_stream", no_work)
    monkeypatch.setattr(cli, "census", no_work)
    monkeypatch.setattr(cli, "theorem_suite", no_work)
    assert main([*argv, "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert f"--workers must be >= 1, got {workers}" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["enumerate", "3", "--left-nd", "--census", "--json"],
    ["enumerate", "3", "--left-nd", "--iso"],
    ["suite", "--n-max", "2", "--json"],
])
def test_workers_has_no_effect(argv, capsys):
    def run(extra):
        status = main([*argv, *extra])
        out = capsys.readouterr().out
        if argv[0] == "suite":
            payload = json.loads(out)
            del payload["elapsed_seconds"]
            out = json.dumps(payload, sort_keys=True)
        return status, out

    assert run(["--workers", "2"]) == run([])


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


def test_parser_is_built_on_first_use_not_at_import():
    code = "import yangbaxter.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "0"


def test_calls_are_independent_under_the_shared_parser(capsys):
    path = str(fixture_path("lyubashenko3.json"))
    assert main(["analyze", path, "--mpl", "--json"]) == 0
    assert "mpl" in json.loads(capsys.readouterr().out)
    assert main(["analyze", path, "--json"]) == 0
    plain = capsys.readouterr().out
    assert "mpl" not in json.loads(plain)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", path, "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["analyze", path, "--json"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("command", [[], ["validate"], ["analyze"], ["enumerate"], ["suite"]])
def test_help_matches_a_freshly_built_parser(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser.__wrapped__().parse_args([*command, "--help"])
    assert exc.value.code == 0
    fresh = capsys.readouterr().out
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == fresh


# Command lines for the parse parity test, F standing for a fixture document:
# help and usage errors at the top level and in each command, leftovers, "--",
# abbreviations and bad values.
PARSE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["Analyze", "F"],
    ["-x", "analyze", "F"],
    ["--json", "analyze", "F"],
    ["analyze"],
    ["analyze", "-h"],
    ["analyze", "F", "-h"],
    ["analyze", "F", "--h"],
    ["analyze", "F", "--no-such-flag"],
    ["analyze", "F", "--max-k", "x"],
    ["analyze", "F", "--max-k"],
    ["analyze", "F", "--max-k", "-1"],
    ["analyze", "F", "--json", "extra"],
    ["analyze", "F", "--json", "extra", "--nope"],
    ["analyze", "--", "F", "--json"],
    ["analyze", "--json", "--", "F"],
    ["analyze", "F", "--ma", "2", "--kperm"],
    ["analyze", "F", "--kred", "--max-k=1", "--json", "--json"],
    ["analyze", "--json", "F", "--star"],
    ["analyze", "no-such-file.json"],
    ["validate", "F", "--json", "--nope", "x"],
    ["validate", "F"],
    ["validate"],
    ["enumerate", "x"],
    ["enumerate", "2", "--census", "--json"],
    ["enumerate", "2", "--census", "--workers", "0"],
    ["suite", "-h"],
    ["suite", "--n"],
    ["suite", "--n-max", "0"],
]


def _outcome(run, argv, capsys):
    """Exit code, stdout and stderr of run(argv), whether it returns or exits."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", PARSE_CASES, ids=" ".join)
def test_one_parse_matches_the_top_level_parse(case, capsys):
    argv = [str(fixture_path("lyubashenko3.json")) if a == "F" else a for a in case]

    def reference(argv):
        return cli._run(build_parser.__wrapped__().parse_args(argv))

    expected = _outcome(reference, argv, capsys)
    assert _outcome(main, argv, capsys) == expected
    # a second call reuses the cached parser
    assert _outcome(main, argv, capsys) == expected


def test_each_command_line_is_parsed_once(monkeypatch, capsys):
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert main(["analyze", str(fixture_path("lyubashenko3.json")), "--json"]) == 0
    assert parsers == ["yangbaxter analyze"]
    assert json.loads(capsys.readouterr().out)["n"] == 3


def test_stdout_bytes_and_exit_codes_are_pinned(tmp_path, capsys):
    fixtures = [str(fixture_path(name)) for name in FIXTURE_FILES]
    nd3 = []
    for i, sol in enumerate(enumerate_solutions(3, EnumFilter(require_nd=True))):
        nd3.append(str(tmp_path / f"nd3_{i:02d}.json"))
        save_document(nd3[-1], solution_to_document(sol))
    # one document per n = 4 non-degenerate class, as the benchmark's analyze runs
    nd4_iso = []
    for i, sol in enumerate(enumerate_solutions(4, EnumFilter(require_nd=True, up_to_iso=True))):
        nd4_iso.append(str(tmp_path / f"nd4_iso_{i:03d}.json"))
        save_document(nd4_iso[-1], solution_to_document(sol))
    non_braid = str(tmp_path / "non_braid.json")
    save_document(non_braid, {
        "format_version": 1, "kind": "solution", "n": 2,
        "sigma": [[0, 1], [1, 0]], "tau": [[0, 1], [0, 1]],
    })
    no_qcycle = [f for f in ANALYZE_FLAGS if f != "--qcycle"]
    labelled = [str(tmp_path / "labelled_solution.json"), str(tmp_path / "labelled_qcycle.json")]
    save_document(labelled[0], solution_to_document(lyubashenko3(), ESCAPED_LABELS))
    swap12 = FiniteSolution([[0, 1, 2]] * 3, [[0, 1, 2], [0, 2, 1], [0, 2, 1]])
    save_document(labelled[1], qcycle_to_document(from_solution(swap12), ESCAPED_LABELS))
    groups = {
        "analyze nd n=3": [["analyze", p, *ANALYZE_FLAGS] for p in nd3],
        "analyze fixtures": [
            ["analyze", p, *ANALYZE_FLAGS, "--omega-identities"] for p in fixtures
        ],
        "analyze max-k 11": [
            ["analyze", str(fixture_path("lyubashenko3.json")), "--kperm", "--kred",
             "--max-k", "11", "--json"],
        ],
        "non-braid": [
            ["validate", non_braid, "--json"],
            ["analyze", non_braid, *no_qcycle, "--omega-identities"],
            ["analyze", non_braid, *ANALYZE_FLAGS],
        ],
        "validate fixtures": [["validate", p, "--json"] for p in fixtures],
        "suite n-max 2": [["suite", "--n-max", "2", "--json"]],
        "suite n-max 3": [["suite", "--n-max", "3", "--json"]],
        "suite n-max 4": [["suite", "--n-max", "4", "--json"]],
        "analyze nd n=3 omega-identities": [
            ["analyze", p, "--omega-identities", "--max-k", "3", "--json"] for p in nd3
        ],
        "enumerate 3 left-nd": [["enumerate", "3", "--left-nd"]],
        "analyze non-ASCII labels": [
            ["analyze", p, *ANALYZE_FLAGS, "--omega-identities"] for p in labelled
        ],
        "enumerate 3 nd census": [["enumerate", "3", "--nd", "--census", "--json"]],
        "enumerate 3 nd check-frozen": [["enumerate", "3", "--nd", "--check-frozen", "--json"]],
        "enumerate 3 nd iso": [["enumerate", "3", "--nd", "--iso"]],
        "enumerate 4 nd iso": [["enumerate", "4", "--nd", "--iso"]],
        "enumerate 4 nd census": [
            ["enumerate", "4", "--nd", *extra, "--census", "--json"]
            for extra in ([], ["--involutive"], ["--square-free"])
        ],
        "enumerate 3 iso": [["enumerate", "3", *f, "--iso"] for f in N3_FILTERS],
        "enumerate 3 census": [["enumerate", "3", *f, "--census", "--json"] for f in N3_FILTERS],
        "enumerate 4 left-nd census": [["enumerate", "4", "--left-nd", "--census", "--json"]],
        "analyze nd n=4 iso": [["analyze", p, *ANALYZE_FLAGS] for p in nd4_iso],
        "analyze degenerate stderr": [
            ["analyze", str(fixture_path(name)), *flags, "--json"]
            for name in ("left_only3.json", "qcycle_constant.json")
            for flags in ([[f] for f in DEGENERATE_FLAGS] + [DEGENERATE_FLAGS])
        ],
    }
    observed = {}
    for name, runs in groups.items():
        codes, digest = [], hashlib.sha256()
        for argv in runs:
            codes.append(main(argv))
            out, err = capsys.readouterr()
            if argv[0] == "suite":
                out = re.sub(r'^ "elapsed_seconds": .*\n', "", out, count=1, flags=re.M)
            if "11" in argv:
                # levels are keyed by strings, so 10 and 11 sort before 2
                assert out.index('"10"') < out.index('"2"')
            digest.update(out.encode())
            digest.update(b"\0")
            if name == "analyze degenerate stderr":
                digest.update(err.encode())
                digest.update(b"\0")
        observed[name] = (tuple(codes), digest.hexdigest())
    assert observed == GATE
