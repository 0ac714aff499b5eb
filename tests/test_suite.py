import os
import subprocess
import sys
from pathlib import Path

import pytest

import yangbaxter
from yangbaxter import theorem_suite
from yangbaxter.core import _held


def test_suite_n1_trivially_green():
    report = theorem_suite(1)
    assert report.ok()
    assert report.populations[1]["count"] == 1


def test_suite_n2_complete_population_green():
    report = theorem_suite(2)
    assert report.ok(), report.entries
    assert report.populations[2] == {"filter": "none", "count": 43}
    # every battery entry actually ran
    for name in (
        "braid_routes_agree",
        "nondegenerate_is_bijective",
        "diagonal_inverse_pairs",
        "diagonals_commute",
        "retract_relations_coincide",
        "retract_duality",
        "multipermutation_level_tower_equivalences",
        "reductivity_descends_to_retract",
        "reductivity_pins_mpl_prime",
        "orbits_of_reductive_are_permutational",
        "qcycle_round_trip",
        "omega_rewriting_identities",
    ):
        assert report.entries[name]["checked"] > 0, name
        assert report.entries[name]["failures"] == [], name


def test_suite_records_open_question_observations():
    report = theorem_suite(2)
    obs = report.observations["colon_quotient_rows_invertible"]
    assert obs["yes"] + obs["no"] > 0
    # nobody has an example where forward and inverse relations differ; the
    # suite looks for one and records what it finds without asserting
    assert "forward_vs_inverse_relation" not in report.observations or isinstance(
        report.observations["forward_vs_inverse_relation"], list
    )


def test_suite_walks_each_retract_tower_once(monkeypatch):
    # the 71 non-degenerate n <= 3 solutions have 107 tower steps in all; the
    # suite walks each tower once for itself and check_retract_duality walks
    # only the inverse's, so a second walk of the same tower shows as 321
    retract_module = sys.modules["yangbaxter.retract"]
    real, calls = retract_module.retract, []
    monkeypatch.setattr(retract_module, "retract", lambda sol: calls.append(sol) or real(sol))
    report = theorem_suite(3)
    assert report.ok()
    assert len(calls) == 214


def test_suite_decides_each_tower_fact_once(monkeypatch):
    # each alphabet is built once per solution and held, so one {sigma, tau}
    # build feeds every verdict and the battery's drop_base, and one
    # {sigma, sigma_inv, tau, tau_inv} build the battery and the
    # multipermutation entry; the non-degenerate entries read the verdicts
    # instead of deciding them again.  When each entry decided for itself
    # this was 2,728 builds, 445 is_k_permutational and 298 is_k_reductive
    # calls and 250 orbit decompositions; 1,573 builds when the battery
    # built its own {sigma, tau} maps, and 1,116 when it built its own
    # alphabet in another order than the multipermutation entry's
    omega_module = sys.modules["yangbaxter.omega"]
    calls = {"_tower_levels": 0, "is_k_permutational": 0, "is_k_reductive": 0,
             "orbit_decomposition": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (omega_module, sys.modules["yangbaxter.orbits"], sys.modules["yangbaxter.suite"]):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    report = theorem_suite(3)
    assert report.ok()
    assert calls["_tower_levels"] <= 1026
    assert calls["is_k_permutational"] == calls["is_k_reductive"] == 0
    # the 71 non-degenerate solutions at n <= 3
    assert calls["orbit_decomposition"] <= 71


def test_suite_decides_each_solution_fact_once(monkeypatch):
    # the braid check, each row-inverse table, each compatibility witness,
    # the q-cycle set and the star conditions are held on the solution they
    # are about, so the entries that read one of them again read the held
    # value: the q-cycle round trip reads the solution's braid check and
    # q-cycle set, check_inverse the inverse's braid check, which its
    # properties read, and the non-degenerate entries the star verdict of
    # the universal battery.  When each reader decided for itself this was
    # 1,380 literal braid checks, 1,576 row-inverse tables, 2,018
    # compatibility walks, 738 q-cycle sets and 468 star verdicts
    calls = {"validate_braid": 0, "_inverse_rows": 0, "_first_incompatible": 0, "from_solution": 0,
             "check_star_conditions": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("yangbaxter."):
            for name in ("validate_braid", "_inverse_rows", "_first_incompatible"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    # the held q-cycle set and star verdict are counted below their holder,
    # where they compute
    qcycle_module = sys.modules["yangbaxter.qcycle"]
    from_solution = _held(counted("from_solution", qcycle_module.from_solution.__wrapped__))
    for module in (qcycle_module, sys.modules["yangbaxter.suite"]):
        monkeypatch.setattr(module, "from_solution", from_solution)
    omega_module = sys.modules["yangbaxter.omega"]
    star = _held(counted("check_star_conditions", omega_module.check_star_conditions.__wrapped__))
    for module in (omega_module, sys.modules["yangbaxter.suite"]):
        monkeypatch.setattr(module, "check_star_conditions", star)
    report = theorem_suite(3)
    assert report.ok()
    # 398 solutions, 72 bijective inverses and 71 retract quotients
    assert calls["validate_braid"] <= 541
    assert calls["_inverse_rows"] <= 521
    assert calls["_first_incompatible"] <= 1521
    # the 1 + 14 + 354 left non-degenerate solutions at n <= 3
    assert calls["from_solution"] == 369
    # one star verdict per solution
    assert calls["check_star_conditions"] == 398


def _witness_count(result):
    """The witnesses in a tower decider's result: {k: (holds, witness)}, a
    pair of those, or {k: failures} of reductive_inverse_start_levels, where
    the failures of one tower map share its path."""
    if isinstance(result, tuple):
        return sum(map(_witness_count, result))
    count = 0
    for value in result.values():
        if isinstance(value, list):
            count += len({(word[1:], zs[1:]) for word, _, zs in value})
        else:
            count += value[1] is not None
    return count


def test_suite_traces_paths_only_for_witnesses(monkeypatch):
    # every tower map carries its scalar fold through the identity battery,
    # so a path is traced only for a witness the deciders return (the
    # battery's permutational level bound traces none, and it reports no
    # failure), and the battery folds a word only for inverse_seed; when it
    # traced and folded every map afresh this was 13,575 _tower_path calls
    # (2,950 now) and 36,068 _eval calls in the battery (7,908 now)
    omega_module = sys.modules["yangbaxter.omega"]
    calls = {"_tower_path": 0, "_eval": 0}
    expected = {"_tower_path": 0, "_eval": 0}
    in_battery = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "_tower_path" or in_battery:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def battery(fn):
        def wrapper(*args, **kwargs):
            in_battery.append(True)
            try:
                report = fn(*args, **kwargs)
            finally:
                in_battery.pop()
            expected["_eval"] += sum(
                v["checked"] for name, v in report.items() if name.startswith("inverse_seed")
            )
            return report
        return wrapper

    def deciding(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            expected["_tower_path"] += _witness_count(result)
            return result
        return wrapper

    for name in calls:
        monkeypatch.setattr(omega_module, name, counted(name, getattr(omega_module, name)))
    suite_module, orbits_module = sys.modules["yangbaxter.suite"], sys.modules["yangbaxter.orbits"]
    monkeypatch.setattr(
        suite_module, "check_omega_identities", battery(suite_module.check_omega_identities)
    )
    deciders = {
        suite_module: ("tower_verdicts", "permutational_levels", "reductive_levels",
                       "reductive_inverse_start_levels"),
        orbits_module: ("permutational_levels",),
    }
    for module, names in deciders.items():
        for name in names:
            # a held decider is counted below its holder, where it computes
            # and traces, so a read of a verdict already held adds no witness
            fn = getattr(module, name)
            wrapped = getattr(fn, "__wrapped__", None)
            replacement = deciding(fn) if wrapped is None else _held(deciding(wrapped))
            monkeypatch.setattr(module, name, replacement)
    # is_k_reductive decides every height below k and returns one witness
    monkeypatch.setattr(orbits_module, "is_k_reductive", None)
    report = theorem_suite(3)
    assert report.ok()
    assert expected["_tower_path"] > 0 and expected["_eval"] > 0
    assert calls == expected


def test_suite_validates_each_qcycle_set_once(monkeypatch):
    # only in check_qcycle_correspondence, which builds the round trip
    # without validating again
    qcycle = sys.modules["yangbaxter.qcycle"]
    calls = []
    validate_qcycle = qcycle.validate_qcycle

    def counted(q):
        calls.append(q)
        return validate_qcycle(q)

    monkeypatch.setattr(qcycle, "validate_qcycle", counted)
    report = theorem_suite(3)
    assert report.ok()
    # the 1 + 14 + 354 left non-degenerate solutions at n <= 3
    assert len(calls) == 369


def test_suite_deterministic():
    a = theorem_suite(2)
    b = theorem_suite(2)
    assert a.entries == b.entries
    assert a.populations == b.populations


# Each corruption swaps one library function (looked up where the suite or
# the check calls it) for a wrong one; the suite must report it under the
# named entry, also under python -O, where no assert runs.
CORRUPTIONS = {
    "closed_form_diagonal_inverses": """
import yangbaxter.omega as target
name = "_closed_form"
real = target._closed_form
# move every value of the closed form by one, so that it inverts nothing
target._closed_form = lambda *args: tuple((v + 1) % len(t) for t in [real(*args)] for v in t)
""",
    "invert_is_involution": """
import yangbaxter.suite as target
name = "invert"
real = target.invert
# hand the solution back as its own inverse: inverting twice still returns
# the input, so only check_inverse can tell on a non-involutive solution
target.invert = lambda sol: sol
""",
    "braid_routes_agree": """
import yangbaxter.core as target
name = "_component_identities"
real = target._component_identities
target._component_identities = lambda *args: not real(*args)
""",
    "qcycle_round_trip": """
import yangbaxter.suite as target
from yangbaxter.qcycle import QCycleSet
name = "from_solution"
real = target.from_solution
# move every colon entry by one: the translation then breaks an axiom or the
# round trip, which the suite must record rather than raise
target.from_solution = lambda sol: QCycleSet(
    real(sol).dot, [[(v + 1) % sol.n for v in row] for row in real(sol).colon]
)
""",
}


@pytest.mark.parametrize("entry", sorted(CORRUPTIONS))
def test_suite_reports_corruption(entry):
    scope = {}
    exec(CORRUPTIONS[entry], scope)
    try:
        report = theorem_suite(2)
    finally:
        setattr(scope["target"], scope["name"], scope["real"])
    assert report.entries[entry]["failures"]
    assert not report.ok()


@pytest.mark.parametrize("entry", sorted(CORRUPTIONS))
def test_suite_reports_corruption_under_optimize(entry):
    code = CORRUPTIONS[entry] + (
        "import sys\n"
        "from yangbaxter import theorem_suite\n"
        f"entry = theorem_suite(2).entries[{entry!r}]\n"
        "print(sys.flags.optimize, len(entry['failures']))\n"
    )
    src = str(Path(yangbaxter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    optimize, failures = map(int, proc.stdout.split())
    assert optimize == 1 and failures > 0
