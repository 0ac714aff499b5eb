import os
import subprocess
import sys
from pathlib import Path

import pytest

import yangbaxter
from yangbaxter import theorem_suite


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
    # one {sigma, tau} build per solution feeds every verdict, and the
    # non-degenerate entries read those verdicts instead of deciding them
    # again; when each entry decided for itself this was 2,728 builds, 445
    # is_k_permutational and 298 is_k_reductive calls and 250 orbit
    # decompositions
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
    assert calls["_tower_levels"] <= 1600
    assert calls["is_k_permutational"] == calls["is_k_reductive"] == 0
    # the 71 non-degenerate solutions at n <= 3
    assert calls["orbit_decomposition"] <= 71


def test_suite_validates_each_qcycle_set_twice(monkeypatch):
    # once in check_qcycle_correspondence, which builds its round-trip
    # solution without validating again, and once in the suite's own
    # to_solution; when the correspondence check went through to_solution
    # this was 1,107 calls
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
    assert len(calls) == 2 * 369


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
