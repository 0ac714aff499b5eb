import os
import subprocess
import sys
from pathlib import Path

import yangbaxter
import yangbaxter.omega as omega
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


def test_suite_deterministic():
    a = theorem_suite(2)
    b = theorem_suite(2)
    assert a.entries == b.entries
    assert a.populations == b.populations


CORRUPT_CLOSED_FORM = """
import yangbaxter.omega as omega
real = omega._closed_form
# move every value of the closed form by one, so that it inverts nothing
omega._closed_form = lambda *args: tuple((v + 1) % len(t) for t in [real(*args)] for v in t)
"""


def test_suite_reports_corrupted_closed_form():
    scope = {}
    exec(CORRUPT_CLOSED_FORM, scope)
    try:
        report = theorem_suite(2)
    finally:
        omega._closed_form = scope["real"]
    assert report.entries["closed_form_diagonal_inverses"]["failures"]
    assert not report.ok()


def test_suite_reports_corrupted_closed_form_under_optimize():
    code = CORRUPT_CLOSED_FORM + (
        "import sys\n"
        "from yangbaxter import theorem_suite\n"
        "entry = theorem_suite(2).entries['closed_form_diagonal_inverses']\n"
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
