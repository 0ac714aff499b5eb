"""Machine verification of every checkable claim over complete populations.

The suite enumerates whole populations of small solutions (every braid-valid
pair at n <= 2, the complete left non-degenerate population at n = 3, and
optionally the complete non-degenerate population at n = 4 for the
bijectivity and diagonal claims) and replays each claim on every instance
whose hypotheses it meets.  Zero counterexamples is the expected outcome;
any failure is attached verbatim to the report.

Two entries are observations rather than claims: nobody knows an instance
where the forward and inverse relations differ, and nobody knows whether the
colon-relation quotient of a regular q-cycle set keeps invertible rows, so
the suite reports what it finds there without asserting anything.
"""

import time
from dataclasses import dataclass, field

from .core import (
    _braid_violations,
    check_braid_routes,
    check_inverse,
    invert,
    is_permutation,
    left_nondegenerate,
    perm_inverse,
    properties,
    right_nondegenerate,
)
from .diagonals import check_diagonal_identities, check_diagonal_theorems, diagonal_maps
from .errors import ClosedFormMismatch, SizeTooLarge, SymbolUnavailable
from .omega import (
    FULL_ALPHABET,
    SIGMA,
    SIGMA_HAT,
    SIGMA_HAT_INV,
    SIGMA_INV,
    TAU,
    TAU_HAT,
    TAU_INV,
    check_omega_identities,
    check_star_conditions,
    closed_form_inverse,
    permutational_levels,
    reductive_inverse_start_levels,
    reductive_levels,
    tower_verdicts,
)
from .orbits import orbit_decomposition, orbit_theorem_levels
from .qcycle import (
    check_qcycle_correspondence,
    from_solution,
    is_regular,
    qcycle_diagonals,
)
from .retract import (
    check_compatibility,
    check_relation_coincidence,
    check_retract,
    check_retract_duality,
    is_trivial,
    retract_levels,
    retract_relation,
    retract_tower,
)
from .search import EnumFilter, enumerate_solutions

K_PERM_MAX = 3
K_RED_MAX = 4
OMEGA_IDENTITY_MAX_M = 3


@dataclass
class SuiteReport:
    n_max: int
    populations: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)
    observations: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def record(self, name, failures=(), checked=1):
        entry = self.entries.setdefault(name, {"checked": 0, "failures": []})
        entry["checked"] += checked
        entry["failures"].extend(failures)

    def counterexamples(self):
        return sum(len(e["failures"]) for e in self.entries.values())

    def ok(self):
        return self.counterexamples() == 0

    def lines(self):
        out = []
        for name in sorted(self.entries):
            e = self.entries[name]
            verdict = "pass" if not e["failures"] else f"FAIL ({len(e['failures'])} counterexamples)"
            out.append(f"{name}: checked {e['checked']}, {verdict}")
        return out


def _is_distributive(sol):
    n = sol.n
    s, t = sol.sigma, sol.tau
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if s[y][s[x][z]] != s[s[y][x]][s[y][z]]:
                    return False
                if t[y][t[x][z]] != t[t[y][x]][t[y][z]]:
                    return False
    return True


def _payload(sol, detail):
    return {"sigma": sol.sigma, "tau": sol.tau, "detail": detail}


def _tower_holds(sol):
    """({k: holds}, {k: holds}) of the tower verdicts the suite reads."""
    verdicts = tower_verdicts(sol, K_PERM_MAX, K_RED_MAX)
    return [{k: holds for k, (holds, _) in levels.items()} for levels in verdicts]


def _check_universal(sol, report):
    """Claims whose hypotheses any braid-valid solution meets."""
    props = properties(sol)
    bad = [] if props.braid_ok else [_payload(sol, v) for v in _braid_violations(sol)]
    bad.extend(_payload(sol, ("routes disagree", v)) for v in check_braid_routes(sol))
    report.record("braid_routes_agree", bad)

    perm, red = _tower_holds(sol)

    bad = [k for k in range(1, K_PERM_MAX + 1) if red[k] and not perm[k]]
    report.record("reductive_implies_permutational", [_payload(sol, k) for k in bad])

    bad = [k for k in range(0, K_PERM_MAX) if perm[k] and not red[k + 1]]
    report.record("permutational_implies_next_reductive", [_payload(sol, k) for k in bad])

    if props.square_free:
        bad = [k for k in range(1, K_PERM_MAX + 1) if perm[k] and not red[k]]
        report.record("square_free_permutational_is_reductive", [_payload(sol, k) for k in bad])

    star_ok, _, _ = check_star_conditions(sol)
    if star_ok:
        bad = [k for k in range(1, K_PERM_MAX + 1) if perm[k] != red[k]]
        report.record("star_permutational_iff_reductive", [_payload(sol, k) for k in bad])

    # in FULL_ALPHABET order, as the multipermutation entry reads this build
    symbols = [SIGMA, TAU]
    if props.left_nondegenerate:
        symbols.insert(1, SIGMA_INV)
    if props.right_nondegenerate:
        symbols.append(TAU_INV)
    omega = check_omega_identities(sol, OMEGA_IDENTITY_MAX_M, symbols=tuple(symbols))
    failures = []
    for name, result in omega.items():
        if isinstance(result, dict) and result["failures"]:
            failures.append(_payload(sol, (name, result["failures"][:3])))
    report.record("omega_rewriting_identities", failures)


def _check_bijective(sol, report):
    props = properties(sol)
    inv = invert(sol)
    bad = [_payload(sol, f) for f in check_inverse(sol, inv)]
    if invert(inv) != sol:
        bad.append(_payload(sol, "double inverse differs"))
    report.record("invert_is_involution", bad)
    inv_props = properties(inv)
    report.record(
        "inverse_nondegenerate_iff",
        []
        if props.nondegenerate == inv_props.nondegenerate
        else [_payload(sol, (props.nondegenerate, inv_props.nondegenerate))],
    )
    forward = retract_relation(sol, "forward")
    inverse = retract_relation(sol, "inverse")
    if forward.block_of != inverse.block_of:
        self_obs = report.observations.setdefault("forward_vs_inverse_relation", [])
        self_obs.append(_payload(sol, (forward.block_of, inverse.block_of)))


def _check_left_nd(sol, report):
    props = properties(sol)
    # when the forward relation respects the inverse left action and the
    # colon relation respects the left action, the two relations are equal
    forward = retract_relation(sol, "forward")
    colon = retract_relation(sol, "colon")
    forward_sigma_inv = check_compatibility(sol, forward, SIGMA_INV) is None
    if forward_sigma_inv and check_compatibility(sol, colon, SIGMA) is None:
        report.record(
            "compatible_relations_are_equal",
            []
            if forward.block_of == colon.block_of
            else [_payload(sol, (forward.block_of, colon.block_of))],
        )
    if props.bijective:
        # forward compatibility with the inverse left action and the right
        # action extends to the inverted-solution left rows
        if forward_sigma_inv and check_compatibility(sol, forward, TAU) is None:
            w = check_compatibility(sol, forward, SIGMA_HAT_INV)
            report.record(
                "forward_compatibility_extends_to_inverse_rows",
                [] if w is None else [_payload(sol, w)],
            )

    q = from_solution(sol)
    report.record(
        "qcycle_round_trip", [_payload(sol, f) for f in check_qcycle_correspondence(sol, q)]
    )

    U, U_hat, commute_failures = qcycle_diagonals(q)
    d = diagonal_maps(sol)
    bad = []
    if U != d.U or U_hat != d.U_hat:
        bad.append(_payload(sol, (U, d.U, U_hat, d.U_hat)))
    if commute_failures:
        bad.append(_payload(sol, ("diagonals do not commute", commute_failures)))
    report.record("qcycle_diagonals_agree_and_commute", bad)

    if props.bijective:
        report.record(
            "regular_solution_gives_regular_qcycle",
            [] if is_regular(q) else [_payload(sol, "colon row not a bijection")],
        )
        _regular_colon_checks(sol, q, report)


def _regular_colon_checks(sol, q, report):
    colon_part = retract_relation(sol, "colon")
    bad = []
    for op in (SIGMA, SIGMA_INV, SIGMA_HAT, SIGMA_HAT_INV, TAU, TAU_HAT):
        try:
            w = check_compatibility(sol, colon_part, op)
        except SymbolUnavailable as exc:
            bad.append(_payload(sol, (op, f"symbol unavailable: {exc}")))
            continue
        if w is not None:
            bad.append(_payload(sol, (op, w)))
    report.record("colon_relation_compatibilities", bad)

    # open question: does the colon quotient keep invertible rows?
    _, (qdot, qcolon) = colon_part.quotient(q.dot, q.colon)
    rows_invertible = all(is_permutation(row) for row in qdot + qcolon)
    obs = report.observations.setdefault(
        "colon_quotient_rows_invertible", {"yes": 0, "no": 0, "examples_no": []}
    )
    if rows_invertible:
        obs["yes"] += 1
    else:
        obs["no"] += 1
        if len(obs["examples_no"]) < 3:
            obs["examples_no"].append(_payload(sol, (qdot, qcolon)))


def _check_diagonals(sol, report):
    """Bijectivity, diagonal and square-free claims of a non-degenerate
    solution; the whole battery at n = 4."""
    props = properties(sol)
    report.record(
        "nondegenerate_is_bijective",
        [] if props.bijective else [_payload(sol, props.witnesses.get("bijective"))],
    )

    d = diagonal_maps(sol)
    bad = []
    if sorted(d.U) != list(range(sol.n)) or sorted(d.T) != list(range(sol.n)):
        bad.append(_payload(sol, (d.U, d.T)))
    report.record("diagonals_are_bijections", bad)

    theorems = check_diagonal_theorems(sol)
    for key, entry_name in (
        ("u_that_mutually_inverse", "diagonal_inverse_pairs"),
        ("t_uhat_mutually_inverse", "diagonal_inverse_pairs"),
        ("u_t_commute", "diagonals_commute"),
        ("fixed_points_equivalent", "diagonal_fixed_points_equivalent"),
    ):
        report.record(entry_name, [_payload(sol, (key, w)) for w in theorems[key]], checked=1)

    identity = tuple(range(sol.n))
    sqf = props.square_free
    report.record(
        "square_free_iff_trivial_diagonals",
        [] if sqf == (d.U == identity and d.T == identity) else [_payload(sol, (sqf, d.U, d.T))],
    )


def _check_nondegenerate(sol, report):
    _check_diagonals(sol, report)
    props, d = properties(sol), diagonal_maps(sol)
    perm, red = _tower_holds(sol)

    # degenerate distributive counterexamples exist, so scope this to the
    # non-degenerate population the cited equivalence is actually about
    if _is_distributive(sol):
        bad = [k for k in range(2, K_PERM_MAX + 1) if red[k] != perm[k]]
        report.record("distributive_reductive_iff_permutational", [_payload(sol, k) for k in bad])

    identities = check_diagonal_identities(sol)
    report.record(
        "diagonal_pointwise_identities",
        [_payload(sol, (name, pts)) for name, pts in identities.items() if pts],
    )

    if props.involutive:
        report.record(
            "involutive_diagonals_mutually_inverse",
            [] if d.U == perm_inverse(d.T) else [_payload(sol, (d.U, d.T))],
        )

    # the last quotient of the retract tower stands for every greater height
    tower = retract_tower(sol)
    quotients = (sol, *(step.quotient for step in tower))
    ret = tower[0]
    bad = [_payload(sol, f) for f in check_retract(sol, ret)]
    if not (left_nondegenerate(ret.quotient) and right_nondegenerate(ret.quotient)):
        bad.append(_payload(sol, ret.quotient))
    report.record("retract_quotient_nondegenerate", bad)

    forward = retract_relation(sol, "forward")
    bad = []
    for op in (SIGMA, SIGMA_INV, TAU, TAU_INV):
        w = check_compatibility(sol, forward, op)
        if w is not None:
            bad.append(_payload(sol, (op, w)))
    report.record("forward_relation_congruence", bad)

    coincidence = check_relation_coincidence(sol)
    report.record(
        "retract_relations_coincide",
        [_payload(sol, pair) for pair in coincidence["disagreements"]],
    )

    duality = check_retract_duality(sol)
    report.record(
        "retract_duality",
        [_payload(sol, (k, w)) for k, ws in duality.items() for w in ws],
    )

    level, level_prime = retract_levels(sol)
    full = permutational_levels(sol, K_PERM_MAX, FULL_ALPHABET)
    hat = permutational_levels(sol, K_PERM_MAX, (SIGMA_INV, SIGMA_HAT_INV))
    bad = []
    for k in range(0, K_PERM_MAX + 1):
        level_le_k = level is not None and level <= k
        full_perm = full[k][0]
        hat_perm = hat[k][0]
        if not (level_le_k == perm[k] == full_perm == hat_perm):
            bad.append(_payload(sol, (k, level, perm[k], full_perm, hat_perm)))
    report.record("multipermutation_level_tower_equivalences", bad)

    quotient_red = reductive_levels(ret.quotient, K_RED_MAX - 1)
    bad = []
    for k in range(2, K_RED_MAX + 1):
        if red[k] != quotient_red[k - 1][0]:
            bad.append(_payload(sol, k))
    report.record("reductivity_descends_to_retract", bad)

    bad = []
    for k in range(1, K_RED_MAX + 1):
        if red[k] and not is_trivial(quotients[min(k - 1, len(quotients) - 1)]):
            bad.append(_payload(sol, k))
    report.record("reductive_tower_reaches_trivial", bad)

    bad = []
    if red[1] and level_prime != 0:
        bad.append(_payload(sol, (1, level_prime)))
    for k in range(2, K_RED_MAX + 1):
        if red[k] and not red[k - 1] and level_prime != k - 1:
            bad.append(_payload(sol, (k, level_prime)))
    report.record("reductivity_pins_mpl_prime", bad)

    bad = []
    if level is not None:
        if level_prime is None or not (level_prime <= level <= level_prime + 1):
            bad.append(_payload(sol, (level, level_prime)))
    report.record("mpl_prime_bounds", bad)

    reductive = [k for k in range(1, K_RED_MAX + 1) if red[k]]
    inverse_start = reductive_inverse_start_levels(sol, reductive)
    report.record(
        "reductive_inverse_start_identity", [_payload(sol, k) for k in reductive if inverse_start[k]]
    )

    decomposition = orbit_decomposition(sol)
    orbit_failures = orbit_theorem_levels(decomposition, reductive[-1]) if reductive else {}
    report.record(
        "orbits_of_reductive_are_permutational",
        [_payload(sol, (k, f)) for k in reductive for f in orbit_failures[k]],
    )

    decomposable = decomposition.decomposable if sol.n > 1 else None
    bad = []
    if sol.n > 1 and props.square_free and level is not None and not decomposable:
        bad.append(_payload(sol, ("square_free", level)))
    report.record("square_free_multipermutation_decomposable", bad)

    bad = []
    if sol.n > 1 and check_star_conditions(sol)[0] and level is not None and not decomposable:
        bad.append(_payload(sol, ("star", level)))
    report.record("star_multipermutation_decomposable", bad)

    bad = []
    if sol.n > 1 and level is not None and level <= K_RED_MAX and red.get(level, False):
        if not decomposable:
            bad.append(_payload(sol, ("exact_level", level)))
    report.record("reductive_exact_level_decomposable", bad)

    # each closed form rests on a verdict already held: level-`level`
    # permutational (the multipermutation entry reports a level without it)
    # or first_red-reductive
    bad = []
    if level is not None and level <= K_PERM_MAX and perm[level]:
        try:
            closed_form_inverse(sol, level, SIGMA)
            closed_form_inverse(sol, level, TAU)
        except ClosedFormMismatch as exc:
            bad.append(_payload(sol, ("permutational_form", level, exc.witness)))
    if reductive:
        first_red = reductive[0]
        try:
            closed_form_inverse(sol, first_red - 1, SIGMA)
            closed_form_inverse(sol, first_red - 1, TAU)
        except ClosedFormMismatch as exc:
            bad.append(_payload(sol, ("reductive_form", first_red, exc.witness)))
    report.record("closed_form_diagonal_inverses", bad)


def theorem_suite(n_max):
    """Run every suite entry over the complete populations up to n_max.

    The full battery runs at n <= 3 (n = 3 restricted to the left
    non-degenerate population, which contains every solution any entry's
    hypotheses accept); n_max = 4 adds the non-degenerate n = 4 population
    for the bijectivity and diagonal entries.
    """
    if not 1 <= n_max <= 4:
        raise SizeTooLarge(f"the suite runs at 1 <= n_max <= 4, got {n_max}")
    t0 = time.perf_counter()
    report = SuiteReport(n_max=n_max)
    for n in range(1, min(n_max, 3) + 1):
        filt = EnumFilter.from_signature("none" if n <= 2 else "left_nd")
        count = 0
        for sol in enumerate_solutions(n, filt):
            count += 1
            props = properties(sol)
            _check_universal(sol, report)
            if props.bijective:
                _check_bijective(sol, report)
            if props.left_nondegenerate:
                _check_left_nd(sol, report)
            if props.nondegenerate:
                _check_nondegenerate(sol, report)
        report.populations[n] = {"filter": filt.signature(), "count": count}
    if n_max >= 4:
        filt = EnumFilter.from_signature("nd")
        count = 0
        for sol in enumerate_solutions(4, filt):
            count += 1
            _check_diagonals(sol, report)
        report.populations[4] = {"filter": filt.signature(), "count": count}
    report.elapsed = time.perf_counter() - t0
    return report
