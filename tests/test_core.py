import random
from itertools import permutations, product

import pytest

from yangbaxter import (
    FiniteSolution,
    MalformedTable,
    NotBijective,
    SizeMismatch,
    canonical_form,
    check_braid_routes,
    check_inverse,
    invert,
    is_isomorphic,
    properties,
    relabel,
    validate_braid,
)
from yangbaxter.core import bijective_witness, involutive_witness, square_free_witness
from yangbaxter.fixtures import (
    derived2,
    left_only3,
    lyubashenko,
    lyubashenko3,
    projection,
    singleton,
    z3group,
)


def braid_violations_oracle(sol):
    """Independent check: materialize r and the two triple maps as dicts."""
    n = sol.n
    r = {(x, y): (sol.sigma[x][y], sol.tau[y][x]) for x in range(n) for y in range(n)}

    def id_x_r(t):
        return (t[0],) + r[(t[1], t[2])]

    def r_x_id(t):
        return r[(t[0], t[1])] + (t[2],)

    bad = []
    for t in product(range(n), repeat=3):
        lhs = id_x_r(r_x_id(id_x_r(t)))
        rhs = r_x_id(id_x_r(r_x_id(t)))
        if lhs != rhs:
            bad.append(t)
    return bad


def braid_violations_by_r(sol):
    """The r-composition the literal check used before it was inlined: both
    sides of the braid relation through sol.r, triple by triple."""
    r = sol.r
    bad = []
    for x, y, z in product(range(sol.n), repeat=3):
        u, v = r(y, z)
        p, q = r(x, u)
        s, w = r(q, v)
        a, b = r(x, y)
        c, d = r(b, z)
        e, f = r(a, c)
        if (p, s, w) != (e, f, d):
            bad.append((x, y, z))
    return bad


def _random_table(rng, n, permutation_rows):
    if permutation_rows:
        return tuple(tuple(rng.sample(range(n), n)) for _ in range(n))
    return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inlined_braid_check_matches_r_composition(n):
    rng = random.Random(20261018 + n)
    pairs = [
        FiniteSolution(_random_table(rng, n, left), _random_table(rng, n, right))
        for left, right in product((False, True), repeat=2)
        for _ in range(50)
    ]
    with_violations = 0
    for sol in pairs:
        violations = validate_braid(sol)
        assert violations == braid_violations_by_r(sol), sol
        assert violations == braid_violations_oracle(sol)
        # the component identities restate the relation on any table pair
        assert check_braid_routes(sol) == []
        with_violations += bool(violations)
    if n > 1:
        assert with_violations > 0


def _pair_map_by_r(sol):
    """The bijective, involutive and square-free witnesses and the inverse
    tables (None when not bijective), read through sol.r."""
    pairs = list(product(range(sol.n), repeat=2))
    image_of, collision = {}, None
    for x, y in pairs:
        im = sol.r(x, y)
        if im in image_of and collision is None:
            collision = (image_of[im], (x, y))
        image_of.setdefault(im, (x, y))
    involutive = next(((x, y) for x, y in pairs if sol.r(*sol.r(x, y)) != (x, y)), None)
    square_free = next(((x,) for x in range(sol.n) if sol.r(x, x) != (x, x)), None)
    inverse = None
    if collision is None:
        inverse = (
            tuple(tuple(image_of[(u, v)][0] for v in range(sol.n)) for u in range(sol.n)),
            tuple(tuple(image_of[(u, v)][1] for u in range(sol.n)) for v in range(sol.n)),
        )
    return collision, involutive, square_free, inverse


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_map_witnesses_match_r(n):
    # the witnesses and invert read the tables directly; any table pair will do
    rng = random.Random(20261020 + n)
    pairs = [
        FiniteSolution(_random_table(rng, n, left), _random_table(rng, n, right))
        for left, right in product((False, True), repeat=2)
        for _ in range(50)
    ]
    bijective = 0
    for sol in pairs + [lyubashenko3(), left_only3(), derived2(), z3group()]:
        collision, involutive, square_free, inverse = _pair_map_by_r(sol)
        assert bijective_witness(sol) == collision, sol
        assert involutive_witness(sol) == involutive, sol
        assert square_free_witness(sol) == square_free, sol
        if inverse is None:
            with pytest.raises(NotBijective) as exc:
                invert(sol)
            first, second = collision
            assert exc.value.witness == collision
            assert str(exc.value) == (
                f"pair map is not injective: {first} and {second} share image {sol.r(*second)}"
            )
        else:
            assert (invert(sol).sigma, invert(sol).tau) == inverse, sol
            bijective += 1
    assert bijective > 0


# every shipped instance really is a solution
@pytest.mark.parametrize(
    "sol",
    [singleton(), projection(2), projection(3), left_only3(), lyubashenko3(), derived2(), z3group()],
    ids=["singleton", "projection2", "projection3", "left_only3", "lyubashenko3", "derived2", "z3group"],
)
def test_fixtures_are_braid_valid(sol):
    assert validate_braid(sol) == []
    assert braid_violations_oracle(sol) == []
    assert check_braid_routes(sol) == []


def test_braid_violations_found_and_match_oracle():
    bad = FiniteSolution(((0, 1), (1, 0)), ((0, 1), (0, 1)))
    violations = validate_braid(bad)
    assert violations == braid_violations_oracle(bad)
    assert violations == [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    # the component identities fail on exactly the same triples
    assert check_braid_routes(bad) == []


def test_malformed_tables_rejected():
    with pytest.raises(MalformedTable):
        FiniteSolution(((0, 2), (0, 1)), ((0, 1), (0, 1)))
    with pytest.raises(MalformedTable):
        FiniteSolution(((0, 1),), ((0, 1), (0, 1)))
    with pytest.raises(MalformedTable):
        FiniteSolution((), ())


def test_unchecked_constructor_equals_the_checked_one():
    # the library builds the tables it makes itself without the checks
    sigma, tau = [[1, 2, 0], [1, 2, 0], [1, 2, 0]], [[1, 2, 0], [1, 2, 0], [1, 2, 0]]
    checked = FiniteSolution(sigma, tau)
    unchecked = FiniteSolution._from_tables(sigma, tau)
    assert unchecked == checked and checked == unchecked
    assert hash(unchecked) == hash(checked)
    assert (unchecked.n, unchecked.sigma, unchecked.tau) == (checked.n, checked.sigma, checked.tau)
    assert unchecked == lyubashenko3() and not validate_braid(unchecked)


def test_properties_left_only3():
    p = properties(left_only3())
    assert p.braid_ok
    assert p.left_nondegenerate
    assert not p.right_nondegenerate
    assert not p.nondegenerate
    assert not p.bijective
    assert not p.square_free
    # witnesses replay against the tables
    sol = left_only3()
    x, y1, y2 = p.witnesses["right_nondegenerate"]
    assert y1 != y2 and sol.tau[x][y1] == sol.tau[x][y2]
    (a1, b1), (a2, b2) = p.witnesses["bijective"]
    assert (a1, b1) != (a2, b2) and sol.r(a1, b1) == sol.r(a2, b2)
    (sq,) = p.witnesses["square_free"]
    assert sol.r(sq, sq) != (sq, sq)


def test_properties_projection_and_lyubashenko():
    p = properties(projection(2))
    assert p.nondegenerate and p.bijective and p.involutive and p.square_free
    assert p.witnesses == {}

    p = properties(lyubashenko3())
    assert p.nondegenerate and p.bijective
    assert not p.involutive and not p.square_free
    x, y = p.witnesses["involutive"]
    sol = lyubashenko3()
    u, v = sol.r(x, y)
    assert sol.r(u, v) != (x, y)


def test_invert_involutive_returns_same_tables():
    sol = projection(2)
    assert invert(sol) == sol


def test_invert_lyubashenko_gives_inverse_cycles():
    sol = lyubashenko3()
    inv = invert(sol)
    finv = (2, 0, 1)
    assert inv.sigma == tuple(finv for _ in range(3))
    assert inv.tau == tuple(finv for _ in range(3))
    assert check_inverse(sol, inv) == []
    # r is not an involution, so it is no inverse of itself
    assert {name for name, _ in check_inverse(sol, sol)} == {
        "r_after_inverse", "inverse_after_r", "sigma_hat_inverse_form"
    }


def test_invert_twice_is_identity():
    for sol in (projection(3), lyubashenko3(), derived2()):
        assert invert(invert(sol)) == sol
        assert check_inverse(sol, invert(sol)) == []


def test_invert_rejects_noninjective_pair_map():
    with pytest.raises(NotBijective) as exc:
        invert(left_only3())
    (p1, p2) = exc.value.witness
    sol = left_only3()
    assert p1 != p2 and sol.r(*p1) == sol.r(*p2)


def test_is_isomorphic_identity_and_swap():
    sol = left_only3()
    assert is_isomorphic(sol, sol) == (0, 1, 2)
    swapped = relabel(sol, (1, 0, 2))
    pi = is_isomorphic(sol, swapped)
    assert pi is not None and relabel(sol, pi) == swapped


def test_is_isomorphic_absence():
    assert is_isomorphic(left_only3(), projection(3)) is None


def test_is_isomorphic_size_mismatch():
    with pytest.raises(SizeMismatch):
        is_isomorphic(projection(2), projection(3))


def test_canonical_form_singleton():
    assert canonical_form(singleton()) == singleton()


def test_canonical_form_constant_on_iso_classes():
    sol = left_only3()
    for pi in permutations(range(3)):
        assert canonical_form(relabel(sol, pi)) == canonical_form(sol)
    assert canonical_form(canonical_form(sol)) == canonical_form(sol)


def test_canonical_form_lyubashenko2_exhaustive():
    sol = lyubashenko((1, 0), (1, 0))
    # oracle: take the lexicographic minimum over both relabelings by hand
    candidates = sorted(
        (relabel(sol, pi).sigma, relabel(sol, pi).tau) for pi in permutations(range(2))
    )
    got = canonical_form(sol)
    assert (got.sigma, got.tau) == candidates[0]


def test_relabel_transports_structure():
    sol = lyubashenko3()
    pi = (2, 0, 1)
    moved = relabel(sol, pi)
    for x, y in product(range(3), repeat=2):
        assert moved.sigma[pi[x]][pi[y]] == pi[sol.sigma[x][y]]
        assert moved.tau[pi[x]][pi[y]] == pi[sol.tau[x][y]]
    assert validate_braid(moved) == []


@pytest.mark.parametrize("pi", [(0, 0, 1), (0, 1), (0, 1, 5), (1, 2, 3)])
def test_relabel_refuses_a_pi_that_is_not_a_permutation(pi):
    # (0, 0, 1) used to collapse the tables into a braid-valid pair, and
    # the others to raise a bare IndexError
    with pytest.raises(MalformedTable, match="pi must be a permutation of 0..2"):
        relabel(lyubashenko3(), pi)
