"""Finite set-theoretic solutions of the braid relation as dense integer tables.

A candidate solution on the carrier {0, ..., n-1} is a pair of n x n tables:
``sigma[x][y]`` is the image of y under the left translation by x and
``tau[y][x]`` is the image of x under the right translation by y (both tables
are indexed acting-subscript-first).  The induced pair map is

    r(x, y) = (sigma[x][y], tau[y][x])

and the braid relation compares the two triple compositions of r on X^3.
"""

import functools
from dataclasses import dataclass
from itertools import permutations, product

from .errors import MalformedTable, NotBijective, NotNondegenerate, SizeMismatch, SizeTooLarge

# Exhaustive relabeling is the canonicalization strategy, so cap the carrier.
CANONICAL_SIZE_CAP = 8


def _as_table(rows, n, name):
    rows = tuple(tuple(row) for row in rows)
    if len(rows) != n:
        raise MalformedTable(f"{name} must have {n} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedTable(f"{name} row {i} must have {n} entries, got {len(row)}")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise MalformedTable(f"{name}[{i}] entry {v!r} out of range 0..{n - 1}")
    return rows


class FiniteSolution:
    """Immutable table pair; hashable, so usable as a dict key or set member."""

    def __init__(self, sigma, tau):
        n = len(sigma)
        if n == 0:
            raise MalformedTable("carrier must be nonempty")
        self.n = n
        self.sigma = _as_table(sigma, n, "sigma")
        self.tau = _as_table(tau, n, "tau")

    @classmethod
    def _from_tables(cls, sigma, tau):
        """The solution of two tables the library built itself, each n rows
        of n ints in 0..n-1, without the constructor's checks."""
        sol = cls.__new__(cls)
        sol.n = len(sigma)
        sol.sigma = tuple(map(tuple, sigma))
        sol.tau = tuple(map(tuple, tau))
        return sol

    def r(self, x, y):
        return self.sigma[x][y], self.tau[y][x]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSolution)
            and self.sigma == other.sigma
            and self.tau == other.tau
        )

    def __hash__(self):
        return hash((self.sigma, self.tau))

    def __repr__(self):
        return f"FiniteSolution(sigma={list(map(list, self.sigma))}, tau={list(map(list, self.tau))})"

    def __getstate__(self):
        # the held facts stay with this object; a copy decides them again
        return {"n": self.n, "sigma": self.sigma, "tau": self.tau}


def _held(fn):
    """fn(sol, ...), decided once per solution object and argument list and
    held in that object's __dict__.  An exception is not held, so each call
    raises it again.  Every reader gets the same held value, so none may
    change it."""

    @functools.wraps(fn)
    def held(sol, *args, **kwargs):
        facts = sol.__dict__.get("_facts")
        if facts is None:
            facts = sol._facts = {}
        key = (fn, args, *kwargs.items()) if kwargs else (fn, args)
        # held itself stands for a fact not decided yet
        value = facts.get(key, held)
        if value is held:
            value = facts[key] = fn(sol, *args, **kwargs)
        return value

    return held


@dataclass(frozen=True)
class PropertyReport:
    """Elementary property flags plus a replayable witness for each false flag."""

    braid_ok: bool
    left_nondegenerate: bool
    right_nondegenerate: bool
    nondegenerate: bool
    bijective: bool
    involutive: bool
    square_free: bool
    witnesses: dict

    def as_dict(self):
        d = {
            "braid_ok": self.braid_ok,
            "left_nondegenerate": self.left_nondegenerate,
            "right_nondegenerate": self.right_nondegenerate,
            "nondegenerate": self.nondegenerate,
            "bijective": self.bijective,
            "involutive": self.involutive,
            "square_free": self.square_free,
        }
        d["witnesses"] = {k: list(v) if isinstance(v, tuple) else v for k, v in self.witnesses.items()}
        return d


def is_permutation(row):
    return len(set(row)) == len(row)


def perm_inverse(row):
    inv = [0] * len(row)
    for i, v in enumerate(row):
        inv[v] = i
    return tuple(inv)


def row_inverses(table):
    return tuple(perm_inverse(row) for row in table)


def left_nondegenerate(sol):
    return all(is_permutation(row) for row in sol.sigma)


def right_nondegenerate(sol):
    return all(is_permutation(row) for row in sol.tau)


def require_nondegenerate(sol, operation):
    if not properties(sol).nondegenerate:
        raise NotNondegenerate(f"{operation} needs a non-degenerate solution")


def _component_identities(s, t, x, y, z):
    """The three per-triple identities that, together, restate the braid
    relation, on the tables s = sigma and t = tau."""
    c1 = s[x][s[y][z]] == s[s[x][y]][s[t[y][x]][z]]
    c2 = t[s[t[y][x]][z]][s[x][y]] == s[t[s[y][z]][x]][t[z][y]]
    c3 = t[z][t[y][x]] == t[t[z][y]][t[s[y][z]][x]]
    return c1 and c2 and c3


def validate_braid(sol):
    """All triples (x, y, z) where the two sides of the braid relation differ,
    by literal composition of the two triple maps, in lexicographic order.

    With composition right to left (the innermost map acts first) the two
    sides are (id x r)(r x id)(id x r) and (r x id)(id x r)(r x id); each
    application of r(a, b) = (sigma[a][b], tau[b][a]) is read off the tables.
    """
    n = sol.n
    s, t = sol.sigma, sol.tau
    violations = []
    for x in range(n):
        sx = s[x]
        for y in range(n):
            sy = s[y]
            # right side, first step: r(x, y) = (a, b)
            a, b = sx[y], t[y][x]
            sa, sb = s[a], s[b]
            for z in range(n):
                tz = t[z]
                # left side: r(y, z) = (u, v), r(x, u) = (p, q), then r(q, v)
                u, v = sy[z], tz[y]
                p, q = sx[u], t[u][x]
                # right side: r(b, z) = (c, d), then r(a, c)
                c, d = sb[z], tz[b]
                # (p, r(q, v)) against (r(a, c), d)
                if p != sa[c] or s[q][v] != t[c][a] or t[v][q] != d:
                    violations.append((x, y, z))
    return violations


@_held
def _braid_violations(sol):
    """validate_braid(sol), held on sol for the readers of one solution's
    facts; validate_braid itself holds nothing, so the searches do not."""
    return validate_braid(sol)


def check_braid_routes(sol):
    """All triples where the literal composition and the component identities
    disagree on whether the braid relation holds (expected none), which guards
    each form against transcription errors in the other."""
    violations = set(_braid_violations(sol))
    s, t = sol.sigma, sol.tau
    return [
        (x, y, z)
        for x, y, z in product(range(sol.n), repeat=3)
        if ((x, y, z) not in violations) != _component_identities(s, t, x, y, z)
    ]


def _row_collision(table):
    """(subscript, y1, y2) for the first row of table that sends y1 and y2 to
    the same value, or None when every row is a bijection."""
    for x, row in enumerate(table):
        seen = {}
        for y, v in enumerate(row):
            if v in seen:
                return (x, seen[v], y)
            seen[v] = y
    return None


def _scan_preimages(sol):
    """({r(x, y): (x, y)}, None) when the pair map is injective, else the
    pairs read up to the first collision and (earlier input, later input)
    for it; inputs are read in lexicographic order."""
    s, t = sol.sigma, sol.tau
    preimage = {}
    for x, y in product(range(sol.n), repeat=2):
        im = (s[x][y], t[y][x])
        if im in preimage:
            return preimage, (preimage[im], (x, y))
        preimage[im] = (x, y)
    return preimage, None


@_held
def _preimages(sol):
    """_scan_preimages(sol), held on sol: properties and invert read one scan."""
    return _scan_preimages(sol)


def bijective_witness(sol):
    """Two inputs of the pair map with the same image, or None when it is
    bijective.  It holds nothing, so the search filter does not either."""
    return _scan_preimages(sol)[1]


def involutive_witness(sol):
    """A pair that r does not send back to itself in two steps, or None."""
    s, t = sol.sigma, sol.tau
    for x, y in product(range(sol.n), repeat=2):
        u, v = s[x][y], t[y][x]
        if s[u][v] != x or t[v][u] != y:
            return (x, y)
    return None


def square_free_witness(sol):
    """A point x with r(x, x) != (x, x), or None."""
    s, t = sol.sigma, sol.tau
    for x in range(sol.n):
        if s[x][x] != x or t[x][x] != x:
            return (x,)
    return None


@_held
def properties(sol):
    """Compute every elementary flag by direct definition, with witnesses."""
    violations = _braid_violations(sol)
    found = {
        "braid_ok": violations[0] if violations else None,
        "left_nondegenerate": _row_collision(sol.sigma),
        "right_nondegenerate": _row_collision(sol.tau),
    }
    found["nondegenerate"] = found["left_nondegenerate"] or found["right_nondegenerate"]
    found["bijective"] = _preimages(sol)[1]
    found["involutive"] = involutive_witness(sol)
    found["square_free"] = square_free_witness(sol)
    return PropertyReport(
        **{flag: w is None for flag, w in found.items()},
        witnesses={flag: w for flag, w in found.items() if w is not None},
    )


@_held
def invert(sol):
    """The component tables of the inverse pair map.

    Returns the solution (sigma_hat, tau_hat) with
    r_inverse(u, v) = (sigma_hat[u][v], tau_hat[v][u]).  Raises NotBijective
    with a colliding pair of inputs when the pair map is not injective.
    """
    preimage, collision = _preimages(sol)
    if collision is not None:
        first, second = collision
        im = sol.r(*second)
        raise NotBijective(
            f"pair map is not injective: {first} and {second} share image {im}",
            witness=collision,
        )

    n = sol.n
    sighat = [[None] * n for _ in range(n)]
    tauhat = [[None] * n for _ in range(n)]
    for (u, v), (x, y) in preimage.items():
        sighat[u][v] = x
        tauhat[v][u] = y
    return FiniteSolution._from_tables(sighat, tauhat)


def check_inverse(sol, inv):
    """Where inv fails to be the inverse solution of sol (expected none).

    Lists (identity name, point) pairs: the four identities by which r and
    its inverse cancel in both orders; for left non-degenerate sol, the
    closed form of the inverted sigma_hat rows through sigma and tau alone;
    and the braid violations of inv.
    """
    n = sol.n
    s, t = sol.sigma, sol.tau
    hs, ht = inv.sigma, inv.tau
    failures = []
    for x, y in product(range(n), repeat=2):
        if s[hs[x][y]][ht[y][x]] != x or t[ht[y][x]][hs[x][y]] != y:
            failures.append(("r_after_inverse", (x, y)))
        if hs[s[x][y]][t[y][x]] != x or ht[t[y][x]][s[x][y]] != y:
            failures.append(("inverse_after_r", (x, y)))
    if left_nondegenerate(sol):
        # sigma_hat[x] sends tau[sigma_y^-1(x)][y] to y for every y, which
        # makes it the bijection with that inverse
        sig_inv = row_inverses(s)
        failures.extend(
            ("sigma_hat_inverse_form", (x, y))
            for x, y in product(range(n), repeat=2)
            if hs[x][t[sig_inv[y][x]][y]] != y
        )
    failures.extend(("inverse_braid", v) for v in _braid_violations(inv))
    return failures


def _relabeled_table(table, pi, pinv):
    """The n x n table transported along pi, whose inverse is pinv: the entry
    at (pi(i), pi(j)) is pi(table[i][j])."""
    return tuple(tuple([pi[table[i][j]] for j in pinv]) for i in pinv)


def relabel(sol, pi):
    """Transport the tables along the carrier bijection pi."""
    pinv = perm_inverse(pi)
    return FiniteSolution._from_tables(
        _relabeled_table(sol.sigma, pi, pinv), _relabeled_table(sol.tau, pi, pinv)
    )


def is_isomorphic(a, b):
    """A relabeling carrying a onto b, or None if none exists."""
    if a.n != b.n:
        raise SizeMismatch(f"carrier sizes differ: {a.n} vs {b.n}")
    for pi in permutations(range(a.n)):
        if relabel(a, pi) == b:
            return pi
    return None


def _flat_key(tables):
    """The entries of a (sigma, tau) pair as one bytes object; for tables of
    one size, bytes order is the lexicographic order of the tables."""
    return bytes([v for table in tables for row in table for v in row])


def _relabeled_key(sol, pi, pinv):
    """The flat key (see _flat_key) of sol transported along pi, whose
    inverse is pinv: entry (pi(i), pi(j)) of each table is pi(table[i][j])."""
    return bytes([pi[table[i][j]] for table in (sol.sigma, sol.tau) for i in pinv for j in pinv])


def canonical_form(sol):
    """Lexicographically minimal relabeling; identical across an isomorphism class."""
    n = sol.n
    if n > CANONICAL_SIZE_CAP:
        raise SizeTooLarge(f"canonical form capped at n <= {CANONICAL_SIZE_CAP}")
    # the least flat key is the key of the least relabeling
    key = min(_relabeled_key(sol, pi, perm_inverse(pi)) for pi in permutations(range(n)))
    rows = [key[i : i + n] for i in range(0, 2 * n * n, n)]
    return FiniteSolution._from_tables(rows[:n], rows[n:])
