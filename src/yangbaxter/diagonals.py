"""Diagonal maps of a solution and the identities they satisfy.

For a left non-degenerate solution, U(x) is the preimage of x under its own
left translation; for a right non-degenerate one, T(x) is the preimage under
its own right translation.  The companion maps are defined by table lookup,
T_hat(x) = sigma[T(x)][x] and U_hat(x) = tau[U(x)][x], so each needs only the
one-sided non-degeneracy of its partner and may fail to be a bijection.
"""

from dataclasses import dataclass
from .core import _held, properties, require_nondegenerate


@dataclass(frozen=True)
class DiagonalMaps:
    U: tuple | None
    T: tuple | None
    U_hat: tuple | None
    T_hat: tuple | None


@_held
def diagonal_maps(sol):
    """The four diagonal maps, each None where its one-sided
    non-degeneracy fails."""
    n = sol.n
    props = properties(sol)
    U = T = U_hat = T_hat = None
    if props.left_nondegenerate:
        U = tuple(sol.sigma[x].index(x) for x in range(n))
        U_hat = tuple(sol.tau[U[x]][x] for x in range(n))
    if props.right_nondegenerate:
        T = tuple(sol.tau[x].index(x) for x in range(n))
        T_hat = tuple(sol.sigma[T[x]][x] for x in range(n))
    return DiagonalMaps(U=U, T=T, U_hat=U_hat, T_hat=T_hat)


def check_diagonal_identities(sol):
    """Pointwise identities tying the four diagonal maps together.

    Returns a dict mapping each identity name to the list of carrier points
    where it fails; every list is expected to be empty for non-degenerate
    solutions.
    """
    require_nondegenerate(sol, "check_diagonal_identities")
    d = diagonal_maps(sol)
    n = sol.n
    s, t = sol.sigma, sol.tau
    U, T, Uh, Th = d.U, d.T, d.U_hat, d.T_hat
    report = {
        "sigma_rows_match": [],
        "tau_rows_match": [],
        "u_hat_recursion": [],
        "t_hat_recursion": [],
        "cross_image": [],
        "t_hat_fixed_form": [],
        "u_hat_fixed_form": [],
    }
    for x in range(n):
        if s[Uh[x]] != s[U[x]]:
            report["sigma_rows_match"].append(x)
        if t[Th[x]] != t[T[x]]:
            report["tau_rows_match"].append(x)
        if Uh[x] != s[Uh[x]][Uh[U[x]]]:
            report["u_hat_recursion"].append(x)
        if Th[x] != t[Th[x]][Th[T[x]]]:
            report["t_hat_recursion"].append(x)
        if t[x][Th[x]] != s[x][Uh[x]]:
            report["cross_image"].append(x)
        if Th[x] != s[Th[x]][x]:
            report["t_hat_fixed_form"].append(x)
        if Uh[x] != t[Uh[x]][x]:
            report["u_hat_fixed_form"].append(x)
    return report


def check_diagonal_theorems(sol):
    """Bijectivity and commutation facts about U and T on non-degenerate input.

    Checks that T_hat inverts U, U_hat inverts T, U and T commute, the pair
    map is bijective, and that the two diagonal fixed-point conditions
    r(T(x), x) = (T(x), x) and r(x, U(x)) = (x, U(x)) hold everywhere
    together or fail together.
    """
    require_nondegenerate(sol, "check_diagonal_theorems")
    d = diagonal_maps(sol)
    n = sol.n
    s, t = sol.sigma, sol.tau
    U, T, Uh, Th = d.U, d.T, d.U_hat, d.T_hat
    collision = properties(sol).witnesses.get("bijective")
    report = {
        "u_that_mutually_inverse": [x for x in range(n) if U[Th[x]] != x or Th[U[x]] != x],
        "t_uhat_mutually_inverse": [x for x in range(n) if T[Uh[x]] != x or Uh[T[x]] != x],
        "u_t_commute": [x for x in range(n) if U[T[x]] != T[U[x]]],
        "bijective": [] if collision is None else [collision],
        "fixed_points_equivalent": [],
    }
    # r(T(x), x) = (sigma[T(x)][x], tau[x][T(x)]) and r(x, U(x)) likewise
    left_fixed = all(s[T[x]][x] == T[x] and t[x][T[x]] == x for x in range(n))
    right_fixed = all(s[x][U[x]] == x and t[U[x]][x] == U[x] for x in range(n))
    if left_fixed != right_fixed:
        report["fixed_points_equivalent"].append((left_fixed, right_fixed))
    return report
