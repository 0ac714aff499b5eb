"""Diagonal maps of a solution and the identities they satisfy.

For a left non-degenerate solution, U(x) is the preimage of x under its own
left translation; for a right non-degenerate one, T(x) is the preimage under
its own right translation.  The companion maps are defined by table lookup,
T_hat(x) = sigma[T(x)][x] and U_hat(x) = tau[U(x)][x], so each needs only the
one-sided non-degeneracy of its partner and may fail to be a bijection.
"""

from dataclasses import dataclass
from .core import bijective_witness, left_nondegenerate, require_nondegenerate, right_nondegenerate


@dataclass(frozen=True)
class DiagonalMaps:
    U: tuple | None
    T: tuple | None
    U_hat: tuple | None
    T_hat: tuple | None


def diagonal_maps(sol, props=None):
    """The four diagonal maps, each None where its one-sided
    non-degeneracy fails.  props, when given, is properties(sol), whose
    non-degeneracy flags are read instead of decided again."""
    n = sol.n
    if props is None:
        left, right = left_nondegenerate(sol), right_nondegenerate(sol)
    else:
        left, right = props.left_nondegenerate, props.right_nondegenerate
    U = T = U_hat = T_hat = None
    if left:
        U = tuple(sol.sigma[x].index(x) for x in range(n))
        U_hat = tuple(sol.tau[U[x]][x] for x in range(n))
    if right:
        T = tuple(sol.tau[x].index(x) for x in range(n))
        T_hat = tuple(sol.sigma[T[x]][x] for x in range(n))
    return DiagonalMaps(U=U, T=T, U_hat=U_hat, T_hat=T_hat)


def _nondegenerate_maps(sol, maps, operation):
    """maps, or diagonal_maps(sol) when maps is None, for a non-degenerate
    sol; NotNondegenerate, naming operation, otherwise."""
    if maps is None:
        maps = diagonal_maps(sol)
    if maps.U is None or maps.T is None:
        # U and T exist exactly on the non-degenerate sides, so this raises
        require_nondegenerate(sol, operation)
    return maps


def check_diagonal_identities(sol, maps=None):
    """Pointwise identities tying the four diagonal maps together.

    Returns a dict mapping each identity name to the list of carrier points
    where it fails; every list is expected to be empty for non-degenerate
    solutions.  maps, when given, is diagonal_maps(sol), already computed
    by the caller.
    """
    d = _nondegenerate_maps(sol, maps, "check_diagonal_identities")
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


def check_diagonal_theorems(sol, maps=None, props=None):
    """Bijectivity and commutation facts about U and T on non-degenerate input.

    Checks that T_hat inverts U, U_hat inverts T, U and T commute, the pair
    map is bijective, and that the two diagonal fixed-point conditions
    r(T(x), x) = (T(x), x) and r(x, U(x)) = (x, U(x)) hold everywhere
    together or fail together.  maps and props, when given, are
    diagonal_maps(sol) and properties(sol), already computed by the caller.
    """
    d = _nondegenerate_maps(sol, maps, "check_diagonal_theorems")
    n = sol.n
    s, t = sol.sigma, sol.tau
    U, T, Uh, Th = d.U, d.T, d.U_hat, d.T_hat
    collision = bijective_witness(sol) if props is None else props.witnesses.get("bijective")
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
