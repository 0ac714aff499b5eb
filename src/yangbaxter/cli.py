"""Command line front end.

Subcommands: validate, analyze, enumerate, suite.  Exit status contract:
0 success, 1 mathematical failure (violations, counterexamples, unmet
mathematical preconditions), 2 unreadable or malformed input.  A stdout
closed by its reader (``yangbaxter enumerate 3 | head -1``) ends the command
with status 1 and no traceback.
"""

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from . import search
from .core import FiniteSolution, invert, properties, validate_braid
from .diagonals import check_diagonal_identities, check_diagonal_theorems, diagonal_maps
from .documents import load_document, save_document, solution_to_document
from .errors import DomainError, InputError
from .omega import check_omega_identities, check_star_conditions, permutational_levels, reductive_levels
from .orbits import _decomposable, _orbit_partition, orbit_decomposition
from .qcycle import _solution_of, from_solution, is_regular, qcycle_diagonals, to_solution, validate_qcycle
from .retract import Partition, mpl, mpl_prime, retract
from .search import EnumFilter, census, enumerate_solutions
from .suite import theorem_suite

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def _write_json(obj, out, newline):
    """Append to out the text json.dumps(obj, indent=1, sort_keys=True) gives
    for obj seen as plain JSON values, in one walk: tuples are arrays, a
    solution is its two tables, and dict keys are made strings before they
    are sorted, so level 10 comes before level 2.  newline is the line break
    and indentation in front of obj's closing bracket.  Dispatch is on the
    exact type; any other type raises TypeError, as json.dumps does."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        if not all(type(key) is str for key in obj):
            obj = {str(key): value for key, value in obj.items()}
        inner = newline + " "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(obj):
            out.append(sep + _escape(key) + ": ")
            _write_json(obj[key], out, inner)
            sep = comma
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + " "
        sep, comma = "[" + inner, "," + inner
        for value in obj:
            if type(value) is int:
                out.append(sep + int.__repr__(value))
            else:
                out.append(sep)
                _write_json(value, out, inner)
            sep = comma
        out.append(newline + "]")
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is str:
        out.append(_escape(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif kind is FiniteSolution:
        _write_json({"sigma": obj.sigma, "tau": obj.tau}, out, newline)
    elif kind is float:
        if math.isnan(obj):
            out.append("NaN")
        elif math.isinf(obj):
            out.append("Infinity" if obj > 0 else "-Infinity")
        else:
            out.append(float.__repr__(obj))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(report, as_json):
    if as_json:
        out = []
        _write_json(report, out, "\n")
        print("".join(out))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def cmd_validate(args):
    kind, obj, labels = load_document(args.path)
    report = {"kind": kind, "n": obj.n}
    if labels:
        report["labels"] = list(labels)
    if kind == "solution":
        violations = validate_braid(obj)
        found = {"braid_violations": violations} if violations else properties(obj).as_dict()
    else:
        violations = validate_qcycle(obj)
        found = {"axiom_violations": violations} if violations else {"regular": is_regular(obj)}
    report.update(found)
    _emit(report, args.json)
    return EXIT_MATH if violations else EXIT_OK


def cmd_analyze(args):
    if args.max_k < 0:
        raise InputError(f"--max-k must be >= 0, got {args.max_k}")
    kind, obj, labels = load_document(args.path)
    if kind == "qcycle":
        obj = to_solution(obj)
    sol = obj
    report = {"n": sol.n}
    if labels:
        report["labels"] = list(labels)
    # each fact is held on sol, so the flags that read one fact share it
    report["properties"] = properties(sol).as_dict()
    if args.diag:
        d = diagonal_maps(sol)
        report["diagonals"] = {
            "U": d.U, "T": d.T, "U_hat": d.U_hat, "T_hat": d.T_hat,
        }
        if d.U is not None and d.T is not None:
            report["diagonal_identities"] = check_diagonal_identities(sol)
            report["diagonal_theorems"] = check_diagonal_theorems(sol)
    if args.retract:
        res = retract(sol)
        report["retract"] = {
            "blocks": Partition.from_keys(res.projection).blocks(),
            "quotient_n": res.quotient.n,
            "quotient": res.quotient,
            "projection": res.projection,
        }
    if args.mpl:
        report["mpl"] = mpl(sol)
    if args.mpl_prime:
        report["mpl_prime"] = mpl_prime(sol)
    if args.kperm:
        perm = permutational_levels(sol, args.max_k)
        report["k_permutational"] = {k: {"holds": ok, "witness": w} for k, (ok, w) in perm.items()}
    if args.kred:
        red = reductive_levels(sol, args.max_k)
        report["k_reductive"] = {k: {"holds": ok, "witness": w} for k, (ok, w) in red.items()}
    if args.star:
        ok, sigma_fixers, tau_fixers = check_star_conditions(sol)
        report["star_conditions"] = {
            "holds": ok, "sigma_fixers": sigma_fixers, "tau_fixers": tau_fixers,
        }
    if args.omega_identities:
        report["omega_identities"] = check_omega_identities(sol, args.max_k, seed=args.seed)
    if args.qcycle:
        q = from_solution(sol)
        # the translation of a solution satisfies the q-cycle axioms, so q is
        # validated again, by to_solution, only when sol fails the braid check
        back = _solution_of(q) if properties(sol).braid_ok else to_solution(q)
        U, U_hat, commute_failures = qcycle_diagonals(q)
        report["qcycle"] = {
            "dot": q.dot,
            "colon": q.colon,
            "regular": is_regular(q),
            "diagonal": U,
            "diagonal_hat": U_hat,
            "diagonals_commute": not commute_failures,
            "round_trip_ok": back == sol,
        }
    if args.orbits:
        # only the partition is read; a degenerate solution has none, and
        # orbit_decomposition says why
        nondegenerate = properties(sol).nondegenerate
        partition = _orbit_partition(sol) if nondegenerate else orbit_decomposition(sol).partition
        report["orbits"] = {
            "blocks": partition.blocks(),
            "decomposable": _decomposable(partition),
        }
    if args.invert:
        report["inverse"] = invert(sol)
    _emit(report, args.json)
    return EXIT_OK


def cmd_enumerate(args):
    filt = EnumFilter(
        up_to_iso=args.iso, **{name: getattr(args, name) for name in EnumFilter.labels().values()}
    )
    # an out-of-reach size exits before --out leaves a directory behind
    search._check_bounds(args.n, filt)
    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot use --out {args.out}: {exc}") from exc
    status = EXIT_OK
    if args.census or args.check_frozen:
        result = census(args.n, filt)
        report = {
            "n": args.n,
            "filter": filt.signature(),
            "raw": result.raw,
            "iso": result.iso,
        }
        if args.check_frozen:
            report["frozen"] = search.check_frozen_census(args.n, filt, result)
            if report["frozen"].startswith("MISMATCH"):
                status = EXIT_MATH
        _emit(report, args.json)
    if args.out is not None:
        count = 0
        for i, sol in enumerate(enumerate_solutions(args.n, filt)):
            save_document(
                os.path.join(args.out, f"sol_{i:06d}.json"), solution_to_document(sol)
            )
            count += 1
        print(f"wrote {count} documents to {args.out}")
    elif not (args.census or args.check_frozen):
        count = 0
        for sol in enumerate_solutions(args.n, filt):
            print(json.dumps(solution_to_document(sol)))
            count += 1
        print(f"# {count} solutions", file=sys.stderr)
    return status


def cmd_suite(args):
    report = theorem_suite(args.n_max)
    if args.json:
        payload = {
            "n_max": report.n_max,
            "populations": report.populations,
            "entries": report.entries,
            "observations": report.observations,
            "elapsed_seconds": report.elapsed,
            "counterexamples": report.counterexamples(),
        }
        _emit(payload, True)
    else:
        for n, info in sorted(report.populations.items()):
            print(f"population n={n} filter={info['filter']}: {info['count']} solutions")
        for line in report.lines():
            print(line)
        print(f"elapsed: {report.elapsed:.2f}s")
        print(f"counterexamples: {report.counterexamples()}")
    return EXIT_OK if report.ok() else EXIT_MATH


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every later
    ``main`` call in the process; each parse starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="yangbaxter",
        description="validate, analyze and enumerate finite Yang-Baxter solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the braid relation / q-cycle axioms of a document")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full property analysis of a document")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--diag", action="store_true", help="diagonal maps and their identities")
    p.add_argument("--retract", action="store_true", help="forward relation and quotient")
    p.add_argument("--mpl", action="store_true", help="multipermutation level")
    p.add_argument("--mpl-prime", dest="mpl_prime", action="store_true",
                   help="level at which the retract tower becomes trivial")
    p.add_argument("--kperm", action="store_true", help="permutational levels up to --max-k")
    p.add_argument("--kred", action="store_true", help="reductivity levels up to --max-k")
    p.add_argument("--star", action="store_true", help="fixed-point star conditions")
    p.add_argument("--omega-identities", action="store_true",
                   help="tower rewriting identities up to height --max-k")
    p.add_argument("--qcycle", action="store_true", help="q-cycle translation and round trip")
    p.add_argument("--orbits", action="store_true", help="orbit decomposition")
    p.add_argument("--invert", action="store_true", help="inverse solution tables")
    p.add_argument("--max-k", dest="max_k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0,
                   help="no effect: every tower verdict is exact; echoed by --omega-identities")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate", help="stream, count or dump all solutions of size n")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    for label, name in EnumFilter.labels().items():
        p.add_argument("--" + label.replace("_", "-"), dest=name, action="store_true")
    p.add_argument("--iso", action="store_true", help="one representative per isomorphism class")
    p.add_argument("--census", action="store_true", help="print raw and iso counts only")
    p.add_argument("--check-frozen", dest="check_frozen", action="store_true",
                   help="compare against the shipped frozen census")
    p.add_argument("--out", default=None, help="write one JSON document per solution")
    p.add_argument("--workers", type=int, default=1,
                   help="no effect: every search runs in one process")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("suite", help="verify all theorems over complete populations")
    p.add_argument("--n-max", dest="n_max", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="no effect: every tower verdict is exact")
    p.add_argument("--workers", type=int, default=1,
                   help="no effect: every search runs in one process")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None):
    """Parse argv once, by the named command's parser when its first item
    names one, and run the command."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    commands = next(action.choices for action in parser._actions if action.dest == "command")
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if extra:
            # the message and usage line the top-level parser would give
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        # no command first: the top-level parser reports the usage error or help
        args = parser.parse_args(argv)
    try:
        status = _run(args)
        # flushed here, so that a closed stdout is caught below, not at exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to the null device,
        # so the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        # the status the uncaught error gave
        return 1


def _run(args):
    """Run the command of parsed arguments and map its errors to exit codes."""
    try:
        # enumerate and suite take --workers
        if getattr(args, "workers", 1) < 1:
            raise InputError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except InputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
