"""JSON documents for solutions and q-cycle sets.

One document per object: ``format_version`` (currently 1), ``n``, the two
integer tables (``sigma``/``tau`` for solutions, ``dot``/``colon`` for
q-cycle sets), an optional ``kind`` marker and optional distinct ``labels``
naming the carrier elements 0..n-1 in order.  Labels are display sugar only;
all tables stay integer-indexed.
"""

import json

from .core import FiniteSolution
from .errors import InputError, ParseError
from .qcycle import QCycleSet

FORMAT_VERSION = 1


def _document(kind, n, labels, **tables):
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "n": n}
    for name, table in tables.items():
        doc[name] = [list(row) for row in table]
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def solution_to_document(sol, labels=None):
    return _document("solution", sol.n, labels, sigma=sol.sigma, tau=sol.tau)


def qcycle_to_document(q, labels=None):
    return _document("qcycle", q.n, labels, dot=q.dot, colon=q.colon)


def _table_field(doc, name, n):
    table = doc.get(name)
    if not isinstance(table, list) or len(table) != n:
        raise ParseError(f"{name!r} must be a list of {n} rows")
    for row in table:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"every {name!r} row must be a list of {n} integers")
    return table


def parse_document(doc):
    """(kind, object, labels) from a decoded document dict.

    ParseError for structural problems, MalformedTable for out-of-range
    entries.
    """
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"format_version must be {FORMAT_VERSION}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("'n' must be a positive integer")
    kind = doc.get("kind")
    if kind is None:
        kind = "qcycle" if "dot" in doc else "solution"
    if kind not in ("solution", "qcycle"):
        raise ParseError(f"unknown kind {kind!r}")

    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != n
            or not all(isinstance(s, str) for s in labels)
            or len(set(labels)) != n
        ):
            raise ParseError("'labels' must be n distinct strings")
        labels = tuple(labels)

    if kind == "solution":
        obj = FiniteSolution(_table_field(doc, "sigma", n), _table_field(doc, "tau", n))
    else:
        obj = QCycleSet(_table_field(doc, "dot", n), _table_field(doc, "colon", n))
    return kind, obj, labels


def load_document(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # a literal the decoder refuses, such as an integer past the
        # interpreter's digit limit
        raise ParseError(f"cannot decode {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests too deeply to decode: {exc}") from exc
    return parse_document(doc)


def save_document(path, doc):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
