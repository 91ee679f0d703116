"""Command-line driver: enumeration, certification, topology, reproduction,
and the check of a record file against its recomputation.

Exit codes: 0 success/match, 1 usage error, an output file or stdout that
cannot be written (e.g. a closed pipe) or a record file that cannot be read
or parsed, 2 verification mismatch, 3 internal invariant violation or any
other internal error.  Every nonzero exit prints one line to stderr, never
a traceback.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import catalog, serialize
from .errors import InvariantViolation, RouteDisagreement
from .klt import certify_KE
from .quasismooth import Rejection
from .records import classify
from .search import ORACLE_W_MAX, brute_force_enumerate, structured_range, verified_enumeration
from .topology import diffeo_type
from .weights import Candidate, normalize_weights

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_INVARIANT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _weight_bound(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value > ORACLE_W_MAX:
        raise argparse.ArgumentTypeError(f"expected at most {ORACLE_W_MAX}, got {text!r}")
    return value


def _index_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        a = b = 0
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError(f"bad index range {text!r}")
    return a, b


def _build_parser() -> _Parser:
    """The parser; each subcommand binds its handler as `run`, which `main` calls."""
    p = _Parser(prog="delpezzo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="enumerate candidates per index")
    pe.add_argument("--index", type=_index_range, default=(1, 10), help="index or range, e.g. 3 or 1..10")
    pe.add_argument("--max-weight", type=_weight_bound, default=150, help="weight bound (default: %(default)s)")
    pe.add_argument("--method", choices=["brute", "structured", "both"], default="both")
    pe.add_argument("--format", choices=["json", "csv", "markdown"], default="markdown")
    pe.add_argument("--output", default=None)
    pe.set_defaults(run=_enumerate)

    for name, text, run in (("certify", "Kähler-Einstein certificate cascade", _certify),
                            ("topology", "link invariants of a candidate", _topology)):
        pp = sub.add_parser(name, help=text)
        pp.add_argument("weights", type=int, nargs=4)
        group = pp.add_mutually_exclusive_group(required=True)
        group.add_argument("--degree", type=int)
        group.add_argument("--index", type=int)
        pp.set_defaults(run=run)

    pr = sub.add_parser("reproduce", help="regenerate and diff a published table")
    pr.add_argument("--table", choices=list(_TABLES), required=True)
    pr.add_argument("--max-weight", type=_weight_bound, default=None,
                    help="weight bound of tables 1 and theorem-a (default: 150)")
    pr.set_defaults(run=_reproduce)

    pk = sub.add_parser("check", help="recompute every record of a JSON or CSV file")
    pk.add_argument("file")
    pk.set_defaults(run=_check)
    return p


def _enumerate(args) -> int:
    route = {"both": verified_enumeration, "brute": brute_force_enumerate, "structured": structured_range}
    write = {"json": serialize.to_json, "csv": serialize.to_csv, "markdown": serialize.to_markdown}
    # render first, so a failed run leaves an existing output file alone
    text = write[args.format](route[args.method](*args.index, args.max_weight))
    if not args.output:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _checked(args, check):
    """(candidate, check(candidate)) for the command line's weights and degree
    or index, or None once a rejected input has printed its one line."""
    try:
        w = normalize_weights(args.weights)
        c = Candidate(w, args.degree if args.degree is not None else sum(w.w) - args.index)
        return c, check(c)
    except ValueError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return None


def _certify(args) -> int:
    checked = _checked(args, certify_KE)
    if checked is None:
        return EXIT_USAGE
    print(checked[1])
    return EXIT_OK


_UNIT_COEFFICIENTS = {1: "", -1: "-"}


def _divisor_text(div: dict[int, int]) -> str:
    """The divisor {n: c_n}, in its order of ascending n, as
    `1 - L2 + L6 - L9 + 6L18`: L_1 written as its coefficient, and a
    coefficient of 1 or -1 on L_n (n > 1) written as its sign alone."""
    terms = (str(c) if n == 1 else f"{_UNIT_COEFFICIENTS.get(c, c)}L{n}" for n, c in div.items())
    return " + ".join(terms).replace("+ -", "- ")


def _topology(args) -> int:
    checked = _checked(args, diffeo_type)
    if checked is None:
        return EXIT_USAGE
    c, report = checked
    print(f"candidate: {c}")
    print(f"mu = {report.mu}")
    print(f"divisor = {_divisor_text(report.divisor)}")
    print(f"b2(link) = {report.b2_link}, b2(orbifold) = {report.b2_link + 1}")
    if report.b2_link == 0:
        print("link: S^5")
    elif report.b2_link == 1:
        print("link: S^2 x S^3")
    else:
        print(f"link: #{report.b2_link}(S^2 x S^3)")
    return EXIT_OK


# Each table's check, as (ok, report lines); tables 1 and theorem-a check the records of the run.
_TABLES = {"1": catalog.table1_report, "3": catalog.table3_report,
           "series": catalog.series_report, "theorem-a": catalog.theorem_a_report}
_ENUMERATED = ("1", "theorem-a")


def _reproduce(args) -> int:
    """Print a table's report; a table that differs from its reference also
    writes one `mismatch:` line to stderr and exits 2."""
    if args.table in _ENUMERATED:
        ok, lines = _TABLES[args.table](verified_enumeration(1, 10, args.max_weight or 150))
    elif args.max_weight is not None:
        raise _UsageError(f"--max-weight does not apply to table {args.table}")
    else:
        ok, lines = _TABLES[args.table]()
    print("\n".join(lines))
    if ok:
        return EXIT_OK
    print(f"mismatch: table {args.table} differs from the reference; the report is on stdout",
          file=sys.stderr)
    return EXIT_MISMATCH


def _check(args) -> int:
    """Compare each row of a JSON or CSV record file with `_row` of `classify`
    on its (w, d), column by column; the first row that differs, or that
    `classify` rejects, exits 2.  The file is UTF-8, after a byte-order mark
    if it has one, and it is JSON iff its first non-blank character is "["
    or "{" (a JSON object is refused as no list of records)."""
    try:
        with open(args.file, encoding="utf-8-sig") as fh:
            text = fh.read()
        rows = (serialize.json_rows if text.lstrip().startswith(("[", "{")) else serialize.csv_rows)(text)
    except (OSError, ValueError, csv.Error) as exc:  # a bad encoding or JSON is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for pos, row in enumerate(rows, 1):
        rec = classify(row[1:5], row[5])
        problems = [f"classify rejects it: {rec}"] if isinstance(rec, Rejection) else [
            f"{column} = {value!r} in the file, {computed!r} computed"
            for column, value, computed in zip(serialize.CSV_COLUMNS, row, serialize._row(rec))
            if value != computed]
        if problems:
            print(f"mismatch: record {pos} (I={row[0]}, w={row[1:5]}, d={row[5]}): {problems[0]}",
                  file=sys.stderr)
            return EXIT_MISMATCH
    print(f"{len(rows)} records match their recomputation")
    return EXIT_OK


def main(argv=None) -> int:
    # No route makes a BLAS call, yet OpenBLAS starts a worker thread per
    # extra core when numpy is imported, and each spins before it sleeps.
    # The routes import numpy only when they run, so this comes first.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        message, code = f"usage error: {exc}", EXIT_USAGE
    except BrokenPipeError as exc:
        # stdout's reader has gone; point fd 1 at /dev/null so that the
        # interpreter's own flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        message, code = f"error: {exc}", EXIT_USAGE
    except RouteDisagreement as exc:
        message, code = f"method disagreement: {exc}", EXIT_MISMATCH
    except InvariantViolation as exc:
        message, code = f"invariant violation: {exc}", EXIT_INVARIANT
    except Exception as exc:
        message, code = f"internal error: {type(exc).__name__}: {exc}", EXIT_INVARIANT
    print(" ".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
