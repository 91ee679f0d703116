"""Command-line driver: enumeration, certification, topology, reproduction.

Exit codes: 0 success/match, 1 usage or output-file error, 2 verification
mismatch, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import catalog, serialize
from .errors import InvariantViolation, NonPrimitiveWeights, PreconditionError
from .klt import certify_KE
from .moduli import aut_dimension, monomial_dimension
from .search import brute_force_enumerate, structured_enumerate
from .topology import diffeo_type, orbifold_b2
from .weights import Candidate, normalize_weights

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_INVARIANT = 3

MAX_WEIGHT_ENV = "DELPEZZO_MAX_WEIGHT"


@dataclass
class RunConfig:
    """Enumeration settings; defaults reproduce the published classification."""

    index_min: int = 1
    index_max: int = 10
    w_max: int = 150
    method: str = "both"  # brute | structured | both
    fmt: str = "markdown"  # json | csv | markdown
    jobs: int = 1
    output: str | None = None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_index_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    a = int(lo)
    b = int(hi) if sep else a
    if a < 1 or b < a:
        raise ValueError(f"bad index range {text!r}")
    return a, b


def _build_parser() -> _Parser:
    # a string default goes through `type` too, so a bad environment value
    # is a usage error like a bad flag
    w_max_default = os.environ.get(MAX_WEIGHT_ENV, "150")
    p = _Parser(prog="delpezzo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="enumerate candidates per index")
    pe.add_argument("--index", default="1..10", help="index or range, e.g. 3 or 1..10")
    w_max_help = f"weight bound (default: ${MAX_WEIGHT_ENV}, else 150)"
    pe.add_argument("--max-weight", type=_positive_int, default=w_max_default, help=w_max_help)
    pe.add_argument("--method", choices=["brute", "structured", "both"], default="both")
    pe.add_argument("--format", choices=["json", "csv", "markdown"], default="markdown")
    pe.add_argument("--jobs", type=_positive_int, default=1)
    pe.add_argument("--output", default=None)

    pc = sub.add_parser("certify", help="Kähler-Einstein certificate cascade")
    pc.add_argument("weights", type=int, nargs=4)
    group = pc.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int)
    group.add_argument("--index", type=int)

    pt = sub.add_parser("topology", help="link invariants of a candidate")
    pt.add_argument("weights", type=int, nargs=4)
    group = pt.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int)
    group.add_argument("--index", type=int)

    pr = sub.add_parser("reproduce", help="regenerate and diff a published table")
    pr.add_argument("--table", choices=["1", "3", "series", "theorem-a"], required=True)
    pr.add_argument("--max-weight", type=_positive_int, default=w_max_default, help=w_max_help)
    pr.add_argument("--jobs", type=_positive_int, default=1)
    return p


def _make_candidate(raw_weights, degree, index) -> Candidate:
    w = normalize_weights(raw_weights)
    d = degree if degree is not None else w.total - index
    return Candidate(w, d)


def _enumerate(cfg: RunConfig, out) -> int:
    brute = structured = None
    if cfg.method in ("brute", "both"):
        brute = brute_force_enumerate(cfg.index_min, cfg.index_max, cfg.w_max, jobs=cfg.jobs)
    if cfg.method in ("structured", "both"):
        structured = []
        for index in range(cfg.index_min, cfg.index_max + 1):
            structured.extend(structured_enumerate(index, cfg.w_max))
    if brute is not None and structured is not None:
        bkeys = [r.key() for r in brute]
        skeys = [r.key() for r in structured]
        if bkeys != skeys:
            extra = set(skeys) - set(bkeys)
            missing = set(bkeys) - set(skeys)
            print(
                f"method disagreement: structured-only {sorted(extra)}, "
                f"brute-only {sorted(missing)}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
    records = brute if brute is not None else structured
    if cfg.fmt == "json":
        out.write(serialize.to_json(records))
    elif cfg.fmt == "csv":
        out.write(serialize.to_csv(records))
    else:
        out.write(serialize.to_markdown(records))
    return EXIT_OK


def _certify(args) -> int:
    try:
        c = _make_candidate(args.weights, args.degree, args.index)
        verdict = certify_KE(c)
    except (ValueError, PreconditionError, NonPrimitiveWeights) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(str(verdict))
    return EXIT_OK


def _topology(args) -> int:
    try:
        c = _make_candidate(args.weights, args.degree, args.index)
        report = diffeo_type(c)
    except (ValueError, PreconditionError, NonPrimitiveWeights) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"candidate: {c}")
    print(f"mu = {report.mu}")
    print(f"divisor = {report.divisor}")
    print(f"b2(link) = {report.b2_link}, b2(orbifold) = {report.b2_link + 1}")
    if report.l == 0:
        print("link: S^5")
    elif report.l == 1:
        print("link: S^2 x S^3")
    else:
        print(f"link: #{report.l}(S^2 x S^3)")
    return EXIT_OK


def _full_enumeration(w_max: int, jobs: int):
    brute = brute_force_enumerate(1, 10, w_max, jobs=jobs)
    structured = []
    for index in range(1, 11):
        structured.extend(structured_enumerate(index, w_max))
    if [r.key() for r in brute] != [r.key() for r in structured]:
        return None, None
    return brute, structured


def _reproduce_table1(w_max: int, jobs: int) -> int:
    records, _ = _full_enumeration(w_max, jobs)
    if records is None:
        print("method disagreement between oracle and structured search")
        return EXIT_MISMATCH
    report = catalog.diff_against_reference(records)
    print(report.summary())
    return EXIT_OK if report.clean else EXIT_MISMATCH


def _reproduce_table3() -> int:
    errata = catalog.moduli_errata()
    ok = True
    exact = 0
    documented = []
    for row in catalog.reference_table3():
        if row.series_id is not None:
            fam = next(f for f in catalog.reference_series() if f.id == row.series_id)
            c = fam.candidate_at(fam.k_min)
            m = monomial_dimension(c)
            n = m - aut_dimension(c.weights)
            line = (
                f"series {row.series_id}: printed (m={row.m_printed}, n={row.n_printed}), "
                f"computed (m={m}, n={n})"
            )
            if (m, n) == (row.m_printed, row.n_printed):
                exact += 1
                print(line)
            else:
                documented.append(line + "  [known discrepancy: series moduli n]")
            continue
        c = Candidate(normalize_weights(row.weights), row.degree)
        m = monomial_dimension(c)
        n = m - aut_dimension(c.weights)
        link = diffeo_type(c).l
        line = (
            f"I={row.index} w={row.weights} d={row.degree}: printed "
            f"(m={row.m_printed}, n={row.n_printed}, l={row.l_printed}), "
            f"computed (m={m}, n={n}, l={link})"
        )
        if (m, n, link) == (row.m_printed, row.n_printed, row.l_printed):
            exact += 1
            print(line)
            continue
        err = errata.get((tuple(row.weights), row.degree))
        b2err = catalog.b2_errata().get((tuple(row.weights), row.degree))
        expect_m = err["computed"]["m"] if err else row.m_printed
        expect_n = err["computed"]["n"] if err else row.n_printed
        expect_l = b2err["computed"]["l"] if b2err else row.l_printed
        if (m, n, link) == (expect_m, expect_n, expect_l):
            tag = err["id"] if err else b2err["id"]
            documented.append(line + f"  [documented erratum: {tag}]")
        else:
            print(line + "  MISMATCH")
            ok = False
    print(f"{exact}/{len(catalog.reference_table3())} exact; "
          f"{len(documented)} known discrepancies:")
    for line in documented:
        print("  " + line)
    return EXIT_OK if ok else EXIT_MISMATCH


def _reproduce_series() -> int:
    ok = True
    for fam in catalog.reference_series() + catalog.errata_series():
        status = []
        for k in range(fam.k_min, fam.k_min + 5):
            try:
                b2 = orbifold_b2(fam.candidate_at(k))
            except PreconditionError:
                status.append(f"k={k}: not quasi-smooth/well-formed")
                continue
            if b2 != fam.b2_printed:
                status.append(f"k={k}: b2 {b2} != {fam.b2_printed}")
        origin = "errata" if fam.source_table == "errata" else "printed"
        if status:
            ok = False
            print(f"{fam.id} (I={fam.index}, {origin}): " + "; ".join(status))
        else:
            print(f"{fam.id} (I={fam.index}, {origin}): first five members check out")
    return EXIT_OK if ok else EXIT_MISMATCH


def _reproduce_theorem_a(w_max: int, jobs: int) -> int:
    records = brute_force_enumerate(1, 10, w_max, jobs=jobs)
    tally = catalog.theorem_a_tally(records)
    ok, lines = catalog.compare_theorem_a(tally)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "enumerate":
            try:
                imin, imax = _parse_index_range(args.index)
            except ValueError as exc:
                print(f"usage error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            cfg = RunConfig(
                index_min=imin,
                index_max=imax,
                w_max=args.max_weight,
                method=args.method,
                fmt=args.format,
                jobs=args.jobs,
                output=args.output,
            )
            if not cfg.output:
                return _enumerate(cfg, sys.stdout)
            try:
                with open(cfg.output, "w") as fh:
                    return _enumerate(cfg, fh)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
        if args.command == "certify":
            return _certify(args)
        if args.command == "topology":
            return _topology(args)
        if args.command == "reproduce":
            if args.table == "1":
                return _reproduce_table1(args.max_weight, args.jobs)
            if args.table == "3":
                return _reproduce_table3()
            if args.table == "series":
                return _reproduce_series()
            return _reproduce_theorem_a(args.max_weight, args.jobs)
        raise AssertionError(f"unhandled command {args.command}")
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
