"""Mutation check: each mutant must make the tests that guard it fail.

    python scripts/mutants.py

For each mutant the script copies the checkout's `src/` and `tests/` into a
temporary directory, makes one textual edit there, and runs the mutant's
targeted tests against the copy.  A mutant is killed when those tests fail
(pytest exit 1) and survives when they pass.  Any other outcome is an
error: the edit no longer applies, or pytest found no such test or could
not run.  The script exits 1 if any mutant is not killed.  It is not part
of Tier-1; all mutants take about two minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


ORACLE_TESTS = (
    "tests/test_search.py::test_oracle_intervals_match_docstring_scan",
    "tests/test_search.py::test_oracle_matches_unpruned_scan",
)

ADMISSION_TESTS = (
    "tests/test_search.py::test_numpy_admission_is_classify",
    "tests/test_search.py::test_oracle_matches_unpruned_scan",
)

MUTANTS = [
    Mutant("drop-w3-case", "src/delpezzo/search.py",
           "np.where(T <= w_max, T, 0), T, 1, 0),  # w3 = T",
           "0 * T, T, 1, 0),  # w3 = T", ORACLE_TESTS),
    Mutant("interval-top-plus-one", "src/delpezzo/search.py",
           "(w1, w_max - T, T + w1, 1, 1),", "(w1, w_max - T + 1, T + w1, 1, 1),", ORACLE_TESTS),
    Mutant("no-parity", "src/delpezzo/search.py",
           "half = w1 + (T + w1) % 2", "half = w1", ORACLE_TESTS),
    Mutant("z2-no-fallback", "src/delpezzo/search.py",
           "    yield from _line_points(start[:, whole], step[:, whole], length[whole])\n", "",
           ("tests/test_search.py::test_oracle_points_keep_every_z2_point",)),
    Mutant("z2-q-one-short", "src/delpezzo/search.py",
           "cj // f[s]  # w2", "cj // f[s] - 1  # w2",
           ("tests/test_search.py::test_oracle_points_keep_every_z2_point",)),
    Mutant("z2-first-q-only", "src/delpezzo/search.py",
           "    while len(s):  # the round of q", "    if len(s):  # the round of q",
           ("tests/test_search.py::test_oracle_points_keep_every_z2_point",)),
    Mutant("prefilter-r-gt-wi", "src/delpezzo/search.py",
           "((r >= wi) & (r % wi == 0))", "((r > wi) & (r % wi == 0))",
           ADMISSION_TESTS),
    Mutant("prefilter-partner-not-self", "src/delpezzo/search.py",
           "r = P[4] - P[:4]  # d - w_j, a row per j",
           "r = np.delete(P[4] - P[:4], i, axis=0)",
           ADMISSION_TESTS),
    Mutant("structured-skips-z0", "src/delpezzo/search.py",
           "_prefilter(P, (0,))", "_prefilter(P, ())",
           ("tests/test_search.py::test_routes_give_the_condition_i_their_prefilter_leaves_out",
            "tests/test_search.py::test_structured_classifies_only_records")),
    Mutant("prefilter-no-pair-gcd", "src/delpezzo/search.py",
           "        keep &= d % g[a, b] == 0\n", "", ADMISSION_TESTS),
    Mutant("prefilter-pairs-without-z3", "src/delpezzo/search.py",
           "for a, b in itertools.combinations(range(4), 2):",
           "for a, b in itertools.combinations(range(3), 2):", ADMISSION_TESTS),
    Mutant("prefilter-pairs-coprime", "src/delpezzo/search.py",
           "keep &= d % g[a, b] == 0", "keep &= g[a, b] == 1", ADMISSION_TESTS),
    Mutant("g1-prune-ignores-partner", "src/delpezzo/search.py",
           "(np.asarray(m) == 1) & (np.asarray(j) != (1, 2, 3))", "(np.asarray(m) == 1)",
           ("tests/test_search.py::test_structured_matches_unpruned_branches",
            "tests/test_search.py::test_pruned_shapes_fix_two_weights_to_index")),
    Mutant("lines-lower-bound-floor", "src/delpezzo/search.py",
           "-(-c // div)", "c // div",
           ("tests/test_search.py::test_lines_match_branch_instances",)),
    Mutant("lines-no-sign-flip", "src/delpezzo/search.py",
           "flip = v[np.arange(len(v)), (v != 0).argmax(axis=1)] < 0",
           "flip = np.zeros(len(v), dtype=bool)",
           ("tests/test_search.py::test_lines_match_branch_instances",)),
    Mutant("interval-lower-bound-floor", "src/delpezzo/diophantine.py",
           "v = -(-cst // a)", "v = cst // a",
           ("tests/test_diophantine.py::test_box_enumeration_matches_naive_scan",
            "tests/test_search.py::test_lines_match_branch_instances")),
    Mutant("shape-scan-one-short", "src/delpezzo/search.py",
           "< period[:, None])", "< period[:, None] - 1)",
           ("tests/test_search.py::test_minors_solve_matches_smith_form",)),
    Mutant("aut-dimension-one-short", "src/delpezzo/moduli.py",
           "return sum(count_monomials(w, wi) for wi in w)",
           "return sum(count_monomials(w, wi) for wi in w[:3]) + count_monomials(w, w[3]) - 1",
           ("tests/test_moduli.py::test_moduli_is_the_jacobian_ring_degree_d_piece",)),
    Mutant("char-mul-no-gcd", "tests/oracles.py",
           "cn * cm * g", "cn * cm",
           ("tests/test_topology.py::test_char_square_identity",
            "tests/test_topology.py::test_integer_divisor_matches_fraction_fold")),
    Mutant("divisor-two-term-no-gcd", "src/delpezzo/topology.py",
           "out.get(k, 0) + cn * g", "out.get(k, 0) + cn",
           ("tests/test_topology.py::test_integer_divisor_matches_fraction_fold",)),
    Mutant("divisor-ratio-unreduced", "src/delpezzo/topology.py",
           "u, v = c.d // g, wi // g", "u, v = c.d, wi",
           ("tests/test_topology.py::test_integer_divisor_matches_fraction_fold",
            "tests/test_topology.py::test_divisor_against_roots_oracle")),
    Mutant("r2-ignores-line-23", "src/delpezzo/klt.py",
           "if pair_has_monomial(w[2], w[3], d) and lhs", "if lhs",
           ("tests/test_klt.py::test_cascade_takes_each_rule_exactly_when_it_holds",)),
    Mutant("r3-ignores-vertex-3", "src/delpezzo/klt.py",
           "if d % w[3] == 0 and lhs", "if lhs",
           ("tests/test_klt.py::test_cascade_takes_each_rule_exactly_when_it_holds",)),
    Mutant("count-residue-off-by-one", "src/delpezzo/weights.py",
           "% q) // q + 1", "% q) // q",
           ("tests/test_weights.py::test_count_monomials_matches_oracle",)),
    Mutant("pair-bound-exclusive", "src/delpezzo/weights.py",
           "return b0 * wj <= d", "return b0 * wj < d",
           ("tests/test_weights.py::test_pair_has_monomial_matches_scan",)),
    Mutant("partner-first-not-min", "src/delpezzo/quasismooth.py",
           "if best is None or m < best[0]:", "if best is None:",
           ("tests/test_quasismooth.py::test_condition_I_witness_matches_scan",)),
    Mutant("iii-no-fourth-variable", "src/delpezzo/quasismooth.py",
           "if k == partner[j] and not pair_has_monomial(w[i], w[j], d - w[6 - i - j - k]):",
           "if k == partner[j]:",
           ("tests/test_quasismooth.py::test_failure_matches_literal_rule_small_weights",)),
    Mutant("ii-before-iii", "src/delpezzo/quasismooth.py",
           "if not pair_has_monomial(w[i], w[j], d)]\n",
           "if not pair_has_monomial(w[i], w[j], d)]\n    for i, j in bare:\n"
           "        if gcd(w[i], w[j]) > 1:\n            return \"II\", (i, j)\n",
           ("tests/test_quasismooth.py::test_condition_III_one_witness_pair_fails",
            "tests/test_quasismooth.py::test_failure_matches_literal_rule")),
    Mutant("divisor-no-remainder-check", "src/delpezzo/topology.py",
           "        if rem:\n            raise", "        if False:\n            raise",
           ("tests/test_topology.py::test_integer_divisor_checks_match_fraction_fold",)),
    Mutant("ke-certified-unknown", "src/delpezzo/records.py",
           'return "?" if self.klt_provenance == "unknown" else "Y"',
           'return "?" if self.klt_provenance in ("unknown", "cascade") else "Y"',
           ("tests/test_acceptance.py::test_criterion_2_ke_column",)),
    Mutant("build-record-skips-gates", "src/delpezzo/records.py",
           "    if gate is not None:\n        return Rejection(", "    if False:\n        return Rejection(",
           ("tests/test_records.py::test_build_record_checks_preconditions[w2-8-gate G1]",
            "tests/test_records.py::test_build_record_checks_preconditions[w3-12-gate G2]")),
    Mutant("place-moduli-top-level", "src/delpezzo/serialize.py",
           '_GROUPS = ("klt", "moduli", "series")', '_GROUPS = ("klt", "series")',
           ("tests/test_cli.py::test_json_schema_fields",)),
    Mutant("json-record-unshifted", "src/delpezzo/serialize.py",
           '.replace("\\n", "\\n ")', "",
           ("tests/test_cli.py::test_to_json_is_json_dumps_of_the_list",)),
    Mutant("json-value-unescaped", "src/delpezzo/serialize.py",
           "encode_basestring_ascii(v) if", "'\"' + v + '\"' if",
           ("tests/test_cli.py::test_to_json_fills_every_shape_as_json_dumps_writes_it",)),
    Mutant("json-braces-unescaped", "src/delpezzo/serialize.py",
           '.replace("{", "{{").replace("}", "}}")', "",
           ("tests/test_cli.py::test_to_json_fills_every_shape_as_json_dumps_writes_it",)),
    Mutant("load-no-certificate-check", "src/delpezzo/serialize.py",
           "    if missing:\n", "    if False:\n",
           ("tests/test_cli.py::test_loaders_reject_contradicting_rows[certified-rule-missing]",)),
    Mutant("check-stops-before-klt", "src/delpezzo/cli.py",
           "zip(serialize.CSV_COLUMNS, row, serialize._row(rec))",
           "zip(serialize.CSV_COLUMNS[:10], row, serialize._row(rec))",
           ("tests/test_cli.py::test_check_refuses_rows_that_agree_with_themselves[klt_lhs]",)),
    Mutant("check-rejection-matches", "src/delpezzo/cli.py",
           '[f"classify rejects it: {rec}"] if', "[] if",
           ("tests/test_cli.py::test_check_refuses_a_row_classify_rejects",)),
    Mutant("check-format-inverted", "src/delpezzo/cli.py",
           'if text.lstrip().startswith(("[", "{")) else',
           'if not text.lstrip().startswith(("[", "{")) else',
           ("tests/test_cli.py::test_check_passes_the_golden_records",)),
    Mutant("load-types-unchecked", "src/delpezzo/serialize.py",
           "if not set(map(type, values)) <= types:", "if False:",
           ("tests/test_cli.py::test_from_json_rejects_mistyped_values[mu-float]",)),
    Mutant("bounds-allow-inverted-range", "src/delpezzo/search.py",
           "if not 1 <= I_min <= I_max:", "if not 1 <= I_min:",
           ("tests/test_search.py::test_routes_reject_bad_arguments",)),
    Mutant("index-range-unclipped", "src/delpezzo/search.py",
           "top = min(I_max, (3 * w_max - 1) // 2)", "top = I_max",
           ("tests/test_cli.py::test_cli_index_range_stops_at_gate_g1",
            "tests/test_search.py::test_structured_past_gate_g1_is_empty_without_numpy_work")),
    Mutant("verified-compares-oracle-with-itself", "src/delpezzo/search.py",
           "structured = _admit(_structured_passes(I_min, I_max, w_max))",
           "structured = _admit(_oracle_passes(I_min, I_max, w_max))",
           ("tests/test_cli.py::test_cli_method_disagreement_exit2",)),
    Mutant("blas-threads-unpinned", "src/delpezzo/cli.py",
           '    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n', "",
           ("tests/test_cli.py::test_cli_main_defaults_openblas_to_one_thread",)),
    Mutant("divisor-text-minus-one", "src/delpezzo/cli.py",
           '_UNIT_COEFFICIENTS = {1: "", -1: "-"}', '_UNIT_COEFFICIENTS = {1: ""}',
           ("tests/test_cli.py::test_divisor_text_writes_every_kind_of_term",
            "tests/test_cli.py::test_cli_topology_outputs")),
    Mutant("csv-int-unchecked", "src/delpezzo/serialize.py",
           'if s and not s.removeprefix("-").isdecimal():', "if False:",
           ("tests/test_cli.py::test_from_csv_rejects_a_number_cell_that_is_not_an_integer",)),
    Mutant("reproduce-mismatch-exits-ok", "src/delpezzo/cli.py",
           "    if ok:\n        return EXIT_OK", "    if True:\n        return EXIT_OK",
           ("tests/test_cli.py::test_cli_reproduce_table3_checks_series_row",
            "tests/test_cli.py::test_cli_reproduce_reports_a_missing_record[1]")),
    Mutant("series-b2-unchecked", "src/delpezzo/catalog.py",
           '"b2": rec.b2_orbifold', '"b2": ref.b2_printed',
           ("tests/test_cli.py::test_cli_reproduce_series_reports_b2_mismatch",
            "tests/test_catalog.py::test_diff_checks_every_family_member[printed-b2]")),
    Mutant("series-ke-unchecked", "src/delpezzo/catalog.py",
           '"ke": rec.ke}', '"ke": ke}',
           ("tests/test_cli.py::test_cli_reproduce_series_reports_ke_mismatch",
            "tests/test_catalog.py::test_diff_checks_every_family_member[printed-ke]")),
    Mutant("errata-overlay-table3-only", "src/delpezzo/catalog.py",
           "for t in tables if", 'for t in ("table3",) if',
           ("tests/test_catalog.py::test_diff_clean_on_reference_rows",
            "tests/test_cli.py::test_cli_reproduce_table3")),
    Mutant("moduli-no-pair-terms", "src/delpezzo/moduli.py",
           "    if w[2] + w[3] >= d:\n", "    if False:\n",
           ("tests/test_moduli.py::test_moduli_report_returns_on_every_admitted_input[quadric]",)),
    Mutant("diff-sets-families-aside", "src/delpezzo/catalog.py",
           "        fam = families.get(rec.series_id)\n",
           "        fam = families.get(rec.series_id)\n        if fam:\n            continue\n",
           ("tests/test_catalog.py::test_diff_checks_every_family_member",)),
    Mutant("tally-ignores-ke", "src/delpezzo/catalog.py",
           'else rec.ke) == "Y"', 'else "Y") == "Y"',
           ("tests/test_catalog.py::test_theorem_a_tally_counts_only_ke_records",
            "tests/test_acceptance.py::test_criterion_6_theorem_a_tally")),
    Mutant("theorem-a-row-b2-plus-one", "src/delpezzo/data/reference.json",
           '    2,\n    3,\n    5,\n    9\n   ],\n   "degree": 18,\n   "b2_printed": 7,',
           '    2,\n    3,\n    5,\n    9\n   ],\n   "degree": 18,\n   "b2_printed": 8,',
           ("tests/test_catalog.py::test_theorem_a_expectation_follows_table1",)),
    Mutant("oracle-w0-stops-early", "src/delpezzo/search.py",
           "w0_max = min(w_max, (2 * w_max + I_max) // 3)", "w0_max = min(w_max, (2 * w_max + I_max) // 4)",
           ("tests/test_search.py::test_oracle_passes_ask_for_every_w0_to_the_bound",)),
    Mutant("oracle-w0-skips-last-two", "src/delpezzo/search.py",
           "range(w0_min, w0_max + 1)", "range(w0_min, w0_max - 1)",
           ("tests/test_search.py::test_oracle_passes_ask_for_every_w0_to_the_bound",)),
    Mutant("z2-g2-mask-minus-w3", "src/delpezzo/search.py",
           "start[2] + start[3] - start[4]", "start[2] - start[3] - start[4]",
           ("tests/test_search.py::test_z2_candidates_drop_the_segments_gate_g2_fails",)),
    Mutant("series-overlap-needs-three", "src/delpezzo/catalog.py",
           "if len(hits) > 1:", "if len(hits) > 2:",
           ("tests/test_catalog.py::test_find_series_match_rejects_overlapping_families",)),
    Mutant("summary-counts-missing-as-matched", "src/delpezzo/catalog.py",
           "matched = total - len(self.missing)", "matched = total + len(self.missing)",
           ("tests/test_catalog.py::test_diff_detects_missing_row",)),
]


def run(m: Mutant) -> str:
    """'killed', 'survived' or an error for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = Path(tmp) / m.path
        text = target.read_text()
        if text.count(m.old) != 1:
            return "not applied"
        target.write_text(text.replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return {0: "survived", 1: "killed"}.get(proc.returncode, f"pytest exit {proc.returncode}")


def main() -> int:
    bad = 0
    for m in MUTANTS:
        outcome = run(m)
        bad += outcome != "killed"
        print(f"{m.name}: {outcome}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
