"""Workload bodies; run.py starts each in a fresh interpreter.

    python3 perfbench/child.py <workload> <inputs> <output> [<trace file>]

Without a trace file the untraced workload runs: exactly the calls a user
makes.  With one, the traced variant makes the same public calls inside
spans, then probes lower layers on the same inputs, and writes its spans
and counters to the trace file once, at the end.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

from checks import STRUCTURED_W_MAX, TABLE1_W_MAX, record_line
from delpezzo import (
    Candidate, WeightSystem, brute_force_enumerate, build_record, catalog,
    certify_KE, characteristic_divisor, cli, diffeo_type, gate_check, is_quasismooth,
    is_well_formed, milnor_number, moduli_report, serialize, solve_condition_system,
    structured_enumerate, witness_branches,
)
from delpezzo.diophantine import box_solutions, solve_linear_system
from delpezzo.errors import NonPrimitiveWeights
from tracing import Tracer

INDICES = range(1, 11)
# Box for the search layers on workloads that never reach them, so that every
# per-layer time is measured on every workload.
REFERENCE_W_MAX = 40
STRUCTURED_ARGV = [
    "enumerate", "--index", "1..10", "--max-weight", str(STRUCTURED_W_MAX),
    "--method", "structured", "--format", "json", "--output",
]


def load_catalog():
    catalog.reference_table1()
    catalog.reference_series()
    catalog.errata_series()
    catalog.reference_table2()
    catalog.reference_table3()
    catalog.b2_errata()
    catalog.moduli_errata()


def read_inputs(path):
    """Lines "w0 w1 w2 w3 d" -> [((w0, w1, w2, w3), d)]."""
    out = []
    for line in Path(path).read_text().splitlines():
        *w, d = map(int, line.split())
        out.append((tuple(w), d))
    return out


# -- untraced workloads -------------------------------------------------------

def setup(inputs, output):
    load_catalog()
    return 0


def reproduce_150(inputs, output):
    with open(output, "w") as fh, redirect_stdout(fh):
        return cli.main(["reproduce", "--table", "1"])


def structured_600(inputs, output):
    rc = cli.main(STRUCTURED_ARGV + [str(output)])
    serialize.from_json(Path(output).read_text())
    return rc


def classify_one(w, d) -> str:
    """WeightSystem -> is_well_formed -> gate_check -> is_quasismooth -> build_record."""
    try:
        ws = WeightSystem(w)
    except NonPrimitiveWeights:
        return "X|nonprimitive"
    c = Candidate(ws, d)
    if not is_well_formed(ws):
        return "X|not_well_formed"
    gate = gate_check(c)
    if gate is not None:
        return f"X|gate_{gate}"
    if not is_quasismooth(ws, d):
        return "X|not_quasismooth"
    return record_line(build_record(c))


def classify_mix(inputs, output):
    lines = [classify_one(w, d) for w, d in read_inputs(inputs)]
    Path(output).write_text("\n".join(lines) + "\n")
    return 0


# -- traced workloads -----------------------------------------------------------

def oracle_tuples(I: int, w_max: int) -> int:
    """Tuples the oracle's scan ranges over at index I, computed from its bounds:
    (2I)//3 < w0 <= w1 <= w2 <= w3 <= w_max with w0 + w1 != 2I."""
    return sum(
        comb(w_max - w1 + 2, 2)
        for w0 in range((2 * I) // 3 + 1, w_max + 1)
        for w1 in range(w0, w_max + 1)
        if w0 + w1 != 2 * I
    )


def traced_chain(tr, items, counts):
    """WeightSystem -> Candidate -> is_well_formed -> gate_check -> is_quasismooth,
    one batch span per stage.  Returns (outcome per item, [(position, Candidate)])."""
    counts["classify.inputs"] += len(items)
    outcome = [None] * len(items)

    def stage(name, alive, step):
        kept = []
        with tr.span(name, calls=len(alive)):
            for pos, obj in alive:
                rejected, nxt = step(obj)
                if rejected:
                    outcome[pos] = rejected
                else:
                    kept.append((pos, nxt))
        return kept

    def weight_system(item):
        try:
            return None, (WeightSystem(item[0]), item[1])
        except NonPrimitiveWeights:
            return "X|nonprimitive", None

    def candidate(pair):
        ws, d = pair
        if d <= ws[3]:  # no Candidate exists; only search instances reach this
            return "X|degree", None
        return None, Candidate(ws, d)

    def gate(c):
        g = gate_check(c)
        return (f"X|gate_{g}", None) if g is not None else (None, c)

    alive = stage("weights.WeightSystem", list(enumerate(items)), weight_system)
    alive = stage("weights.Candidate", alive, candidate)
    alive = stage("weights.is_well_formed", alive,
                  lambda c: (None, c) if is_well_formed(c.weights) else ("X|not_well_formed", None))
    alive = stage("klt.gate_check", alive, gate)
    alive = stage("quasismooth.is_quasismooth", alive,
                  lambda c: (None, c) if is_quasismooth(c.weights, c.d) else ("X|not_quasismooth", None))
    reasons = Counter(outcome)
    counts["weights.rejected_nonprimitive"] += reasons["X|nonprimitive"]
    counts["weights.rejected_degree"] += reasons["X|degree"]
    counts["weights.rejected_not_well_formed"] += reasons["X|not_well_formed"]
    counts["klt.rejected_gate"] += reasons["X|gate_G1"] + reasons["X|gate_G2"]
    counts["quasismooth.rejected"] += reasons["X|not_quasismooth"]
    return outcome, alive


def oracle_spans(tr, w_max):
    records = []
    for I in INDICES:
        with tr.span("search.oracle", tag=f"I{I}"):
            records += brute_force_enumerate(I, I, w_max)
    return records


def probe_search(tr, counts, w_max, expected_records=None):
    """Re-run the structured route's layers one by one at the same bound.

    The instances go through the admission chain unless `expected_records`
    is None, which keeps the chain's figures to the workload's own calls.
    """
    admitted = 0
    for I in INDICES:
        branches = list(witness_branches(I))
        with tr.span("search.solve", calls=len(branches)):
            spaces = [solve_condition_system(b) for b in branches]
        systems = [b.equations() for b in branches]
        with tr.span("diophantine.solve", calls=len(systems)):
            for A, rhs in systems:
                solve_linear_system(A, rhs)
        with tr.span("search.instances", calls=len(spaces)):
            instances = [w for s in spaces for w in s.instances(w_max)]
        planes = [s for s in spaces if s.kind == "plane"]
        with tr.span("diophantine.box", calls=len(planes)):
            for s in planes:
                for _ in box_solutions(list(s.origin), [list(v) for v in s.directions], 1, w_max):
                    pass
        counts["search.branches"] += len(branches)
        for s in spaces:
            counts[f"search.branches_{s.kind}"] += 1
        counts["search.instances"] += len(instances)
        if expected_records is not None:
            distinct = [(w, sum(w) - I) for w in dict.fromkeys(tuple(w) for w in instances)]
            admitted += len(traced_chain(tr, distinct, counts)[1])
    if expected_records is not None:
        counts["search.admitted"] += admitted
        if admitted != expected_records:
            counts["probe.mismatch"] += 1


def probe_records(tr, counts, candidates, build):
    n = len(candidates)
    counts["probe.candidates"] += n
    if build:
        with tr.span("records.build", calls=n):
            for c in candidates:
                build_record(c)
        counts["records.built"] += n
    for name, fn in [
        ("topology.diffeo_type", diffeo_type),
        ("topology.characteristic_divisor", characteristic_divisor),
        ("topology.milnor_number", milnor_number),
        ("moduli.moduli_report", moduli_report),
        ("klt.certify_KE", certify_KE),
        ("catalog.find_series_match", catalog.find_series_match),
    ]:
        with tr.span(name, calls=n):
            for c in candidates:
                fn(c)


def probe_serialize(tr, counts, records):
    with tr.span("serialize.to_json"):
        text = serialize.to_json(records)
    with tr.span("serialize.from_json"):
        serialize.from_json(text)
    counts["serialize.json_bytes"] += len(text.encode())
    counts["serialize.records"] += len(records)


def probe_diff(tr, counts, records):
    with tr.span("catalog.diff"):
        catalog.diff_against_reference(records)
    counts["catalog.diff_records"] += len(records)


def traced_reproduce_150(tr, counts, inputs, output):
    with tr.span("workload"):
        brute = oracle_spans(tr, TABLE1_W_MAX)
        structured = []
        for I in INDICES:
            with tr.span("search.structured", tag=f"I{I}"):
                structured += structured_enumerate(I, TABLE1_W_MAX)
        if [r.key() for r in brute] != [r.key() for r in structured]:
            text = "method disagreement between oracle and structured search"
        else:
            with tr.span("catalog.diff"):
                text = catalog.diff_against_reference(brute).summary()
            counts["catalog.diff_records"] += len(brute)
    Path(output).write_text(text + "\n")
    with tr.span("probes"):
        probe_search(tr, counts, TABLE1_W_MAX, len(structured))
        probe_records(tr, counts, [r.candidate for r in brute], build=True)
        probe_serialize(tr, counts, brute)
    return brute, TABLE1_W_MAX, TABLE1_W_MAX


def traced_structured_600(tr, counts, inputs, output):
    with tr.span("workload"):
        records = []
        for I in INDICES:
            with tr.span("search.structured", tag=f"I{I}"):
                records += structured_enumerate(I, STRUCTURED_W_MAX)
        with tr.span("serialize.to_json"):
            text = serialize.to_json(records)
        Path(output).write_text(text)
        with tr.span("serialize.from_json"):
            serialize.from_json(Path(output).read_text())
    counts["serialize.json_bytes"] += len(text.encode())
    counts["serialize.records"] += len(records)
    with tr.span("probes"):
        oracle = oracle_spans(tr, REFERENCE_W_MAX)
        probe_search(tr, counts, STRUCTURED_W_MAX, len(records))
        probe_records(tr, counts, [r.candidate for r in records], build=True)
        probe_diff(tr, counts, [r for r in records if r.candidate.weights[3] <= TABLE1_W_MAX])
    return oracle, REFERENCE_W_MAX, STRUCTURED_W_MAX


def traced_classify_mix(tr, counts, inputs, output):
    items = read_inputs(inputs)
    with tr.span("workload"):
        outcome, admitted = traced_chain(tr, items, counts)
        with tr.span("records.build", calls=len(admitted)):
            records = [build_record(c) for _, c in admitted]
    counts["records.built"] += len(records)
    for (pos, _), r in zip(admitted, records):
        outcome[pos] = record_line(r)
    Path(output).write_text("\n".join(outcome) + "\n")
    with tr.span("probes"):
        oracle = oracle_spans(tr, REFERENCE_W_MAX)
        for I in INDICES:
            with tr.span("search.structured", tag=f"I{I}"):
                structured_enumerate(I, REFERENCE_W_MAX)
        probe_search(tr, counts, REFERENCE_W_MAX)
        probe_records(tr, counts, [r.candidate for r in records], build=False)
        probe_diff(tr, counts, records)
        probe_serialize(tr, counts, records)
    return oracle, REFERENCE_W_MAX, REFERENCE_W_MAX


UNTRACED = {
    "setup": setup,
    "reproduce_150": reproduce_150,
    "structured_600": structured_600,
    "classify_mix": classify_mix,
}
# Each returns the oracle's records, the oracle's weight bound, and the bound
# the structured-route figures refer to.
TRACED = {
    "reproduce_150": traced_reproduce_150,
    "structured_600": traced_structured_600,
    "classify_mix": traced_classify_mix,
}


def traced(name, inputs, output, trace_path):
    tr, counts = Tracer(), Counter()
    with tr.span("catalog.load"):
        load_catalog()
    oracle, oracle_w_max, search_w_max = TRACED[name](tr, counts, inputs, output)
    counts["search.oracle_w_max"] = oracle_w_max
    counts["search.oracle_records"] = len(oracle)
    counts["search.oracle_tuples"] = sum(oracle_tuples(I, oracle_w_max) for I in INDICES)
    counts["search.structured_w_max"] = search_w_max
    tr.write(trace_path, dict(counts))
    return 0


def main(argv):
    name, inputs, output, *trace = argv
    if trace:
        return traced(name, inputs, output, trace[0])
    return UNTRACED[name](inputs, output)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
