"""Output checks for each workload, against golden files made at a trusted commit.

Each check returns a list of problems; an empty list means the output is
correct.  `perfbench/make_golden.py` regenerates the golden files.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE1_W_MAX = 150
STRUCTURED_W_MAX = 600
TABLE1_SUMMARY = "73/73 sporadic rows matched"
SPORADIC_TAG = "table1"

# One character per rejection reason in the golden universe outcomes.
REJECTION_CODES = {
    "X|nonprimitive": "p",
    "X|not_well_formed": "w",
    "X|gate_G1": "1",
    "X|gate_G2": "2",
    "X|not_quasismooth": "q",
}
RECORD_CODE = "r"


def record_line(r) -> str:
    """Every field of a record on one line; the series id is the next-to-last field."""
    c = r.candidate
    return "|".join(
        map(str, [
            "R", c.I, " ".join(map(str, c.weights.w)), c.d, r.mu, r.b2_link,
            r.b2_orbifold, r.l, r.klt, r.klt_provenance, r.ke, r.moduli_m,
            r.moduli_dim_aut, r.moduli_n, r.series_id or "-", r.series_k,
        ])
    )


def line_hash(line: str) -> str:
    return hashlib.blake2b(line.encode(), digest_size=4).hexdigest()


def token(line: str) -> str:
    """What a classify output line is compared by: its rejection, or its record's hash."""
    return line if line.startswith("X|") else "r:" + line_hash(line)


def load_golden(name: str):
    path = GOLDEN / name
    if path.suffix == ".gz":
        with gzip.open(path, "rt") as fh:
            return json.load(fh)
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return path.read_text()


def check_reproduce(rc: int, text: str, expected: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if TABLE1_SUMMARY not in text.splitlines():
        problems.append(f"no line {TABLE1_SUMMARY!r}")
    if text != expected:
        problems.append("reconciliation report differs from the golden one")
    return problems


def check_structured(rc: int, text: str, golden: dict, round_trip) -> list[str]:
    """`round_trip(text)` must give the text back: JSON -> records -> JSON."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"output is not JSON: {exc}"]
    if len(rows) != golden["records"]:
        problems.append(f"{len(rows)} records, expected {golden['records']}")
    keys = sorted(
        [r["index"], r["weights"], r["degree"]]
        for r in rows if max(r["weights"]) <= TABLE1_W_MAX
    )
    if keys != sorted(golden["oracle_150_keys"]):
        problems.append(f"w <= {TABLE1_W_MAX} keys differ from the oracle's")
    if hashlib.sha256(text.encode()).hexdigest() != golden["sha256"]:
        problems.append("records differ from the golden ones")
    if round_trip(text) != text:
        problems.append("JSON does not round-trip")
    return problems


def expected_classify(stream, golden) -> list[str]:
    """The golden token of each input of a classify_mix stream."""
    pool, codes, extra = golden["pool"], golden["universe_outcomes"], golden["universe_records"]
    by_code = {v: k for k, v in REJECTION_CODES.items()}
    out = []
    for source, i in stream:
        if source == "pool":
            out.append("r:" + pool[i][7])
        elif codes[i] == RECORD_CODE:
            out.append("r:" + extra[str(i)])
        else:
            out.append(by_code[codes[i]])
    return out


def digest(tokens) -> str:
    counts = Counter(t if t.startswith("X|") else RECORD_CODE for t in tokens)
    body = "\n".join(tokens) + json.dumps(counts, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def check_classify(stream, lines: list[str], golden) -> tuple[int, list[str]]:
    """(inputs whose outcome differs from the golden one, problems)."""
    if len(lines) != len(stream):
        return len(stream), [f"{len(lines)} outcomes for {len(stream)} inputs"]
    expected = expected_classify(stream, golden)
    got = [token(line) for line in lines]
    bad = {n for n, (a, b) in enumerate(zip(got, expected)) if a != b}
    for n, (source, i) in enumerate(stream):
        if source == "pool":
            fields = lines[n].split("|")
            tag = golden["pool"][i][6]
            want = "-" if tag == SPORADIC_TAG else tag
            if fields[0] != "R" or fields[-2] != want:
                bad.add(n)
    problems = []
    if bad:
        problems.append(f"{len(bad)} of {len(stream)} outcomes differ from the golden ones")
    if digest(got) != digest(expected):
        problems.append("per-seed digest differs from the golden one")
    return len(bad), problems
