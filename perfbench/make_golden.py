"""Regenerate the golden files the benchmark's output checks compare against.

    PYTHONPATH=src python3 perfbench/make_golden.py

Run it only at a commit whose outputs are trusted: every later benchmark run
is checked against what it writes.  Takes about a minute, most of it the
exhaustive oracle at w <= 150.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import child
import inputs
from checks import GOLDEN, RECORD_CODE, REJECTION_CODES, SPORADIC_TAG, TABLE1_W_MAX, line_hash
from delpezzo import brute_force_enumerate, catalog, cli


def reproduce_150():
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["reproduce", "--table", "1"])
    if rc != 0:
        raise SystemExit(f"reproduce --table 1 exited {rc}")
    (GOLDEN / "reproduce_150.txt").write_text(buf.getvalue())


def structured_600():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "records.json"
        if child.structured_600(None, out) != 0:
            raise SystemExit("structured enumeration failed")
        text = out.read_text()
    oracle = [
        [r.candidate.I, list(r.candidate.weights.w), r.candidate.d]
        for r in brute_force_enumerate(1, 10, TABLE1_W_MAX)
    ]
    golden = {
        "records": len(json.loads(text)),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "oracle_150_keys": oracle,
    }
    (GOLDEN / "structured_600.json").write_text(json.dumps(golden) + "\n")


def classify_mix():
    pool, seen = [], set()

    def add(c, tag):
        if c.key() in seen:  # two Table-1 rows are also errata series members
            return
        seen.add(c.key())
        line = child.classify_one(c.weights.w, c.d)
        want = "-" if tag == SPORADIC_TAG else tag
        if not line.startswith("R|") or line.split("|")[-2] != want:
            raise SystemExit(f"known hypersurface {c} classified as {line}")
        pool.append([c.I, *c.weights.w, c.d, tag, line_hash(line)])

    for row in catalog.reference_table1():
        add(row.candidate(), SPORADIC_TAG)
    for fam in catalog.reference_series() + catalog.errata_series():
        for _, c in fam.instances_upto(inputs.MAX_WEIGHT):
            add(c, fam.id)

    univ = inputs.universe(pool)
    codes, records = [], {}
    for n, (w, d) in enumerate(univ):
        line = child.classify_one(w, d)
        if line.startswith("R|"):
            codes.append(RECORD_CODE)
            records[str(n)] = line_hash(line)
        else:
            codes.append(REJECTION_CODES[line])
    golden = {
        "pool": pool,
        "universe": {
            "seed": inputs.UNIVERSE_SEED,
            "size": inputs.UNIVERSE_SIZE,
            "sha256": inputs.universe_digest(univ),
        },
        "universe_outcomes": "".join(codes),
        "universe_records": records,
    }
    with open(GOLDEN / "classify_mix.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(golden).encode())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    reproduce_150()
    structured_600()
    classify_mix()
