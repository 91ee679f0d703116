"""Each workload's output check passes on a good output and fails on a tampered one."""

import dataclasses
import hashlib
import json

import pytest

import checks
import child
import inputs
from delpezzo import Candidate, WeightSystem, build_record, catalog, serialize


@pytest.fixture(scope="module")
def records_150():
    keys = checks.load_golden("structured_600.json")["oracle_150_keys"]
    return [build_record(Candidate(WeightSystem(tuple(w)), d)) for _, w, d in keys]


def bump_b2(r):
    return dataclasses.replace(r, b2_link=r.b2_link + 1, b2_orbifold=r.b2_orbifold + 1)


def sporadic(records):
    return next(i for i, r in enumerate(records) if r.series_id is None and r.ke == "Y")


def test_reproduce_check(records_150):
    expected = checks.load_golden("reproduce_150.txt")

    def report(records):
        return catalog.diff_against_reference(records).summary() + "\n"

    assert checks.check_reproduce(0, report(records_150), expected) == []
    assert checks.check_reproduce(2, report(records_150), expected)
    i = sporadic(records_150)
    dropped = records_150[:i] + records_150[i + 1:]
    assert checks.check_reproduce(0, report(dropped), expected)
    changed = records_150[:i] + [bump_b2(records_150[i])] + records_150[i + 1:]
    assert checks.check_reproduce(0, report(changed), expected)


def test_structured_check(records_150):
    text = serialize.to_json(records_150)
    golden = {
        "records": len(records_150),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "oracle_150_keys": checks.load_golden("structured_600.json")["oracle_150_keys"],
    }

    def round_trip(t):
        return serialize.to_json(serialize.from_json(t))

    assert checks.check_structured(0, text, golden, round_trip) == []
    rows = json.loads(text)
    dropped = json.dumps(rows[:7] + rows[8:], indent=1) + "\n"
    assert checks.check_structured(0, dropped, golden, round_trip)
    rows[7]["b2_link"] += 1
    changed = json.dumps(rows, indent=1) + "\n"
    assert checks.check_structured(0, changed, golden, round_trip)


@pytest.fixture(scope="module")
def classify_sample():
    golden = checks.load_golden("classify_mix.json.gz")
    items = inputs.stream(7, len(golden["pool"]))[:400]
    points = inputs.resolve(items, golden["pool"], inputs.universe(golden["pool"]))
    return golden, items, [child.classify_one(w, d) for w, d in points]


def test_classify_check(classify_sample):
    golden, items, lines = classify_sample
    assert checks.check_classify(items, lines, golden) == (0, [])
    n = next(i for i, line in enumerate(lines) if line.startswith("R|"))
    assert checks.check_classify(items, lines[:n] + lines[n + 1:], golden)[0] > 0
    fields = lines[n].split("|")
    fields[5] = str(int(fields[5]) + 1)  # b2_link
    changed = lines[:n] + ["|".join(fields)] + lines[n + 1:]
    assert checks.check_classify(items, changed, golden)[0] == 1
    fields = lines[n].split("|")
    fields[-2] = "(9,9k+1,9k+2,9k+4)"  # series tag
    retagged = lines[:n] + ["|".join(fields)] + lines[n + 1:]
    assert checks.check_classify(items, retagged, golden)[0] == 1


def test_classify_stream_is_seeded_and_has_no_repeats():
    golden = checks.load_golden("classify_mix.json.gz")
    a = inputs.stream(3, len(golden["pool"]))
    assert a == inputs.stream(3, len(golden["pool"]))
    assert a != inputs.stream(4, len(golden["pool"]))
    assert len(a) == inputs.KNOWN + inputs.RANDOM == len(set(a))
    points = inputs.resolve(a, golden["pool"], inputs.universe(golden["pool"]))
    assert len(set(points)) == len(points)
