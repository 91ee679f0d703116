"""Self-time arithmetic of the traced run on synthetic span trees."""

import itertools

import pytest

import child
from tracing import Tracer, self_times, totals


def span(sid, parent, start, end, name="x", tag=None, calls=1):
    return [sid, parent, name, tag, start, end, calls]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 3.0, 6.0),  # overlaps span 1 on [3, 4]
        span(4, 0, 8.0, 12.0),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0})


def test_totals_sum_self_time_and_calls_by_name_and_by_tag():
    spans = [
        span(0, None, 0.0, 10.0, name="workload"),
        span(1, 0, 0.0, 2.0, name="search.oracle", tag="I1"),
        span(2, 0, 2.0, 5.0, name="search.oracle", tag="I2"),
        span(3, 0, 5.0, 6.0, name="records.build", calls=400),
    ]
    seconds, calls = totals(spans)
    assert seconds["workload"] == pytest.approx(4.0)
    assert seconds["search.oracle"] == pytest.approx(5.0)
    assert seconds["search.oracle.I2"] == pytest.approx(3.0)
    assert calls["records.build"] == 400


def test_tracer_records_parents():
    tr = Tracer()
    with tr.span("a"):
        with tr.span("b") as b:
            b[-1] = 7
        with tr.span("c"):
            pass
    assert [(s[0], s[1], s[2], s[6]) for s in tr.spans] == [
        (0, None, "a", 1), (1, 0, "b", 7), (2, 0, "c", 1),
    ]
    own = self_times(tr.spans)
    assert all(t >= 0 for t in own.values())


@pytest.mark.parametrize("I", [1, 2, 5])
def test_oracle_tuples_counts_the_scanned_box(I):
    w_max = 14
    direct = sum(
        1
        for w in itertools.combinations_with_replacement(range(1, w_max + 1), 4)
        if 3 * w[0] > 2 * I and w[0] + w[1] != 2 * I
    )
    assert child.oracle_tuples(I, w_max) == direct


def test_traced_metrics_are_the_per_layer_metrics_of_benchmark_json():
    import json
    from pathlib import Path

    import run

    spans = [span(0, None, 0.0, 5.0, name="probes"), span(1, 0, 1.0, 2.0, name="records.build")]
    counts = {"search.oracle_records": 1, "search.oracle_tuples": 10}
    metrics = run.layer_metrics({"spans": spans, "counts": counts}, 3.0, 9.0)
    bench = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }
    assert metrics["trace.overhead_s"][0] == pytest.approx(9.0 - 5.0 - 3.0)
