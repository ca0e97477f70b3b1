"""The end-to-end benchmark's own arithmetic and contract.

No sockets, no subprocesses, a few seconds: same seed -> same
inputs, percentile and span self-time sums, the open loop's
timed-from-due-time rule, ``BENCHMARK.json`` against the checked-in
``--smoke`` result, and ``compare.py``'s verdicts.
"""

from __future__ import annotations

import json
import os
import re
import time

import pytest

from e2ebench import gen, loadgen
from e2ebench.comparison import collect, compare, spread, verdict
from e2ebench.harness import CONTRACT_FILE
from e2ebench.spans import ROOT, Tracer, percentile

HERE = os.path.dirname(os.path.abspath(__file__))

with open(CONTRACT_FILE, encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
with open(os.path.join(HERE, "smoke_result.json"),
          encoding="utf-8") as _fh:
    SMOKE = json.load(_fh)["runs"]


# ----------------------------------------------------------------------
# Generators: the seed decides the inputs, and nothing else does
# ----------------------------------------------------------------------


def _xml_digest(tmp_path, seed, tag):
    path = str(tmp_path / f"{tag}.xml")
    plan = gen.write_dblp_xml(path, seed, records=400, intervals=6,
                              vocabulary=500, topics=6)
    return gen.file_digest(path), plan


def _posts_digest(seed):
    stream = gen.PostStream(seed, vocabulary=200, background=20,
                            horizon=40)
    return gen.document_digest(
        [stream.next_interval() for _ in range(4)])


def _clusters_digest(seed):
    return gen.cluster_digest(gen.cluster_stream(seed, 4, 10, 80))


def _requests_digest(seed):
    return gen.digest_of(
        r.wire for r in gen.request_schedule(seed, 200, 50, 6))


def test_same_seed_same_xml_different_seed_different(tmp_path):
    first, plan = _xml_digest(tmp_path, 7, "a")
    again, _ = _xml_digest(tmp_path, 7, "b")
    other, _ = _xml_digest(tmp_path, 8, "c")
    assert first == again != other
    assert plan.repaired > 0 and plan.skipped == 4
    assert plan.malformed == 3


@pytest.mark.parametrize("digest", [_posts_digest, _clusters_digest,
                                    _requests_digest])
def test_same_seed_same_inputs_different_seed_different(digest):
    assert digest(7) == digest(7) != digest(8)


def test_post_stream_buffering_does_not_change_the_stream():
    lazy = gen.PostStream(3, vocabulary=200, background=20, horizon=40)
    ahead = gen.PostStream(3, vocabulary=200, background=20,
                           horizon=40)
    ahead.buffer(3)
    assert gen.document_digest(
        [lazy.next_interval() for _ in range(4)]) \
        == gen.document_digest(
            [ahead.next_interval() for _ in range(4)])


def test_request_mix_and_wire_format():
    schedule = gen.request_schedule(1, 2000, 50, 6)
    share = {route: sum(r.route == route for r in schedule) / 2000
             for route in ("/refine", "/lookup", "/paths")}
    assert share["/refine"] == pytest.approx(0.6, abs=0.05)
    assert share["/lookup"] == pytest.approx(0.3, abs=0.05)
    request = gen.Request("/refine", (("keyword", "kw1"),
                                      ("interval", "2")))
    assert request.wire == (b"GET /refine?keyword=kw1&interval=2 "
                            b"HTTP/1.1\r\nHost: bench\r\n\r\n")


# ----------------------------------------------------------------------
# Percentiles and span arithmetic
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 90) == 5
    assert percentile(values, 1) == 1
    assert percentile(list(range(1, 101)), 99) == 99
    with pytest.raises(ValueError):
        percentile([], 50)


def _tracer_with(rows):
    tracer = Tracer()
    tracer.spans = [list(row) for row in rows]
    return tracer


def test_self_time_is_span_minus_children():
    tracer = _tracer_with([
        (ROOT, None, 0, 0.0, 10.0),
        ("a.x", 0, 0, 1.0, 7.0),
        ("b.y", 1, 0, 2.0, 5.0),
        ("a.x", 0, 0, 7.0, 9.0),
        ("free", None, 1, 20.0, 21.0),
    ])
    assert tracer.self_times() == {ROOT: 2.0, "a.x": 5.0, "b.y": 3.0}
    assert tracer.coverage() == pytest.approx(0.8)
    assert tracer.durations("free") == [1.0]


def test_spans_nest_and_inherit_the_operation_id():
    tracer = Tracer()
    with tracer.span(ROOT, op=42):
        with tracer.span("layer.stage"):
            tracer.add("layer.pieces", 0.5)
    names = [(row[0], row[1], row[2]) for row in tracer.spans]
    assert names == [(ROOT, None, 42), ("layer.stage", 0, 42),
                     ("layer.pieces", 1, 42)]
    assert all(row[4] >= row[3] for row in tracer.spans)


def test_timed_iter_counts_the_producer_not_the_consumer():
    def slow_producer():
        for n in range(3):
            time.sleep(0.01)
            yield n

    tracer = Tracer()
    with tracer.span(ROOT):
        for _ in tracer.timed_iter("corpus.parse", slow_producer()):
            time.sleep(0.02)
    (parse,) = tracer.durations("corpus.parse")
    (whole,) = tracer.durations(ROOT)
    assert parse >= 0.03
    assert whole >= parse + 0.05  # the consumer's three 20 ms


def test_wrapped_adds_a_span_and_restores_the_attribute():
    class Layer:
        def work(self, x):
            return x + 1

    layer = Layer()
    seen = []
    tracer = Tracer()
    with tracer.wrapped(layer, "work", "layer.work",
                        on_call=lambda args, out: seen.append(out)):
        assert layer.work(1) == 2
    assert "work" not in vars(layer)
    assert seen == [2] and len(tracer.durations("layer.work")) == 1


# ----------------------------------------------------------------------
# Open loop: latency runs from the due time
# ----------------------------------------------------------------------


def test_due_times_ignore_responses():
    assert loadgen.due_times(4, 1000.0) == [0.0, 0.001, 0.002, 0.003]


def test_open_loop_charges_a_stall_to_the_requests_it_delays(
        monkeypatch):
    class StallingConnection:
        calls = 0

        def __init__(self, address):
            pass

        def roundtrip(self, wire):
            type(self).calls += 1
            if self.calls == 1:
                time.sleep(0.05)  # one slow answer ...
            return 200, b"{}"

        def close(self):
            pass

    monkeypatch.setattr(loadgen, "Connection", StallingConnection)
    out = loadgen.LoopResult()
    due = loadgen.due_times(5, 1000.0)
    loadgen._drive(("h", 0), [b"x"], range(5), time.perf_counter(),
                   due, 0.0, 1.0, None, out)
    assert out.sent == 5 and out.failed == 0
    # ... delays the four behind it, whose own service took no time.
    assert all(latency > 0.04 for latency in out.latencies)
    assert out.lateness[0] < 0.04 < out.lateness[4]


def test_warm_up_requests_are_run_but_not_counted(monkeypatch):
    class Instant:
        def __init__(self, address):
            pass

        def roundtrip(self, wire):
            return 200, b"{}"

        def close(self):
            pass

    monkeypatch.setattr(loadgen, "Connection", Instant)
    out = loadgen.LoopResult()
    due = loadgen.due_times(10, 1000.0)
    loadgen._drive(("h", 0), [b"x"], range(10), time.perf_counter(),
                   due, 0.005, 1.0, None, out)
    assert out.sent == 5


# ----------------------------------------------------------------------
# BENCHMARK.json against the checked-in --smoke result
# ----------------------------------------------------------------------


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_contract_names_and_bounds_are_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    names = [entry["name"] for key in
             ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert len(CONTRACT["workloads"]) == 4
    assert len(CONTRACT["end_to_end"]) <= 16
    assert len(CONTRACT["per_layer"]) <= 128
    for metric in CONTRACT["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("lower", "higher")
    assert any(m == {"name": "setup_s", "unit": "s",
                     "better": "lower", "bound": m["bound"]}
               for m in CONTRACT["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_pair_is_emitted_and_nothing_else(trace):
    declared = {m["name"]: m["unit"] for m in
                CONTRACT["per_layer" if trace else "end_to_end"]}
    workloads = {w["name"] for w in CONTRACT["workloads"]}
    runs = [run for run in SMOKE if run["header"]["trace"] == trace]
    assert {run["header"]["workload"] for run in runs} == workloads
    for run in runs:
        emitted = {name: metric["unit"]
                   for name, metric in run["metrics"].items()}
        assert emitted == declared, run["header"]["workload"]
        assert run["correct"] and run["failed"] == 0
        assert run["attempted"] >= 1


def test_every_end_to_end_value_is_positive():
    for run in SMOKE:
        if not run["header"]["trace"]:
            assert all(metric["value"] > 0
                       for metric in run["metrics"].values())


def test_every_per_layer_metric_moves_on_some_workload():
    moved = {name for run in SMOKE if run["header"]["trace"]
             for name, metric in run["metrics"].items()
             if metric["value"]}
    # Counters of faults that a healthy run never sees.
    quiet = {"serving.coalesced", "serving.rejected",
             "distributed.hedged", "distributed.respawns",
             "distributed.timeouts"}
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    assert declared - moved <= quiet


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------


def _run(workload, failed=0, **metrics):
    return {"header": {"workload": workload, "trace": 0},
            "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in metrics.items()}}


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0]) == 0.0
    assert spread([9, 10, 10, 10, 11]) == pytest.approx(0.1)


def test_verdicts():
    steady = [100, 101, 99, 100, 100]
    assert verdict(steady, [105] * 5, "lower", 0.1)[2] == "ok"
    assert verdict(steady, [115] * 5, "lower", 0.1)[2] == "worse"
    assert verdict(steady, [80] * 5, "lower", 0.1)[2] == "ok"
    assert verdict(steady, [80] * 5, "higher", 0.1)[2] == "worse"
    noisy = [60, 80, 100, 120, 140]
    assert verdict(noisy, [115] * 5, "lower", 0.1)[2] == "unresolved"


def test_compare_gates_on_worse_rows_and_failed_share():
    contract = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "op_p50_ms", "better": "lower",
                        "bound": 0.1},
                       {"name": "items_per_s", "better": "higher",
                        "bound": 0.1}]}
    base = [_run("w", op_p50_ms=10.0, items_per_s=100.0)]
    rows, passed = compare(
        base, [_run("w", op_p50_ms=10.5, items_per_s=95.0)], contract)
    assert passed and len(rows) == 4
    rows, passed = compare(
        base, [_run("w", op_p50_ms=12.0, items_per_s=100.0)], contract)
    assert not passed and rows[1].endswith("worse")
    rows, passed = compare(
        base, [_run("w", failed=1, op_p50_ms=10.0, items_per_s=100.0)],
        contract)
    assert not passed and rows[3].endswith("worse")
    values, shares = collect(base + base)
    assert values[("w", "op_p50_ms")] == [10.0, 10.0]
    assert shares == {"w": 0.0}
