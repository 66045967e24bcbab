"""Unit coverage for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs import (
    Counter,
    FlightRecorder,
    MetricsRegistry,
    TraceEvent,
    TraceLog,
    Tracer,
    breakdown_from_trace,
    chrome_trace,
    validate_chrome_trace,
    write_flight_dump,
)
from repro.obs.trace import event_to_dict


class TestMetricsRegistry:
    def test_counter_get_or_create_identity(self):
        registry = MetricsRegistry()
        first = registry.counter("votes")
        first.inc()
        first.inc(3)
        assert registry.counter("votes") is first
        assert registry.counter("votes").value == 4

    def test_snapshot_deterministic_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["a"] == 1
        assert snapshot["b"] == 2
        # Byte-identical when serialized twice.
        assert json.dumps(snapshot) == json.dumps(registry.snapshot())

    def test_new_counter_starts_at_zero(self):
        registry = MetricsRegistry()
        registry.counter("present")
        assert registry.snapshot() == {"present": 0}

    def test_snapshot_is_detached(self):
        registry = MetricsRegistry()
        registry.counter("votes").inc(2)
        snapshot = registry.snapshot()
        registry.counter("votes").inc()
        snapshot["votes"] = 99
        assert registry.snapshot() == {"votes": 3}


class TestTraceLog:
    def test_per_kind_index_survives_eviction(self):
        log = TraceLog(capacity=6)
        for index in range(12):
            kind = "a" if index % 3 else "b"
            log.append(TraceEvent(time=float(index), replica_id=index % 2,
                                  kind=kind))
        assert len(log) == 6
        assert log.dropped == 6
        # The per-kind index must agree with a full-scan filter.
        retained = log.events()
        for kind in ("a", "b"):
            expected = [event for event in retained if event.kind == kind]
            assert log.events(kind=kind) == expected
        assert sum(len(log.events(kind=kind)) for kind in ("a", "b")) == 6

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)

    def test_events_filter_by_replica_and_kind(self):
        log = TraceLog()
        for index in range(6):
            log.append(TraceEvent(time=float(index), replica_id=index % 3,
                                  kind="vote" if index < 4 else "qc"))
        assert [event.time for event in log.events(replica_id=1)] == [1.0, 4.0]
        assert [
            event.time for event in log.events(kind="vote", replica_id=1)
        ] == [1.0]
        assert log.events(kind="commit") == []

    def test_event_to_dict_omits_defaults(self):
        bare = event_to_dict(TraceEvent(time=1.5, replica_id=2, kind="round"))
        assert bare == {"t": 1.5, "replica": 2, "kind": "round"}
        rich = event_to_dict(
            TraceEvent(time=1.5, replica_id=2, kind="commit", round=7,
                       height=5, block="abc", value=2.0, count=3)
        )
        assert rich["round"] == 7
        assert rich["block"] == "abc"
        assert rich["value"] == 2.0
        assert rich["count"] == 3

    def test_tracer_fans_out_to_both_sinks(self):
        log = TraceLog()
        flight = FlightRecorder(capacity=4)
        tracer = Tracer(3, span_log=log, flight=flight, level="spans")
        tracer.emit(0.5, "vote", round=1, height=1, block="b1")
        assert len(log) == 1
        assert len(flight.events()) == 1
        assert log.events()[0].replica_id == 3
        assert not tracer.full

    def test_flight_only_tracer_materializes_events(self):
        # The default configuration: no span log, the ring stores raw
        # field tuples and turns them into TraceEvents on the way out.
        flight = FlightRecorder(capacity=4)
        tracer = Tracer(2, flight=flight)
        tracer.emit(1.25, "commit", round=4, height=3, block="b4", count=1)
        (event,) = flight.events()
        assert event == TraceEvent(time=1.25, replica_id=2, kind="commit",
                                   round=4, height=3, block="b4", count=1)


class TestFlightRecorder:
    def test_ring_bounds_and_dropped(self):
        flight = FlightRecorder(capacity=3)
        for index in range(8):
            flight.append(TraceEvent(time=float(index), replica_id=0,
                                     kind="x"))
        assert len(flight.events()) == 3
        assert flight.dropped == 5
        assert [event.time for event in flight.events()] == [5.0, 6.0, 7.0]

    def test_write_flight_dump_round_trips(self, tmp_path):
        recording = {
            "sim_time": 4.5,
            "violations": [{"invariant": "definition-1", "expected": False}],
            "replicas": {"0": {"crashed": False, "events": []}},
        }
        path = write_flight_dump(recording, tmp_path / "dump.json")
        assert json.loads(path.read_text()) == recording


def _lifecycle_log() -> TraceLog:
    """A hand-built span chain for two blocks on replica 0."""
    log = TraceLog()
    for index, block in enumerate(("aaaa", "bbbb")):
        base = 1.0 + index
        span = dict(replica_id=0, round=index + 1, height=index + 1,
                    block=block)
        log.append(TraceEvent(time=base, kind="propose", value=0.25,
                              count=5, **span))
        log.append(TraceEvent(time=base + 0.1, kind="qc", count=3, **span))
        log.append(TraceEvent(time=base + 0.2, kind="endorse", value=1.0,
                              **span))
        log.append(TraceEvent(time=base + 0.3, kind="commit", **span))
    return log


class TestExport:
    def test_chrome_trace_schema_valid(self):
        data = chrome_trace(_lifecycle_log())
        assert validate_chrome_trace(data) == []
        assert data["displayTimeUnit"] == "ms"
        assert data["otherData"]["recorded_events"] == 8
        phases = {event["ph"] for event in data["traceEvents"]}
        assert phases == {"M", "i", "X"}

    def test_lifecycle_complete_events(self):
        data = chrome_trace(_lifecycle_log())
        spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
        names = sorted(span["name"] for span in spans)
        assert names == [
            "propose→qc aaaa", "propose→qc bbbb",
            "qc→commit aaaa", "qc→commit bbbb",
        ]
        for span in spans:
            expected = 0.1e6 if span["name"].startswith("propose") else 0.2e6
            assert span["dur"] == pytest.approx(expected)

    def test_breakdown_from_trace(self):
        breakdown = breakdown_from_trace(_lifecycle_log(), 0)
        assert breakdown["proposal_to_qc_s"] == pytest.approx(0.1)
        assert breakdown["qc_to_endorse_s"] == pytest.approx(0.1)
        assert breakdown["endorse_to_commit_s"] == pytest.approx(0.1)
        assert breakdown["qc_to_commit_s"] == pytest.approx(0.2)
        assert breakdown["mempool_wait_s"] == pytest.approx(0.05)
        assert breakdown["mempool_wait_txs"] == 10
        assert breakdown["proposal_to_qc_samples"] == 2

    def test_validator_flags_malformed_events(self):
        assert validate_chrome_trace([]) == ["top level must be a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        bad = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 1, "tid": 0},
                {"ph": "i", "pid": 1, "tid": 0, "ts": -5, "s": "q"},
                {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 1,
                 "dur": "oops"},
            ]
        }
        problems = validate_chrome_trace(bad)
        # bad ph; missing name + bad ts + bad scope; bad dur
        assert len(problems) == 5
        assert any("unexpected ph" in problem for problem in problems)
        assert any("bad dur" in problem for problem in problems)


class TestCounterBasics:
    def test_counter_inc(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
