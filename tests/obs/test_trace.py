"""Span tracing: nesting, threads, sinks, and the zero-cost guarantee."""

import io
import json
import threading

from repro.obs import trace
from repro.obs.trace import (
    NOOP_SPAN,
    JsonlSink,
    RecordingSink,
    current_context,
    emit_events,
    set_sink,
    sink_override,
    span,
    start_span,
)


class TestZeroCostWhenDisabled:
    def test_span_returns_shared_noop(self):
        first = span("anything", qubits=10)
        second = span("other")
        assert first is NOOP_SPAN and second is NOOP_SPAN
        assert not first  # falsy, so callers can gate extra work on it

    def test_noop_span_absorbs_the_full_api(self):
        with span("outer") as outer:
            outer.set("key", 1).update(more=2)
            assert outer.context() is None
        assert start_span("detached").context() is None
        assert current_context() is None


class TestNestingAndAttributes:
    def test_parent_ids_follow_lexical_nesting(self):
        sink = RecordingSink()
        set_sink(sink)
        with span("outer", qubits=5) as outer:
            with span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        events = {event["name"]: event for event in sink.events}
        assert events["inner"]["parent_id"] == events["outer"]["span_id"]
        assert events["outer"]["parent_id"] is None
        assert events["outer"]["attrs"]["qubits"] == 5
        assert events["inner"]["duration"] <= events["outer"]["duration"]

    def test_exception_marks_status_error_and_pops_stack(self):
        sink = RecordingSink()
        set_sink(sink)
        try:
            with span("doomed"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert sink.events[0]["status"] == "error"
        assert current_context() is None  # stack fully unwound

    def test_each_thread_has_its_own_stack(self):
        sink = RecordingSink()
        set_sink(sink)
        barrier = threading.Barrier(2)

        def work(label):
            with span(f"outer-{label}"):
                barrier.wait(timeout=10)  # both outers open concurrently
                with span(f"inner-{label}"):
                    pass

        threads = [
            threading.Thread(target=work, args=(label,)) for label in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = {event["name"]: event for event in sink.events}
        for label in "ab":
            inner, outer = events[f"inner-{label}"], events[f"outer-{label}"]
            assert inner["parent_id"] == outer["span_id"]
            assert inner["trace_id"] == outer["trace_id"]
        assert events["outer-a"]["trace_id"] != events["outer-b"]["trace_id"]

    def test_detached_span_parents_explicit_children(self):
        sink = RecordingSink()
        set_sink(sink)
        job = start_span("job", name="j1")
        with span("attempt", parent=job.context()) as attempt:
            assert attempt.parent_id == job.span_id
        job.update(outcome="ok").end()
        events = {event["name"]: event for event in sink.events}
        assert events["attempt"]["parent_id"] == events["job"]["span_id"]
        assert events["job"]["attrs"]["outcome"] == "ok"


class TestSinks:
    def test_jsonl_sink_writes_one_object_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        set_sink(sink)
        with span("outer"):
            with span("inner"):
                pass
        set_sink(None)
        sink.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["inner", "outer"]

    def test_jsonl_sink_accepts_open_stream(self):
        stream = io.StringIO()
        set_sink(JsonlSink(stream))
        with span("streamed"):
            pass
        assert json.loads(stream.getvalue())["name"] == "streamed"

    def test_sink_override_wins_for_the_thread(self):
        outer_sink, inner_sink = RecordingSink(), RecordingSink()
        set_sink(outer_sink)
        with sink_override(inner_sink):
            with span("captured"):
                pass
        with span("global"):
            pass
        assert [event["name"] for event in inner_sink.events] == ["captured"]
        assert [event["name"] for event in outer_sink.events] == ["global"]

    def test_emit_events_replays_worker_spans(self):
        sink = RecordingSink()
        set_sink(sink)
        emit_events([{"name": "replayed", "span_id": "x-1"}])
        assert sink.events == [{"name": "replayed", "span_id": "x-1"}]

    def test_crashing_sink_never_breaks_the_workload(self):
        def explode(event):
            raise RuntimeError("sink down")

        set_sink(explode)
        with span("survives"):
            pass  # no exception may escape


class TestSpanIds:
    def test_ids_embed_pid_and_are_unique(self):
        import os

        set_sink(RecordingSink())
        spans = [start_span("s") for _ in range(100)]
        ids = {live.span_id for live in spans}
        assert len(ids) == 100
        assert all(sid.startswith(f"{os.getpid():x}-") for sid in ids)
        for live in spans:
            live.end()

    def test_context_matches_innermost_span(self):
        set_sink(RecordingSink())
        with span("outer"):
            with span("inner") as inner:
                assert current_context() == {
                    "trace_id": inner.trace_id,
                    "span_id": inner.span_id,
                }
        assert trace.current_context() is None
