"""Tracer: lane registration, event shape, scoping, strict-JSON export."""

import json

from repro.obs import Tracer


def _events(tracer):
    return tracer.to_payload()["traceEvents"]


class TestLanes:
    def test_process_ids_are_stable_and_labelled(self):
        tracer = Tracer()
        pid = tracer.process("cluster")
        assert tracer.process("cluster") == pid
        other = tracer.process("worker 0")
        assert other != pid
        meta = [e for e in _events(tracer) if e["ph"] == "M"
                and e["name"] == "process_name"]
        assert {e["args"]["name"] for e in meta} == {"cluster", "worker 0"}
        assert len(meta) == 2  # registered once, not per lookup

    def test_thread_ids_are_per_process(self):
        tracer = Tracer()
        a, b = tracer.process("a"), tracer.process("b")
        assert tracer.thread(a, "s0") == tracer.thread(b, "s0")  # both tid 1
        assert tracer.thread(a, "s1") != tracer.thread(a, "s0")
        meta = [e for e in _events(tracer) if e["ph"] == "M"
                and e["name"] == "thread_name"]
        assert len(meta) == 3


class TestEvents:
    def test_complete_span_shape(self):
        tracer = Tracer()
        pid = tracer.process("soc")
        tid = tracer.thread(pid, "session")
        tracer.complete("frame.serve", "frame", 10.0, 5.0, pid, tid,
                        args={"frame": 0})
        (span,) = [e for e in _events(tracer) if e["ph"] == "X"]
        assert span == {"name": "frame.serve", "cat": "frame", "ph": "X",
                        "ts": 10.0, "dur": 5.0, "pid": pid, "tid": tid,
                        "args": {"frame": 0}}

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.complete("x", "c", 0.0, -3.0, 1, 1)
        (span,) = [e for e in _events(tracer) if e["ph"] == "X"]
        assert span["dur"] == 0.0

    def test_instant_shape(self):
        tracer = Tracer()
        tracer.instant("cache.hit", "cache", 2.0, 1, 1)
        (instant,) = [e for e in _events(tracer) if e["ph"] == "i"]
        assert instant["s"] == "t"
        assert instant["ts"] == 2.0

    def test_len_counts_events(self):
        tracer = Tracer()
        assert len(tracer) == 0
        tracer.process("p")
        tracer.instant("e", "c", 0.0, 1, 1)
        assert len(tracer) == 2  # metadata + instant


class TestScope:
    def test_default_scope_makes_engine_lane(self):
        tracer = Tracer()
        pid, base = tracer.current_scope()
        assert base == 0.0
        assert pid == tracer.process("engine")

    def test_scope_nests_and_restores(self):
        tracer = Tracer()
        with tracer.scope("worker 0", base_us=100.0) as outer_pid:
            assert tracer.current_scope() == (outer_pid, 100.0)
            with tracer.scope("worker 1", base_us=200.0) as inner_pid:
                assert tracer.current_scope() == (inner_pid, 200.0)
            assert tracer.current_scope() == (outer_pid, 100.0)
        assert tracer.current_scope()[0] == tracer.process("engine")

    def test_scope_pops_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.scope("worker 0", base_us=1.0):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.current_scope()[1] == 0.0


def test_write_round_trips_strict_json(tmp_path):
    tracer = Tracer()
    pid = tracer.process("soc")
    tracer.complete("span", "cat", 0.0, 1.0, pid, 1)
    path = tracer.write(tmp_path / "out" / "run.trace.json")
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    assert [e["name"] for e in payload["traceEvents"]] \
        == ["process_name", "span"]
