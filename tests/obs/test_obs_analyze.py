"""Trace analyzer: pure functions over synthetic events + CLI surface."""

import json

import pytest

from repro.obs.analyze import analyze_trace, format_analysis, load_trace


def _meta(pid, label, tid=None, thread=None):
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": label}}]
    if tid is not None:
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": thread}})
    return events


def _span(name, cat, ts, dur, pid=1, tid=1, **args):
    event = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
             "pid": pid, "tid": tid}
    if args:
        event["args"] = args
    return event


def _instant(name, cat, ts, pid=1, tid=1, **args):
    event = {"name": name, "cat": cat, "ph": "i", "s": "t", "ts": ts,
             "pid": pid, "tid": tid}
    if args:
        event["args"] = args
    return event


def _sample_events():
    return [
        *_meta(1, "worker 0", tid=1, thread="alice"),
        # frame 0: waited 2ms, served 1ms -> wait-critical
        _span("frame.wait", "frame", 0.0, 2000.0, frame=0, session="alice"),
        _span("frame.serve", "frame", 2000.0, 1000.0, frame=0,
              session="alice"),
        # frame 1: waited 0.5ms, served 4ms -> serve-critical, slowest
        _span("frame.wait", "frame", 5000.0, 500.0, frame=1,
              session="alice"),
        _span("frame.serve", "frame", 5500.0, 4000.0, frame=1,
              session="alice"),
        _span("engine.round", "engine", 0.0, 100.0, round=0, rays=1000,
              requests=2, cache_hits=1),
        _span("engine.round", "engine", 100.0, 100.0, round=1, rays=3000,
              requests=1, cache_hits=0),
        _instant("governor.retune", "governor", 4000.0, session="alice",
                 level=1),
        _instant("governor.admit_level", "governor", 1000.0,
                 session="alice", level=2),
        _instant("cache.hit", "cache", 50.0),
    ]


class TestLoadTrace:
    def test_accepts_object_and_bare_array(self, tmp_path):
        events = [_instant("e", "c", 0.0)]
        obj = tmp_path / "obj.json"
        obj.write_text(json.dumps({"traceEvents": events}))
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(events))
        assert load_trace(obj) == events
        assert load_trace(bare) == events

    @pytest.mark.parametrize("payload", ['"nope"', '{"events": []}',
                                         '[{"name": "no-ph"}]', '[42]'])
    def test_rejects_malformed(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(ValueError):
            load_trace(path)


class TestAnalyzeTrace:
    def test_census_counts_spans_and_instants(self):
        analysis = analyze_trace(_sample_events())
        census = {row["cat"]: (row["spans"], row["instants"])
                  for row in analysis["categories"]}
        assert census == {"frame": (4, 0), "engine": (2, 0),
                          "governor": (0, 2), "cache": (0, 1)}

    def test_per_frame_critical_path(self):
        analysis = analyze_trace(_sample_events())
        assert analysis["frames_total"] == 2
        worst, second = analysis["frames"]
        # frame 1 has the larger delivered latency and is serve-bound
        assert worst["frame"] == 1
        assert worst["critical"] == "serve"
        assert worst["latency_ms"] == pytest.approx(4.5)
        assert worst["lane"] == "worker 0/alice"
        assert second["frame"] == 0
        assert second["critical"] == "wait"
        assert second["latency_ms"] == pytest.approx(3.0)

    def test_round_occupancy(self):
        rounds = analyze_trace(_sample_events())["rounds"]
        assert rounds["rounds"] == 2
        assert rounds["total_rays"] == 4000.0
        assert rounds["mean_requests"] == 1.5
        assert rounds["max_cache_hits"] == 1.0

    def test_governor_timeline_sorted_by_time(self):
        timeline = analyze_trace(_sample_events())["governor"]
        assert [row["event"] for row in timeline] \
            == ["governor.admit_level", "governor.retune"]
        assert timeline[0]["ts_ms"] == 1.0

    def test_top_limits_frames_and_slowest(self):
        analysis = analyze_trace(_sample_events(), top=1)
        assert len(analysis["frames"]) == 1
        assert analysis["frames_total"] == 2
        assert len(analysis["slowest"]) == 1
        assert analysis["slowest"][0]["span"] == "frame.serve"
        assert analysis["slowest"][0]["dur_ms"] == pytest.approx(4.0)

    def test_rejects_nonpositive_top(self):
        with pytest.raises(ValueError, match="top"):
            analyze_trace(_sample_events(), top=0)

    def test_empty_trace_analyzes_cleanly(self):
        analysis = analyze_trace([])
        assert analysis["frames_total"] == 0
        assert analysis["rounds"] == {"rounds": 0}
        assert "(no rows)" in format_analysis(analysis)

    def test_format_renders_every_block(self):
        text = format_analysis(analyze_trace(_sample_events()))
        for needle in ("event census", "slowest frames", "round occupancy",
                       "governor timeline", "slowest spans"):
            assert needle in text


class TestCli:
    def _write_trace(self, tmp_path):
        path = tmp_path / "run.trace.json"
        path.write_text(json.dumps({"traceEvents": _sample_events()}))
        return path

    def test_analyze_command(self, tmp_path, capsys):
        from repro.harness.cli import main
        path = self._write_trace(tmp_path)
        assert main(["trace", "analyze", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "event census" in out
        assert "worker 0/alice" in out

    def test_analyze_missing_file(self, tmp_path, capsys):
        from repro.harness.cli import main
        assert main(["trace", "analyze", str(tmp_path / "no.json")]) == 2
        assert "no.json" in capsys.readouterr().err

    def test_trace_requires_analyze_subcommand(self, capsys):
        from repro.harness.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["trace"])
        assert excinfo.value.code == 2
        assert "analyze" in capsys.readouterr().err

    def test_analyze_rejects_bad_top(self, tmp_path, capsys):
        from repro.harness.cli import main
        path = self._write_trace(tmp_path)
        assert main(["trace", "analyze", str(path), "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err
