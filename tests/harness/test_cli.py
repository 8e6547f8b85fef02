"""Tests for the CLI experiment runner."""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.harness import cli
from repro.harness.cli import build_parser, main

REPO = Path(__file__).resolve().parents[2]


def assert_unrecognized(argv, capsys, *flags):
    """``argv`` is an argparse usage error naming every foreign flag."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " in err
    rejected = err.split("unrecognized arguments: ", 1)[1].split()
    for flag in flags:
        assert flag in rejected


class TestParser:
    def test_figure_argument(self):
        args = build_parser().parse_args(["fig07"])
        assert args.figure == "fig07"
        assert not args.fast

    def test_fast_flag(self):
        args = build_parser().parse_args(["fig07", "--fast"])
        assert args.fast

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--fast"])
        assert args.figure == "serve"
        # Generated config flags are absent until set, so the cell sees
        # exactly what the user passed (unset fields keep their
        # effective defaults: 4 sessions, round_robin).
        assert "sessions" not in args and "scheduler" not in args
        assert args.json_out is None


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "fig26" in out and "serve" in out

    def test_list_is_the_subparser_table(self, capsys):
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        action = build_parser()._subparsers._group_actions[0]
        assert listed == list(action.choices)
        assert {"fig02", "all", "trace", "serve-live"} <= set(listed)

    def test_unknown_figure(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'fig99'" in err
        # The message tells the user what *is* available.
        assert "fig07" in err and "serve" in err and "reconcile" in err

    def test_bench_is_not_a_command(self, capsys):
        # Kernel timing lives in the traced end-to-end runs, not in a
        # second benchmark command.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_runs_cheap_figure_fast(self, capsys):
        assert main(["fig23", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fig23" in out
        assert "vft_kb" in out

    def test_json_out_writes_artifact(self, capsys, tmp_path):
        assert main(["fig23", "--fast", "--json-out", str(tmp_path)]) == 0
        path = tmp_path / "BENCH_fig23.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["figure"] == "fig23"
        assert payload["wall_time_s"] >= 0.0
        assert payload["config_scale"]["image_size"] == 48
        assert any("vft_kb" in row for row in payload["rows"])

    @pytest.mark.parametrize("argv", [
        ["serve", "--fast", "--sessions", "1", "--frames", "1"],
        ["frontier", "--fast", "--governor", "off", "--rates", "1,2,3",
         "--frames", "1", "--workers", "1"],
    ], ids=["serve", "frontier"])
    def test_refused_artifact_overwrite_exits_2(self, capsys, tmp_path,
                                                argv):
        stale = tmp_path / f"BENCH_{argv[0]}.json"
        stale.write_text(json.dumps({"kind": "cluster", "rows": []}))
        assert main([*argv, "--json-out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{argv[0]}: refusing to overwrite {stale}" in err
        assert "'cluster' artifact" in err
        assert "Traceback" not in err
        assert json.loads(stale.read_text())["kind"] == "cluster"


class TestServe:
    def test_serve_reports_aggregate_fps_and_p95(self, capsys, tmp_path):
        assert main(["serve", "--fast", "--sessions", "2",
                     "--frames", "3", "--json-out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "aggregate_fps" in out
        assert "p95_latency_ms" in out
        payload = json.loads((tmp_path / "BENCH_serve.json").read_text())
        assert payload["extra"]["sessions"] == 2
        assert payload["extra"]["total_frames"] == 6
        assert payload["extra"]["aggregate_fps"] > 0
        assert payload["extra"]["p95_latency_ms"] > 0
        assert len(payload["rows"]) == 2

    def test_serve_deadline_scheduler(self, capsys):
        assert main(["serve", "--fast", "--sessions", "2", "--frames", "2",
                     "--scheduler", "deadline"]) == 0
        assert "deadline" in capsys.readouterr().out

    def test_serve_rejects_bad_session_count(self, capsys):
        assert main(["serve", "--fast", "--sessions", "0"]) == 2
        assert "--sessions" in capsys.readouterr().err

    def test_serve_rejects_unknown_variant(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--fast", "--sessions", "1", "--frames", "2",
                  "--variant", "warpcore"])
        assert excinfo.value.code == 2
        assert "warpcore" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve"])
    def test_dropped_numba_backend_is_invalid_choice(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--backend", "numba"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'numba'" in capsys.readouterr().err

    def test_serve_rejects_unknown_scene(self, capsys):
        assert main(["serve", "--fast", "--sessions", "1", "--frames", "2",
                     "--scene", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown scene" in err and "lego" in err

    def test_serve_rejects_bad_frame_count(self, capsys):
        assert main(["serve", "--fast", "--frames", "0"]) == 2
        assert "--frames" in capsys.readouterr().err

    def test_serve_rejects_unknown_algorithm(self, capsys):
        assert main(["serve", "--fast", "--sessions", "1",
                     "--algorithm", "gaussians"]) == 2
        err = capsys.readouterr().err
        assert "unknown algorithm" in err and "directvoxgo" in err


class TestWorkloads:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "vr-lego" in out and "dolly-chair" in out
        assert "trajectory" in out  # table header

    def test_list_includes_workloads_command(self, capsys):
        assert main(["list"]) == 0
        assert "workloads" in capsys.readouterr().out

    def test_serve_mixed_workloads_reports_cache_stats(self, capsys,
                                                       tmp_path):
        assert main(["serve", "--fast", "--frames", "2",
                     "--workload", "vr-lego:2",
                     "--workload", "vr-headshake",
                     "--json-out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "vr-lego-01" in out
        assert "ref_cache_hits" in out
        payload = json.loads((tmp_path / "BENCH_serve_mixed.json").read_text())
        assert payload["extra"]["sessions"] == 3
        # The duplicated vr-lego sessions share reference renders.
        assert payload["extra"]["ref_cache_hits"] > 0
        assert payload["extra"]["cache"]["references"]["hits"] > 0

    def test_serve_no_cache_flag(self, capsys):
        assert main(["serve", "--fast", "--frames", "2",
                     "--workload", "vr-lego:2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache_enabled" in out

    def test_serve_rejects_unknown_workload(self, capsys):
        assert main(["serve", "--fast", "--workload", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "vr-lego" in err

    def test_serve_repeated_workload_flags_merge(self, capsys):
        # The same name in two --workload flags is counted, not crashed on.
        assert main(["serve", "--fast", "--frames", "2",
                     "--workload", "vr-lego", "--workload", "vr-lego"]) == 0
        out = capsys.readouterr().out
        assert "vr-lego-00" in out and "vr-lego-01" in out

    def test_serve_rejects_bad_workload_count(self, capsys):
        assert main(["serve", "--fast", "--workload", "vr-lego:0"]) == 2
        assert "count" in capsys.readouterr().err

    def test_serve_rejects_workload_scene_combination(self, capsys):
        assert main(["serve", "--fast", "--workload", "vr-lego",
                     "--scene", "lego"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_serve_rejects_workload_variant_combination(self, capsys):
        # The spec fixes the SoC variant; an explicit --variant would be
        # silently ignored, so it is rejected instead.
        assert main(["serve", "--fast", "--workload", "vr-lego",
                     "--variant", "gpu"]) == 2
        assert "--variant" in capsys.readouterr().err

    def test_serve_rejects_workload_sessions_combination(self, capsys):
        # The mix counts decide the session count; an explicit --sessions
        # would be silently ignored, so it is rejected instead.
        assert main(["serve", "--fast", "--workload", "vr-lego",
                     "--sessions", "20"]) == 2
        assert "--sessions" in capsys.readouterr().err


class TestGovernorCli:
    def test_list_includes_frontier(self, capsys):
        assert main(["list"]) == 0
        assert "frontier" in capsys.readouterr().out

    @staticmethod
    def _scene_cycling_rows(tmp_path, *flags):
        rc = main(["serve", "--fast", "--sessions", "2", "--frames", "2",
                   *flags, "--json-out", str(tmp_path)])
        assert rc == 0
        return json.loads((tmp_path / "BENCH_serve.json").read_text())

    def test_serve_governor_static_pins_scene_cycling_sessions(
            self, tmp_path):
        # Scene-cycling sessions are workload specs, so the static pin
        # builds them at their deepest rung like any --workload mix.
        payload = self._scene_cycling_rows(tmp_path, "--governor", "static")
        assert payload["extra"]["governor"] == "static"
        assert [row["quality_level"] for row in payload["rows"]] == [2, 2]

    def test_serve_slo_applies_to_scene_cycling_sessions(self, tmp_path):
        payload = self._scene_cycling_rows(
            tmp_path, "--governor", "static", "--slo", "5")
        assert payload["extra"]["governor"] == "static"
        assert [row["quality_level"] for row in payload["rows"]] == [2, 2]

    def test_serve_rejects_bad_slo(self, capsys):
        assert main(["serve", "--fast", "--workload", "vr-lego",
                     "--slo", "0"]) == 2
        assert "--slo" in capsys.readouterr().err

    def test_serve_rejects_bad_ray_budget(self, capsys):
        assert main(["serve", "--fast", "--ray-budget", "0"]) == 2
        assert "--ray-budget" in capsys.readouterr().err

    def test_frontier_rejects_two_load_points(self, capsys):
        assert main(["frontier", "--fast", "--rates", "1,2"]) == 2
        assert ">= 3" in capsys.readouterr().err

    def test_frontier_rejects_malformed_rates(self, capsys):
        assert main(["frontier", "--fast", "--rates", "a,b,c"]) == 2
        assert "bad --rates" in capsys.readouterr().err

    def test_governed_serve_reports_tier_state(self, capsys, tmp_path):
        rc = main(["serve", "--fast", "--frames", "3",
                   "--workload", "vr-lego:2", "--governor", "static",
                   "--json-out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "quality_level" in out
        payload = json.loads(
            (tmp_path / "BENCH_serve_mixed.json").read_text())
        assert payload["extra"]["governor"] == "static"
        assert all(row["quality_level"] == 2 for row in payload["rows"])

    def test_governed_cluster_reports_quality(self, capsys, tmp_path):
        rc = main(["cluster", "--fast", "--governor", "adaptive",
                   "--slo", "3000", "--rate", "30", "--duration", "0.5",
                   "--workers", "1", "--queue-limit", "2",
                   "--frames", "2", "--seed", "2",
                   "--json-out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(
            (tmp_path / "BENCH_cluster.json").read_text())
        extra = payload["extra"]
        assert extra["governor"] == "adaptive"
        assert extra["quality_floor_ok"] is True
        assert extra["mean_psnr"] > 0.0

    def test_frontier_honours_placement(self, monkeypatch, tmp_path):
        # The frontier runs every cell through the experiment runner, so
        # the placement knob must survive the RunConfig hand-off.
        from repro.harness import runner as runner_mod
        seen = []
        real = runner_mod.simulate_cluster

        def spy(*args, **kwargs):
            seen.append(kwargs["placement"])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "simulate_cluster", spy)
        assert main(["frontier", "--fast", "--workload", "vr-lego:1",
                     "--rates", "5,6,7", "--duration", "0.2",
                     "--frames", "1", "--governor", "off",
                     "--placement", "cache_affinity",
                     "--json-out", str(tmp_path)]) == 0
        assert len(seen) == 3 and all(p == "cache_affinity" for p in seen)


# (command line, the flags its error must name).
FOREIGN_FLAGS = [
    # Silently accepted (and ignored) by the flat parser this replaced.
    ("experiment --table examples/experiments/quick.json --backend parallel "
     "--sessions 3 --rates 1,2 --port 99",
     "--backend --sessions --rates --port"),
    ("fig23 --fast --workers 9", "--workers"),
    ("workloads --catalog 5", "--catalog"),
    ("serve-live --fast --quick --table y --rates 1,2,3 --port 0",
     "--quick --table --rates"),
    # Formerly rejected by hand-written cross-command lists.
    ("cluster --fast --ray-budget 64", "--ray-budget"),
    ("cluster --fast --rates 1,2,3", "--rates"),
    ("cluster --fast --sessions 4", "--sessions"),
    ("cluster --fast --scheduler deadline", "--scheduler"),
    ("frontier --fast --sessions 4", "--sessions"),
    ("frontier --fast --rate 3", "--rate"),
    ("frontier --fast --autoscale", "--autoscale"),
    ("frontier --fast --backend parallel", "--backend"),
    ("frontier --fast --catalog 8", "--catalog"),  # sweep shards via experiment
    ("serve --fast --workers 2", "--workers"),
    ("serve --fast --catalog 8", "--catalog"),
    ("serve-live --fast --workload vr-lego", "--workload"),
    ("serve-live --fast --frames 3 --seed 1", "--frames --seed"),
    ("loadgen --fast --workers 2", "--workers"),
    ("loadgen --fast --sessions 2", "--sessions"),
    ("reconcile --input x.json --rate 2", "--rate"),
    ("list --fast", "--fast"),
    ("trace analyze t.json --fast", "--fast"),
    ("all --trace t.json", "--trace"),
    # serve-live's socket and clock flags on the virtual-clock commands.
    ("serve --fast --host 127.0.0.1", "--host"),
    ("serve --fast --port 7070", "--port"),
    ("cluster --fast --time-scale 0.5", "--time-scale"),
    # A cluster worker renders one session per round, and the live
    # server always renders in-process: only serve has a pool.
    ("cluster --fast --backend parallel --engine-workers 2",
     "--backend --engine-workers"),
    ("serve-live --fast --backend parallel", "--backend"),
    ("loadgen --fast --backend parallel --engine-workers 2",
     "--backend --engine-workers"),
    ("frontier --fast --rates 1,2,3 --time-scale 2", "--time-scale"),
    # No abbreviations: a prefix must not reach a longer flag (--rate
    # would otherwise select frontier's --rates).
    ("cluster --fast --work 2", "--work"),
    # The sweep fixes poisson arrivals, so frontier has no such flag.
    ("frontier --fast --arrivals diurnal", "--arrivals"),
    # The connecting client picks the schedule: serve-live has no
    # arrival flags at all.
    ("serve-live --fast --rate 3", "--rate"),
    # Only the observed commands (serve/cluster/frontier/experiment/
    # loadgen) have a --trace flag.
    ("reconcile --input x.json --trace t.json", "--trace"),
    # Only the trace command takes positional arguments.
    ("serve analyze --fast", "analyze"),
]


class TestForeignFlags:
    """Each command is its own subparser: a flag it does not take is an
    argparse usage error (exit 2) on every command — never silently
    ignored, never a hand-written rejection."""

    @pytest.mark.parametrize(
        "line, foreign", FOREIGN_FLAGS,
        ids=[line.split()[0] + foreign.split()[0]
             for line, foreign in FOREIGN_FLAGS])
    def test_foreign_flag_is_unrecognized(self, capsys, line, foreign):
        assert_unrecognized(line.split(), capsys, *foreign.split())


DOCUMENTED_IN = {path.name: path for path in (
    REPO / ".github/workflows/ci.yml", REPO / "README.md",
    *sorted((REPO / "docs").glob("*.md")))}


def documented_invocations(text: str) -> list:
    """The argv of every ``python -m repro.harness.cli ...`` in ``text``."""
    found = []
    # An invocation runs over shell continuations up to the end of its
    # line, a pipe/redirect/background, or a comment.
    for match in re.finditer(
            r"python -m repro\.harness\.cli\s((?:\\\n|[^\n|>&#])*)", text):
        line = match.group(1).replace("\\\n", " ")
        # Unquoted shell variables expand to zero or more words.
        argv = [word for word in shlex.split(line)
                if not re.fullmatch(r"\$\w+", word) or f'"{word}"' in line]
        if argv and argv[0][0] not in "<[":  # a synopsis, not a command
            found.append(argv)
    return found


class TestDocumentedInvocations:
    """Drift guard: every command line the workflow, README, docs and
    the cli docstring quote still parses."""

    def test_the_extractor_finds_them(self):
        found = documented_invocations(DOCUMENTED_IN["ci.yml"].read_text())
        assert len(found) >= 18
        assert ["serve-live", "--fast", "--port", "7071", "--governor",
                "static", "--slo", "30"] in found
        # Continuation lines are joined.
        assert ["reconcile", "--input",
                "realserve-artifacts/BENCH_realserve.json",
                "--json-out", "realserve-artifacts"] in found

    @pytest.mark.parametrize("source", [*DOCUMENTED_IN, "cli.__doc__"])
    def test_documented_invocations_parse(self, source, capsys):
        text = (cli.__doc__ if source == "cli.__doc__"
                else DOCUMENTED_IN[source].read_text())
        rejected = []
        for argv in documented_invocations(text):
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                rejected.append((argv, capsys.readouterr().err[-200:]))
        assert not rejected
