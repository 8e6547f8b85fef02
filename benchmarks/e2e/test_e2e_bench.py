"""Self-tests of the end-to-end benchmark's own machinery (tier-1, seconds).

They test the instrument, not the program: the percentile rule, seeded
input generators, the contract file, the compare verdicts, the live
harness's failure handling, and one ``--smoke`` run end to end.
"""

import asyncio
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import e2e_batch  # noqa: E402
import e2e_common  # noqa: E402
import e2e_compare  # noqa: E402
import e2e_live  # noqa: E402

CONTRACT = e2e_common.load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- statistics -----------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert e2e_common.highest_supported_percentile(19) is None
    assert e2e_common.highest_supported_percentile(20) == 50
    assert e2e_common.highest_supported_percentile(99) == 50
    assert e2e_common.highest_supported_percentile(100) == 90
    assert e2e_common.highest_supported_percentile(1000) == 99
    assert e2e_common.highest_supported_percentile(10000) == 99.9


def test_percentile_reports_its_sample_count_and_withholds_thin_tails():
    value, n = e2e_common.percentile(range(99), 90)
    assert (value, n) == (None, 99)
    value, n = e2e_common.percentile(range(101), 90)
    assert n == 101 and value == pytest.approx(90.0)
    value, n = e2e_common.percentile([3.0, 1.0, 2.0], 50)  # the median always
    assert (value, n) == (2.0, 3)


def test_span_self_time_is_duration_minus_children():
    spans = e2e_common.Spans()
    root = spans.add("pass", 0.0, 10.0)
    child = spans.add("engine.run", 1.0, 7.0, root)
    spans.add("nerf.render", 2.0, 4.0, child)
    spans.add("nerf.render", 3.0, 6.0, child)  # overlap counted once
    assert spans.self_times() == [4.0, 2.0, 2.0, 3.0]
    assert spans.self_time_by_name()["nerf.render"] == 5.0
    assert spans.total_by_name()["nerf.render"] == (5.0, 2)


# -- inputs made from the seed -----------------------------------------------------


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    generators = {
        "solo_plan": lambda seed: [
            (spec.name, spec.seed, frames)
            for spec, frames in e2e_batch.solo_plan(e2e_batch.FULL, seed)],
        "serve_mix": e2e_batch.serve_mix,
        "closed_plan": lambda seed: e2e_live.closed_plan(seed, 2, length=28),
        "open_schedule": lambda seed: e2e_live.open_schedule(seed, 5.0),
    }
    for name, make in generators.items():
        assert make(3) == make(3), name
        assert make(3) != make(4), name


def test_seeds_change_order_and_timing_but_not_the_amount_of_work():
    for seed in (1, 2):
        plan = e2e_batch.solo_plan(e2e_batch.FULL, seed)
        assert sorted((spec.name, spec.frames, dense) for spec, dense in plan) \
            == sorted(e2e_batch.FULL.solo_plan)
        assert sorted(e2e_batch.serve_mix(seed)) == sorted(e2e_batch.SERVE_MIX)
        schedule = e2e_live.open_schedule(seed, 7.0)
        assert len(schedule) == round(e2e_live.OPEN_RATE_HZ * 7.0)
        assert schedule[-1][0] == pytest.approx(7.0)
        names = [name for _, name in schedule]
        assert sorted(names[:7]) == sorted(names[7:14])  # whole mixes


# -- the contract file ----------------------------------------------------------------


def test_benchmark_json_obeys_the_caps():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"][-1] == "benchmarks/e2e/run.py"
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = {m["name"]: m for m in CONTRACT["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_readme_glossary_and_benchmark_json_name_the_same_things():
    readme = (BENCH_DIR / "README.md").read_text()
    glossary = re.findall(r"<!-- glossary:start -->(.*?)<!-- glossary:end -->",
                          readme, flags=re.S)
    in_readme = set(re.findall(r"^\| `([^`]+)` \|", "\n".join(glossary),
                               flags=re.M))
    in_json = {entry["name"] for key in ("workloads", "end_to_end", "per_layer")
               for entry in CONTRACT[key]}
    assert in_readme == in_json


def test_every_workload_has_a_runner():
    import run
    assert {w["name"] for w in CONTRACT["workloads"]} == set(
        run.BATCH_WORKLOADS + run.LIVE_WORKLOADS)


# -- correctness checks and verdicts -----------------------------------------------------


def _pass(digests):
    return e2e_batch.PassRecord(wall_s=1.0, frames=len(digests), sessions=1,
                                ttff_ms=[], stream_ms=[], digests=digests)


def test_a_wrong_digest_is_a_failed_frame():
    good = ["a", "b", "c"]
    count = e2e_batch._count_failures
    assert count([_pass(good), _pass(good)], None) == 0
    assert count([_pass(good), _pass(["a", "x", "c"])], None) == 1
    assert count([_pass(good)], ["a", "b", "x"]) == 1
    assert count([_pass(good), _pass(["a", "b"])], None) == 3  # short pass


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    verdict = e2e_compare.verdict
    assert verdict(steady, [x * 1.02 for x in steady], "lower", 0.1)[0] == "ok"
    assert verdict(steady, [x * 1.2 for x in steady], "lower", 0.1)[0] == "worse"
    assert verdict(steady, [x * 0.8 for x in steady], "higher", 0.1)[0] == "worse"
    assert verdict(steady, [x * 0.8 for x in steady], "lower", 0.1)[0] == "ok"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1)[0] \
        == "unresolved"
    # Wide spread, but every candidate run is better than every base run.
    assert verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.1)[0] == "ok"


def test_compare_reads_output_files(tmp_path, capsys):
    def write(directory, scale):
        directory.mkdir()
        for index in range(5):
            run = {"workload": "solo_sparw", "trace": False, "metrics": {
                "frames_per_s": {"value": scale * (20.0 + index / 10),
                                 "unit": "1/s"}}}
            (directory / f"run-{index}.json").write_text(json.dumps(run))

    write(tmp_path / "a", 1.0)
    write(tmp_path / "b", 0.5)
    assert e2e_compare.compare(tmp_path / "a", tmp_path / "a") == 0
    assert e2e_compare.compare(tmp_path / "a", tmp_path / "b") == 1
    assert "worse" in capsys.readouterr().out


# -- the live harness --------------------------------------------------------------------


def _fake_server(code: str):
    return subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def test_await_ready_parses_the_port_and_notices_a_dead_server():
    proc = _fake_server("print('frame server listening on 127.0.0.1:4321', "
                        "flush=True); import time; time.sleep(30)")
    try:
        assert e2e_live.await_ready(proc, timeout_s=10.0) == 4321
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    proc = _fake_server("print('boom')")
    try:
        with pytest.raises(RuntimeError, match="exited"):
            e2e_live.await_ready(proc, timeout_s=10.0)
    finally:
        proc.stdout.close()


def test_a_dead_server_is_a_failed_session_not_a_hang():
    import socket
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind((e2e_live.HOST, 0))
        port = probe.getsockname()[1]
    record = asyncio.run(e2e_live.run_session(port, "vr-lego", 1, 2, 0.0, "t"))
    assert record["status"].startswith("failed: connect")


def test_no_process_outlives_a_run():
    # In a process of its own: the sweep stops *every* child of its caller.
    code = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import e2e_common\n"
        "from multiprocessing import resource_tracker, shared_memory\n"
        "block = shared_memory.SharedMemory(create=True, size=16)\n"
        "block.close(); block.unlink()\n"
        "tracker = resource_tracker._resource_tracker._pid\n"
        "sleeper = subprocess.Popen([sys.executable, '-c',\n"
        "                            'import time; time.sleep(60)'])\n"
        "before = set(e2e_common.child_pids())\n"
        "assert {tracker, sleeper.pid} <= before, before\n"
        "assert e2e_common.stop_child_processes() == len(before)\n"
        "assert e2e_common.child_pids() == []\n")
    done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=60)
    assert done.returncode == 0, done.stdout


def test_block_rates_time_whole_blocks_only():
    times = [0.0, 0.1, 0.2, 0.4, 0.8, 0.9]  # given unsorted on purpose below
    rates = e2e_live.block_rates(list(reversed(times)), block=2)
    assert rates == pytest.approx([2 / 0.2, 2 / 0.6])  # 0.9 ends no block
    assert e2e_live.block_rates([0.0, 1.0], block=2) == []


# -- one run end to end --------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(tmp_path, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "solo_sparw",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--smoke",
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    last = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = last["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s", done.stdout,
                         flags=re.M) or trace
    (out,) = [p for p in tmp_path.glob("*.json") if ".trace" not in p.name]
    payload = json.loads(out.read_text())
    assert {"host", "seed", "git_revision", "passes", "raw"} <= set(payload)
    assert payload["raw"]["frames_per_s"]  # per-pass values, not only medians
    if trace:
        events = json.loads(out.with_suffix(".trace.json").read_text())
        assert events["traceEvents"]
