"""The parallel pool's lifecycle: memory held once, faults surfaced, safe forks.

* Memory: workers inherit the dispatching process's renderers by fork, so
  dispatching a renderer copies none of its tables — the dispatcher's
  resident set barely moves, no ``/dev/shm`` segment appears and no
  multiprocessing resource tracker starts.  Checked in a child process
  (a clean resident set and tracker state), without a clock.
* A worker that dies makes ``collect`` raise at once, naming it, and the
  next dispatch re-forks.
* A forked worker drops the observation it inherited, so a metrics
  registry lock held by another thread at the fork cannot hang it.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backend import parallel
from repro.backend.parallel import WorkerPool
from repro.nerf import NeRFRenderer
from repro.obs import MetricsRegistry, Observation, activate
from repro.obs.runtime import metric_inc

from pool_bundles import render_bundles

SRC = Path(__file__).resolve().parents[2] / "src"

_MEMORY_PROBE = r"""
import json, os
import numpy as np
from multiprocessing import resource_tracker
from repro.backend.parallel import WorkerPool
from repro.nerf import NeRFRenderer, UniformSampler, VoxelGridField
from repro.nerf.fields.decode import SHDecoder

def rss_kb():
    for line in open("/proc/self/status"):
        if line.startswith("VmRSS:"):
            return int(line.split()[1])

def shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

resolution, feature_dim = 80, 16  # 81^3 x 16 float64 = 65 MB, all touched
table = np.full(((resolution + 1) ** 3, feature_dim), 0.01)
field = VoxelGridField(table, resolution, ((-1.5,) * 3, (1.5,) * 3),
                       decoder=SHDecoder(feature_dim=feature_dim,
                                         max_density=800.0))
renderer = NeRFRenderer(field, UniformSampler(32))
rng = np.random.default_rng(0)
origins = np.tile([0.0, 0.0, -4.0], (256, 1))
directions = rng.normal([0.0, 0.0, 1.0], 0.1, (256, 3))
directions /= np.linalg.norm(directions, axis=1, keepdims=True)
bundles = [(origins, directions)] * 4
serial = renderer.render_rays(origins, directions)  # warm every arena

shm_before, rss_before = shm(), rss_kb()
pool = WorkerPool(2)
results = pool.collect(pool.submit([(renderer, bundles)])[0])
rss_after, shm_after = rss_kb(), shm()
tracker_pid = resource_tracker._resource_tracker._pid
pool.shutdown()
print(json.dumps({
    "table_mb": table.nbytes / 2**20,
    "rss_rise_mb": (rss_after - rss_before) / 1024,
    "new_shm": sorted(shm_after - shm_before),
    "tracker_pid": tracker_pid,
    "identical": all(np.array_equal(r.rgb, serial.rgb) for r in results),
}))
"""


def test_dispatch_holds_tables_once():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    assert probe["table_mb"] >= 64
    assert probe["identical"]
    # Exporting the tables would have added >= 64 MB here.
    assert probe["rss_rise_mb"] < 8, probe
    assert probe["new_shm"] == []
    assert probe["tracker_pid"] is None


def _assert_matches_serial(renderer, bundles, results):
    for (origins, directions), result in zip(bundles, results):
        serial = renderer.render_rays(origins, directions)
        assert np.array_equal(result.rgb, serial.rgb)
        assert np.array_equal(result.depth_t, serial.depth_t, equal_nan=True)
        assert np.array_equal(result.opacity, serial.opacity)
        assert result.stats == serial.stats


@pytest.fixture(scope="module")
def bundles(fast_config):
    from repro.harness.configs import make_camera
    origins, directions = make_camera(fast_config).generate_rays()
    return [(origins.reshape(-1, 3), directions.reshape(-1, 3))] * 8


def test_dead_worker_raises_at_once_then_reforks(fast_renderer, bundles,
                                                 monkeypatch):
    monkeypatch.setattr(parallel, "_RESULT_TIMEOUT_S", 60.0)
    metrics = MetricsRegistry()
    pool = WorkerPool(2)
    try:
        with activate(Observation(metrics=metrics)):
            render_bundles(pool, fast_renderer, bundles[:1])  # fork
            tickets = pool.submit([(fast_renderer, bundles)])[0]
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(RuntimeError,
                               match=r"worker 0 exited with code -9"):
                pool.collect(tickets)
            assert time.monotonic() - start < 5.0
            results = render_bundles(pool, fast_renderer, bundles)
        assert metrics.counters["pool.forks"].value == 2
    finally:
        pool.shutdown()
    _assert_matches_serial(fast_renderer, bundles, results)


class _CountingRenderer(NeRFRenderer):
    """Bumps a metric on every call, in whichever process renders."""

    def render_rays(self, origins, directions):
        metric_inc("test.render_rays")
        return super().render_rays(origins, directions)


def test_fork_while_registry_lock_held(fast_renderer, bundles, monkeypatch):
    monkeypatch.setattr(parallel, "_RESULT_TIMEOUT_S", 20.0)
    renderer = _CountingRenderer(fast_renderer.field, fast_renderer.sampler)
    metrics = MetricsRegistry()
    held, forked = threading.Event(), threading.Event()
    # Release the lock only once the parent has forked, so the workers
    # start with it held (a copy nobody in the child will ever release).
    os.register_at_fork(after_in_parent=forked.set)

    def hold_lock():
        with metrics._lock:
            held.set()
            forked.wait(timeout=10.0)

    holder = threading.Thread(target=hold_lock)
    pool = WorkerPool(2)
    try:
        with activate(Observation(metrics=metrics)):
            holder.start()
            held.wait()
            results = render_bundles(pool, renderer, bundles)
        holder.join()
    finally:
        pool.shutdown()
    assert forked.is_set()
    _assert_matches_serial(renderer, bundles, results)
    # Only the parent's own pool counters: nothing the workers did
    # reached (or locked) the parent's registry.
    assert metrics.snapshot()["counters"] == {
        "pool.bundles": len(bundles), "pool.dispatches": 1, "pool.forks": 1}
    assert metrics._lock.acquire(blocking=False)
    metrics._lock.release()
