"""Persistent multiprocessing pool fanning ray bundles across cores.

The ``parallel`` backend's engine path.  Baked field tables (voxel
vertex features, hash-level tables, tensor factors, the occupancy mask)
are exported **once** per renderer into ``multiprocessing.shared_memory``
blocks; workers attach read-only, so only ray bundles and per-bundle
:class:`~repro.nerf.renderer.RenderOutput` results ever cross the pool
boundary.  Because workers rebuild the renderer from the same baked
tables and run the same deterministic numpy kernels, per-bundle results
are bit-identical to the serial path (the ``parallel`` backend's
exact-parity contract).

Lifecycle: :func:`get_pool` returns the process-wide pool (created on
first use, resized on demand); :func:`shutdown_pool` — also registered
``atexit`` — stops the workers and unlinks every shared block.  A
``release`` broadcast drops worker-side renderer caches and scratch
arenas (the engine sends it at run exit).
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["WorkerPool", "get_pool", "shutdown_pool", "renderer_spec",
           "release_process_memory", "supports_parallel"]

_RESULT_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------
# shared-memory plumbing


# Whether attaches in *this* process must undo the resource tracker's
# registration.  Spawned workers get their own tracker which would
# otherwise unlink the parent's blocks at worker exit; forked workers
# share the parent's tracker, where the attach-register is a duplicate
# no-op and unregistering would strip the parent's own entry instead.
_UNREGISTER_ON_ATTACH = True


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker ownership.

    Before Python 3.13 every attach registers with the resource tracker,
    which then unlinks the block when *any* worker exits — stealing it
    from the exporter.  ``track=False`` (3.13+) or an explicit
    unregister (earlier, spawn workers only — see
    ``_UNREGISTER_ON_ATTACH``) keeps ownership with the exporter.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        shm = shared_memory.SharedMemory(name=name)
        if _UNREGISTER_ON_ATTACH:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return shm


def _export_array(array: np.ndarray) -> tuple[dict, shared_memory.SharedMemory]:
    """Copy an array into a fresh shared block; returns (ref, block)."""
    array = np.ascontiguousarray(array)
    shm = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    ref = {"shm": shm.name, "shape": array.shape, "dtype": array.dtype.str}
    return ref, shm


def _attach_array(ref: dict, blocks: list) -> np.ndarray:
    """Worker-side read-only view of an exported array."""
    shm = _attach(ref["shm"])
    blocks.append(shm)  # keep the mapping alive as long as the views
    view = np.ndarray(tuple(ref["shape"]), dtype=np.dtype(ref["dtype"]),
                      buffer=shm.buf)
    view.setflags(write=False)
    return view


# ---------------------------------------------------------------------------
# renderer <-> picklable spec

# renderer -> (token, spec); the spec is built once and its shared
# blocks are freed when the renderer is garbage-collected (finalizer)
# or at pool shutdown.
_SPEC_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_TOKEN_BLOCKS: dict = {}
_TOKENS = itertools.count(1)


def _field_spec(field) -> dict:
    """Picklable description of a baked field, tables in shared memory."""
    from ..nerf.fields.hash_grid import HashGridField
    from ..nerf.fields.tensor_factor import TensorFactorField
    from ..nerf.fields.voxel_grid import VoxelGridField

    lo, hi = field.bounds
    blocks = []

    def export(array):
        ref, shm = _export_array(array)
        blocks.append(shm)
        return ref

    decoder = field.decoder
    spec = {
        "bounds": (lo.tolist(), hi.tolist()),
        "bytes_per_channel": field.bytes_per_channel,
        "decoder": {
            "feature_dim": decoder.feature_dim,
            "max_density": decoder.max_density,
            "hidden_layers": len(decoder.mlp.weights) - 1,
        },
    }
    if isinstance(field, VoxelGridField):
        spec.update(kind="voxel", resolution=field.resolution,
                    vertex_features=export(field.vertex_features))
    elif isinstance(field, HashGridField):
        spec.update(kind="hash", levels=[
            {"resolution": level.resolution,
             "table_size": level.table_size,
             "table": export(level.table)}
            for level in field.levels])
    elif isinstance(field, TensorFactorField):
        spec.update(kind="tensorf", feature_dim=field.feature_dim, modes=[
            {"vectors": export(mode.vectors),
             "planes": export(mode.planes),
             "basis": export(mode.basis)}
            for mode in field.modes])
    else:
        raise TypeError(
            f"field {type(field).__name__} has no shared-memory export")
    return spec, blocks


def supports_parallel(renderer) -> bool:
    """Whether a renderer's bundles may be dispatched to the pool.

    Requires a deterministic sampler (jittered RNG streams must stay on
    the main process) and a field kind with a shared-memory export.
    """
    from ..nerf.fields.hash_grid import HashGridField
    from ..nerf.fields.tensor_factor import TensorFactorField
    from ..nerf.fields.voxel_grid import VoxelGridField
    return (not renderer.sampler.jitter) and isinstance(
        renderer.field, (VoxelGridField, HashGridField, TensorFactorField))


def renderer_spec(renderer) -> tuple[int, dict]:
    """(token, picklable spec) for a renderer; exported once per instance.

    The token keys worker-side renderer caches, so repeat dispatches of
    the same renderer ship only the token, not the tables.
    """
    cached = _SPEC_CACHE.get(renderer)
    if cached is not None:
        return cached
    field_spec, blocks = _field_spec(renderer.field)
    occupancy = renderer.sampler.occupancy
    occ_spec = None
    if occupancy is not None:
        ref, shm = _export_array(occupancy.occupancy)
        blocks.append(shm)
        olo, ohi = occupancy.bounds
        occ_spec = {"mask": ref, "bounds": (olo.tolist(), ohi.tolist())}
    token = next(_TOKENS)
    spec = {
        "field": field_spec,
        "occupancy": occ_spec,
        "num_samples": renderer.sampler.num_samples,
        "chunk_size": renderer.chunk_size,
        "opacity_threshold": renderer.opacity_threshold,
    }
    _TOKEN_BLOCKS[token] = blocks
    weakref.finalize(renderer, _release_token, token)
    _SPEC_CACHE[renderer] = (token, spec)
    return token, spec


def _release_token(token: int) -> None:
    """Close and unlink the shared blocks behind one exported renderer."""
    for shm in _TOKEN_BLOCKS.pop(token, ()):  # pragma: no branch
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass


def _build_renderer(spec: dict, blocks: list):
    """Worker-side renderer reconstruction from a picklable spec."""
    from ..nerf.fields.decode import SHDecoder
    from ..nerf.renderer import NeRFRenderer
    from ..nerf.sampling import OccupancyGrid, UniformSampler

    field_spec = spec["field"]
    dec = field_spec["decoder"]
    decoder = SHDecoder(feature_dim=dec["feature_dim"],
                        hidden_layers=dec["hidden_layers"],
                        max_density=dec["max_density"])
    bounds = tuple(np.asarray(b, dtype=float) for b in field_spec["bounds"])
    kind = field_spec["kind"]
    if kind == "voxel":
        from ..nerf.fields.voxel_grid import VoxelGridField
        field = VoxelGridField(
            _attach_array(field_spec["vertex_features"], blocks),
            field_spec["resolution"], bounds, decoder=decoder,
            bytes_per_channel=field_spec["bytes_per_channel"])
    elif kind == "hash":
        from ..nerf.fields.hash_grid import HashGridField, _Level
        levels = [_Level.from_table(lv["resolution"], lv["table_size"],
                                    _attach_array(lv["table"], blocks))
                  for lv in field_spec["levels"]]
        field = HashGridField(levels, bounds, decoder=decoder,
                              bytes_per_channel=field_spec["bytes_per_channel"])
    else:  # tensorf
        from ..nerf.fields.tensor_factor import TensorFactorField, _Mode
        modes = [_Mode(_attach_array(m["vectors"], blocks),
                       _attach_array(m["planes"], blocks),
                       _attach_array(m["basis"], blocks))
                 for m in field_spec["modes"]]
        field = TensorFactorField(modes, bounds, decoder=decoder,
                                  feature_dim=field_spec["feature_dim"],
                                  bytes_per_channel=field_spec["bytes_per_channel"])

    occupancy = None
    if spec["occupancy"] is not None:
        occ = spec["occupancy"]
        occupancy = OccupancyGrid(
            _attach_array(occ["mask"], blocks),
            tuple(np.asarray(b, dtype=float) for b in occ["bounds"]))
    sampler = UniformSampler(num_samples=spec["num_samples"],
                             occupancy=occupancy, jitter=False)
    return NeRFRenderer(field, sampler, chunk_size=spec["chunk_size"],
                        opacity_threshold=spec["opacity_threshold"])


# ---------------------------------------------------------------------------
# worker loop


def _worker_main(inq, outq, forked: bool = False) -> None:
    """Pool worker: render bundles with cached spec-built renderers."""
    import traceback

    global _UNREGISTER_ON_ATTACH
    _UNREGISTER_ON_ATTACH = not forked
    renderers: dict = {}
    blocks: list = []
    while True:
        msg = inq.get()
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "release":
            renderers.clear()
            blocks.clear()
            release_process_memory()
            continue
        task_id, token, spec, origins, directions = msg[1:]
        try:
            renderer = renderers.get(token)
            if renderer is None:
                if spec is None:
                    raise RuntimeError(f"no spec cached for token {token}")
                renderer = renderers[token] = _build_renderer(spec, blocks)
            out = renderer.render_rays(origins, directions)
            outq.put(("ok", task_id,
                      (out.rgb, out.depth_t, out.opacity, out.stats)))
        except Exception:
            outq.put(("err", task_id, traceback.format_exc()))


def release_process_memory() -> None:
    """Drop scratch arenas and geometry memos (worker + engine hook)."""
    from ..geometry.camera import clear_dir_grid_cache
    from ..geometry.pointcloud import clear_lift_cache
    from ..nerf.sampling import clear_sampling_scratch
    clear_sampling_scratch()
    clear_dir_grid_cache()
    clear_lift_cache()


# ---------------------------------------------------------------------------
# the pool


class WorkerPool:
    """Persistent render workers fed round-robin over per-worker queues."""

    def __init__(self, num_workers: int):
        self.num_workers = int(num_workers)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            ctx = multiprocessing.get_context("spawn")
        self._outq = ctx.Queue()
        self._inqs = []
        self._procs = []
        self._seen = [set() for _ in range(self.num_workers)]
        self._next_worker = 0
        self._task_ids = itertools.count(1)
        self._done: dict = {}  # finished tasks awaiting collection
        forked = ctx.get_start_method() == "fork"
        if forked:
            # Start the parent's resource tracker *before* forking so the
            # workers inherit (and share) it.  A worker that lazily spawns
            # its own tracker would "clean up" — unlink — the parent's
            # still-live shared blocks when the worker exits.
            resource_tracker.ensure_running()
        for _ in range(self.num_workers):
            inq = ctx.Queue()
            proc = ctx.Process(target=_worker_main,
                               args=(inq, self._outq, forked),
                               daemon=True)
            proc.start()
            self._inqs.append(inq)
            self._procs.append(proc)

    def submit_bundles(self, renderer, bundles: list) -> list:
        """Queue ``[(origins, directions), ...]`` round-robin; returns ids.

        Non-blocking: pair with :meth:`collect` to retrieve results.
        The renderer's spec ships with the first task each worker sees
        for it; afterwards only the token crosses the boundary.
        """
        from ..obs.runtime import metric_inc
        metric_inc("pool.dispatches")
        metric_inc("pool.bundles", len(bundles))
        task_ids = []
        token, spec = renderer_spec(renderer)
        for origins, directions in bundles:
            worker = self._next_worker
            self._next_worker = (self._next_worker + 1) % self.num_workers
            send_spec = spec if token not in self._seen[worker] else None
            self._seen[worker].add(token)
            task_id = next(self._task_ids)
            task_ids.append(task_id)
            self._inqs[worker].put(
                ("render", task_id, token, send_spec,
                 np.ascontiguousarray(origins),
                 np.ascontiguousarray(directions)))
        return task_ids

    def collect(self, task_ids: list) -> list:
        """Results for previously submitted tasks, in ``task_ids`` order.

        Each result is the ``(rgb, depth_t, opacity, stats)`` tuple of
        one bundle — bit-identical to the serial per-bundle
        ``render_rays`` output.  Raises on worker failure or timeout.
        """
        needed = set(task_ids) - self._done.keys()
        while needed:
            try:
                msg = self._outq.get(timeout=_RESULT_TIMEOUT_S)
            except Exception:
                raise RuntimeError(
                    "parallel backend: worker result timed out "
                    f"({len(needed)} bundles outstanding)")
            if msg[0] == "err":
                raise RuntimeError(
                    f"parallel backend: worker failed:\n{msg[2]}")
            self._done[msg[1]] = msg[2]
            needed.discard(msg[1])
        return [self._done.pop(t) for t in task_ids]

    def render_bundles(self, renderer, bundles: list) -> list:
        """Blocking convenience: submit then collect one bundle list."""
        return self.collect(self.submit_bundles(renderer, bundles))

    def release(self) -> None:
        """Broadcast a cache/scratch release to every worker."""
        for inq, seen in zip(self._inqs, self._seen):
            inq.put(("release",))
            seen.clear()

    def shutdown(self) -> None:
        """Stop the workers (joining briefly) and drop queue state."""
        for inq in self._inqs:
            try:
                inq.put(("stop",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._inqs = []
        self._procs = []


_POOL: WorkerPool | None = None


def get_pool(num_workers: int) -> WorkerPool:
    """The process-wide pool, (re)created to match ``num_workers``."""
    global _POOL
    if _POOL is not None and _POOL.num_workers != num_workers:
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = WorkerPool(num_workers)
    return _POOL


def shutdown_pool() -> None:
    """Stop the pool and unlink every exported shared block."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
    for token in list(_TOKEN_BLOCKS):
        _release_token(token)


atexit.register(shutdown_pool)
