"""Engine runs release scratch arenas and geometry memos at exit.

``MultiSessionEngine.run()`` must leave no per-run working memory
behind: the sampling scratch arenas, memoised camera direction grids,
and depth-lift grids are cleared in its ``finally`` block (and pool
workers clear their own on a ``release`` broadcast), so repeated runs
in one process cannot accumulate arena growth.  With a reference cache
and a render memo both attached, a reference output is one object that
both hold, not two copies.
"""

from repro.engine import MultiSessionEngine
from repro.harness.configs import FAST
from repro.workloads import SharedLRUCache, build_mixed_sessions
from repro.workloads.cache import make_render_memo


def _arena_sizes() -> tuple:
    from repro.geometry.camera import _DIR_GRID_CACHE
    from repro.geometry.pointcloud import _LIFT_CACHE
    from repro.nerf.sampling import _SCRATCH
    return (len(_SCRATCH), len(_DIR_GRID_CACHE), len(_LIFT_CACHE))


def _run():
    sessions = build_mixed_sessions("vr-lego,dolly-chair", FAST,
                                    frames=2, seed=5)
    return MultiSessionEngine(sessions).run()


class TestMemoryRelease:
    def test_run_exit_clears_arenas(self):
        result = _run()
        assert result.total_frames > 0  # the run really rendered
        assert _arena_sizes() == (0, 0, 0)

    def test_no_cross_run_growth(self):
        sizes = []
        for _ in range(3):
            _run()
            sizes.append(_arena_sizes())
        assert sizes == [(0, 0, 0)] * 3

    def test_release_hook_clears_populated_arenas(self):
        import numpy as np

        from repro.backend.parallel import release_process_memory
        from repro.geometry.camera import _DIR_GRID_CACHE
        from repro.nerf.sampling import _scratch

        _scratch("test-slot", (64,), np.float64)
        _DIR_GRID_CACHE["sentinel"] = None
        assert _arena_sizes() != (0, 0, 0)
        release_process_memory()
        assert _arena_sizes() == (0, 0, 0)


class TestReferenceOutputsHeldOnce:
    def test_reference_cache_entries_are_the_memo_entries(self):
        references = SharedLRUCache(name="references", max_entries=256)
        memo = make_render_memo()
        sessions = build_mixed_sessions("vr-lego:2", FAST, frames=4)
        MultiSessionEngine(sessions, reference_cache=references,
                           render_memo=memo).run()
        cached = [entry.value for entry in references._entries.values()]
        memoized = {id(entry.value) for entry in memo._entries.values()}
        assert cached and memo.report()["bytes"] > references.total_bytes
        # Each output counts against both byte bounds, but is held once.
        assert all(id(output) in memoized for output in cached)
