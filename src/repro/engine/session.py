"""Per-user rendering sessions: scene + trajectory + resumable SPARW state.

A :class:`RenderSession` wraps one user's :class:`SparwRenderer` pipeline,
driven through its resumable :meth:`~SparwRenderer.step` generator.  The
session pauses whenever the pipeline needs NeRF ray results and resumes when
the engine delivers them — which is what lets the engine interleave many
sessions and batch their ray work into shared field queries.
"""

from __future__ import annotations

from ..core.sparw.pipeline import (
    RayRequest,
    SparwRenderer,
    SparwSequenceResult,
)
from ..metrics.stats import request_time

__all__ = ["RenderSession"]


class RenderSession:
    """One concurrent user's viewing session.

    Parameters
    ----------
    session_id:
        Stable identifier used in engine results and reports.
    sparw:
        The session's SPARW pipeline (its renderer determines which batch
        group the session's ray work joins — sessions sharing a renderer
        share field evaluations).
    poses:
        The session's camera trajectory.
    fps_target:
        Frame-rate the user expects; deadline scheduling orders sessions by
        how far each one has fallen behind this rate.
    cache_key:
        Optional content-addressed identity of the session's workload
        (spec hash + config hash, see
        :meth:`~repro.workloads.WorkloadSpec.cache_key`).  Sessions that
        share a ``cache_key`` render identical references for identical
        poses, so the engine may answer their reference requests from the
        shared cross-session cache.  ``None`` disables reference caching
        for this session.
    render_key:
        Optional content-addressed identity of what draws the session's
        pixels (see :meth:`~repro.workloads.WorkloadSpec.render_key`):
        its renderer's output for given rays is a pure function of this
        key, so the engine's render memo keys NeRF outputs by it.
        ``None`` disables the render memo for this session.
    workload:
        Optional spec this session was built from (opaque to the engine;
        the serving harness reads it back for per-session pricing).
    """

    def __init__(self, session_id: str, sparw: SparwRenderer, poses: list,
                 fps_target: float = 30.0, cache_key: str | None = None,
                 render_key: str | None = None, workload=None):
        if fps_target <= 0.0:
            raise ValueError("fps_target must be positive")
        self.session_id = str(session_id)
        self.sparw = sparw
        self.poses = list(poses)
        self.fps_target = float(fps_target)
        self.cache_key = cache_key
        self.render_key = render_key
        self.workload = workload
        self.quality_level = 0  # ladder rung (0 = the spec's native tier)
        self.result = SparwSequenceResult()
        self._gen = sparw.step(self.poses)
        self._pending: RayRequest | None = None
        self._done = len(self.poses) == 0
        if not self._done:
            self._advance(None)

    # -- state ------------------------------------------------------------------

    @property
    def renderer(self):
        """The NeRF renderer whose field this session queries."""
        return self.sparw.renderer

    @property
    def done(self) -> bool:
        """True once the session's pose sequence is fully rendered."""
        return self._done

    @property
    def num_frames(self) -> int:
        """Total frames this session will render."""
        return len(self.poses)

    @property
    def frames_completed(self) -> int:
        """Frames rendered so far."""
        return self.result.num_frames

    @property
    def pending_request(self) -> RayRequest | None:
        """The ray work the session is blocked on (None once done)."""
        return self._pending

    @property
    def next_deadline(self) -> float:
        """Virtual due-time of the next frame at the session's target rate."""
        return request_time(0.0, self.frames_completed, self.fps_target)

    # -- retuning ---------------------------------------------------------------

    def retune(self, renderer, camera, level: int | None = None,
               cache_key: str | None = None,
               render_key: str | None = None) -> None:
        """Switch this session's quality tier mid-stream (governor move).

        Stages the swap in the SPARW pipeline; it lands at the next frame
        boundary with a forced fresh reference.  The session's ladder
        level and content-addressed ``cache_key`` and ``render_key``
        update *when the swap lands*, not when it is staged — a request
        generated at the old settings may still be pending, and it must
        keep coalescing with old-tier peers in the shared cache (and be
        memoized under the old renderer's key) until the new tier
        actually renders.
        """
        def _apply() -> None:
            if level is not None:
                self.quality_level = int(level)
            if cache_key is not None:
                self.cache_key = cache_key
            if render_key is not None:
                self.render_key = render_key

        self.sparw.retune(renderer=renderer, camera=camera,
                          on_apply=_apply)

    # -- driving ----------------------------------------------------------------

    def deliver(self, output) -> None:
        """Hand the pipeline the RenderOutput for its pending request."""
        if self._pending is None:
            raise RuntimeError(
                f"session {self.session_id!r} has no pending ray request")
        self._pending = None
        self._advance(output)

    def _advance(self, send_value) -> None:
        """Run the pipeline until it needs rays again or finishes."""
        while True:
            try:
                event = self._gen.send(send_value)
            except StopIteration:
                self._done = True
                return
            if isinstance(event, RayRequest):
                self._pending = event
                return
            self.result.records.append(event)
            send_value = None

    def __repr__(self) -> str:
        return (f"RenderSession({self.session_id!r}, "
                f"{self.frames_completed}/{self.num_frames} frames)")
