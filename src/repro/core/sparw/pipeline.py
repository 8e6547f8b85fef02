"""SPARW rendering pipeline: reference path + warped target path.

Orchestrates the two rendering paths of Fig. 10:

* the compute-intensive path renders *reference frames* with full-frame NeRF
  at poses chosen by a reference policy (extrapolated/off-trajectory by
  default), and
* the lightweight path renders every *target frame* by warping the active
  reference, classifying holes, and sparse-NeRF-rendering only disoccluded
  pixels (Eq. 4).

The pipeline records per-frame work statistics (warped/disoccluded/void
fractions, sparse-ray counts, full-frame render stats) which the hardware
model turns into latency and energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...geometry.camera import PinholeCamera
from ...nerf.renderer import NeRFRenderer, RenderStats
from ...obs.runtime import metric_inc, section
from ...scenes.raytracer import Frame
from ...workloads.cache import pose_hash
from .disocclusion import PixelClassification, classify_pixels, overlap_fraction
from .reference import ExtrapolatedReferencePolicy, OnTrajectoryReferencePolicy
from .warp import WarpResult, warp_frame

__all__ = ["RayRequest", "TargetFrameRecord", "SparwSequenceResult",
           "SparwRenderer"]


@dataclass
class RayRequest:
    """A NeRF ray workload emitted by :meth:`SparwRenderer.step`.

    The driver must answer each request by ``send()``-ing back the
    :class:`~repro.nerf.renderer.RenderOutput` of rendering exactly these
    rays — either via ``renderer.render_rays`` (single-user path) or a
    batched evaluation spanning many sessions
    (:meth:`~repro.nerf.renderer.NeRFRenderer.render_ray_batch`).
    """

    kind: str  # "reference" (full frame) or "sparse" (disocclusion fill)
    frame_index: int
    origins: np.ndarray  # (N, 3)
    directions: np.ndarray  # (N, 3)
    # Camera pose the rays were generated from.  Reference requests always
    # carry it: full-frame rays are a pure function of (pose, intrinsics),
    # which is what lets the engine answer repeated references from the
    # shared cross-session cache.
    pose: np.ndarray | None = None

    @property
    def num_rays(self) -> int:
        return self.origins.shape[0]


@dataclass
class TargetFrameRecord:
    """Everything produced while rendering one target frame."""

    frame_index: int
    frame: Frame
    classification: PixelClassification
    overlap: float
    new_reference: bool
    sparse_stats: RenderStats
    reference_stats: RenderStats | None  # stats of the full render, if any
    warp_points: int  # points pushed through steps 1-3
    mean_warp_angle_deg: float


@dataclass
class SparwSequenceResult:
    """Result of rendering a pose sequence with SPARW."""

    records: list = field(default_factory=list)

    @property
    def frames(self) -> list:
        return [r.frame for r in self.records]

    @property
    def num_frames(self) -> int:
        return len(self.records)

    @property
    def num_references(self) -> int:
        return sum(1 for r in self.records if r.new_reference)

    def mean_warped_fraction(self) -> float:
        return float(np.mean([r.classification.warped_fraction
                              for r in self.records]))

    def mean_disoccluded_fraction(self) -> float:
        return float(np.mean([r.classification.disoccluded_fraction
                              for r in self.records]))

    def total_sparse_stats(self) -> RenderStats:
        total = RenderStats()
        for r in self.records:
            total = total.merge(r.sparse_stats)
        return total

    def total_reference_stats(self) -> RenderStats:
        total = RenderStats()
        for r in self.records:
            if r.reference_stats is not None:
                total = total.merge(r.reference_stats)
        return total


class SparwRenderer:
    """Renders pose sequences with sparse radiance warping.

    Parameters
    ----------
    renderer:
        The full-frame/sparse NeRF renderer (any field).
    camera:
        Camera template; its intrinsics are used for every frame.
    window:
        Number of target frames sharing one reference (the paper's N).
    policy:
        ``"extrapolated"`` (paper, off-trajectory, overlappable) or
        ``"on_trajectory"`` (TEMP baseline: chained warping from the
        previous output frame, resetting every window).
    angle_threshold_deg:
        Optional warping threshold phi (Sec. III-C); pixels warped across a
        wider angle are re-rendered by the NeRF model.
    """

    def __init__(self, renderer: NeRFRenderer, camera: PinholeCamera,
                 window: int = 16, policy: str = "extrapolated",
                 angle_threshold_deg: float | None = None):
        self.renderer = renderer
        self.camera = camera
        self.window = int(window)
        self.angle_threshold_deg = angle_threshold_deg
        if policy == "extrapolated":
            self.policy = ExtrapolatedReferencePolicy(window)
        elif policy == "on_trajectory":
            self.policy = OnTrajectoryReferencePolicy(window)
        else:
            raise ValueError(f"unknown reference policy {policy!r}")
        self._chained = policy == "on_trajectory"
        self._retune: tuple | None = None
        # Optional (memo, namespace) pair set by share_targets; None warps
        # every target frame.
        self._target_memo: tuple | None = None

    def retune(self, renderer: NeRFRenderer | None = None,
               camera: PinholeCamera | None = None,
               on_apply=None) -> None:
        """Stage a mid-stream quality switch (the governor's tier move).

        Takes effect at the start of the next frame :meth:`step` begins:
        the pipeline swaps in the new renderer/camera and *forces a fresh
        reference*, so warped targets never mix resolutions with their
        reference.  ``on_apply`` (optional) is called at that moment — a
        frame may still be in flight at the old settings when the switch
        is staged, so level/cache bookkeeping must wait for the swap to
        land.  ``None`` keeps the current renderer or camera.  A pipeline
        that is never retuned behaves bit-identically to one without this
        method.
        """
        self._retune = (renderer or self.renderer, camera or self.camera,
                        on_apply)

    def share_targets(self, memo, namespace: str | None) -> None:
        """Answer repeated target frames from a shared ``memo``.

        ``namespace`` is the content-addressed identity of the renderer,
        camera and ``phi`` in use (see
        :meth:`~repro.workloads.WorkloadSpec.render_key`); ``None``
        shares nothing.  A target frame is then a pure function of
        ``(namespace, reference pose, target pose)``: a hit skips warp,
        classification and assembly but still yields the identical
        sparse :class:`RayRequest`, so the driver's batching and
        accounting are those of a miss.  Only references from the
        reference path qualify — chained (``on_trajectory``) pipelines
        never consult the memo, and a landed :meth:`retune` stops sharing
        (the namespace no longer describes the renderer and camera).
        Stored arrays are read-only.
        """
        self._target_memo = (memo, namespace) if namespace else None

    # -- reference path ----------------------------------------------------------

    def _reference_path(self, pose: np.ndarray, frame_index: int):
        """Generator: yield the full-frame request, return (frame, stats)."""
        camera = self.camera.with_pose(pose)
        origins, directions = camera.generate_rays()
        flat_d = directions.reshape(-1, 3)
        out = yield RayRequest(kind="reference", frame_index=frame_index,
                               origins=origins.reshape(-1, 3),
                               directions=flat_d, pose=camera.c2w.copy())
        return self.renderer.compose_frame(camera, flat_d, out), out.stats

    def _drive(self, gen, records: list | None = None):
        """Run a generator to completion with direct ``render_rays`` calls.

        Answers each :class:`RayRequest`; appends each
        :class:`TargetFrameRecord` to ``records``.  Returns the
        generator's return value.
        """
        send_value = None
        while True:
            try:
                event = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            if isinstance(event, RayRequest):
                send_value = self.renderer.render_rays(event.origins,
                                                       event.directions)
            else:
                records.append(event)
                send_value = None

    # -- target path ------------------------------------------------------------

    def render_target(self, reference: Frame, pose: np.ndarray
                      ) -> tuple[Frame, PixelClassification, RenderStats]:
        """Warp ``reference`` to ``pose`` and fill disocclusions sparsely."""
        frame, classification, sparse_stats, _, _ = self._drive(
            self._target_path(reference, pose, frame_index=0))
        return frame, classification, sparse_stats

    def _target_memo_key(self, reference: Frame, pose: np.ndarray):
        """Memo key of a target warped from a reference-path reference.

        ``None`` when no memo is shared.
        """
        if self._target_memo is None:
            return None
        return (self._target_memo[1], pose_hash(reference.c2w),
                pose_hash(pose))

    def _target_path(self, reference: Frame, pose: np.ndarray,
                     frame_index: int, memo_key=None):
        """Generator for the lightweight path: warp, classify, sparse-fill.

        Yields at most one sparse :class:`RayRequest`; returns
        ``(frame, classification, sparse_stats, overlap, mean warp
        angle)``.  Shared by :meth:`render_target` (direct rendering) and
        :meth:`step` (batched engine driving), so the two paths cannot
        drift apart.  With a ``memo_key`` (see :meth:`share_targets`) a
        stored target is returned after yielding its stored request.
        """
        memo = self._target_memo[0] if memo_key is not None else None
        stored = memo.get(memo_key) if memo is not None else None
        if stored is not None:
            metric_inc("sparw.target_memo.hits")
            target, rays = stored
            if rays is not None:
                yield RayRequest(kind="sparse", frame_index=frame_index,
                                 origins=rays[0], directions=rays[1])
            return target

        ref_camera = self.camera.with_pose(reference.c2w)
        target_camera = self.camera.with_pose(pose)
        with section("sparw.warp"):
            warp = warp_frame(reference, ref_camera, target_camera)
        with section("sparw.classify"):
            classification = classify_pixels(warp, self.angle_threshold_deg)

        pixel_ids = classification.rerender_pixel_ids()
        rays = None
        if pixel_ids.size:
            v, u = np.divmod(pixel_ids, target_camera.width)
            rays = target_camera.rays_for_pixels(u + 0.5, v + 0.5)
            out = yield RayRequest(kind="sparse", frame_index=frame_index,
                                   origins=rays[0], directions=rays[1])
            colors, z = self.renderer.compose_pixels(target_camera, rays[1],
                                                     out)
            sparse_stats = out.stats
        else:
            colors = np.zeros((0, 3))
            z = np.zeros(0)
            sparse_stats = RenderStats()

        with section("sparw.assemble"):
            frame = self._assemble_target(warp, classification, target_camera,
                                          pixel_ids, colors, z)
        covered = classification.warped
        mean_angle = (float(warp.warp_angle_deg[covered].mean())
                      if covered.any() else 0.0)
        target = (frame, classification, sparse_stats,
                  overlap_fraction(warp), mean_angle)
        if memo is not None:
            arrays = (frame.image, frame.depth, frame.hit, frame.c2w,
                      classification.warped, classification.disoccluded,
                      classification.void, *(rays or ()))
            for array in arrays:
                array.flags.writeable = False
            memo.put(memo_key, (target, rays),
                     size_bytes=sum(a.nbytes for a in arrays))
        return target

    def _assemble_target(self, warp: WarpResult,
                         classification: PixelClassification,
                         target_camera: PinholeCamera, pixel_ids: np.ndarray,
                         colors: np.ndarray, z: np.ndarray) -> Frame:
        """Merge warped pixels, sparse fills, and background into a Frame.

        The background is evaluated only at the void pixels it shows,
        along the target's full-frame ray directions.
        """
        image = warp.image.copy()
        depth = warp.depth.copy()
        hit = classification.warped.copy()

        if pixel_ids.size:
            flat_img = image.reshape(-1, 3)
            flat_img[pixel_ids] = colors
            flat_depth = depth.reshape(-1)
            flat_depth[pixel_ids] = z
            hit.reshape(-1)[pixel_ids] = np.isfinite(z)

        if self.renderer.background is not None:
            shown = np.flatnonzero(classification.void
                                   & ~classification.disoccluded)
            if shown.size:
                image.reshape(-1, 3)[shown] = self.renderer.background(
                    target_camera.pixel_directions(shown))

        return Frame(image=image, depth=depth, hit=hit,
                     c2w=target_camera.c2w.copy())

    # -- sequence rendering --------------------------------------------------------

    def step(self, poses: list):
        """Resumable per-frame generator over a pose sequence.

        Yields two kinds of events:

        * :class:`RayRequest` — the pipeline needs NeRF ray results to
          continue; the driver must respond with
          ``gen.send(render_output)`` where ``render_output`` renders
          exactly the requested rays.
        * :class:`TargetFrameRecord` — a finished target frame; respond
          with ``gen.send(None)`` (or plain ``next()``).

        Both the single-user :meth:`render_sequence` and the multi-session
        batching engine (:mod:`repro.engine`) drive this generator; the
        engine interleaves many of them and answers their requests from
        shared vectorized field queries.
        """
        poses = [np.asarray(p, dtype=float) for p in poses]
        reference: Frame | None = None
        previous_output: Frame | None = None

        for i, pose in enumerate(poses):
            if self._retune is not None:
                # Apply the staged quality switch at a frame boundary:
                # dropping the reference (and chained output) forces a
                # fresh full render at the new resolution below.
                self.renderer, self.camera, on_apply = self._retune
                self._retune = None
                self._target_memo = None
                reference = None
                previous_output = None
                if on_apply is not None:
                    on_apply()
            ref_stats = None
            new_ref = self.policy.needs_new_reference(i)
            if new_ref or reference is None:
                if self._chained and previous_output is not None:
                    # TEMP baseline: reuse the last *output* frame; no fresh
                    # full render (errors accumulate across windows too).
                    reference = previous_output
                else:
                    ref_pose = self.policy.reference_pose(i, poses)
                    reference, ref_stats = yield from self._reference_path(
                        ref_pose, frame_index=i)

            # Only a reference-path reference is a pure function of its
            # pose, so chained pipelines never key the target memo.
            memo_key = (None if self._chained
                        else self._target_memo_key(reference, pose))
            frame, classification, sparse_stats, overlap, mean_angle = (
                yield from self._target_path(reference, pose, frame_index=i,
                                             memo_key=memo_key))
            if self._chained:
                # Chained warping: the next frame warps from this output.
                reference = frame
            previous_output = frame

            yield TargetFrameRecord(
                frame_index=i,
                frame=frame,
                classification=classification,
                overlap=overlap,
                new_reference=ref_stats is not None,
                sparse_stats=sparse_stats,
                reference_stats=ref_stats,
                warp_points=reference.depth.size,
                mean_warp_angle_deg=mean_angle,
            )

    def render_sequence(self, poses: list) -> SparwSequenceResult:
        """Render every pose in order, managing references per the policy.

        Drives :meth:`step`, answering each ray request with a direct
        ``render_rays`` call — the single-user path.
        """
        result = SparwSequenceResult()
        self._drive(self.step(poses), result.records)
        return result
