"""Reference-frame policy: when and where to render full NeRF frames.

The key design decision of SPARW (Sec. III-C, Fig. 10/11): reference frames
need not lie on the camera trajectory.  Extrapolating the reference pose
ahead of the camera (constant-velocity, Eq. 5-6) lets reference rendering
overlap target rendering; centring it ``N/2`` frames ahead maximises overlap
with the ``N`` targets that will reuse it.

Two policies are provided:

* ``ExtrapolatedReferencePolicy`` — the paper's scheme.
* ``OnTrajectoryReferencePolicy`` — the prior-work baseline (TEMP-N): the
  reference is simply the most recent rendered frame, which serialises the
  two rendering paths (Fig. 11a).
"""

from __future__ import annotations

import numpy as np

from ...geometry.transforms import extrapolate_pose

__all__ = ["ExtrapolatedReferencePolicy", "OnTrajectoryReferencePolicy"]


class ExtrapolatedReferencePolicy:
    """Velocity-extrapolated, off-trajectory reference poses (Eq. 5-6)."""

    name = "extrapolated"

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)

    def needs_new_reference(self, frame_index: int) -> bool:
        """A new reference starts every ``window`` target frames."""
        return frame_index % self.window == 0

    def reference_pose(self, frame_index: int, trajectory_poses: list
                       ) -> np.ndarray:
        """Pose for the reference serving frames [frame_index, +window).

        Uses only *past* camera poses (the two most recent), as the paper
        does: future poses are unknown at schedule time.  The extrapolation
        target is the centre of the upcoming window.
        """
        if frame_index == 0 or len(trajectory_poses) < 2 or frame_index < 2:
            # Bootstrap: no velocity estimate yet; render at the current pose.
            return np.asarray(trajectory_poses[min(frame_index,
                                                   len(trajectory_poses) - 1)])
        prev = np.asarray(trajectory_poses[frame_index - 2])
        curr = np.asarray(trajectory_poses[frame_index - 1])
        # The window starts 1 frame after `curr`; its centre is N/2 further.
        steps = 1.0 + self.window / 2.0
        return extrapolate_pose(prev, curr, steps)


class OnTrajectoryReferencePolicy:
    """Reference = an actual past frame (prior-work temporal warping)."""

    name = "on_trajectory"

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)

    def needs_new_reference(self, frame_index: int) -> bool:
        return frame_index % self.window == 0

    def reference_pose(self, frame_index: int, trajectory_poses: list
                       ) -> np.ndarray:
        """The reference sits exactly on the trajectory at the current frame."""
        return np.asarray(trajectory_poses[min(frame_index,
                                               len(trajectory_poses) - 1)])
