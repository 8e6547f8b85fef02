"""Tests for reference-frame policies (Eq. 5-6, Fig. 11)."""

import numpy as np
import pytest
from pose_helpers import translation_distance

from repro.core.sparw import ExtrapolatedReferencePolicy, OnTrajectoryReferencePolicy
from repro.scenes import orbit_trajectory


@pytest.fixture
def poses():
    return orbit_trajectory(40, degrees_per_frame=1.0).poses


class TestExtrapolatedPolicy:
    def test_schedule_every_window(self):
        policy = ExtrapolatedReferencePolicy(window=8)
        boundaries = [i for i in range(32) if policy.needs_new_reference(i)]
        assert boundaries == [0, 8, 16, 24]

    def test_bootstrap_uses_current_pose(self, poses):
        policy = ExtrapolatedReferencePolicy(window=8)
        ref = policy.reference_pose(0, poses)
        np.testing.assert_allclose(ref, poses[0])

    def test_extrapolates_ahead_of_trajectory(self, poses):
        """The reference must land near the centre of its window."""
        policy = ExtrapolatedReferencePolicy(window=8)
        ref = policy.reference_pose(8, poses)
        window_center = poses[8 + 4]
        boundary = poses[8]
        assert (translation_distance(ref, window_center)
                < translation_distance(boundary, window_center) + 0.05)

    def test_uses_only_past_poses(self, poses):
        """Future poses must not influence the reference choice."""
        policy = ExtrapolatedReferencePolicy(window=8)
        truncated = poses[:8]  # only the past
        full = policy.reference_pose(8, poses)
        partial = policy.reference_pose(8, truncated + poses[8:9])
        np.testing.assert_allclose(full, partial)

    def test_reference_is_off_trajectory(self, poses):
        policy = ExtrapolatedReferencePolicy(window=8)
        ref = policy.reference_pose(8, poses)
        distances = [translation_distance(ref, p) for p in poses]
        assert min(distances) > 1e-6  # not exactly any trajectory pose

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ExtrapolatedReferencePolicy(window=0)


class TestOnTrajectoryPolicy:
    def test_reference_is_exact_trajectory_pose(self, poses):
        policy = OnTrajectoryReferencePolicy(window=8)
        ref = policy.reference_pose(8, poses)
        np.testing.assert_allclose(ref, poses[8])

    def test_schedule(self):
        policy = OnTrajectoryReferencePolicy(window=5)
        assert policy.needs_new_reference(0)
        assert not policy.needs_new_reference(3)
        assert policy.needs_new_reference(10)
