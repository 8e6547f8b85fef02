"""Quickstart: bake a NeRF field, render a frame, and run SPARW.

Walks the three layers of the library in ~a minute:

1. build a procedural scene and its exact ray-traced ground truth,
2. bake a DirectVoxGO-style voxel-grid field and render it with volume
   rendering (the paper's baseline pipeline), and
3. render a short camera orbit with sparse radiance warping, comparing
   quality and the amount of NeRF work avoided.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.sparw import SparwRenderer
from repro.geometry import Intrinsics, PinholeCamera
from repro.metrics import mean_psnr, psnr
from repro.nerf import NeRFRenderer, OccupancyGrid, UniformSampler, VoxelGridField
from repro.scenes import RayTracer, get_scene, orbit_trajectory


def main():
    # 1. Scene + ground truth ------------------------------------------------
    scene = get_scene("lego")
    trajectory = orbit_trajectory(12, radius=3.2, degrees_per_frame=0.5)
    camera = PinholeCamera(Intrinsics.from_fov(96, 96, 45.0), trajectory[0])

    tracer = RayTracer(scene)
    gt_frames = [tracer.render(camera.with_pose(p)) for p in trajectory.poses]
    print(f"scene {scene.name!r}: rendered {len(gt_frames)} ground-truth "
          f"frames at {camera.width}x{camera.height}")

    # 2. Bake + render a NeRF field -------------------------------------------
    field = VoxelGridField.bake(scene, resolution=96, feature_dim=16,
                                max_density=800.0)
    occupancy = OccupancyGrid.from_field(field, resolution=32)
    renderer = NeRFRenderer(field, UniformSampler(96, occupancy=occupancy),
                            background=scene.background)
    frame, out = renderer.render_frame(camera)
    print(f"baked field: {field.model_size_bytes / 1e6:.1f} MB, "
          f"frame used {out.stats.num_samples:,} ray samples, "
          f"PSNR vs ground truth {psnr(frame.image, gt_frames[0].image):.2f} dB")

    # 3. SPARW over the orbit -------------------------------------------------
    sparw = SparwRenderer(renderer, camera, window=8)
    result = sparw.render_sequence(trajectory.poses)

    gt_images = [f.image for f in gt_frames]
    sparw_psnr = mean_psnr([f.image for f in result.frames], gt_images)
    full_rays = len(trajectory) * camera.width * camera.height
    nerf_rays = (result.total_sparse_stats().num_rays
                 + result.total_reference_stats().num_rays)
    print(f"SPARW (window 8): PSNR {sparw_psnr:.2f} dB, "
          f"{result.num_references} reference frames, "
          f"mean disocclusion {result.mean_disoccluded_fraction():.1%}")
    print(f"NeRF rays traced: {nerf_rays:,} of {full_rays:,} "
          f"({1.0 - nerf_rays / full_rays:.1%} of radiance computation avoided)")

    worst = min(psnr(f.image, g) for f, g in zip(result.frames, gt_images))
    print(f"worst-frame PSNR: {worst:.2f} dB")


if __name__ == "__main__":
    main()
