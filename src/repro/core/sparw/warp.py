"""Forward warping of a reference frame into a target view (SPARW steps 1-3).

Implements the three lightweight stages of target-frame rendering from
Sec. III-B of the paper:

1. *Point-cloud conversion* (Eq. 1): lift the reference frame's pixels into
   3-D using its depth map.
2. *Transformation* (Eq. 2): re-express the cloud in the target camera frame.
3. *Re-projection* (Eq. 3): z-buffer splat onto the target image plane.

Void pixels (infinite depth — sky/background) are lifted to a far plane so
the disocclusion classifier can distinguish "nothing there" from "something
was hidden" (the paper's depth test).  Most of a reference is void, and a
void point only has to say "background landed here", so step 3 splits the
cloud: only *surface* points go through the z-buffer's depth sort, void
points just mark the pixels they land on, and the few pixels that receive
both go to the nearer point by depth — the same outcome as one z-buffer over
every point.  Everything after the splat (warp angle, pinhole fill) works on
the covered pixels and the holes it fills, not on the whole frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...geometry.camera import PinholeCamera
from ...geometry.pointcloud import depth_to_points, transform_points
from ...geometry.projection import nearest_source, project_to_pixels
from ...geometry.transforms import relative_pose
from ...scenes.raytracer import Frame

__all__ = ["WarpResult", "warp_frame", "splat_surface", "VOID_FAR_DEPTH"]

# Depth assigned to void (infinite-depth) reference pixels so they still
# project; anything this far is classified as void in the target frame.
VOID_FAR_DEPTH = 1.0e4

# The 8-neighbourhood as (dy, dx), in the order the pinhole fill sums it.
_NEIGHBOURS = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                    if dy or dx)
_DY, _DX = np.array(_NEIGHBOURS).T


@dataclass
class WarpResult:
    """A naively warped target frame F'_tgt plus classification inputs.

    ``covered`` marks pixels that received a *surface* point; ``void`` marks
    pixels whose nearest splat came from the reference frame's background
    (infinite depth).  Remaining pixels are holes — candidate disocclusions.
    ``warp_angle_deg`` holds, for covered pixels, the angle theta subtended
    at the scene point by the reference and target camera centres (Fig. 8),
    used by the warping threshold heuristic.
    """

    image: np.ndarray  # (H, W, 3)
    depth: np.ndarray  # (H, W), +inf where not covered by a surface point
    covered: np.ndarray  # (H, W) bool, surface-covered
    void: np.ndarray  # (H, W) bool, far-plane-covered
    warp_angle_deg: np.ndarray  # (H, W), 0 where not covered

    @property
    def hole_mask(self) -> np.ndarray:
        """Pixels neither surface-covered nor void: disocclusion candidates."""
        return ~(self.covered | self.void)


def splat_surface(points_tgt: np.ndarray, is_void: np.ndarray, intrinsics
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Step 3: z-buffer the surface points, mark where background lands.

    ``points_tgt`` (N, 3) is the lifted cloud in the target camera frame
    and ``is_void`` (N,) flags the points lifted from void pixels.
    Returns ``(source, landed_void)`` over the target's flat pixels:
    ``source`` is the index of the surface point nearest overall (-1 where
    no surface point landed or a void point is nearer), ``landed_void``
    marks every pixel a void point landed on.  A pixel that receives both
    kinds is resolved by depth like any other z-buffer conflict — nearest
    wins, and on equal depth the later point — never by assuming the far
    plane loses.
    """
    num_pixels = intrinsics.height * intrinsics.width
    pixel = project_to_pixels(points_tgt, intrinsics)
    lands = pixel >= 0
    z = points_tgt[:, 2]
    surface = np.flatnonzero(lands & ~is_void)
    source = nearest_source(pixel[surface], z[surface], surface, num_pixels)

    background = np.flatnonzero(lands & is_void)
    background_pixel = pixel[background]
    landed_void = np.zeros(num_pixels, dtype=bool)
    landed_void[background_pixel] = True
    rival = source[background_pixel]
    contested = rival >= 0
    if contested.any():
        rival = rival[contested]
        challenger = background[contested]
        nearer = ((z[challenger] < z[rival])
                  | ((z[challenger] == z[rival]) & (challenger > rival)))
        source[background_pixel[contested][nearer]] = -1
    return source, landed_void


def _warp_angle_deg(points_ref: np.ndarray, ref_c2w: np.ndarray,
                    target_position: np.ndarray) -> np.ndarray:
    """Angle theta at each scene point between the two camera centres.

    ``points_ref`` (M, 3) are reference-camera points.  Norms and the dot
    product are written per column in NumPy's own last-axis order,
    ``(x + y) + z``, which is what ``np.linalg.norm(axis=-1)`` and
    ``sum(axis=-1)`` compute, without their strided length-3 reductions.
    """
    pts_world = np.ascontiguousarray(transform_points(points_ref, ref_c2w).T)
    rx, ry, rz = ref_c2w[:3, 3, None] - pts_world
    tx, ty, tz = target_position[:, None] - pts_world
    nr = np.sqrt((rx * rx + ry * ry) + rz * rz)
    nt = np.sqrt((tx * tx + ty * ty) + tz * tz)
    denom = np.where(nr * nt < 1e-12, 1.0, nr * nt)
    cos = np.clip(((rx * tx + ry * ty) + rz * tz) / denom, -1.0, 1.0)
    return np.degrees(np.arccos(cos))


def _fill_pinholes(image: np.ndarray, depth: np.ndarray, covered: np.ndarray,
                   width: int) -> None:
    """Fill isolated 1-pixel splat gaps from their covered neighbours.

    Forward point splatting leaves single-pixel "pinholes" wherever the view
    expands (one source pixel maps to slightly more than one target pixel).
    Real point renderers close these with a small splat kernel; we fill any
    hole with >= 5 covered 8-neighbours using the neighbour
    mean, in place, on flat ``(H*W, 3)`` / ``(H*W,)`` arrays.  Genuine
    disocclusion bands are wider than one pixel and survive untouched.

    Neighbours are counted on a zero-bordered copy of ``covered``; colour
    and depth are summed only at the pixels being filled, from 0.0 in
    ``_NEIGHBOURS`` order with an uncovered neighbour adding exactly 0.0.
    Filled pixels keep a warp angle of 0.
    """
    height = covered.size // width
    border = np.zeros((height + 2, width + 2), dtype=bool)
    border[1:-1, 1:-1] = covered.reshape(height, width)
    padded = border.view(np.uint8)
    count = np.zeros((height, width), dtype=np.uint8)
    for dy, dx in _NEIGHBOURS:
        count += padded[1 + dy:1 + dy + height, 1 + dx:1 + dx + width]
    count = count.reshape(-1)

    fill = np.flatnonzero(~covered & (count >= 5))
    if not fill.size:
        return
    # (8, F) neighbour ids: in the bordered frame, then in the image (an
    # absent neighbour reads pixel 0 and is replaced by 0.0).
    rows, cols = np.divmod(fill, width)
    bordered = ((rows + 1) * (width + 2) + cols + 1
                + (_DY * (width + 2) + _DX)[:, None])
    present = border.reshape(-1)[bordered]
    neighbour = np.where(present, fill + (_DY * width + _DX)[:, None], 0)
    colors = np.where(present[..., None], image.take(neighbour, axis=0), 0.0)
    depths = np.where(present, depth.take(neighbour), 0.0)
    # Python's sum runs over the neighbour axis: ((0.0 + n0) + n1) + ...
    counts = count[fill]
    image[fill] = sum(colors, np.zeros((fill.size, 3))) / counts[:, None]
    depth[fill] = sum(depths, np.zeros(fill.size)) / counts
    covered[fill] = True


def warp_frame(reference: Frame, ref_camera: PinholeCamera,
               target_camera: PinholeCamera,
               fill_pinholes: bool = True) -> WarpResult:
    """Warp ``reference`` (rendered at ``ref_camera``) into ``target_camera``.

    Both cameras must share intrinsics resolution-wise with the frames they
    produced.  Returns the naive warp F'_tgt; hole filling is the sparse
    NeRF pass handled by the SPARW pipeline.  ``fill_pinholes`` closes
    single-pixel splatting gaps (not true disocclusions) in the warped image.
    """
    intr = ref_camera.intrinsics
    if reference.depth.shape != (intr.height, intr.width):
        raise ValueError("reference frame and camera resolution mismatch")

    depth = reference.depth
    is_void = ~np.isfinite(depth)
    # Step 1: lift pixels to the reference camera frame; void pixels go to a
    # far plane so that they still carry "this direction is empty" info.
    points_ref = depth_to_points(np.where(is_void, VOID_FAR_DEPTH, depth),
                                 intr)

    # Step 2: reference-camera -> target-camera coordinates.
    t_ref_to_tgt = relative_pose(reference.c2w, target_camera.c2w)
    points_tgt = transform_points(points_ref, t_ref_to_tgt)

    # Step 3: z-buffer splat in the target view.
    tgt = target_camera.intrinsics
    source, landed_void = splat_surface(points_tgt, is_void.reshape(-1), tgt)
    covered = source >= 0
    covered_ids = np.flatnonzero(covered)
    winners = source[covered_ids]

    num_pixels = tgt.height * tgt.width
    image = np.zeros((num_pixels, 3))
    image[covered_ids] = reference.image.reshape(-1, 3).take(winners, axis=0)
    depth_out = np.full(num_pixels, np.inf)
    depth_out[covered_ids] = points_tgt[:, 2].take(winners)
    angle = np.zeros(num_pixels)
    if covered_ids.size:
        angle[covered_ids] = _warp_angle_deg(points_ref.take(winners, axis=0),
                                             reference.c2w,
                                             target_camera.position)
    if fill_pinholes:
        _fill_pinholes(image, depth_out, covered, tgt.width)
    shape = (tgt.height, tgt.width)
    return WarpResult(image=image.reshape(*shape, 3),
                      depth=depth_out.reshape(shape),
                      covered=covered.reshape(shape),
                      void=(landed_void & ~covered).reshape(shape),
                      warp_angle_deg=angle.reshape(shape))
