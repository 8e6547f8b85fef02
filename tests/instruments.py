"""Read-outs the tests take of library objects the library never reads.

Each is one expression over public state; the tests use them to check
classifications, bakes, governors, shard maps and engine results.  Import by bare name
(``from instruments import void_fraction``), like ``pose_helpers``.
"""


def void_fraction(classification) -> float:
    """Share of a :class:`PixelClassification`'s pixels that are void."""
    return float(classification.void.mean())


def diffuse_radiance(scene, points):
    """View-independent part of ``scene``'s radiance at ``points``."""
    return scene.surface(points).diffuse()


def occupancy_rate(grid) -> float:
    """Fraction of an :class:`OccupancyGrid`'s cells marked occupied."""
    return float(grid.occupancy.mean())


def frame_interval(trajectory) -> float:
    """Seconds between a trajectory's consecutive frames (1 / fps)."""
    return 1.0 / trajectory.fps


def level_of(governor, session_id: str) -> int:
    """A :class:`QualityGovernor` session's current level (0 if unknown)."""
    control = governor.sessions.get(session_id)
    return control.level if control is not None else 0


def primary(shard_map, key: str):
    """Best-ranked owner of ``key`` (None for an empty fleet or R=0)."""
    owners = shard_map.owners(key)
    return owners[0] if owners else None


def session_of(result, session_id: str):
    """The session of an :class:`EngineResult` with ``session_id``."""
    return next(s for s in result.sessions if s.session_id == session_id)
