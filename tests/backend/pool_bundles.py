"""Blocking bundle rendering on a :class:`~repro.backend.parallel.WorkerPool`.

The engine submits a round's groups in one call and collects each group
later; the pool tests want one blocking call per bundle list.
"""


def render_bundles(pool, renderer, bundles: list) -> list:
    """Submit one renderer's bundle list, then collect its results."""
    return pool.collect(pool.submit([(renderer, bundles)])[0])
