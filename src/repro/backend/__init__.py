"""Where the engine renders: in-process, or on a forked worker pool.

Every backend runs the same numpy kernels; ``parallel`` additionally has
the :class:`~repro.engine.MultiSessionEngine` fan different sessions'
ray bundles out to the persistent pool in :mod:`repro.backend.parallel`.
Its workers are forked from the serving process and render with the
renderers they inherited — a copy-on-write snapshot of the parent's
baked tables taken at the fork, so each table is held once — and fork
again only for a renderer they were not forked with.  A worker pins the
parent's memory image from its fork until the next re-fork or shutdown,
and the backend needs a platform with ``fork``.  Serving output does not
depend on the backend.  Only ``serve`` (and serve cells) choose one: the
live server and the cluster simulator's workers render in-process.

:mod:`repro.backend.parallel` is imported lazily by the engine, never
here, to keep this package import-light and cycle-free.
"""

__all__ = ["BACKENDS", "DEFAULT_WORKERS"]

# Accepted ``--backend`` values.
BACKENDS = ("numpy", "parallel")

# Pool size when ``parallel`` is enabled without an explicit
# --engine-workers count.
DEFAULT_WORKERS = 2
