"""Where the engine renders: in-process, or on a shared-memory worker pool.

Every backend runs the same numpy kernels; ``parallel`` additionally has
the :class:`~repro.engine.MultiSessionEngine` fan different sessions'
deterministic ray bundles out to the persistent pool in
:mod:`repro.backend.parallel`.  Workers render over bit-identical shared
field tables, so serving output does not depend on the backend.

:mod:`repro.backend.parallel` is imported lazily by the engine, never
here, to keep this package import-light and cycle-free.
"""

__all__ = ["BACKENDS", "DEFAULT_BACKEND", "DEFAULT_WORKERS"]

# Accepted ``--backend`` values.
BACKENDS = ("numpy", "parallel")

# The backend used when no --backend flag is given.
DEFAULT_BACKEND = "numpy"

# Pool size when ``parallel`` is enabled without an explicit
# --engine-workers count.
DEFAULT_WORKERS = 2
