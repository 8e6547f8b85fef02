"""repro — a reproduction of Cicero (ISCA 2024).

Cicero accelerates neural rendering with three co-designed techniques:
sparse radiance warping (SPARW), fully-streaming memory-centric rendering,
and bank conflict-free SRAM interleaving via a Gathering Unit.  This package
implements the algorithms, the NeRF substrate they run on (three field
families over procedural scenes with an exact ray-traced ground truth), the
memory-system and SoC performance models, and a benchmark harness that
regenerates every figure of the paper's evaluation.

Quick start::

    from repro import harness
    rows = harness.EXPERIMENTS["fig07"]()
    harness.print_table(rows, title="Fig. 7 - frame overlap")
"""

from .perf.allocator import fix_malloc_thresholds

# Before anything allocates in earnest: what a frame costs must not depend
# on which temporaries an earlier bake happened to free (see the module).
fix_malloc_thresholds()

from . import baselines, core, geometry, harness, hw, memsys, metrics, nerf, scenes  # noqa: E402

__version__ = "1.0.0"

__all__ = [
    "baselines",
    "core",
    "geometry",
    "harness",
    "hw",
    "memsys",
    "metrics",
    "nerf",
    "scenes",
    "__version__",
]
