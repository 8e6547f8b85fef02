"""Seeded scene catalog: many variant identities from few specs.

Fleet-scale serving is about the *number of distinct fields*, not the
number of distinct hand-built scenes.  :class:`SceneCatalog` expands a
curated workload mix into hundreds-to-thousands of variants by
perturbing each base spec's ``seed`` — every field the specs carry feeds
:meth:`~repro.workloads.WorkloadSpec.spec_hash`, so each variant gets a
distinct ``cache_key``.  A variant is a distinct identity for placement,
the shard map and the field-tier cost model (a distinct baked field as
far as the distribution tier is concerned); its pixels are its base's.
It shares the base's ``render_key``, and the orbit, dolly and headshake
trajectories ignore ``seed``, so it draws the base's frames.

Popularity follows a zipfian law over a seeded permutation of the
catalog (so "which variant is hot" is itself a function of the seed, not
of construction order), converted to exact integer arrival counts with
the same largest-remainder apportionment the control plane uses for
budget splits — the resulting mix plugs straight into the existing
count-weighted arrival samplers, keeping seeded runs bit-deterministic.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..control import split_budget
from ..workloads import WorkloadSpec, parse_mix

__all__ = ["SceneCatalog"]

# Spreads catalog seeds away from the (small-integer) base-spec seeds so
# variants never collide with a curated spec's own identity.
_SEED_STRIDE = 1_000_003


class SceneCatalog:
    """A seeded expansion of a workload mix into ``size`` distinct variants."""

    def __init__(self, mix, size: int, seed: int = 0):
        if size < 1:
            raise ValueError(f"catalog size must be >= 1, got {size}")
        bases = [spec for spec, _ in parse_mix(mix)]
        self.seed = int(seed)
        self.specs: tuple[WorkloadSpec, ...] = tuple(
            self._variant(bases[k % len(bases)], k) for k in range(size)
        )
        # Popularity rank of each variant (0 = hottest), decoupled from
        # construction order by a seeded shuffle.
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(size)
        self.ranks: tuple[int, ...] = tuple(int(r) for r in order)

    def _variant(self, base: WorkloadSpec, k: int) -> WorkloadSpec:
        derived = base.seed + _SEED_STRIDE * (self.seed + 1) + k
        return dataclasses.replace(base, name=f"{base.name}@{k:04d}",
                                   seed=derived)

    def __len__(self) -> int:
        return len(self.specs)

    def zipf_mix(self, s: float = 1.1) -> list[tuple[WorkloadSpec, int]]:
        """Catalog as ``(spec, count)`` pairs under a zipf(s) popularity law.

        An integer weight budget of ``8 × size`` is spread over the
        catalog; every variant keeps a floor count of 1 so the whole
        catalog stays samplable.  ``s = 0`` degenerates to a uniform mix.
        """
        if s < 0:
            raise ValueError(f"zipf skew must be >= 0, got {s}")
        size = len(self.specs)
        total = 8 * size
        weights = [float((rank + 1) ** -s) for rank in self.ranks]
        shares = split_budget(total - size, weights)
        return [(spec, share + 1)
                for spec, share in zip(self.specs, shares)]
