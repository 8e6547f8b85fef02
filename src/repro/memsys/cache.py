"""Cache simulation: LRU and Belady-optimal replacement.

Used for the Fig. 5 characterisation: the paper assumes a 2 MB on-chip buffer
with *oracle* (Belady/MIN) replacement and measures the feature-gathering
miss rate of each NeRF algorithm under pixel-centric rendering.  Belady is
the upper bound on what any replacement policy could achieve, which makes the
observed high miss rates an algorithmic property, not a cache-policy
artifact.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "simulate_lru", "simulate_belady"]


@dataclass
class CacheStats:
    """Hit/miss summary of a cache simulation."""

    accesses: int
    misses: int
    capacity_blocks: int
    block_bytes: int

    @property
    def miss_rate(self) -> float:
        return 0.0 if self.accesses == 0 else self.misses / self.accesses

    @property
    def miss_bytes(self) -> int:
        return self.misses * self.block_bytes


def _to_blocks(addresses: np.ndarray, block_bytes: int) -> np.ndarray:
    return (np.asarray(addresses, dtype=np.int64) // block_bytes)


def simulate_lru(addresses: np.ndarray, capacity_bytes: int,
                 block_bytes: int) -> CacheStats:
    """Fully-associative LRU cache over a byte-address sequence."""
    blocks = _to_blocks(addresses, block_bytes)
    capacity = max(1, capacity_bytes // block_bytes)
    cache: OrderedDict = OrderedDict()
    misses = 0
    for block in blocks.tolist():
        if block in cache:
            cache.move_to_end(block)
        else:
            misses += 1
            cache[block] = True
            if len(cache) > capacity:
                cache.popitem(last=False)
    return CacheStats(accesses=len(blocks), misses=misses,
                      capacity_blocks=capacity, block_bytes=block_bytes)


def simulate_belady(addresses: np.ndarray, capacity_bytes: int,
                    block_bytes: int) -> CacheStats:
    """Fully-associative Belady (MIN / oracle) cache simulation.

    Evicts the resident block whose next use is farthest in the future.
    Implemented with a lazy max-heap over next-use distances; the next-use
    chain is precomputed in one reverse pass.
    """
    blocks = _to_blocks(addresses, block_bytes)
    n = len(blocks)
    capacity = max(1, capacity_bytes // block_bytes)

    # next_use[i] = next index at which blocks[i] recurs (n = never).
    next_use = np.full(n, n, dtype=np.int64)
    last_seen: dict = {}
    for i in range(n - 1, -1, -1):
        b = int(blocks[i])
        next_use[i] = last_seen.get(b, n)
        last_seen[b] = i

    resident: dict = {}  # block -> its current next-use index
    heap: list = []  # (-next_use, block) lazy entries
    misses = 0
    for i in range(n):
        b = int(blocks[i])
        nu = int(next_use[i])
        if b in resident:
            resident[b] = nu
            heapq.heappush(heap, (-nu, b))
            continue
        misses += 1
        if len(resident) >= capacity:
            while True:
                neg_nu, victim = heapq.heappop(heap)
                if victim in resident and resident[victim] == -neg_nu:
                    del resident[victim]
                    break
        resident[b] = nu
        heapq.heappush(heap, (-nu, b))
    return CacheStats(accesses=n, misses=misses, capacity_blocks=capacity,
                      block_bytes=block_bytes)
