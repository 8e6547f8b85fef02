"""Banked SRAM model: conflict detection for concurrent gather requests.

Models the on-chip feature buffer of Sec. II-D / IV-B: B banks, each with M
read ports.  Per "issue group" (one vertex fetch for each of the concurrent
rays), requests map to banks via the data layout; multiple *distinct*
addresses landing in the same bank serialise.  Identical addresses broadcast
(a single read feeds several PEs) — which is why algorithms whose adjacent
rays share voxels conflict less.

The conflict rate reported matches the paper's definition operationally:
the fraction of issue cycles lost to serialisation,
``1 - ideal_cycles / actual_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BankConflictStats", "BankedSRAM"]


@dataclass
class BankConflictStats:
    """Cycle accounting of a banked-SRAM access simulation."""

    issue_groups: int
    ideal_cycles: int
    actual_cycles: int
    conflicted_groups: int

    @property
    def conflict_rate(self) -> float:
        """Fraction of cycles lost to bank serialisation."""
        if self.actual_cycles == 0:
            return 0.0
        return 1.0 - self.ideal_cycles / self.actual_cycles

    @property
    def slowdown(self) -> float:
        if self.ideal_cycles == 0:
            return 1.0
        return self.actual_cycles / self.ideal_cycles

    def merge(self, other: "BankConflictStats") -> "BankConflictStats":
        return BankConflictStats(
            issue_groups=self.issue_groups + other.issue_groups,
            ideal_cycles=self.ideal_cycles + other.ideal_cycles,
            actual_cycles=self.actual_cycles + other.actual_cycles,
            conflicted_groups=self.conflicted_groups + other.conflicted_groups,
        )


class BankedSRAM:
    """B banks x M ports with broadcast on identical addresses."""

    def __init__(self, num_banks: int = 16, ports_per_bank: int = 1):
        if num_banks < 1 or ports_per_bank < 1:
            raise ValueError("banks and ports must be positive")
        self.num_banks = int(num_banks)
        self.ports_per_bank = int(ports_per_bank)

    def simulate_groups(self, bank_ids: np.ndarray, addresses: np.ndarray
                        ) -> BankConflictStats:
        """Simulate issue groups of concurrent requests.

        ``bank_ids`` and ``addresses`` are (G, R): G issue groups of R
        concurrent requests each.  Negative bank ids mark inactive lanes.
        Cycles per group = max over banks of ceil(#distinct addresses / M).
        """
        bank_ids = np.atleast_2d(np.asarray(bank_ids, dtype=np.int64))
        addresses = np.atleast_2d(np.asarray(addresses, dtype=np.int64))
        if bank_ids.shape != addresses.shape:
            raise ValueError("bank_ids and addresses shapes differ")

        groups, _ = bank_ids.shape
        ideal = 0
        actual = 0
        conflicted = 0
        for g in range(groups):
            active = bank_ids[g] >= 0
            if not active.any():
                continue
            # Distinct (bank, address) pairs: identical addresses broadcast.
            pairs = np.unique(np.stack([bank_ids[g][active],
                                        addresses[g][active]], axis=1), axis=0)
            counts = np.bincount(pairs[:, 0], minlength=self.num_banks)
            cycles = int(np.ceil(counts / self.ports_per_bank).max())
            cycles = max(cycles, 1)
            ideal += 1
            actual += cycles
            if cycles > 1:
                conflicted += 1
        return BankConflictStats(issue_groups=groups, ideal_cycles=ideal,
                                 actual_cycles=actual,
                                 conflicted_groups=conflicted)

    def simulate_groups_fast(self, bank_ids: np.ndarray, addresses: np.ndarray
                             ) -> BankConflictStats:
        """Vectorised equivalent of :meth:`simulate_groups`.

        Handles the millions of issue groups a full frame produces.  Same
        semantics: identical (bank, address) pairs within a group broadcast;
        distinct addresses in one bank serialise across its ports.
        """
        bank_ids = np.atleast_2d(np.asarray(bank_ids, dtype=np.int64))
        addresses = np.atleast_2d(np.asarray(addresses, dtype=np.int64))
        groups, lanes = bank_ids.shape
        if groups == 0:
            return BankConflictStats(0, 0, 0, 0)

        active = bank_ids >= 0
        # Compose a sortable key; inactive lanes get a sentinel that sorts
        # last and is excluded from distinct counting.
        addr_span = int(addresses.max(initial=0)) + 2
        key = np.where(active, bank_ids * addr_span + addresses + 1, 0)
        key_sorted = np.sort(key, axis=1)
        distinct = np.ones_like(key_sorted, dtype=bool)
        distinct[:, 1:] = key_sorted[:, 1:] != key_sorted[:, :-1]
        distinct &= key_sorted > 0

        banks_sorted = np.where(key_sorted > 0,
                                (key_sorted - 1) // addr_span, -1)
        cycles = np.ones(groups, dtype=np.int64)
        for b in range(self.num_banks):
            count_b = ((banks_sorted == b) & distinct).sum(axis=1)
            need = -(-count_b // self.ports_per_bank)  # ceil division
            cycles = np.maximum(cycles, need)

        any_active = active.any(axis=1)
        ideal = int(any_active.sum())
        actual = int(cycles[any_active].sum())
        conflicted = int((cycles[any_active] > 1).sum())
        return BankConflictStats(issue_groups=groups, ideal_cycles=ideal,
                                 actual_cycles=actual,
                                 conflicted_groups=conflicted)
