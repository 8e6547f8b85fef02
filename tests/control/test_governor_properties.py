"""Hypothesis invariants of the quality governor and budget splitter.

The three contracts the serving stack leans on:

* the tier floor — no latency history may push a session below its
  workload's ``min_quality_tier``,
* monotone hysteretic recovery — under sustained headroom the level only
  climbs back toward full quality, never oscillates, and
* ray-budget conservation — splitting a round's budget by *any* weight
  assignment hands out exactly the budget, no more, no less.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from instruments import level_of
from repro.control import QualityGovernor, split_budget
from repro.control.governor import HEADROOM_RATIO, RECOVER_AFTER

TARGET = 1.0  # target latency; latencies are drawn around it

latencies = st.lists(
    st.floats(min_value=0.0, max_value=10.0 * TARGET,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=60)


class TestTierFloor:
    @given(seq=latencies, max_level=st.integers(min_value=0, max_value=2))
    @settings(max_examples=200, deadline=None)
    def test_level_never_leaves_bounds(self, seq, max_level):
        governor = QualityGovernor("adaptive")
        governor.register("s", TARGET, max_level)
        for latency in seq:
            governor.observe("s", latency)
            level = level_of(governor, "s")
            assert 0 <= level <= max_level

    @given(seq=latencies)
    @settings(max_examples=100, deadline=None)
    def test_min_tier_full_never_degrades(self, seq):
        # max_level 0 == min_quality_tier "full": pinned whatever happens.
        governor = QualityGovernor("adaptive")
        governor.register("s", TARGET, 0)
        for latency in seq:
            assert governor.observe("s", latency) is None
            assert level_of(governor, "s") == 0


class TestMonotoneRecovery:
    @given(prefix=latencies,
           max_level=st.integers(min_value=1, max_value=2))
    @settings(max_examples=150, deadline=None)
    def test_sustained_headroom_recovers_monotonically(self, prefix,
                                                       max_level):
        governor = QualityGovernor("adaptive")
        governor.register("s", TARGET, max_level)
        for latency in prefix:  # arbitrary history first
            governor.observe("s", latency)
        start = level_of(governor, "s")
        headroom = 0.25 * HEADROOM_RATIO * TARGET
        levels = []
        # Enough comfortable frames to unwind every rung.
        for _ in range(RECOVER_AFTER * (max_level + 1)):
            governor.observe("s", headroom)
            levels.append(level_of(governor, "s"))
        # Never re-degrades under headroom, steps down one rung at a
        # time, and fully recovers to native quality.
        assert all(b <= a for a, b in zip([start] + levels, levels))
        assert all(a - b <= 1 for a, b in zip([start] + levels, levels))
        assert levels[-1] == 0

    @given(max_level=st.integers(min_value=1, max_value=2))
    @settings(max_examples=20, deadline=None)
    def test_recovery_is_hysteretic_not_immediate(self, max_level):
        governor = QualityGovernor("adaptive")
        control = governor.register("s", TARGET, max_level)
        control.level = max_level  # start degraded
        for _ in range(RECOVER_AFTER - 1):
            governor.observe("s", 0.0)
        assert level_of(governor, "s") == max_level  # not yet
        governor.observe("s", 0.0)
        assert level_of(governor, "s") == max_level - 1  # exactly then


class TestBudgetConservation:
    @given(total=st.integers(min_value=0, max_value=1_000_000),
           weights=st.lists(
               st.floats(min_value=0.0, max_value=1e6,
                         allow_nan=False, allow_infinity=False),
               min_size=1, max_size=32))
    @settings(max_examples=300, deadline=None)
    def test_shares_sum_to_total(self, total, weights):
        shares = split_budget(total, weights)
        assert len(shares) == len(weights)
        assert all(s >= 0 for s in shares)
        assert sum(shares) == total

    @given(total=st.integers(min_value=0, max_value=10_000),
           weights=st.lists(st.floats(allow_nan=True), min_size=1,
                            max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_degenerate_weights_still_conserve(self, total, weights):
        # NaN/inf/negative weight assignments fall back to an equal
        # split — the total is conserved no matter what.
        assert sum(split_budget(total, weights)) == total

    def test_proportionality(self):
        assert split_budget(100, [1.0, 1.0, 2.0]) == [25, 25, 50]
        assert split_budget(0, [3.0, 1.0]) == [0, 0]
        assert split_budget(5, []) == []
