"""Hypothesis contract of the one virtual SoC queue (``hw.serving.SocQueue``).

Random sessions (arrival, request rate, per-frame costs, some bakes and
transfers), in both service orders, checked against the rule every
virtual-time path shares:

* no frame starts before its request or its session's previous
  completion (or before its session's bake or transfer lands);
* the SoC serves one thing at a time, and never idles while a known
  frame is ready;
* busy time is the summed frame costs plus bakes;
* feeding costs one frame at a time, in any engine-like order, places
  the frames the way feeding them all up front does, and both equal a
  cluster-style event clock that admits each session at its arrival.
"""

from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.serving import ORDERS, SocQueue, SocStream

EPS = 1e-9  # a frame's start is recorded as finish - cost


class Session(NamedTuple):
    arrival_s: float
    fps: float
    costs: list
    bake_s: float = 0.0
    transfer_s: float = 0.0


# Sampled values make ties (equal requests, equal costs) common.
times = st.sampled_from([0.0, 0.02, 0.1]) | st.floats(0.0, 0.2)
costs = st.lists(st.sampled_from([0.001, 0.02]) | st.floats(1e-4, 0.05),
                 max_size=6)
fetch = st.sampled_from([0.0, 0.0, 0.03]) | st.floats(1e-4, 0.05)


def sessions(bakes: bool):
    one = st.builds(Session, times, st.sampled_from([10.0, 30.0, 1e5]),
                    costs, fetch if bakes else st.just(0.0), fetch)
    return st.lists(one, min_size=1, max_size=5)


def by_arrival(batch):
    return sorted(range(len(batch)), key=lambda i: batch[i].arrival_s)


def admit(queue, batch, i, with_costs=True):
    s = batch[i]
    return queue.admit(
        SocStream(arrival_s=s.arrival_s, fps=s.fps, frames=len(s.costs),
                  costs=list(s.costs) if with_costs else [], key=i),
        bake_s=s.bake_s, transfer_s=s.transfer_s)


def named(name, frames, costs):
    return SocStream(arrival_s=0.0, fps=30.0, frames=frames, costs=costs,
                     key=name)


def serve_on_events(batch, order):
    """Admit each session at its arrival and step the queue on an event
    clock, the way the cluster simulator drives a worker."""
    queue, streams, bakes = SocQueue(order), {}, {}
    pending, now_s = by_arrival(batch), 0.0
    while True:
        while pending and batch[pending[0]].arrival_s <= now_s:
            i = pending.pop(0)
            streams[i] = admit(queue, batch, i)
            if batch[i].bake_s > 0.0:
                bakes[i] = (queue.busy_until_s - batch[i].bake_s,
                            queue.busy_until_s)
        action, payload = queue.poll(now_s)
        if action == "serve":
            now_s = queue.finish(payload, queue.start(payload, now_s)).finish_s
            continue
        wakes = [batch[pending[0]].arrival_s] if pending else []
        if action == "wait":
            wakes.append(payload)
        elif queue.busy_until_s > now_s:
            wakes.append(queue.busy_until_s)
        if not wakes:
            return queue, [streams[i] for i in range(len(batch))], bakes
        now_s = min(wakes)


def covered(busy, lo, hi):
    """True when the sorted busy intervals cover ``[lo, hi]``."""
    reach = lo
    for start, end in busy:
        if end <= reach:
            continue
        if start > reach + EPS:
            break
        reach = end
    return reach >= hi - EPS


def check_rule(batch, queue, streams, bakes):
    busy = sorted([(t.start_s, t.finish_s) for stream in streams
                   for t in stream.timelines] + list(bakes.values()))
    for (_, end), (start, _) in zip(busy, busy[1:]):
        assert start >= end - EPS  # one thing at a time
    assert queue.busy_s == pytest.approx(
        sum(sum(s.costs) + s.bake_s for s in batch), abs=EPS)
    for i, (s, stream) in enumerate(zip(batch, streams)):
        assert stream.done and len(stream.timelines) == len(s.costs)
        unlock = bakes[i][1] if i in bakes else s.arrival_s + s.transfer_s
        for k, t in enumerate(stream.timelines):
            ready = max(stream.request_s(k),
                        stream.timelines[k - 1].finish_s if k else unlock)
            assert t.request_s == stream.request_s(k)
            assert t.finish_s - t.start_s == pytest.approx(s.costs[k])
            assert t.start_s >= ready - EPS
            assert covered(busy, ready, t.start_s)  # no idling while ready


@pytest.mark.parametrize("order", ORDERS)
class TestSocQueue:
    @given(batch=sessions(bakes=True))
    @settings(max_examples=150, deadline=None)
    def test_event_clock_keeps_the_rule(self, order, batch):
        check_rule(batch, *serve_on_events(batch, order))

    @given(batch=sessions(bakes=False), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_feeding_costs_late_changes_no_timeline(self, order, batch,
                                                    data):
        upfront = SocQueue(order)
        streams = [None] * len(batch)
        for i in by_arrival(batch):
            streams[i] = admit(upfront, batch, i)
        placed = [(s.key, t) for s, t in upfront.drain()]
        check_rule(batch, upfront, streams, {})

        fed = SocQueue(order)
        late = [None] * len(batch)
        for i in by_arrival(batch):
            late[i] = admit(fed, batch, i, with_costs=False)
        # An engine renders each session's frames in order, sessions
        # interleaved any way.
        feed = data.draw(st.permutations(
            [i for i, s in enumerate(batch) for _ in s.costs]))
        placed_late = []
        for i in feed:
            late[i].costs.append(batch[i].costs[len(late[i].costs)])
            placed_late += [(s.key, t) for s, t in fed.drain()]
        assert placed_late == placed
        assert [s.timelines for s in late] == [s.timelines for s in streams]

        _, events, _ = serve_on_events(batch, order)
        assert [s.timelines for s in events] == [s.timelines
                                                 for s in streams]


def test_a_missing_cost_holds_back_every_later_request():
    queue = SocQueue()
    first = queue.admit(named("first", 2, [0.001]))
    second = queue.admit(named("second", 2, [0.001, 0.001]))
    queue.drain()
    # Both frame 0s are served; first's frame 1 (requested at 1/30, like
    # second's) has no cost yet and goes first by admission order.
    assert [len(s.timelines) for s in (first, second)] == [1, 1]
    first.costs.append(0.001)
    queue.drain()
    assert second.timelines[1].start_s == pytest.approx(
        first.timelines[1].finish_s)


def test_close_ends_a_stream_after_its_known_frames():
    queue = SocQueue()
    gone = queue.admit(named("gone", 4, [0.001]))
    kept = queue.admit(named("kept", 2, [0.001, 0.001]))
    queue.drain()
    assert len(kept.timelines) == 1
    queue.close(gone)
    queue.drain()
    assert gone.done and kept.done and not queue.streams


def test_unknown_order_rejected():
    with pytest.raises(ValueError, match="service order"):
        SocQueue("lifo")
