"""Tests for the event queue primitives."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import Event, EventKind, EventQueue, kind_priority


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(5.0, EventKind.STREAM_END)
        q.push(1.0, EventKind.STREAM_START)
        q.push(3.0, EventKind.SERVICE_START)
        times = [q.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_equal_times_preserve_insertion_order(self):
        q = EventQueue()
        q.push(1.0, EventKind.STREAM_START, "a")
        q.push(1.0, EventKind.STREAM_START, "b")
        q.push(1.0, EventKind.STREAM_START, "c")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(1.0, EventKind.CACHE_OPEN)
        assert q and len(q) == 1

    def test_next_time(self):
        q = EventQueue()
        q.push(7.0, EventKind.CACHE_OPEN)
        q.push(2.0, EventKind.CACHE_OPEN)
        assert q.next_time == 2.0

    def test_empty_queue_errors(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.pop()
        with pytest.raises(SimulationError):
            _ = q.next_time

    def test_drain(self):
        q = EventQueue()
        for t in (3.0, 1.0, 2.0):
            q.push(t, EventKind.STREAM_START)
        trace = q.drain()
        assert [e.time for e in trace] == [1.0, 2.0, 3.0]
        assert not q

    def test_nonfinite_time_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.push(float("nan"), EventKind.STREAM_START)

    def test_event_ordering_dataclass(self):
        a = Event(1.0, 0, EventKind.STREAM_START)
        b = Event(1.0, 1, EventKind.STREAM_END)
        assert a < b


class TestTieBreakContract:
    """Pins the same-timestamp replay order: (time, kind priority, seq).

    This total order is part of the replay contract -- fault injection and
    contingency re-scheduling rely on traces being byte-stable across runs
    -- so these are regression tests, not examples.
    """

    def test_kind_priorities(self):
        assert kind_priority(EventKind.FAULT_END) == 0
        assert kind_priority(EventKind.FAULT_START) == 1
        for kind in EventKind:
            if kind in (EventKind.FAULT_START, EventKind.FAULT_END):
                continue
            assert kind_priority(kind) == 2

    def test_fault_events_win_same_timestamp_ties(self):
        q = EventQueue()
        q.push(1.0, EventKind.STREAM_START, "stream")
        q.push(1.0, EventKind.FAULT_START, "begin")
        q.push(1.0, EventKind.FAULT_END, "recover")
        q.push(1.0, EventKind.SERVICE_START, "service")
        kinds = [q.pop().kind for _ in range(4)]
        assert kinds == [
            EventKind.FAULT_END,  # recovery visible to same-instant work
            EventKind.FAULT_START,  # new fault hits same-instant work
            EventKind.STREAM_START,  # then insertion order
            EventKind.SERVICE_START,
        ]

    def test_insertion_order_within_same_priority(self):
        q = EventQueue()
        q.push(2.0, EventKind.FAULT_START, "f1")
        q.push(2.0, EventKind.FAULT_START, "f2")
        q.push(2.0, EventKind.FAULT_END, "e1")
        q.push(2.0, EventKind.FAULT_END, "e2")
        assert [q.pop().payload for _ in range(4)] == ["e1", "e2", "f1", "f2"]

    def test_sort_key_shape(self):
        ev = Event(3.0, 7, EventKind.FAULT_START)
        assert ev.sort_key == (3.0, 1, 7)
        assert ev.priority == 1

    def test_stable_order_across_runs(self):
        """The same pushes always drain to the same trace."""

        def build():
            q = EventQueue()
            q.push(1.0, EventKind.SERVICE_START, "svc")
            q.push(1.0, EventKind.FAULT_START, "f")
            q.push(0.5, EventKind.STREAM_START, "s")
            q.push(1.0, EventKind.FAULT_END, "e")
            return [(e.time, e.kind, e.payload) for e in q.drain()]

        first = build()
        assert first == build()
        assert [p for _, _, p in first] == ["s", "e", "f", "svc"]

    def test_heap_order_matches_event_lt(self):
        """Draining the heap equals sorting the events by their sort keys."""
        q = EventQueue()
        pushes = [
            (4.0, EventKind.CACHE_OPEN),
            (1.0, EventKind.FAULT_START),
            (1.0, EventKind.STREAM_START),
            (1.0, EventKind.FAULT_END),
            (4.0, EventKind.FAULT_START),
        ]
        events = [q.push(t, k) for t, k in pushes]
        assert q.drain() == sorted(events, key=lambda e: e.sort_key)


class TestDrainMatchesPopOrder:
    """Heavy same-time ties across every kind: drain == pop == sorted."""

    @pytest.mark.parametrize("seed", range(8))
    def test_drain_equals_pops_equals_sort(self, seed):
        rng = random.Random(seed)
        kinds = list(EventKind)
        pushes = [
            (float(rng.randrange(4)), rng.choice(kinds), i) for i in range(200)
        ]

        def fill():
            q = EventQueue()
            return q, [q.push(t, k, p) for t, k, p in pushes]

        q, events = fill()
        drained = q.drain()
        q, _ = fill()
        popped = [q.pop() for _ in range(len(pushes))]
        expected = sorted(
            events, key=lambda e: (e.time, kind_priority(e.kind), e.seq)
        )
        assert drained == popped == expected
        assert not q
