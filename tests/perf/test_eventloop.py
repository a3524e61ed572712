"""Tests for the heap scheduler under the EMC micro-simulation."""

import pytest

from repro.testing.eventloop import EventLoop


class TestOrdering:
    def test_time_then_phase_then_fifo(self):
        log = []
        loop = EventLoop()
        loop.schedule(2, lambda: log.append("t2-p0"), phase=0)
        loop.schedule(1, lambda: log.append("t1-p3"), phase=3)
        loop.schedule(1, lambda: log.append("t1-p0"), phase=0)
        loop.schedule(1, lambda: log.append("t1-p2"), phase=2)
        loop.schedule(1, lambda: log.append("t1-p1"), phase=1)
        loop.run()
        assert log == ["t1-p0", "t1-p1", "t1-p2", "t1-p3", "t2-p0"]

    def test_same_time_same_phase_is_fifo(self):
        log = []
        loop = EventLoop()
        for i in range(5):
            loop.schedule(3, lambda i=i: log.append(i), phase=2)
        loop.run()
        assert log == [0, 1, 2, 3, 4]

    def test_events_scheduled_during_run_interleave(self):
        log = []
        loop = EventLoop()

        def first():
            log.append("first")
            # same time, later phase: still runs this tick
            loop.schedule(loop.now, lambda: log.append("chained"), phase=1)
            loop.schedule(loop.now + 1, lambda: log.append("next-tick"))

        loop.schedule(0, first, phase=0)
        loop.schedule(0, lambda: log.append("last"), phase=3)
        loop.run()
        assert log == ["first", "chained", "last", "next-tick"]


class TestContracts:
    def test_scheduling_into_the_past_raises(self):
        loop = EventLoop()
        loop.schedule(5, lambda: None)
        loop.run()
        assert loop.now == 5
        with pytest.raises(ValueError):
            loop.schedule(4, lambda: None)

    def test_run_until_leaves_future_events(self):
        log = []
        loop = EventLoop()
        loop.schedule(1, lambda: log.append(1))
        loop.schedule(10, lambda: log.append(10))
        executed = loop.run(until=5)
        assert executed == 1 and log == [1] and len(loop) == 1
        loop.run()
        assert log == [1, 10]

    def test_processed_counter(self):
        loop = EventLoop()
        for tick in range(4):
            loop.schedule(tick, lambda: None)
        loop.run()
        assert loop.processed == 4
