"""Tests for the virtual clock and event loop."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.errors import ClockError
from repro.netsim.clock import EventLoop


class TestScheduling:
    def test_starts_at_zero(self):
        assert EventLoop().now == 0.0

    def test_custom_start_time(self):
        assert EventLoop(start_time=5.0).now == 5.0

    def test_call_later_advances_clock(self):
        loop = EventLoop()
        seen = []
        loop.call_later(10.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [10.0]

    def test_call_at_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.call_at(7.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [7.5]

    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.call_later(30.0, order.append, "c")
        loop.call_later(10.0, order.append, "a")
        loop.call_later(20.0, order.append, "b")
        loop.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop()
        order = []
        for label in ("first", "second", "third"):
            loop.call_later(5.0, order.append, label)
        loop.run()
        assert order == ["first", "second", "third"]

    def test_callback_args_passed(self):
        loop = EventLoop()
        seen = []
        loop.call_later(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        loop.run()
        assert seen == [(1, "x")]

    def test_scheduling_in_the_past_rejected(self):
        loop = EventLoop()
        loop.call_later(10.0, lambda: None)
        loop.run()
        with pytest.raises(ClockError):
            loop.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ClockError):
            EventLoop().call_later(-1.0, lambda: None)

    def test_nested_scheduling_from_callback(self):
        loop = EventLoop()
        seen = []

        def outer():
            loop.call_later(5.0, lambda: seen.append(loop.now))

        loop.call_later(10.0, outer)
        loop.run()
        assert seen == [15.0]


class TestCancellation:
    def test_cancelled_timer_does_not_fire(self):
        loop = EventLoop()
        seen = []
        timer = loop.call_later(5.0, seen.append, "x")
        timer.cancel()
        loop.run()
        assert seen == []
        assert timer.cancelled and not timer.fired

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        timer = loop.call_later(5.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert timer.cancelled

    def test_fired_flag(self):
        loop = EventLoop()
        timer = loop.call_later(5.0, lambda: None)
        loop.run()
        assert timer.fired

    def test_fired_is_true_inside_its_own_callback(self):
        loop = EventLoop()
        seen = []
        timer = loop.call_later(5.0, lambda: seen.append((timer.fired, timer.cancelled)))
        assert not timer.fired
        loop.run()
        assert seen == [(True, False)]

    def test_cancel_after_firing_is_harmless(self):
        loop = EventLoop()
        seen = []
        timer = loop.call_later(5.0, seen.append, "x")
        loop.run()
        timer.cancel()
        timer.cancel()
        assert seen == ["x"]
        assert timer.fired and timer.cancelled
        loop.call_later(1.0, seen.append, "y")
        loop.run()
        assert seen == ["x", "y"]

    def test_when_is_the_absolute_time(self):
        loop = EventLoop(start_time=3.0)
        assert loop.call_later(4.5, lambda: None).when == 7.5

    def test_cancel_releases_the_callback_and_its_arguments(self):
        loop = EventLoop()

        class Payload:
            pass

        def make():
            captured, argument = Payload(), Payload()

            def callback(_arg):
                return captured

            timer = loop.call_later(5.0, callback, argument)
            return timer, weakref.ref(callback), weakref.ref(captured), weakref.ref(argument)

        timer, callback_ref, captured_ref, argument_ref = make()
        gc.collect()
        assert callback_ref() is not None and argument_ref() is not None
        timer.cancel()  # still queued: the loop has not popped the entry
        gc.collect()
        assert loop.pending == 1
        assert callback_ref() is None and captured_ref() is None and argument_ref() is None

    def test_cancelled_entries_do_not_disturb_tie_order(self):
        loop = EventLoop()
        order = []
        timers = [loop.call_later(5.0, order.append, label) for label in "abcdef"]
        timers[1].cancel()
        timers[4].cancel()
        loop.run()
        assert order == list("acdf")

    def test_cancelled_timer_does_not_advance_the_clock(self):
        loop = EventLoop()
        loop.call_later(5.0, lambda: None)
        loop.call_later(50.0, lambda: None).cancel()
        loop.run()
        assert loop.now == 5.0
        assert loop.events_processed == 1


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        loop = EventLoop()
        seen = []
        loop.call_later(10.0, seen.append, "early")
        loop.call_later(100.0, seen.append, "late")
        stopped_at = loop.run(until=50.0)
        assert seen == ["early"]
        assert stopped_at == 50.0
        assert loop.now == 50.0
        loop.run()
        assert seen == ["early", "late"]

    def test_advance_runs_window(self):
        loop = EventLoop()
        seen = []
        loop.call_later(10.0, seen.append, "a")
        loop.call_later(30.0, seen.append, "b")
        loop.advance(20.0)
        assert seen == ["a"]
        assert loop.now == 20.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ClockError):
            EventLoop().advance(-1.0)

    def test_max_events_guard(self):
        loop = EventLoop()

        def respawn():
            loop.call_later(1.0, respawn)

        loop.call_later(1.0, respawn)
        with pytest.raises(ClockError):
            loop.run(max_events=100)

    def test_max_events_runs_exactly_that_many_callbacks(self):
        loop = EventLoop()
        runs = []

        def respawn():
            runs.append(loop.now)
            loop.call_later(1.0, respawn)

        loop.call_later(1.0, respawn)
        with pytest.raises(ClockError):
            loop.run(max_events=100)
        assert len(runs) == 100
        assert loop.events_processed == 100
        # The event that would have been the 101st is still queued.
        assert loop.pending == 1
        loop.run(until=loop.now + 1.0)
        assert len(runs) == 101 and loop.events_processed == 101

    def test_max_events_equal_to_the_queue_does_not_raise(self):
        loop = EventLoop()
        for _ in range(3):
            loop.call_later(1.0, lambda: None)
        loop.call_later(2.0, lambda: None).cancel()
        loop.run(max_events=3)
        assert loop.events_processed == 3 and loop.pending == 0

    def test_events_processed_is_flushed_when_a_callback_raises(self):
        loop = EventLoop()

        def boom():
            raise RuntimeError("boom")

        loop.call_later(1.0, lambda: None)
        loop.call_later(2.0, boom)
        with pytest.raises(RuntimeError):
            loop.run()
        assert loop.events_processed == 1
        loop.run()  # not left marked as running

    def test_reentrant_run_rejected(self):
        loop = EventLoop()
        errors = []

        def reenter():
            try:
                loop.run()
            except ClockError as exc:
                errors.append(exc)

        loop.call_later(1.0, reenter)
        loop.run()
        assert len(errors) == 1

    def test_events_processed_counter(self):
        loop = EventLoop()
        for _ in range(5):
            loop.call_later(1.0, lambda: None)
        loop.run()
        assert loop.events_processed == 5

    def test_pending_counts_queued_events(self):
        loop = EventLoop()
        loop.call_later(1.0, lambda: None)
        loop.call_later(2.0, lambda: None)
        assert loop.pending == 2
        loop.run()
        assert loop.pending == 0


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time_order(delays):
    loop = EventLoop()
    fire_times = []
    for delay in delays:
        loop.call_later(delay, lambda: fire_times.append(loop.now))
    loop.run()
    assert fire_times == sorted(fire_times)
    assert len(fire_times) == len(delays)


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=30),
    cutoff=st.floats(min_value=0.0, max_value=1e3),
)
def test_property_run_until_respects_cutoff(delays, cutoff):
    loop = EventLoop()
    fired = []
    for delay in delays:
        loop.call_later(delay, lambda d=delay: fired.append(d))
    loop.run(until=cutoff)
    assert all(d <= cutoff for d in fired)
    assert sorted(fired) == sorted(d for d in delays if d <= cutoff)
