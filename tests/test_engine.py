"""Tests for the discrete-event engine."""

import math

import pytest

from repro.sim.engine import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule_at(2.0, fired.append, "b")
        engine.schedule_at(1.0, fired.append, "a")
        engine.schedule_at(3.0, fired.append, "c")
        engine.run_until(math.inf)
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_fifo(self):
        engine = Engine()
        fired = []
        for tag in ("first", "second", "third"):
            engine.schedule_at(1.0, fired.append, tag)
        engine.run_until(math.inf)
        assert fired == ["first", "second", "third"]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(5.0, lambda: seen.append(engine.now))
        engine.run_until(math.inf)
        assert seen == [5.0]

    def test_schedule_after_relative_delay(self):
        engine = Engine()
        seen = []
        engine.schedule_at(1.0, lambda: engine.schedule_after(2.0, lambda: seen.append(engine.now)))
        engine.run_until(math.inf)
        assert seen == [3.0]

    def test_cannot_schedule_in_past(self):
        engine = Engine()
        engine.schedule_at(1.0, lambda: None)
        engine.run_until(engine.next_time)
        with pytest.raises(ValueError):
            engine.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.schedule_after(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule_at(1.0, fired.append, "x")
        handle.cancel()
        engine.run_until(math.inf)
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        fired = []
        handle = engine.schedule_at(1.0, fired.append, "x")
        engine.run_until(math.inf)
        handle.cancel()
        assert fired == ["x"]

    def test_pending_excludes_cancelled(self):
        engine = Engine()
        h1 = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        h1.cancel()
        assert engine.pending == 1

    def test_pending_counter_tracks_fire_and_cancel(self):
        engine = Engine()
        h1 = engine.schedule_at(1.0, lambda: None)
        h2 = engine.schedule_at(2.0, lambda: None)
        engine.schedule_at(3.0, lambda: None)
        assert engine.pending == 3
        engine.run_until(engine.next_time)  # fires h1
        assert engine.pending == 2
        h2.cancel()
        h2.cancel()  # double-cancel must not double-decrement
        assert engine.pending == 1
        h1.cancel()  # cancel after fire must not decrement
        assert engine.pending == 1
        engine.run_until(math.inf)
        assert engine.pending == 0


class TestRunUntil:
    def test_processes_events_up_to_and_including_t_end(self):
        engine = Engine()
        fired = []
        engine.schedule_at(1.0, fired.append, "a")
        engine.schedule_at(2.0, fired.append, "b")
        engine.schedule_at(2.5, fired.append, "c")
        engine.run_until(2.0)
        assert fired == ["a", "b"]
        assert engine.now == 2.0

    def test_now_set_even_with_no_events(self):
        engine = Engine()
        engine.run_until(10.0)
        assert engine.now == 10.0

    def test_rejects_past_t_end(self):
        engine = Engine()
        engine.run_until(5.0)
        with pytest.raises(ValueError):
            engine.run_until(4.0)

    def test_events_scheduled_during_run_fire_if_in_window(self):
        engine = Engine()
        fired = []
        engine.schedule_at(1.0, lambda: engine.schedule_at(1.5, fired.append, "nested"))
        engine.run_until(2.0)
        assert fired == ["nested"]


class TestRun:
    def test_run_returns_fired_count(self):
        # ``run_until`` returns nothing; a run's fired count is the rise in
        # ``events_fired`` across it.
        engine = Engine()
        for i in range(5):
            engine.schedule_at(float(i), lambda: None)
        engine.run_until(2.0)
        assert engine.events_fired == 3
        engine.run_until(math.inf)
        assert engine.events_fired == 5
        assert engine.pending == 0

    def test_events_fired_counter(self):
        engine = Engine()
        engine.schedule_at(1.0, lambda: None)
        engine.run_until(math.inf)
        assert engine.events_fired == 1
