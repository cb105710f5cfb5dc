"""Unit tests for the simulation kernel."""

import pytest

from repro.sim.kernel import MINUTE, SECOND, SimulationError, Simulator


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "a")
    sim.schedule(5.0, seen.append, "b")
    executed = sim.run()
    assert executed == 2
    assert seen == ["b", "a"]
    assert sim.now == 10.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    sim.schedule_at(42.0, lambda: None)
    sim.run()
    assert sim.now == 42.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_until_time_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, 1)
    sim.schedule(15.0, seen.append, 2)
    sim.run(until=10.0)
    assert seen == [1]
    assert sim.now == 10.0
    sim.run()
    assert seen == [1, 2]


def test_run_until_with_empty_queue_advances_to_until():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, seen.append, "second")
        seen.append("first")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 2.0


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    sim.cancel(event)
    sim.run()
    assert seen == []


def test_cancel_is_idempotent_and_accepts_none():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    sim.cancel(None)
    assert sim.run() == 0


def test_stop_halts_loop():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
    sim.schedule(2.0, seen.append, 2)
    sim.run()
    assert seen == [1]
    assert len(sim.queue) == 1


def test_max_events_bounds_execution():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.run() == 6


def test_run_is_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_run_until_predicate():
    sim = Simulator()
    state = {"done": False}
    sim.schedule(5 * SECOND, lambda: state.update(done=True))
    assert sim.run_until(lambda: state["done"], check_every=SECOND)
    assert state["done"]


def test_run_until_predicate_deadline():
    sim = Simulator()
    # Recurring event keeps the queue non-empty forever.

    def tick():
        sim.schedule(SECOND, tick)

    sim.schedule(SECOND, tick)
    assert not sim.run_until(lambda: False, check_every=SECOND,
                             deadline=5 * SECOND)
    assert sim.now == 5 * SECOND


def test_run_until_drained_queue_returns_predicate_value():
    sim = Simulator()
    assert not sim.run_until(lambda: False, check_every=SECOND)


def test_deterministic_rng_per_seed():
    a = Simulator(seed=5).rng.random()
    b = Simulator(seed=5).rng.random()
    c = Simulator(seed=6).rng.random()
    assert a == b
    assert a != c


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_time_constants():
    assert SECOND == 1000.0
    assert MINUTE == 60 * SECOND


# ----------------------------------------------------------------------
# Run-loop semantics: max_events, stop(), until, raising handlers
# ----------------------------------------------------------------------
def _ticks(sim, times, seen):
    for t in times:
        sim.schedule_at(t, seen.append, t)


def test_run_max_events_zero_executes_nothing():
    sim = Simulator()
    seen = []
    _ticks(sim, [1.0, 2.0], seen)
    assert sim.run(max_events=0) == 0
    assert sim.run(until=50.0, max_events=0) == 0
    assert seen == []
    assert sim.now == 0.0  # not even `until` moves the clock
    assert sim.events_executed == 0
    assert len(sim.queue) == 2


def test_run_max_events_k_stops_at_kth_event():
    sim = Simulator()
    seen = []
    _ticks(sim, [1.0, 2.0, 3.0, 4.0], seen)
    assert sim.run(until=100.0, max_events=3) == 3
    assert seen == [1.0, 2.0, 3.0]
    assert sim.now == 3.0  # the limit, not `until`, ended the call
    assert sim.events_executed == 3
    assert sim.run(max_events=3) == 1
    assert sim.events_executed == 4
    assert sim.run(max_events=3) == 0


def test_stop_from_handler_ends_loop_after_that_handler():
    sim = Simulator()
    seen = []

    def stopper():
        sim.stop()
        seen.append("after stop")  # the handler itself runs to the end

    sim.schedule_at(1.0, seen.append, "before")
    sim.schedule_at(2.0, stopper)
    sim.schedule_at(2.0, seen.append, "same instant")
    sim.schedule_at(3.0, seen.append, "later")
    assert sim.run(until=10.0) == 2
    assert seen == ["before", "after stop"]
    assert sim.now == 2.0  # a stopped run does not advance to `until`
    assert sim.events_executed == 2
    assert len(sim.queue) == 2
    # The next call starts afresh.
    assert sim.run() == 2
    assert seen[-2:] == ["same instant", "later"]
    assert sim.events_executed == 4


def test_stop_outside_run_does_not_affect_next_run():
    sim = Simulator()
    seen = []
    _ticks(sim, [1.0, 2.0], seen)
    sim.stop()
    assert sim.run() == 2
    assert seen == [1.0, 2.0]


def test_stop_twice_in_one_handler_stops_once():
    sim = Simulator()
    seen = []
    sim.schedule_at(1.0, lambda: (sim.stop(), sim.stop()))
    _ticks(sim, [2.0, 3.0], seen)
    assert sim.run() == 1
    assert sim.run() == 2
    assert seen == [2.0, 3.0]


def test_stop_on_last_allowed_event_leaves_next_run_unaffected():
    sim = Simulator()
    seen = []
    sim.schedule_at(1.0, sim.stop)
    _ticks(sim, [2.0, 3.0], seen)
    assert sim.run(max_events=1) == 1
    assert sim.run() == 2
    assert seen == [2.0, 3.0]


def test_until_advances_clock_exactly_when_queue_drains():
    sim = Simulator()
    seen = []
    _ticks(sim, [1.5, 2.5], seen)
    assert sim.run(until=7.25) == 2
    assert sim.now == 7.25
    assert not sim.queue


def test_until_advances_clock_exactly_when_next_event_is_later():
    sim = Simulator()
    seen = []
    _ticks(sim, [1.0, 7.25, 9.0], seen)
    assert sim.run(until=7.25) == 2  # an event at exactly `until` runs
    assert sim.now == 7.25
    assert sim.run(until=8.5) == 0
    assert sim.now == 8.5
    assert len(sim.queue) == 1
    assert sim.queue.peek_time() == 9.0


def test_until_in_the_past_never_rewinds_the_clock():
    sim = Simulator()
    sim.run(until=10.0)
    sim.schedule(5.0, lambda: None)
    assert sim.run(until=3.0) == 0
    assert sim.now == 10.0


def test_until_skips_cancelled_events_beyond_it():
    sim = Simulator()
    seen = []
    _ticks(sim, [1.0], seen)
    cancelled = sim.schedule_at(2.0, seen.append, "cancelled")
    sim.schedule_at(20.0, seen.append, 20.0)
    sim.cancel(cancelled)
    assert sim.run(until=5.0) == 1
    assert sim.now == 5.0
    assert seen == [1.0]


class _Boom(Exception):
    pass


def test_raising_handler_propagates_and_is_not_counted():
    sim = Simulator()
    seen = []

    def boom():
        raise _Boom

    _ticks(sim, [1.0, 2.0], seen)
    sim.schedule_at(3.0, boom)
    _ticks(sim, [4.0], seen)
    with pytest.raises(_Boom):
        sim.run(until=10.0)
    assert seen == [1.0, 2.0]
    assert sim.events_executed == 2  # only handlers that completed
    assert sim.now == 3.0
    # The loop is released: the next call resumes after the failure.
    assert sim.run(until=10.0) == 1
    assert seen == [1.0, 2.0, 4.0]
    assert sim.events_executed == 3
    assert sim.now == 10.0


def test_raising_handler_under_max_events():
    sim = Simulator()

    def boom():
        raise _Boom

    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, boom)
    with pytest.raises(_Boom):
        sim.run(max_events=5)
    assert sim.events_executed == 1


def test_reentrant_run_raises_and_outer_run_continues():
    sim = Simulator()
    seen = []
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule_at(1.0, nested)
    _ticks(sim, [2.0], seen)
    assert sim.run() == 2
    assert len(errors) == 1
    assert seen == [2.0]
    assert sim.events_executed == 2


def test_events_executed_accumulates_across_calls():
    sim = Simulator()
    seen = []
    _ticks(sim, [float(t) for t in range(1, 8)], seen)
    assert sim.run(max_events=2) == 2
    assert sim.run(until=4.0) == 2
    assert sim.run() == 3
    assert sim.events_executed == 7
