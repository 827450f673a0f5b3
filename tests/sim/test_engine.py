"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Interrupt, Signal, Simulator, Timeout


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_is_inclusive(self):
        # An event at exactly ``until`` fires, and so does one it
        # schedules for the same instant; only later events wait.
        sim = Simulator()
        fired = []

        def at_until():
            fired.append(5)
            sim.schedule(0.0, fired.append, "5b")

        sim.schedule(5.0, at_until)
        sim.schedule(5.0 + 1e-9, fired.append, "later")
        assert sim.run(until=5.0) == 5.0
        assert fired == [5, "5b"]
        sim.run()
        assert fired == [5, "5b", "later"]

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        sim.run()
        assert fired == [10]
        assert sim.now == 10.0

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: sim.schedule_at(7.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [7.0]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestProcesses:
    def test_process_sleeps_with_numeric_yield(self):
        sim = Simulator()
        wakes = []

        def proc():
            yield 5.0
            wakes.append(sim.now)
            yield 2
            wakes.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert wakes == [5.0, 7.0]

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return 42

        assert sim.run_process(proc()) == 42

    def test_spawn_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)  # type: ignore[arg-type]

    def test_join_another_process(self):
        sim = Simulator()

        def child():
            yield 3.0
            return "child-result"

        def parent():
            child_proc = sim.spawn(child())
            result = yield child_proc
            return (sim.now, result)

        assert sim.run_process(parent()) == (3.0, "child-result")

    def test_signal_wakes_waiter_with_value(self):
        sim = Simulator()
        sig = sim.signal("test")

        def waiter():
            value = yield sig
            return (sim.now, value)

        proc = sim.spawn(waiter())
        sim.schedule(4.0, sig.fire, "hello")
        sim.run()
        assert proc.result == (4.0, "hello")

    def test_wait_on_already_fired_signal(self):
        sim = Simulator()
        sig = sim.signal()
        sig.fire("early")

        def waiter():
            value = yield sig
            return value

        assert sim.run_process(waiter()) == "early"

    def test_signal_cannot_fire_twice(self):
        sig = Signal("x")
        sig.fire(1)
        with pytest.raises(SimulationError):
            sig.fire(2)

    def test_allof_collects_results_in_order(self):
        sim = Simulator()
        s1, s2 = sim.signal("s1"), sim.signal("s2")

        def waiter():
            results = yield AllOf([s1, s2])
            return (sim.now, results)

        proc = sim.spawn(waiter())
        sim.schedule(2.0, s2.fire, "second")
        sim.schedule(5.0, s1.fire, "first")
        sim.run()
        assert proc.result == (5.0, ["first", "second"])

    def test_anyof_returns_first_completion(self):
        sim = Simulator()
        s1, s2 = sim.signal("s1"), sim.signal("s2")

        def waiter():
            index, value = yield AnyOf([s1, s2])
            return (sim.now, index, value)

        proc = sim.spawn(waiter())
        sim.schedule(2.0, s2.fire, "fast")
        sim.schedule(5.0, s1.fire, "slow")
        sim.run()
        assert proc.result == (2.0, 1, "fast")

    def test_anyof_with_timeout_child(self):
        sim = Simulator()
        never = sim.signal("never")

        def waiter():
            index, value = yield AnyOf([never, Timeout(3.0)])
            return (sim.now, index)

        proc = sim.spawn(waiter())
        sim.run()
        assert proc.result == (3.0, 1)

    def test_interrupt_raises_inside_process(self):
        sim = Simulator()
        caught = []

        def sleeper():
            try:
                yield 100.0
            except Interrupt as exc:
                caught.append((sim.now, exc.cause))

        proc = sim.spawn(sleeper())
        sim.schedule(5.0, proc.interrupt, "wake-up")
        sim.run()
        assert caught == [(5.0, "wake-up")]

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield 1.0

        proc = sim.spawn(quick())
        sim.run()
        proc.interrupt("too late")
        sim.run()
        assert not proc.alive

    def test_unhandled_interrupt_kills_process(self):
        sim = Simulator()

        def sleeper():
            yield 100.0

        proc = sim.spawn(sleeper())
        sim.schedule(5.0, proc.interrupt)
        sim.run()
        assert not proc.alive
        assert proc.result is None

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def bad():
            yield "not-waitable"

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_process_detects_deadlock(self):
        sim = Simulator()

        def stuck():
            yield sim.signal("never-fires")

        with pytest.raises(SimulationError):
            sim.run_process(stuck())

    def test_many_processes_complete(self):
        sim = Simulator()
        results = []

        def worker(i):
            yield float(i)
            results.append(i)

        for i in range(100):
            sim.spawn(worker(i))
        sim.run()
        assert results == sorted(results)
        assert len(results) == 100

    def test_nested_spawn_inside_process(self):
        sim = Simulator()
        log = []

        def inner():
            yield 1.0
            log.append(("inner", sim.now))

        def outer():
            yield 2.0
            sim.spawn(inner())
            yield 5.0
            log.append(("outer", sim.now))

        sim.spawn(outer())
        sim.run()
        assert log == [("inner", 3.0), ("outer", 7.0)]
