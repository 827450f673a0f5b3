"""Deterministic discrete-event simulation engine.

This is the substrate every protocol simulation in the library runs on.  It
is intentionally small: an event queue ordered by ``(time, sequence)``, plus
a generator-based process abstraction similar in spirit to SimPy.

Determinism guarantees
----------------------
* Events scheduled for the same instant fire in scheduling order (FIFO via a
  monotonic sequence number), never in hash or id order.
* All randomness used by simulations must come from
  :class:`repro.sim.rng.RngStreams`, which derives independent seeded
  streams by name.  The engine itself is randomness-free.

Subscription and cancellation
-----------------------------
Every wait a process enters — a :class:`Timeout`, a :class:`Signal`, a
combinator — registers a *subscription* that returns a cancel handle.
The engine uses these to keep the event queue tight:

* A process that resumes (normally or via :class:`Interrupt`) tears down
  the subscription for the wait it is leaving, so a signal can never
  re-resume a process that has moved on (the classic double-resume bug).
* :class:`AnyOf` cancels its losing children the moment the first child
  completes: a losing ``Timeout``'s heap entry is invalidated instead of
  sitting in the queue until it expires, and a losing ``Signal`` waiter
  is pruned from the waiter list.  (A losing ``Process`` keeps *running*
  — only the join subscription is dropped.)
* :meth:`Signal.fire` skips waiters whose process has died, and prunes
  cancelled entries, instead of scheduling dead resumes.
* A combinator that has already completed still tracks the resume event
  it scheduled, so cancelling the wait *after* completion (a
  same-instant interrupt racing the resume) tombstones the stale
  wake-up instead of letting it reach the process's next wait.

Observability
-------------
``Simulator(tracer=..., metrics=...)`` — or an ambient
:func:`repro.obs.observe` block — turns on per-event tracing and queue
metrics (see ``docs/OBSERVABILITY.md``).  Disabled (the default), every
hook site is a single ``is not None`` check.

Typical usage::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5.0)
        print("woke at", sim.now)

    sim.spawn(worker(sim))
    sim.run()
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.metrics import Metrics
from repro.obs.runtime import active as _active_observation
from repro.obs.tracer import Tracer

__all__ = [
    "Simulator",
    "Process",
    "Signal",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
]

#: A subscription's cancel handle: idempotent, safe to call after firing.
CancelFn = Callable[[], None]


def _callback_name(callback: Callable) -> str:
    """Deterministic display name for a scheduled callback."""
    while isinstance(callback, partial):
        callback = callback.func
    name = getattr(callback, "__qualname__", None)
    if name:
        return name
    return type(callback).__name__


class Interrupt(Exception):
    """Thrown into a process generator when it is interrupted.

    The ``cause`` attribute carries the interrupter-supplied reason.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Waitable:
    """Base for things a process may ``yield`` on.

    Both subscription forms return a :data:`CancelFn` that detaches the
    registration (idempotently); combinators use it to cancel losers and
    processes use it to leave a wait cleanly.
    """

    __slots__ = ()

    def _subscribe(self, sim: "Simulator", process: "Process") -> CancelFn:
        """Arrange for ``process._resume(value)`` on completion."""
        raise NotImplementedError

    def _subscribe_callback(
        self, sim: "Simulator", callback: Callable[[Any], None]
    ) -> CancelFn:
        """Arrange for ``callback(value)`` on completion (combinators)."""
        raise NotImplementedError


class Timeout(_Waitable):
    """Wait for a fixed amount of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = float(delay)

    def _subscribe(self, sim: "Simulator", process: "Process") -> CancelFn:
        event = sim.schedule(self.delay, process._resume, None)
        return event.cancel

    def _subscribe_callback(
        self, sim: "Simulator", callback: Callable[[Any], None]
    ) -> CancelFn:
        event = sim.schedule(self.delay, callback, None)
        return event.cancel

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class _SignalWaiter:
    """One registration on a pending :class:`Signal`.

    ``owner`` is the waiting :class:`Process` when the wait came from a
    plain ``yield signal`` (used for the liveness guard at fire time);
    combinator callbacks have no owner.  ``event`` is filled in by
    :meth:`Signal.fire` so a cancel arriving *after* the fire can still
    invalidate the scheduled resume.
    """

    __slots__ = ("signal", "sim", "callback", "owner", "event", "cancelled")

    def __init__(
        self,
        signal: "Signal",
        sim: "Simulator",
        callback: Callable[[Any], None],
        owner: Optional["Process"],
    ):
        self.signal = signal
        self.sim = sim
        self.callback = callback
        self.owner = owner
        self.event: Optional[_ScheduledEvent] = None
        self.cancelled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        event = self.event
        if event is not None:
            # fire() already scheduled the resume: invalidate it.
            event.cancel()
        else:
            # Still pending: prune the waiter list so long-lived
            # signals do not accumulate dead registrations.
            try:
                self.signal._waiters.remove(self)
            except ValueError:
                pass


class Signal(_Waitable):
    """A one-shot waitable event that processes can block on.

    A signal starts *pending*; calling :meth:`fire` wakes every waiter with
    the supplied value.  Waiting on an already-fired signal resumes the
    waiter immediately (at the current instant) with the stored value.

    Waiters that cancelled their subscription, or whose process has died,
    are pruned rather than resumed (dead waiters also count into the
    ``sim.signal_dead_waiters_skipped`` metric when metrics are active).
    """

    __slots__ = ("name", "_fired", "_value", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self._fired = False
        self._value: Any = None
        self._waiters: List[_SignalWaiter] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"signal {self.name!r} has not fired")
        return self._value

    @property
    def waiter_count(self) -> int:
        """Live (non-cancelled) waiters still subscribed."""
        return sum(1 for w in self._waiters if not w.cancelled)

    def fire(self, value: Any = None) -> None:
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if waiter.cancelled:
                continue
            if waiter.owner is not None and not waiter.owner.alive:
                # Liveness guard: never schedule a resume for a process
                # that already finished; count it so leaks are visible.
                metrics = waiter.sim._metrics
                if metrics is not None:
                    metrics.inc("sim.signal_dead_waiters_skipped")
                continue
            waiter.event = waiter.sim.schedule(0.0, waiter.callback, value)

    def _add_waiter(
        self,
        sim: "Simulator",
        callback: Callable[[Any], None],
        owner: Optional["Process"],
    ) -> CancelFn:
        if self._fired:
            event = sim.schedule(0.0, callback, self._value)
            return event.cancel
        waiter = _SignalWaiter(self, sim, callback, owner)
        self._waiters.append(waiter)
        return waiter.cancel

    def _subscribe(self, sim: "Simulator", process: "Process") -> CancelFn:
        return self._add_waiter(sim, process._resume, owner=process)

    def _subscribe_callback(
        self, sim: "Simulator", callback: Callable[[Any], None]
    ) -> CancelFn:
        return self._add_waiter(sim, callback, owner=None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else "pending"
        return f"Signal({self.name!r}, {state})"


def _child_subscribe(
    sim: "Simulator", child: Any, callback: Callable[[Any], None]
) -> CancelFn:
    """Attach ``callback`` to a combinator child; returns its cancel.

    Children may be :class:`Signal`, :class:`Timeout`, :class:`Process`
    (completion join), or nested :class:`AllOf`/:class:`AnyOf`.
    """
    if isinstance(child, _Waitable):
        return child._subscribe_callback(sim, callback)
    if isinstance(child, Process):
        return child.completion._subscribe_callback(sim, callback)
    raise SimulationError(f"cannot combine waitable {child!r}")


class _AllOfWait:
    """In-flight state of one :class:`AllOf` subscription.

    A slotted object with bound-method callbacks: cheaper per wait than
    the equivalent closure pile, which matters because combinators sit on
    the RPC hot path.
    """

    __slots__ = ("callback", "results", "remaining", "cancelled", "cancels",
                 "event")

    def __init__(self, n: int, callback: Callable[[Any], None]):
        self.callback: Optional[Callable[[Any], None]] = callback
        self.results: List[Any] = [None] * n
        self.remaining = n
        self.cancelled = False
        self.cancels: List[CancelFn] = []
        self.event: Optional[_ScheduledEvent] = None

    def child_done(self, index: int, value: Any) -> None:
        if self.cancelled:
            return
        self.results[index] = value
        self.remaining -= 1
        if self.remaining == 0:
            callback = self.callback
            # Break the subscription reference cycle (wait -> cancels ->
            # child waiters -> partial -> wait) so the cluster is freed
            # by refcounting instead of lingering for a GC pass.
            self.cancels = []
            self.callback = None
            if callback is not None:
                # A process-subscribe callback is schedule() and returns
                # the resume event; keep it so a cancel landing between
                # completion and the resume firing (same-instant
                # interrupt) can still tombstone the stale wake-up.
                maybe_event = callback(list(self.results))
                if isinstance(maybe_event, _ScheduledEvent):
                    self.event = maybe_event

    def cancel(self) -> None:
        # After completion the only live resource is the scheduled
        # resume; invalidate it so it cannot reach the process's next
        # wait (idempotent: event.cancel is a no-op once popped).
        event, self.event = self.event, None
        if event is not None:
            event.cancel()
        if self.cancelled:
            return
        self.cancelled = True
        cancels = self.cancels
        self.cancels = []
        self.callback = None
        for child_cancel in cancels:
            child_cancel()


class AllOf(_Waitable):
    """Wait until every child waitable has completed.

    Resumes the waiter with a list of child results in child order.
    Children may be :class:`Signal`, :class:`Timeout`, :class:`Process`,
    or nested combinators.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]):
        self.children = list(children)
        if not self.children:
            raise SimulationError("AllOf requires at least one child")

    def _subscribe_callback(
        self, sim: "Simulator", callback: Callable[[Any], None]
    ) -> CancelFn:
        wait = _AllOfWait(len(self.children), callback)
        cancels = wait.cancels
        child_done = wait.child_done
        for i, child in enumerate(self.children):
            cancels.append(_child_subscribe(sim, child, partial(child_done, i)))
        return wait.cancel

    def _subscribe(self, sim: "Simulator", process: "Process") -> CancelFn:
        # partial(schedule, 0.0, resume) called with the results list is
        # exactly schedule(0.0, resume, results) — no closure needed.
        return self._subscribe_callback(
            sim, partial(sim.schedule, 0.0, process._resume)
        )


class _AnyOfWait:
    """In-flight state of one :class:`AnyOf` subscription.

    First ``child_done`` wins, cancels every other child's subscription,
    and delivers ``(index, value)``; everything after is a no-op.
    """

    __slots__ = ("sim", "callback", "done", "cancels", "event")

    def __init__(self, sim: "Simulator", callback: Callable[[Any], None]):
        self.sim = sim
        self.callback: Optional[Callable[[Any], None]] = callback
        self.done = False
        self.cancels: List[CancelFn] = []
        self.event: Optional[_ScheduledEvent] = None

    def child_done(self, index: int, value: Any) -> None:
        if self.done:
            return
        self.done = True
        cancels = self.cancels
        for j, child_cancel in enumerate(cancels):
            if j != index:
                child_cancel()
        metrics = self.sim._metrics
        if metrics is not None:
            metrics.inc("sim.anyof_losers_cancelled", len(cancels) - 1)
        callback = self.callback
        # Break the subscription reference cycle (wait -> cancels ->
        # child waiters -> partial -> wait) so the cluster is freed by
        # refcounting instead of lingering for a GC pass.
        self.cancels = []
        self.callback = None
        if callback is not None:
            # A process-subscribe callback is schedule() and returns
            # the resume event; keep it so a cancel landing between
            # completion and the resume firing (same-instant
            # interrupt) can still tombstone the stale wake-up.
            maybe_event = callback((index, value))
            if isinstance(maybe_event, _ScheduledEvent):
                self.event = maybe_event

    def cancel(self) -> None:
        # After completion the only live resource is the scheduled
        # resume; invalidate it so it cannot reach the process's next
        # wait (idempotent: event.cancel is a no-op once popped).
        event, self.event = self.event, None
        if event is not None:
            event.cancel()
        if self.done:
            return
        self.done = True
        cancels = self.cancels
        self.cancels = []
        self.callback = None
        for child_cancel in cancels:
            child_cancel()


class AnyOf(_Waitable):
    """Wait until the first child waitable completes.

    Resumes the waiter with ``(index, value)`` of the first completion.
    The winner *cancels* every losing child's subscription: a losing
    ``Timeout`` leaves the event queue immediately (instead of keeping
    the simulation alive until it expires), and a losing ``Signal``
    waiter is pruned.  A losing ``Process`` keeps running — only the
    join is dropped.  Same-instant completions resolve in child
    scheduling order (FIFO), deterministically.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]):
        self.children = list(children)
        if not self.children:
            raise SimulationError("AnyOf requires at least one child")

    def _subscribe_callback(
        self, sim: "Simulator", callback: Callable[[Any], None]
    ) -> CancelFn:
        wait = _AnyOfWait(sim, callback)
        cancels = wait.cancels
        child_done = wait.child_done
        for i, child in enumerate(self.children):
            cancels.append(_child_subscribe(sim, child, partial(child_done, i)))
        return wait.cancel

    def _subscribe(self, sim: "Simulator", process: "Process") -> CancelFn:
        return self._subscribe_callback(
            sim, partial(sim.schedule, 0.0, process._resume)
        )


class Process:
    """A generator-based simulated process.

    The generator may yield:

    * a ``float``/``int`` — sleep for that many simulated seconds;
    * a :class:`Timeout`, :class:`Signal`, :class:`AllOf`, :class:`AnyOf`;
    * another :class:`Process` — wait for it to finish (join).

    The value sent back into the generator is the result of the wait (the
    signal's value, the joined process's return value, ``None`` for
    timeouts).  The process's own return value (via ``return x``) becomes
    the value of its completion signal.

    Every resume first cancels the subscription of the wait being left,
    so no stale wake-up (a signal firing late, an obsolete timeout, a
    superseded interrupt event) can ever reach the process at a later
    wait.
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__};"
                " did you forget to call the generator function?"
            )
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.completion = Signal(f"done:{self.name}")
        self._alive = True
        self._interrupt_pending: Optional[Interrupt] = None
        self._interrupt_event: Optional[_ScheduledEvent] = None
        self._wait_cancel: Optional[CancelFn] = None

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the finished process (raises if still running)."""
        return self.completion.value

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume.

        Interrupting a dead process is a no-op.
        """
        if not self._alive:
            return
        self._interrupt_pending = Interrupt(cause)
        self._interrupt_event = self.sim.schedule(0.0, self._resume, None)

    def _resume(self, value: Any) -> None:
        if not self._alive:
            # A wake-up reached a finished process: every such resume is
            # a subscription the engine failed to tear down (the
            # double-resume leak).  Counted so the chaos invariant
            # harness (repro.faults.invariants.no_double_resume) can
            # assert it stays zero.
            self.sim._stale_resumes += 1
            return
        # Leave the current wait: detach its subscription so it cannot
        # deliver a second, stale resume later.
        cancel, self._wait_cancel = self._wait_cancel, None
        if cancel is not None:
            cancel()
        try:
            if self._interrupt_pending is not None:
                exc, self._interrupt_pending = self._interrupt_pending, None
                if self._interrupt_event is not None:
                    # The interrupt is being delivered by this resume;
                    # its own wake-up event (if different) is now stale.
                    self._interrupt_event.cancel()
                    self._interrupt_event = None
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
            return
        except Interrupt:
            self._finish(None)
            return
        self._wait_on(target)

    def _finish(self, value: Any) -> None:
        self._alive = False
        sim = self.sim
        if sim._tracer is not None:
            sim._tracer.emit("process_finished", t=sim.now, name=self.name)
        if sim._metrics is not None:
            sim._metrics.inc("sim.processes_finished")
        self.completion.fire(value)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            target = Timeout(target)
        if isinstance(target, Process):
            target = target.completion
        if not isinstance(target, _Waitable):
            raise SimulationError(
                f"process {self.name!r} yielded unwaitable {target!r}"
            )
        self._wait_cancel = target._subscribe(self.sim, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "done"
        return f"Process({self.name!r}, {state})"


class _ScheduledEvent:
    """Handle for one scheduled callback.

    The heap itself stores ``(time, seq, event)`` triples: ``seq`` is
    unique, so tuple comparison resolves at C speed on the first two
    elements and never calls back into Python — measurably faster than
    a ``__lt__`` on this class in event-dense simulations.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "popped",
                 "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable,
        args: tuple = (),
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.popped = False
        self.sim = sim

    def cancel(self) -> None:
        """Idempotent; cancelling an already-executed event is a no-op.

        A cancelled event stays in the heap as a tombstone (removal from
        the middle of a binary heap is O(n)); the owning simulator counts
        tombstones so queue-depth accounting stays exact and O(1).  The
        ``event_cancelled`` trace and ``sim.events_cancelled`` counter
        are recorded here, at cancellation time, so events cancelled but
        never drained before ``run()`` returns are still counted.
        """
        if self.cancelled or self.popped:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._tombstones += 1
            if sim._tracer is not None:
                sim._tracer.emit("event_cancelled", t=sim.now,
                                 event_seq=self.seq)
            if sim._metrics is not None:
                sim._metrics.inc("sim.events_cancelled")


class Simulator:
    """The discrete-event simulation kernel.

    Attributes
    ----------
    now:
        Current simulated time in seconds.  Starts at 0.0.

    Parameters
    ----------
    tracer / metrics:
        Optional :class:`repro.obs.Tracer` / :class:`repro.obs.Metrics`
        hooks.  Each hook that is omitted independently adopts the
        corresponding ambient one from an enclosing
        :func:`repro.obs.observe` block (passing only a tracer still
        picks up the ambient metrics, and vice versa); with no
        observation active both stay ``None`` and instrumentation costs
        one pointer check per hook site.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if tracer is None or metrics is None:
            observation = _active_observation()
            if observation is not None:
                if tracer is None:
                    tracer = observation.tracer
                if metrics is None:
                    metrics = observation.metrics
        self._tracer = tracer
        self._metrics = metrics
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, _ScheduledEvent]] = []
        self._seq = 0
        self._running = False
        self._processed = 0
        self._tombstones = 0  # cancelled events still sitting in the heap
        self._stale_resumes = 0  # wake-ups delivered to dead processes

    @property
    def tracer(self) -> Optional[Tracer]:
        return self._tracer

    @property
    def metrics(self) -> Optional[Metrics]:
        return self._metrics

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Live events still queued (cancelled tombstones excluded)."""
        return len(self._queue) - self._tombstones

    @property
    def stale_resumes(self) -> int:
        """Resumes delivered to already-finished processes.

        Zero in a hygienic run: every wait's subscription is torn down
        when the process leaves it, so nothing should ever wake the
        dead.  A non-zero count means a subscription leaked — the
        condition the chaos harness checks continuously.
        """
        return self._stale_resumes

    def schedule(
        self, delay: float, callback: Callable, *args: Any
    ) -> _ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns a handle whose :meth:`cancel` prevents execution.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        seq = self._seq
        self._seq = seq + 1
        event = _ScheduledEvent(self.now + delay, seq, callback, args, self)
        heapq.heappush(self._queue, (event.time, seq, event))
        if self._tracer is not None:
            self._tracer.emit(
                "event_scheduled", t=self.now, at=event.time,
                event_seq=event.seq, cb=_callback_name(callback),
            )
        if self._metrics is not None:
            self._metrics.inc("sim.events_scheduled")
        return event

    def schedule_at(
        self, when: float, callback: Callable, *args: Any
    ) -> _ScheduledEvent:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        return self.schedule(when - self.now, callback, *args)

    def timeout(self, delay: float) -> Timeout:
        """Create a timeout waitable (sugar for ``Timeout(delay)``)."""
        return Timeout(delay)

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot signal."""
        return Signal(name)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator; it runs at the current
        instant (before time advances)."""
        process = Process(self, generator, name)
        if self._tracer is not None:
            self._tracer.emit("process_spawned", t=self.now, name=process.name)
        if self._metrics is not None:
            self._metrics.inc("sim.processes_spawned")
        self.schedule(0.0, process._resume, None)
        return process

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> float:
        """Run until the queue empties or simulated time passes ``until``.

        Returns the final simulated time.  ``max_events`` guards against
        runaway simulations (raises :class:`SimulationError` when hit).
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        tracer = self._tracer
        metrics = self._metrics
        try:
            budget = max_events
            queue = self._queue
            pop = heapq.heappop
            while queue:
                event = queue[0][2]
                if event.cancelled:
                    # Tombstone: already traced/counted at cancel time.
                    pop(queue)
                    event.popped = True
                    self._tombstones -= 1
                    if metrics is not None:
                        metrics.inc("sim.tombstones_drained")
                    continue
                if until is not None and event.time > until:
                    break
                pop(queue)
                event.popped = True
                self.now = event.time
                self._processed += 1
                if tracer is not None or metrics is not None:
                    # One depth computation shared by both hooks (the
                    # pending_events property re-derives it each call).
                    depth = len(queue) - self._tombstones
                    if tracer is not None:
                        tracer.emit(
                            "event_fired", t=self.now, event_seq=event.seq,
                            cb=_callback_name(event.callback),
                            depth=depth,
                        )
                    if metrics is not None:
                        metrics.inc("sim.events_fired")
                        metrics.observe("sim.queue_depth", depth)
                event.callback(*event.args)
                budget -= 1
                if budget <= 0:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            if metrics is not None:
                metrics.set_gauge("sim.pending_at_run_end",
                                  float(self.pending_events))
        return self.now

    def run_process(
        self, generator: Generator, name: str = "", until: Optional[float] = None
    ) -> Any:
        """Spawn a process, run the simulation, and return the process's
        return value.

        With ``until=None`` runs until the event queue drains — only safe
        when no perpetual background processes (miners, gossip loops) are
        scheduled.  Pass a horizon when they are; raises if the process has
        not finished by then.
        """
        process = self.spawn(generator, name)
        if until is None:
            self.run()
        else:
            while process.alive and self.now < until:
                # Advance in slices so we stop soon after completion.
                self.run(until=min(until, self.now + 1000.0))
        if process.alive:
            raise SimulationError(
                f"process {process.name!r} did not finish"
                + (" (deadlock?)" if until is None else f" by t={until}")
            )
        return process.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
