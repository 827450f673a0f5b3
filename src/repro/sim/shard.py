"""Space-partitioned simulation: K shards under conservative lookahead.

The per-process engine (:mod:`repro.sim.engine`) runs one event heap;
the cohort engine (:mod:`repro.sim.cohort`) abandons per-node fidelity
for arrays.  This module is the middle path of ROADMAP item 1 track
(b): keep protocol-faithful nodes, handlers, and fault plans, but
space-partition the population into ``K`` shards that advance in
lockstep windows and exchange cross-shard messages as timestamped
envelopes.

Synchronization is *conservative* (Chandy–Misra–Bryant style): all
shards advance window by window, and each window ends ``lookahead``
past the earliest pending event anywhere, where ``lookahead`` is the
minimum cross-shard propagation delay exposed by
:meth:`repro.net.latency.LatencyModel.propagation_bounds`.  A message
sent inside a window therefore always arrives in a *later* window, so
injecting collected envelopes at each barrier never delivers anything
into a shard's past.  Windows are half-open: events exactly at a
barrier run in the next window, after that barrier's envelopes are in.

Determinism contract (tested by ``tests/sim/test_shard_equivalence.py``):

* Every shard builds its world from ``RngStreams(seed)`` with the same
  root, so *per-node* named streams (``churn.<node_id>``,
  ``shard.<workload>.<node_id>``) draw identically no matter which
  shard owns the node.  Workloads that keep all randomness on per-node
  streams, use a latency model with deterministic pairwise delays, and
  keep ``loss_rate == 0`` produce aggregates **equal across K** —
  including ``K == 1``, which is event-for-event the single-process
  engine.  Shard-level machinery randomness rides the dedicated
  ``sim.shard.<k>`` streams.
* At fixed ``(plan, seed, K)`` a run is exactly deterministic: envelope
  injection is sorted by ``(arrival, origin shard, emission seq)`` and
  shards advance in index order, so double runs are byte-identical
  (trace and work counters alike).

Observability: the coordinator threads ``shard.messages_crossed``,
``shard.sync_rounds``, and ``shard.horizon_stalls`` counters plus
``shard_sync`` / ``shard_envelope`` trace kinds through
:mod:`repro.obs`.  Fault plans arm one
:class:`~repro.faults.FaultInjector` per shard, so ``FaultSurface``
windows and partitions apply on every shard consistently.

All shards run in the coordinator's own process; ``docs/SCALING.md``
records the measurements behind having no worker-process variant.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import NetworkError, ReproError, SimulationError
from repro.net.latency import LatencyModel
from repro.net.transport import Network, _is_generator, _swallow_repro_errors
from repro.obs.metrics import Metrics
from repro.obs.runtime import active as _active_observation
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

__all__ = [
    "Envelope",
    "Shard",
    "ShardNetwork",
    "ShardRouter",
    "ShardWorkload",
    "ShardedSimulator",
    "assign_shards",
    "derive_lookahead",
    "run_single_process",
]


# ---------------------------------------------------------------------------
# Partitioning and lookahead
# ---------------------------------------------------------------------------

def assign_shards(labels: Iterable[str], shards: int) -> Dict[str, int]:
    """Deterministic node-label -> shard assignment.

    Hashes each topology label (the node-id strings
    :mod:`repro.net.topology` builders produce) with SHA-256, so the
    mapping is stable across Python versions, platforms, and insertion
    order — the same discipline as :func:`repro.sim.rng.derive_seed`.
    Accepts any iterable of labels, including a networkx graph's
    ``nodes`` view.
    """
    if shards < 1:
        raise SimulationError(f"shard count must be >= 1, got {shards}")
    assignment: Dict[str, int] = {}
    for label in labels:
        digest = hashlib.sha256(str(label).encode("utf-8")).digest()
        assignment[str(label)] = int.from_bytes(digest[:8], "big") % shards
    return assignment


def derive_lookahead(latency: LatencyModel) -> float:
    """The conservative window size a latency model supports.

    The minimum cross-shard propagation delay: any message sent at
    ``t`` arrives no earlier than ``t + lookahead``, so a shard may
    safely run ``lookahead`` past the earliest pending event anywhere.
    Raises when the model's lower bound is not positive (e.g.
    :class:`~repro.net.latency.LogNormalLatency`), because a zero
    lookahead cannot make progress.
    """
    lo, _hi = latency.propagation_bounds()
    if lo <= 0:
        raise SimulationError(
            f"{type(latency).__name__} has zero minimum propagation delay;"
            " the sharded engine needs a positive cross-shard lookahead"
        )
    return lo


# ---------------------------------------------------------------------------
# Envelopes and the router
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Envelope:
    """One cross-shard message leg, frozen at send time.

    ``seq`` is the origin shard's emission counter; the triple
    ``(arrival, origin_shard, seq)`` totally orders every envelope of a
    round, which is what makes barrier injection deterministic.
    """

    arrival: float
    src_id: str
    dst_id: str
    method: str
    payload: Any
    size_bytes: int
    origin_shard: int
    seq: int
    sent_at: float

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.arrival, self.origin_shard, self.seq)


class ShardRouter:
    """Barrier-time conduit for envelopes between shard networks.

    Extends the :class:`~repro.net.transport.Network` flow-accounting
    surface across shard boundaries: an exported envelope leaves its
    origin network as ``sent`` and is carried here (``in_transit``)
    until the coordinator injects it into the destination network,
    where it becomes ``in_flight`` and finally ``delivered`` or
    ``dropped``.  :meth:`combined_flow` is therefore conservative at
    every barrier — the surface the chaos invariant harness checks.
    """

    def __init__(self) -> None:
        self.messages_crossed = 0
        self._envelopes_in_transit: List[Envelope] = []

    @property
    def in_transit(self) -> int:
        return len(self._envelopes_in_transit)

    def collect(self, envelopes: Iterable[Envelope]) -> None:
        """Accept one shard's outbox at a barrier."""
        self._envelopes_in_transit.extend(envelopes)

    def peek_min_arrival(self) -> Optional[float]:
        """Earliest arrival among carried envelopes, or ``None``."""
        if not self._envelopes_in_transit:
            return None
        return min(e.arrival for e in self._envelopes_in_transit)

    def drain(self) -> List[Envelope]:
        """All carried envelopes in deterministic injection order."""
        batch = sorted(self._envelopes_in_transit, key=Envelope.sort_key)
        self._envelopes_in_transit = []
        self.messages_crossed += len(batch)
        return batch

    def combined_flow(
        self, shard_flows: Iterable[Dict[str, int]]
    ) -> Dict[str, int]:
        """Whole-population flow snapshot: per-shard sums plus carried
        envelopes.  Per-shard snapshots do not individually conserve
        (an envelope is ``sent`` on one shard and ``delivered`` on
        another); this combined view does."""
        total = {"sent": 0, "delivered": 0, "dropped": 0, "in_flight": 0}
        for flow in shard_flows:
            for key in total:
                total[key] += flow[key]
        total["in_flight"] += self.in_transit
        return total


class ShardNetwork(Network):
    """A :class:`Network` that exports non-local sends as envelopes.

    Every shard registers the *entire* node population (identical
    construction on every shard, so latency/serialization math sees
    real endpoint objects), but only nodes assigned to this shard run
    behaviour.  A ``send`` to a remote node performs the normal
    send-side accounting and loss draw, then freezes the leg into an
    :class:`Envelope` instead of scheduling local delivery; arrival
    checks (liveness, partition, corruption) happen on the destination
    shard, where that node's state is authoritative.

    Cross-shard ``rpc`` is not supported — the request/response
    generator would need to block across the barrier; shard workloads
    express protocols as one-way sends (request and reply legs).
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RngStreams,
        assignment: Dict[str, int],
        shard_index: int,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ):
        super().__init__(sim, streams, latency=latency, loss_rate=loss_rate)
        self._shard_assignment = dict(assignment)
        self.shard_index = shard_index
        self._shard_outbox: List[Envelope] = []
        self._shard_seq = 0

    # -- partition helpers -------------------------------------------------

    def shard_of(self, node_id: str) -> int:
        shard = self._shard_assignment.get(node_id)
        if shard is None:
            raise NetworkError(f"node {node_id!r} has no shard assignment")
        return shard

    def is_local(self, node_id: str) -> bool:
        return self.shard_of(node_id) == self.shard_index

    # -- transport overrides ----------------------------------------------

    def send(
        self,
        src_id: str,
        dst_id: str,
        method: str,
        payload: Any = None,
        size_bytes: int = 512,
    ) -> None:
        if self.is_local(dst_id):
            super().send(src_id, dst_id, method, payload, size_bytes)
            return
        src, dst = self.node(src_id), self.node(dst_id)
        self.monitor.counters.increment("messages_sent")
        self.monitor.counters.increment(f"bytes_sent.{src_id}", size_bytes)
        self._flow_sent += 1
        self._msg_event("msg_send", src_id, dst_id, method, size_bytes)
        # Same send-side loss/latency fault logic as Network.send; the
        # arrival-side checks run on the destination shard.
        faults = self._faults
        if (self.loss_rate > 0
                and self._loss_rng.random() < self.loss_rate) or (
                faults is not None and faults.drop_prob > 0
                and faults.drop_rng.random() < faults.drop_prob):
            self.monitor.counters.increment("messages_lost")
            self._flow_dropped += 1
            self._msg_event("msg_drop", src_id, dst_id, method, size_bytes,
                            reason="loss")
            return
        delay = self.latency.delay(src, dst, size_bytes)
        if faults is not None and faults.latency_factor != 1.0:
            delay *= faults.latency_factor
        seq = self._shard_seq
        self._shard_seq = seq + 1
        self._shard_outbox.append(Envelope(
            arrival=self.sim.now + delay,
            src_id=src_id,
            dst_id=dst_id,
            method=method,
            payload=payload,
            size_bytes=size_bytes,
            origin_shard=self.shard_index,
            seq=seq,
            sent_at=self.sim.now,
        ))

    def rpc(
        self,
        src_id: str,
        dst_id: str,
        method: str,
        payload: Any = None,
        size_bytes: int = 512,
        response_bytes: int = 512,
        timeout: float = 30.0,
        retries: int = 0,
    ) -> Any:
        if not self.is_local(dst_id):
            raise NetworkError(
                f"cross-shard rpc {src_id!r}->{dst_id!r} is not supported;"
                " shard workloads express request/response as one-way sends"
            )
        return super().rpc(src_id, dst_id, method, payload, size_bytes,
                           response_bytes, timeout, retries)

    # -- barrier API (coordinator only) ------------------------------------

    def _take_outbox(self) -> List[Envelope]:
        outbox = self._shard_outbox
        self._shard_outbox = []
        return outbox

    def _inject_envelope(self, envelope: Envelope) -> None:
        """Accept one cross-shard envelope; delivery checks run at its
        (strictly future) arrival instant against local node state."""
        self._flow_in_flight += 1
        self.sim.schedule_at(
            envelope.arrival, self._arrive_envelope, envelope
        )

    def _arrive_envelope(self, envelope: Envelope) -> None:
        # Mirrors the deliver() closure in Network.send: same checks,
        # same counters, same trace events — on the authoritative shard.
        self._flow_in_flight -= 1
        src_id, dst_id = envelope.src_id, envelope.dst_id
        method, size_bytes = envelope.method, envelope.size_bytes
        dst = self.node(dst_id)
        if not dst.online:
            self.monitor.counters.increment("messages_to_offline")
            self._flow_dropped += 1
            self._msg_event("msg_drop", src_id, dst_id, method, size_bytes,
                            reason="offline")
            return
        if not self.can_reach(src_id, dst_id):
            self.monitor.counters.increment("messages_partitioned")
            self._flow_dropped += 1
            self._msg_event("msg_drop", src_id, dst_id, method, size_bytes,
                            reason="partition")
            return
        faults = self._faults
        if (faults is not None and faults.corrupt_prob > 0
                and faults.corrupt_rng.random() < faults.corrupt_prob):
            self.monitor.counters.increment("messages_corrupted")
            self._flow_dropped += 1
            self._msg_event("msg_drop", src_id, dst_id, method, size_bytes,
                            reason="corrupt")
            return
        self.monitor.counters.increment("messages_delivered")
        self._flow_delivered += 1
        self._msg_event("msg_deliver", src_id, dst_id, method, size_bytes)
        try:
            result = dst.dispatch(method, envelope.payload, src_id)
        except ReproError:
            self.monitor.counters.increment("handler_errors")
            return  # fire-and-forget: failures are silent
        if _is_generator(result):
            self.sim.spawn(
                _swallow_repro_errors(result, self.monitor),
                name=f"{dst_id}.{method}",
            )


# ---------------------------------------------------------------------------
# One shard's world
# ---------------------------------------------------------------------------

class Shard:
    """Everything one shard owns: simulator, streams, network, state.

    ``state`` is workload scratch space (build writes, collect reads);
    ``churn`` maps owned node ids to their
    :class:`~repro.net.churn.ChurnProcess` so fault-plan crashes
    suspend renewal clocks.  ``rng`` is this shard's dedicated
    ``sim.shard.<k>`` stream for shard-level machinery randomness —
    per-*node* behaviour must ride per-node streams instead, or
    aggregates stop being K-invariant.
    """

    def __init__(
        self,
        index: int,
        sim: Simulator,
        streams: RngStreams,
        network: Network,
        assignment: Optional[Dict[str, int]] = None,
    ):
        self.index = index
        self.sim = sim
        self.streams = streams
        self.network = network
        self.assignment = assignment
        self.state: Dict[str, Any] = {}
        self.churn: Dict[str, Any] = {}
        self.rng = streams.stream(f"sim.shard.{index}")

    def owns(self, node_id: str) -> bool:
        """Whether this shard runs the node's behaviour.  With no
        assignment (the single-process reference path) it owns all."""
        if self.assignment is None:
            return True
        return self.assignment.get(node_id) == self.index


@dataclass(frozen=True)
class ShardWorkload:
    """A space-partitionable simulation, described shard-agnostically.

    ``build(shard)`` must create **every** node of ``node_ids`` on
    ``shard.network`` (identical order and parameters on every shard)
    but attach behaviour — processes, churn, scheduled sends — only
    where ``shard.owns(node_id)``.  ``collect(shard)`` returns that
    shard's JSON-safe partial aggregates; the driver merges them.
    ``latency_factory(streams)`` builds the latency model per shard —
    it must be pairwise-deterministic (constant, or placed
    :class:`~repro.net.latency.PlanetLatency`) for cross-K equality.
    """

    name: str
    node_ids: Tuple[str, ...]
    build: Callable[[Shard], None]
    collect: Callable[[Shard], Dict[str, Any]]
    latency_factory: Optional[Callable[[RngStreams], LatencyModel]] = None
    horizon: float = 100.0
    loss_rate: float = 0.0


def _build_shard(
    workload: ShardWorkload,
    shards: int,
    seed: int,
    index: int,
    plan: Any = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[Metrics] = None,
) -> Shard:
    """Construct one shard's world."""
    streams = RngStreams(seed)
    sim = Simulator(tracer=tracer, metrics=metrics)
    assignment = assign_shards(workload.node_ids, shards)
    latency = (
        workload.latency_factory(streams)
        if workload.latency_factory is not None
        else None
    )
    network = ShardNetwork(
        sim, streams, assignment, index,
        latency=latency, loss_rate=workload.loss_rate,
    )
    shard = Shard(index, sim, streams, network, assignment)
    workload.build(shard)
    if plan is not None:
        # Local import: repro.faults imports the sim package.
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(sim, network, plan, streams,
                                 churn=shard.churn)
        injector.arm()
        shard.state["_injector"] = injector
    return shard


def run_single_process(
    workload: ShardWorkload,
    seed: int,
    tracer: Optional[Tracer] = None,
    metrics: Optional[Metrics] = None,
) -> Dict[str, Any]:
    """The unsharded reference: same workload, plain engine + network.

    Builds one :class:`~repro.net.transport.Network` owning every node
    and runs to the horizon — the baseline the equivalence suite holds
    every ``K`` against (and that ``K == 1`` must match exactly).
    """
    streams = RngStreams(seed)
    sim = Simulator(tracer=tracer, metrics=metrics)
    latency = (
        workload.latency_factory(streams)
        if workload.latency_factory is not None
        else None
    )
    network = Network(sim, streams, latency=latency,
                      loss_rate=workload.loss_rate)
    shard = Shard(0, sim, streams, network, assignment=None)
    workload.build(shard)
    sim.run(until=workload.horizon)
    result = workload.collect(shard)
    result["flow"] = network.flow_snapshot()
    return result


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------

class ShardedSimulator:
    """Runs a :class:`ShardWorkload` across ``K`` space-partition shards.

    Every shard lives in the coordinator's process; the coordinator
    advances them in index order, window by window.

    Parameters
    ----------
    workload:
        The shard workload; every shard builds its world from it.
    shards / seed:
        The partition count and the root seed — together with the
        fault plan these fully determine the run.
    plan:
        Optional :class:`~repro.faults.FaultPlan`, armed on every
        shard.
    tracer / metrics:
        :mod:`repro.obs` hooks; each omitted hook independently adopts
        the ambient one, like :class:`~repro.sim.engine.Simulator`.

    ``router``, ``sync_rounds``, ``horizon_stalls`` and ``flow`` describe
    the latest :meth:`run`; each run starts them afresh.
    """

    def __init__(
        self,
        workload: ShardWorkload,
        *,
        shards: int,
        seed: int,
        plan: Any = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ):
        if shards < 1:
            raise SimulationError(f"shard count must be >= 1, got {shards}")
        if tracer is None or metrics is None:
            observation = _active_observation()
            if observation is not None:
                if tracer is None:
                    tracer = observation.tracer
                if metrics is None:
                    metrics = observation.metrics
        self._tracer = tracer
        self._metrics = metrics
        self.workload = workload
        self.shards = shards
        self.seed = seed
        self.plan = plan
        self.router = ShardRouter()
        self.sync_rounds = 0
        self.horizon_stalls = 0
        self.flow: Dict[str, int] = {}
        self._running: Optional[List[Shard]] = None

    # -- the conservative window loop -------------------------------------

    def run(
        self,
        on_sync: Optional[Callable[[int, float], None]] = None,
    ) -> List[Dict[str, Any]]:
        """Advance all shards to the workload horizon; returns the
        per-shard ``collect()`` results in shard order.

        ``on_sync(round, barrier_time)`` fires after every barrier with
        all shards consistent at ``barrier_time`` — the hook chaos
        drivers use for invariant sweeps across shard boundaries
        (:meth:`live_flow` is valid inside the callback).
        """
        workload = self.workload
        horizon = workload.horizon
        built = [
            _build_shard(workload, self.shards, self.seed, index, self.plan,
                         tracer=self._tracer, metrics=self._metrics)
            for index in range(self.shards)
        ]
        lookahead = derive_lookahead(built[0].network.latency)
        assignment = assign_shards(workload.node_ids, self.shards)
        router = self.router = ShardRouter()
        self.sync_rounds = 0
        self.horizon_stalls = 0
        self.flow = {}
        self._running = built
        next_times = [shard.sim.next_event_time() for shard in built]
        try:
            while True:
                live = [t for t in next_times if t is not None]
                min_arrival = router.peek_min_arrival()
                if min_arrival is not None:
                    live.append(min_arrival)
                if not live:
                    break
                t_min = min(live)
                if t_min > horizon:
                    break
                window_end = t_min + lookahead
                if window_end <= t_min:
                    raise SimulationError(
                        f"lookahead {lookahead} vanishes at t={t_min};"
                        " cannot make progress"
                    )
                inclusive = window_end > horizon
                until = horizon if inclusive else window_end
                batch = router.drain()
                for envelope in batch:
                    if self._metrics is not None:
                        self._metrics.inc("shard.messages_crossed")
                    if self._tracer is not None:
                        self._tracer.emit(
                            "shard_envelope", t=envelope.sent_at,
                            arrival=envelope.arrival, src=envelope.src_id,
                            dst=envelope.dst_id, method=envelope.method,
                            origin_shard=envelope.origin_shard,
                            origin_seq=envelope.seq,
                        )
                by_shard: Dict[int, List[Envelope]] = {}
                for envelope in batch:
                    by_shard.setdefault(
                        assignment[envelope.dst_id], []
                    ).append(envelope)
                stalls = 0
                outboxes: List[Envelope] = []
                for shard in built:
                    network = shard.network
                    assert isinstance(network, ShardNetwork)
                    incoming = by_shard.get(shard.index, [])
                    first = next_times[shard.index]
                    if incoming:
                        earliest = min(e.arrival for e in incoming)
                        first = (
                            earliest if first is None
                            else min(first, earliest)
                        )
                    if first is None or (
                        first > until if inclusive else first >= until
                    ):
                        stalls += 1
                    for envelope in incoming:
                        network._inject_envelope(envelope)
                    shard.sim.run(until=until, inclusive=inclusive)
                    next_times[shard.index] = shard.sim.next_event_time()
                    outboxes.extend(network._take_outbox())
                router.collect(outboxes)
                self.sync_rounds += 1
                self.horizon_stalls += stalls
                if self._metrics is not None:
                    self._metrics.inc("shard.sync_rounds")
                    if stalls:
                        self._metrics.inc("shard.horizon_stalls", stalls)
                if self._tracer is not None:
                    self._tracer.emit(
                        "shard_sync", t=until, round=self.sync_rounds,
                        envelopes=len(batch), stalls=stalls,
                        shards=self.shards,
                    )
                if on_sync is not None:
                    on_sync(self.sync_rounds, until)
            # Envelopes collected but never drained (arrival past the
            # horizon with no earlier work left) stay with the router,
            # exactly as an in-flight message past the horizon stays
            # in_flight on the single-process engine.
            results: List[Dict[str, Any]] = []
            flows: List[Dict[str, int]] = []
            for shard in built:
                shard.sim.run(until=horizon)
                results.append(workload.collect(shard))
                flows.append(shard.network.flow_snapshot())
            self.flow = router.combined_flow(flows)
            return results
        finally:
            self._running = None

    def live_flow(self) -> Optional[Dict[str, int]]:
        """Combined flow snapshot mid-run, or ``None`` outside a run.

        Valid inside an ``on_sync`` callback: every envelope is either
        inside some shard's flow accounting or carried by the router,
        so the combined snapshot conserves at every barrier.
        """
        if self._running is None:
            return None
        return self.router.combined_flow(
            s.network.flow_snapshot() for s in self._running
        )
