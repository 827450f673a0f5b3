"""Unit tests for the sharded engine's building blocks.

Partitioner stability, lookahead derivation, envelope ordering, router
conservation, the cross-shard RPC guard, coordinator validation and
reuse, and the coordinator's observation and fault surfaces.
"""

import pytest

from repro.errors import NetworkError, SimulationError
from repro.net.latency import (
    ConstantLatency,
    LogNormalLatency,
    PlanetLatency,
    UniformLatency,
)
from repro.net.node import Node
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.shard import (
    Envelope,
    Shard,
    ShardNetwork,
    ShardRouter,
    ShardWorkload,
    ShardedSimulator,
    assign_shards,
    derive_lookahead,
    run_single_process,
)


def _envelope(arrival=1.0, origin_shard=0, seq=0, dst="b", method="m"):
    return Envelope(
        arrival=arrival, src_id="a", dst_id=dst, method=method,
        payload=None, size_bytes=0, origin_shard=origin_shard, seq=seq,
        sent_at=arrival - 0.5,
    )


class TestAssignShards:
    def test_deterministic_and_order_independent(self):
        labels = [f"n{i}" for i in range(50)]
        first = assign_shards(labels, 4)
        second = assign_shards(reversed(labels), 4)
        assert first == second

    def test_values_in_range(self):
        assignment = assign_shards((f"n{i}" for i in range(200)), 7)
        assert set(assignment.values()) <= set(range(7))
        # SHA-256 over 200 labels hits every one of 7 buckets.
        assert set(assignment.values()) == set(range(7))

    def test_single_shard_maps_everything_to_zero(self):
        assert set(assign_shards(["a", "b", "c"], 1).values()) == {0}

    def test_nonstring_labels_are_coerced(self):
        assert assign_shards([0, 1], 2) == assign_shards(["0", "1"], 2)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(SimulationError):
            assign_shards(["a"], 0)

    def test_pinned_mapping_is_stable_across_releases(self):
        # The digest-based mapping is part of the determinism contract:
        # if these move, every pinned shard golden silently re-shards.
        assert assign_shards(["srv0", "u0", "ca"], 2) == {
            "srv0": 1, "u0": 0, "ca": 1,
        }


class TestDeriveLookahead:
    def test_constant_latency_gives_its_delay(self):
        assert derive_lookahead(ConstantLatency(0.05)) == 0.05

    def test_uniform_latency_gives_lower_bound(self):
        assert derive_lookahead(UniformLatency(lo=0.01, hi=0.2)) == 0.01

    def test_planet_latency_gives_access_hops(self):
        model = PlanetLatency(RngStreams(1))
        lo, _hi = model.propagation_bounds()
        assert derive_lookahead(model) == lo > 0

    def test_lognormal_latency_is_rejected(self):
        with pytest.raises(SimulationError):
            derive_lookahead(LogNormalLatency())


class TestEnvelopeOrdering:
    def test_sorts_by_arrival_then_origin_then_seq(self):
        envelopes = [
            _envelope(arrival=2.0, origin_shard=0, seq=0),
            _envelope(arrival=1.0, origin_shard=1, seq=0),
            _envelope(arrival=1.0, origin_shard=0, seq=1),
            _envelope(arrival=1.0, origin_shard=0, seq=0),
        ]
        ordered = sorted(envelopes, key=Envelope.sort_key)
        assert [e.sort_key() for e in ordered] == [
            (1.0, 0, 0), (1.0, 0, 1), (1.0, 1, 0), (2.0, 0, 0),
        ]

    def test_envelopes_are_frozen(self):
        with pytest.raises(AttributeError):
            _envelope().arrival = 9.0


class TestShardRouter:
    def test_drain_orders_and_counts(self):
        router = ShardRouter()
        router.collect([_envelope(arrival=2.0), _envelope(arrival=1.0)])
        assert router.in_transit == 2
        assert router.peek_min_arrival() == 1.0
        batch = router.drain()
        assert [e.arrival for e in batch] == [1.0, 2.0]
        assert router.in_transit == 0
        assert router.peek_min_arrival() is None
        assert router.messages_crossed == 2

    def test_combined_flow_counts_carried_envelopes_in_flight(self):
        router = ShardRouter()
        router.collect([_envelope()])
        flow = router.combined_flow([
            {"sent": 3, "delivered": 1, "dropped": 1, "in_flight": 0},
            {"sent": 2, "delivered": 2, "dropped": 0, "in_flight": 0},
        ])
        assert flow == {
            "sent": 5, "delivered": 3, "dropped": 1, "in_flight": 1,
        }
        assert flow["sent"] == (
            flow["delivered"] + flow["dropped"] + flow["in_flight"]
        )


def _two_node_network(shard_index=0):
    sim = Simulator()
    streams = RngStreams(11)
    assignment = {"a": 0, "b": 1}
    network = ShardNetwork(
        sim, streams, assignment, shard_index,
        latency=ConstantLatency(0.05),
    )
    network.add_node(Node("a"))
    network.add_node(Node("b"))
    return sim, network


class TestShardNetwork:
    def test_remote_send_freezes_an_envelope(self):
        sim, network = _two_node_network(shard_index=0)
        network.send("a", "b", "ping", {"i": 1})
        outbox = network._take_outbox()
        assert len(outbox) == 1
        envelope = outbox[0]
        assert (envelope.src_id, envelope.dst_id) == ("a", "b")
        # Propagation (0.05) plus the 512-byte serialization leg.
        assert envelope.arrival == pytest.approx(0.05, abs=1e-3)
        assert network.flow_snapshot()["sent"] == 1
        # Second take is empty: the outbox drains.
        assert network._take_outbox() == []

    def test_local_send_delivers_without_envelopes(self):
        sim, network = _two_node_network(shard_index=0)
        got = []
        network.node("a").register_handler(
            "ping", lambda node, payload, sender_id: got.append(payload)
        )
        network.send("b", "a", "ping", 7)
        sim.run()
        assert got == [7]
        assert network._take_outbox() == []

    def test_cross_shard_rpc_is_rejected(self):
        sim, network = _two_node_network(shard_index=0)
        with pytest.raises(NetworkError):
            next(network.rpc("a", "b", "echo", payload=1))

    def test_injected_envelope_delivers_on_owner(self):
        sim, network = _two_node_network(shard_index=1)
        got = []
        network.node("b").register_handler(
            "ping", lambda node, payload, sender_id: got.append(payload)
        )
        network._inject_envelope(
            _envelope(arrival=1.5, dst="b", method="ping")
        )
        assert network.flow_snapshot()["in_flight"] == 1
        sim.run()
        assert got == [None]
        assert sim.now == 1.5
        assert network.flow_snapshot()["delivered"] == 1


def _echo_workload(hops=3):
    """Two-node ping-pong workload.

    ``left``/``right`` hash to different shards at K=2, so every hop
    crosses the barrier."""
    ids = ("left", "right")

    def build(shard):
        network, sim = shard.network, shard.sim
        seen = {"count": 0}
        shard.state["seen"] = seen

        def on_ping(node, payload, sender_id):
            seen["count"] += 1
            if payload > 0:
                network.send(node.node_id, sender_id, "ping", payload - 1)

        for node_id in ids:
            network.add_node(Node(node_id)).register_handler("ping", on_ping)
        if shard.owns("left"):
            sim.schedule_at(
                1.0, network.send, "left", "right", "ping", hops
            )

    return ShardWorkload(
        name="echo",
        node_ids=ids,
        build=build,
        collect=lambda shard: {"seen": shard.state["seen"]["count"]},
        latency_factory=lambda streams: ConstantLatency(0.1),
        horizon=20.0,
    )


class TestShardedSimulator:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(SimulationError):
            ShardedSimulator(_echo_workload(), shards=0, seed=1)

    def test_two_shard_run_matches_single_process(self):
        reference = run_single_process(_echo_workload(), seed=1)
        coordinator = ShardedSimulator(_echo_workload(), shards=2, seed=1)
        results = coordinator.run()
        assert sum(r["seen"] for r in results) == reference["seen"] == 4
        assert coordinator.flow == reference["flow"]
        assert coordinator.router.messages_crossed == 4
        assert coordinator.sync_rounds > 0

    def test_k1_is_exactly_single_process(self):
        reference = run_single_process(_echo_workload(), seed=1)
        coordinator = ShardedSimulator(_echo_workload(), shards=1, seed=1)
        results = coordinator.run()
        assert results[0]["seen"] == reference["seen"]
        assert coordinator.flow == reference["flow"]
        # One shard owns everything: nothing ever crosses.
        assert coordinator.router.messages_crossed == 0

    def test_on_sync_sees_monotone_barriers_and_conserved_flow(self):
        coordinator = ShardedSimulator(_echo_workload(), shards=2, seed=1)
        barriers = []

        def on_sync(round_no, barrier_time):
            barriers.append((round_no, barrier_time))
            flow = coordinator.live_flow()
            assert flow is not None
            assert flow["sent"] == (
                flow["delivered"] + flow["dropped"] + flow["in_flight"]
            )

        coordinator.run(on_sync=on_sync)
        rounds = [r for r, _t in barriers]
        times = [t for _r, t in barriers]
        assert rounds == list(range(1, len(barriers) + 1))
        assert times == sorted(times)

    def test_live_flow_is_none_outside_a_run(self):
        coordinator = ShardedSimulator(_echo_workload(), shards=2, seed=1)
        assert coordinator.live_flow() is None

    def test_second_run_starts_afresh(self):
        coordinator = ShardedSimulator(_echo_workload(), shards=2, seed=1)
        runs = []
        for _ in range(2):
            results = coordinator.run()
            runs.append((
                results, coordinator.flow, coordinator.sync_rounds,
                coordinator.horizon_stalls,
                coordinator.router.messages_crossed,
            ))
        assert runs[0] == runs[1]
        assert runs[0][4] == 4


def _lossy_workload():
    workload = _echo_workload()
    return ShardWorkload(
        name="lossy_echo",
        node_ids=workload.node_ids,
        build=workload.build,
        collect=workload.collect,
        latency_factory=workload.latency_factory,
        horizon=workload.horizon,
        loss_rate=0.9,
    )


def _default_latency_workload():
    workload = _echo_workload()
    return ShardWorkload(
        name="default_latency_echo",
        node_ids=workload.node_ids,
        build=workload.build,
        collect=workload.collect,
        latency_factory=None,
        horizon=workload.horizon,
    )


def _late_start_workload():
    """First event at t=1.0 with a lookahead too small to advance."""
    workload = _echo_workload()
    return ShardWorkload(
        name="vanishing_lookahead",
        node_ids=workload.node_ids,
        build=workload.build,
        collect=workload.collect,
        latency_factory=lambda streams: ConstantLatency(1e-300),
        horizon=workload.horizon,
    )


class TestObservationAndFaults:
    def test_traced_metered_run_emits_shard_events(self):
        from repro.obs import Metrics, Tracer, observe

        tracer, metrics = Tracer(), Metrics()
        with observe(tracer=tracer, metrics=metrics):
            coordinator = ShardedSimulator(_echo_workload(), shards=2, seed=1)
        coordinator.run()
        syncs = list(tracer.iter_kind("shard_sync"))
        envelopes = list(tracer.iter_kind("shard_envelope"))
        assert len(syncs) == coordinator.sync_rounds
        assert len(envelopes) == coordinator.router.messages_crossed == 4
        assert metrics.counter("shard.sync_rounds") == (
            coordinator.sync_rounds
        )
        assert metrics.counter("shard.messages_crossed") == 4
        assert metrics.counter("shard.horizon_stalls") == (
            coordinator.horizon_stalls
        )

    def test_double_traced_run_is_byte_identical(self, tmp_path):
        from repro.obs import Tracer

        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            tracer = Tracer()
            ShardedSimulator(
                _echo_workload(), shards=2, seed=1, tracer=tracer
            ).run()
            path = tmp_path / name
            tracer.write_jsonl(str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_remote_send_respects_loss_rate(self):
        coordinator = ShardedSimulator(_lossy_workload(), shards=2, seed=1)
        coordinator.run()
        flow = coordinator.flow
        assert flow["dropped"] > 0
        assert flow["sent"] == (
            flow["delivered"] + flow["dropped"] + flow["in_flight"]
        )

    def test_offline_destination_drops_on_arrival(self):
        sim, network = _two_node_network(shard_index=1)
        network.node("b").set_online(False, 0.0)
        network._inject_envelope(
            _envelope(arrival=1.5, dst="b", method="ping")
        )
        sim.run()
        flow = network.flow_snapshot()
        assert flow["dropped"] == 1 and flow["delivered"] == 0

    def test_default_latency_model_when_factory_is_none(self):
        coordinator = ShardedSimulator(
            _default_latency_workload(), shards=2, seed=1
        )
        results = coordinator.run()
        assert sum(r["seen"] for r in results) == 4

    def test_vanishing_lookahead_raises_instead_of_spinning(self):
        coordinator = ShardedSimulator(
            _late_start_workload(), shards=2, seed=1
        )
        with pytest.raises(SimulationError, match="lookahead"):
            coordinator.run()



class TestRunSingleProcess:
    def test_attaches_flow_snapshot(self):
        result = run_single_process(_echo_workload(), seed=5)
        assert result["flow"]["sent"] == 4
        assert result["flow"]["delivered"] == 4

    def test_shard_with_no_assignment_owns_everything(self):
        sim = Simulator()
        streams = RngStreams(3)
        from repro.net.transport import Network

        shard = Shard(0, sim, streams, Network(sim, streams), assignment=None)
        assert shard.owns("anything")
