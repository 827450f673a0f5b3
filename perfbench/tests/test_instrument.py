from repro.dht.kademlia import KademliaNode, build_overlay
from repro.net.latency import ConstantLatency
from repro.net.node import Node
from repro.net.transport import Network
from repro.obs import Metrics, observe
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

import spans


def _dht_run():
    sim = Simulator()
    network = Network(sim, RngStreams(3), latency=ConstantLatency(0.02))
    names = [f"n{i}" for i in range(12)]
    overlay = build_overlay(network, names)
    got = []

    def loop():
        for i in range(5):
            yield from overlay[names[i]].put(f"k{i}", i)
            got.append((yield from overlay[names[-1 - i]].get(f"k{i}")))

    sim.spawn(loop())
    sim.run()
    return got, sim.events_processed, network.flow_snapshot()


def test_tracing_changes_no_result_and_uninstalls_cleanly():
    originals = (Simulator.schedule, Network.rpc, Node.register_handler,
                 KademliaNode.get, KademliaNode._iterative)
    plain = _dht_run()
    tracer = spans.instrument(spans.Tracer())
    metrics = Metrics()
    try:
        with observe(metrics=metrics):
            traced = _dht_run()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (Simulator.schedule, Network.rpc, Node.register_handler,
            KademliaNode.get, KademliaNode._iterative) == originals

    counts = spans.counts(tracer, metrics, {})
    assert counts["dht.gets"] == counts["dht.gets_ok"] == 5
    assert counts["dht.lookups"] >= 10  # joins plus one walk per put
    assert counts["sim.events_fired"] == plain[1]
    assert counts["net.rpcs_sent"] == sum(tracer.rpc_count.values())
    self_s = tracer.timer.flush()
    assert self_s["dht"] > 0 and self_s["sim"] > 0 and self_s["net"] > 0
    assert "crypto" in self_s  # node ids are hashes
