"""p2p_swarm: engine, transport and DHT work with hashing off the hot path.

Phase one builds a Kademlia overlay and drives a closed loop of ``put``
then ``get`` calls from seeded nodes.  Phase two is the E8 ZeroNet-style
swarm: an open loop of Poisson visitors, in simulated time, at a few
stated offered loads.  Neither phase re-hashes a growing store, so this
is the control workload for hashing work, and the one where engine,
transport and DHT changes should show.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.dht.kademlia import build_overlay
from repro.errors import LookupFailedError
from repro.net.latency import ConstantLatency
from repro.net.transport import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.webapps.site import HostlessSite
from repro.webapps.swarm import SiteSwarm, VisitorProcess
from repro.webapps.tracker import Tracker

from workloads import Outcome, run_until_done

DHT_NODES = 128
DHT_KEYS = 200
OFFERED_LOADS = (8.0, 32.0, 64.0)
MEAN_SEED_TIME_S = 60.0
HORIZON_S = 3500.0
AUTHOR_LEAVES_AT_S = 300.0


class _Swarm:
    """One offered load's swarm, built but not yet run."""

    def __init__(self, load: float, seed: int):
        self.load = load
        self.sim = Simulator()
        streams = RngStreams(seed)
        self.network = Network(self.sim, streams, latency=ConstantLatency(0.01))
        self.swarm = SiteSwarm(self.network, Tracker(self.network))
        site = HostlessSite(f"perfbench-site-{seed}")
        site.write_file("index.html", b"<h1>swarm</h1>")
        self.bundle = site.publish()
        self.visitors = VisitorProcess(
            self.swarm, self.bundle.manifest.site_address, streams,
            arrival_rate=load / MEAN_SEED_TIME_S,
            mean_seed_time=MEAN_SEED_TIME_S,
        )


class World:
    def __init__(self, seed: int):
        rng = random.Random(f"p2p_swarm/{seed}")
        self.names = [f"n{i:03d}" for i in range(DHT_NODES)]
        self.ops = [
            (rng.choice(self.names), rng.choice(self.names),
             f"key-{seed}-{i}", f"value-{rng.getrandbits(32):08x}")
            for i in range(DHT_KEYS)
        ]
        self.dht_sim = Simulator()
        self.dht_network = Network(self.dht_sim, RngStreams(seed),
                                   latency=ConstantLatency(0.02))
        for name in self.names:
            self.dht_network.create_node(name)
        self.swarms = [_Swarm(load, rng.getrandbits(31))
                       for load in OFFERED_LOADS]

    def run(self) -> Outcome:
        violations: List[str] = []
        results: Dict[str, object] = {}
        work = {"sim.events": 0, "net.legs_sent": 0, "net.legs_dropped": 0}

        overlay = build_overlay(self.dht_network, self.names)
        got = {"ok": 0, "replicas": 0}

        def closed_loop():
            for putter, getter, key, value in self.ops:
                got["replicas"] += yield from overlay[putter].put(key, value)
                try:
                    read = yield from overlay[getter].get(key)
                except LookupFailedError:
                    violations.append(f"get {key} from {getter} failed")
                    continue
                if read == value:
                    got["ok"] += 1
                else:
                    violations.append(f"get {key} returned {read!r}")

        run_until_done(self.dht_sim, self.dht_sim.spawn(closed_loop()))
        results["dht"] = dict(got)
        self._count(work, self.dht_sim, self.dht_network)

        for world in self.swarms:
            sim, swarm = world.sim, world.swarm
            address = world.bundle.manifest.site_address

            def bootstrap():
                yield from swarm.seed("author", world.bundle)
                yield AUTHOR_LEAVES_AT_S
                yield from swarm.stop_seeding("author", address)

            world.visitors.start()
            sim.spawn(bootstrap())
            sim.run(until=HORIZON_S)
            world.visitors.stop()
            sim.run()  # let visits in flight finish and seeders leave
            stats = world.visitors.stats
            if stats.arrivals != stats.successes + stats.failures:
                violations.append(
                    f"load {world.load}: {stats.arrivals} arrivals !="
                    f" {stats.successes} successes + {stats.failures} failures")
            results[f"load_{world.load:g}"] = {
                "arrivals": stats.arrivals, "successes": stats.successes}
            self._count(work, sim, world.network)
        return Outcome(results=results, work=work, violations=violations)

    @staticmethod
    def _count(work: Dict[str, int], sim: Simulator, network: Network) -> None:
        flow = network.flow_snapshot()
        work["sim.events"] += sim.events_processed
        work["net.legs_sent"] += flow["sent"]
        work["net.legs_dropped"] += flow["dropped"]


def build(seed: int) -> World:
    return World(seed)
