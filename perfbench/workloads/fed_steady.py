"""fed_steady: a large replicated store with a small delta (E4 shape).

Three federation models (single-home, replicated, replicated with
failover) each get the same seeded inputs: user homes, a shuffled post
schedule in which every user posts, a long anti-entropy settle, then the
crash of the first servers and one fetch per user in a shuffled order.
During the settle the replicas already agree, so every reconciliation
round re-digests the whole store for almost nothing to transfer: the path
a stamp cache or a Merkle summary should shorten.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.errors import GroupCommError, RpcTimeoutError
from repro.groupcomm.federated import ReplicatedFederation, SingleHomeFederation
from repro.net.latency import ConstantLatency
from repro.net.transport import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

from workloads import Outcome, run_until_done

SERVERS = 6
USERS = 36
POSTS_PER_USER = 1
CRASHED = 2
GOSSIP_INTERVAL = 2.0
SETTLE_S = 300.0
MODELS = ("single_home", "replicated", "replicated_failover")


class _Model:
    """One federation model's world, built but not yet run."""

    def __init__(self, model: str, seed: int, homes: Dict[str, str],
                 servers: List[str]):
        self.model = model
        self.sim = Simulator()
        streams = RngStreams(seed)
        self.network = Network(self.sim, streams, latency=ConstantLatency(0.02))
        if model == "single_home":
            self.federation = SingleHomeFederation(self.network, servers)
        else:
            self.federation = ReplicatedFederation(
                self.network, servers, streams,
                gossip_interval=GOSSIP_INTERVAL,
                allow_failover=(model == "replicated_failover"),
            )
        for user in sorted(homes):
            self.federation.add_user(user, home=homes[user])
        self.federation.create_room("room", sorted(homes))


class World:
    def __init__(self, seed: int):
        rng = random.Random(f"fed_steady/{seed}")
        self.servers = [f"srv{i}" for i in range(SERVERS)]
        users = [f"u{i}" for i in range(USERS)]
        shuffled = rng.sample(users, len(users))
        self.homes = {user: self.servers[i % SERVERS]
                      for i, user in enumerate(shuffled)}
        self.posts = [user for user in users for _ in range(POSTS_PER_USER)]
        rng.shuffle(self.posts)
        # As in E4 the first servers crash: with balanced homes every seed
        # then times out the same fetches, so the seed moves work around
        # without changing how much there is.
        self.crashed = self.servers[:CRASHED]
        self.readers = list(users)
        rng.shuffle(self.readers)
        self.models = [_Model(model, seed, self.homes, self.servers)
                       for model in MODELS]

    def run(self) -> Outcome:
        violations: List[str] = []
        results: Dict[str, object] = {"messages": len(self.posts)}
        work = {"sim.events": 0, "net.legs_sent": 0, "net.legs_dropped": 0,
                "gossip.rounds": 0, "gossip.items_transferred": 0}
        for world in self.models:
            readable = self._run_model(world, violations)
            results[world.model] = round(readable / len(self.readers), 6)
            flow = world.network.flow_snapshot()
            work["sim.events"] += world.sim.events_processed
            work["net.legs_sent"] += flow["sent"]
            work["net.legs_dropped"] += flow["dropped"]
            if isinstance(world.federation, ReplicatedFederation):
                for replica in world.federation.replicas.values():
                    work["gossip.rounds"] += replica.rounds
                    work["gossip.items_transferred"] += replica.items_transferred
        return Outcome(results=results, work=work, violations=violations)

    def _run_model(self, world: _Model, violations: List[str]) -> int:
        sim, network, federation = world.sim, world.network, world.federation
        replicated = isinstance(federation, ReplicatedFederation)
        posted = {"ok": 0}

        def post_phase():
            for i, author in enumerate(self.posts):
                yield from federation.post(author, "room", f"m{i}")
                posted["ok"] += 1

        if replicated:
            federation.start_replication()
        sim.spawn(post_phase())
        sim.run(until=SETTLE_S)
        if posted["ok"] != len(self.posts):
            violations.append(f"{world.model}: {posted['ok']} of "
                              f"{len(self.posts)} posts acknowledged")
        if replicated:
            violations.extend(_replica_disagreements(world))

        for server in self.crashed:
            network.node(server).set_online(False, sim.now)
        read_all: List[str] = []

        def read_phase():
            for user in self.readers:
                try:
                    messages = yield from federation.fetch(user, "room")
                except (RpcTimeoutError, GroupCommError):
                    continue
                if len(messages) == len(self.posts):
                    read_all.append(user)
            if replicated:
                federation.stop_replication()

        run_until_done(sim, sim.spawn(read_phase()))
        failover = world.model == "replicated_failover"
        expected = sorted(
            user for user in self.readers
            if failover or self.homes[user] not in self.crashed
        )
        if sorted(read_all) != expected:
            violations.append(
                f"{world.model}: {len(read_all)} users read every message,"
                f" expected {len(expected)}")
        return len(read_all)


def _replica_disagreements(world: _Model) -> List[str]:
    """Stores of the (all online) replicas must be identical after the
    settle; compared item by item, without hashing."""
    stores = {server: replica.store
              for server, replica in world.federation.replicas.items()}
    first_server = sorted(stores)[0]
    reference = stores[first_server]
    keys = sorted(reference.keys())
    out = []
    for server in sorted(stores):
        store = stores[server]
        if sorted(store.keys()) != keys or any(
                store.item(key) != reference.item(key) for key in keys):
            out.append(f"{world.model}: replica {server} differs from "
                       f"{first_server} after the settle")
    return out


def build(seed: int) -> World:
    return World(seed)
