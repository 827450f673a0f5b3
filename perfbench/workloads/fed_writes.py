"""fed_writes: write-heavy partial federation under faults (E4P-chaos shape).

Users homed on trust-gated hubs (last-writer-wins conflict resolution)
post messages and rewrite the room topic on seeded schedules, so the
store keeps growing and many writes race.  A fault plan partitions the
hubs, heals them, then crashes and restarts one hub; writes inside those
windows fail or diverge, and the burst of reconciliation after each heal
moves a large delta.  Reads come once the system has quiesced.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.errors import GroupCommError, RpcTimeoutError
from repro.faults.injector import FaultInjector
from repro.faults.plan import Crash, FaultPlan, Partition
from repro.groupcomm.partial import PartialFederation
from repro.net.latency import ConstantLatency
from repro.net.transport import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

from workloads import Outcome, run_until_done

HUBS = 4
USERS = 24
WRITES_PER_USER = 12
TOPICS_PER_USER = 2    # writes that set the room topic; the rest post
WRITES_END_S = 160.0
QUIESCE_S = 80.0
GOSSIP_INTERVAL = 2.0

Write = Tuple[float, str, str]  # (at, "post" | "topic", body)


class World:
    def __init__(self, seed: int):
        rng = random.Random(f"fed_writes/{seed}")
        hubs = [f"hub{i}" for i in range(HUBS)]
        users = [f"u{i:02d}" for i in range(USERS)]
        self.hubs, self.users = hubs, users
        shuffled = rng.sample(users, len(users))
        self.homes = {user: hubs[i % HUBS] for i, user in enumerate(shuffled)}
        self.schedules: Dict[str, List[Write]] = {}
        for user in users:
            gaps = [rng.uniform(0.5, 1.5) for _ in range(WRITES_PER_USER)]
            scale = WRITES_END_S / sum(gaps)
            topics = set(rng.sample(range(WRITES_PER_USER), TOPICS_PER_USER))
            at, writes = 0.0, []
            for n, gap in enumerate(gaps):
                at += gap * scale
                kind = "topic" if n in topics else "post"
                writes.append((at, kind, f"{user}-{n}"))
            self.schedules[user] = writes
        split = list(hubs)
        rng.shuffle(split)
        halves = (split[: HUBS // 2], split[HUBS // 2:])
        groups = tuple(
            tuple(sorted(half + [u for u in users if self.homes[u] in half]))
            for half in halves
        )
        partition_at = rng.uniform(20.0, 40.0)
        crash_at = rng.uniform(90.0, 110.0)
        self.plan = FaultPlan([
            Partition(groups, at=partition_at,
                      heal_at=partition_at + rng.uniform(40.0, 45.0)),
            Crash(rng.choice(hubs), at=crash_at,
                  restart_at=crash_at + rng.uniform(35.0, 40.0)),
        ], name=f"fed_writes-{seed}")
        self.readers = list(users)
        rng.shuffle(self.readers)

        self.sim = Simulator()
        streams = RngStreams(seed)
        self.network = Network(self.sim, streams, latency=ConstantLatency(0.02))
        self.federation = PartialFederation(
            self.network, hubs, streams, gossip_interval=GOSSIP_INTERVAL,
            conflict_strategy="lww",
        )
        for user in users:
            self.federation.add_user(user, home=self.homes[user])
        self.federation.create_room("town", users, public=True)
        self.injector = FaultInjector(self.sim, self.network, self.plan, streams)

    def run(self) -> Outcome:
        sim, federation = self.sim, self.federation
        acked: List[str] = []
        counts = {"posts_ok": 0, "topics_ok": 0, "failed": 0}

        def writer(user: str):
            for at, kind, body in self.schedules[user]:
                if at > sim.now:
                    yield at - sim.now
                try:
                    if kind == "post":
                        acked.append((yield from federation.post(
                            user, "town", body)))
                        counts["posts_ok"] += 1
                    else:
                        yield from federation.set_room_state(
                            user, "town", "topic", body)
                        counts["topics_ok"] += 1
                except (RpcTimeoutError, GroupCommError):
                    counts["failed"] += 1

        reads: Dict[str, int] = {}
        violations: List[str] = []

        def reader():
            yield WRITES_END_S + QUIESCE_S
            wanted = set(acked)
            for user in self.readers:
                try:
                    messages = yield from federation.fetch(user, "town")
                except (RpcTimeoutError, GroupCommError) as exc:
                    violations.append(f"read by {user} failed: {exc}")
                    continue
                reads[user] = len(messages)
                missing = wanted - {m.msg_id for m in messages}
                if missing:
                    violations.append(
                        f"{user} misses {len(missing)} acknowledged posts")
            federation.stop_federation()

        self.injector.arm()
        federation.start_federation()
        for user in self.users:
            sim.spawn(writer(user), name=f"writer-{user}")
        run_until_done(sim, sim.spawn(reader()))
        sim.run()  # drain the gossip loops' last wake-ups

        divergent = federation.divergence()
        if divergent:
            violations.append(f"{len(divergent)} divergent keys after quiesce")
        pending = sum(len(federation.pending_conflicts(h)) for h in self.hubs)
        if pending:
            violations.append(f"{pending} conflicts left in the queues")
        topics = {federation.hub(h).store.get("state/town/topic")["value"]
                  for h in self.hubs}
        writes = sum(len(s) for s in self.schedules.values())
        if counts["posts_ok"] + counts["topics_ok"] + counts["failed"] != writes:
            violations.append("writes attempted != succeeded + failed")

        flow = self.network.flow_snapshot()
        hubs = [federation.hub(h) for h in self.hubs]
        return Outcome(
            results={
                **counts,
                "writes": writes,
                "topic": sorted(topics),
                "min_read": min(reads.values()) if reads else 0,
                "max_read": max(reads.values()) if reads else 0,
            },
            work={
                "sim.events": sim.events_processed,
                "net.legs_sent": flow["sent"],
                "net.legs_dropped": flow["dropped"],
                "groupcomm.rounds": sum(h.rounds for h in hubs),
                "groupcomm.items_transferred": sum(
                    h.items_transferred for h in hubs),
                "groupcomm.conflicts": sum(h.conflicts_detected for h in hubs),
                "faults.events_applied": (self.injector.injected
                                          + self.injector.healed),
                "faults.messages_dropped": flow["dropped"],
            },
            violations=violations,
        )


def build(seed: int) -> World:
    return World(seed)
