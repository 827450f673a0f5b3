"""Shard-engine experiment drivers (``--engine shard``).

Sharded counterparts of the E4/E5 drivers plus an E6-class
registration smoke, built on :mod:`repro.sim.shard`.  The workloads
here are *send-based* restatements of the experiments: cross-shard RPC
is unsupported (the response generator would block across a
synchronization barrier), so every protocol is expressed as one-way
request and reply legs — which is also how the real wire protocols
behind the paper's §3 systems work.

Every workload keeps its randomness on per-node streams
(``churn.<node_id>``, ``shard.place.<node_id>``), uses a
pairwise-deterministic latency model, and runs lossless — the
determinism contract of :mod:`repro.sim.shard`, which is what makes
aggregates equal for every shard count ``K`` (the property suite in
``tests/sim/test_shard_equivalence.py`` holds each driver to it).

Like :mod:`repro.analysis.experiments`, grid-shaped drivers split into
a top-level ``_*_point`` function (JSON-safe kwargs, picklable, one
grid point) and a public ``run_*_shard`` driver that fans the grid out
through a :class:`repro.analysis.runner.SweepRunner` — the shard
engine composes with the sweep cache and worker pool unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.runner import SweepRunner
from repro.faults.presets import preset_plan
from repro.net.churn import ChurnProcess, ChurnProfile
from repro.net.latency import ConstantLatency, PlanetLatency
from repro.net.node import Node
from repro.sim.rng import RngStreams
from repro.sim.shard import Shard, ShardWorkload, ShardedSimulator

__all__ = [
    "federation_workload",
    "ping_mesh_workload",
    "registration_workload",
    "run_federation_availability_shard",
    "run_social_tradeoff_shard",
    "run_registration_shard_smoke",
    "run_shard_chaos",
]


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over a sorted sequence (0 <= q <= 100)."""
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * int(q) // 100))  # ceil(n*q/100)
    return values[rank - 1]


# ---------------------------------------------------------------------------
# E4 — federation availability, send-based
# ---------------------------------------------------------------------------

def _federation_build(
    shard: Shard,
    model_name: str,
    n_servers: int,
    n_users: int,
    n_messages: int,
    failed_servers: int,
    fail_at: float,
    read_at: float,
) -> None:
    servers = [f"srv{i}" for i in range(n_servers)]
    users = [f"u{i}" for i in range(n_users)]
    home = {user: servers[i % n_servers] for i, user in enumerate(users)}
    network, sim = shard.network, shard.sim
    server_log: Dict[str, set] = {s: set() for s in servers}
    user_msgs: Dict[str, set] = {u: set() for u in users}
    shard.state["server_log"] = server_log
    shard.state["user_msgs"] = user_msgs
    shard.state["fetches"] = {"count": 0}

    def on_post(node: Node, payload: Any, sender_id: str) -> None:
        mid = payload["mid"]
        server_log[node.node_id].add(mid)
        if model_name != "single_home":
            for other in servers:
                if other != node.node_id:
                    network.send(node.node_id, other, "replicate",
                                 {"mid": mid})

    def on_replicate(node: Node, payload: Any, sender_id: str) -> None:
        server_log[node.node_id].add(payload["mid"])

    def on_fetch(node: Node, payload: Any, sender_id: str) -> None:
        user = payload["user"]
        network.send(node.node_id, user, "history",
                     {"mids": sorted(server_log[node.node_id])})
        if model_name == "single_home":
            # A single-home hub holds only its own users' posts; it
            # pulls the rest on demand, and a dead peer never answers.
            for other in servers:
                if other != node.node_id:
                    network.send(node.node_id, other, "pull",
                                 {"user": user})

    def on_pull(node: Node, payload: Any, sender_id: str) -> None:
        network.send(node.node_id, payload["user"], "history",
                     {"mids": sorted(server_log[node.node_id])})

    def on_history(node: Node, payload: Any, sender_id: str) -> None:
        user_msgs[node.node_id].update(payload["mids"])

    for server in servers:
        node = network.add_node(Node(server))
        node.register_handler("post", on_post)
        node.register_handler("replicate", on_replicate)
        node.register_handler("fetch", on_fetch)
        node.register_handler("pull", on_pull)
    for user in users:
        node = network.add_node(Node(user, node_class="personal_computer"))
        node.register_handler("history", on_history)

    # Posting phase: author i posts message i to its home server.
    for i in range(n_messages):
        author = users[i % n_users]
        if shard.owns(author):
            sim.schedule_at(1.0 + 0.5 * i, network.send, author,
                            home[author], "post", {"mid": i})

    # Deterministic failures: the first k servers die, on every shard
    # (ghost copies flip too, keeping liveness globally consistent).
    def fail_servers() -> None:
        for server in servers[:failed_servers]:
            network.node(server).set_online(False, sim.now)

    sim.schedule_at(fail_at, fail_servers)

    # Read phase: each user fetches from its home; under failover the
    # user walks the ring until its history is complete.
    def fetch_from(user: str, server: str) -> None:
        if len(user_msgs[user]) >= n_messages:
            return
        shard.state["fetches"]["count"] += 1
        network.send(user, server, "fetch", {"user": user})

    for j, user in enumerate(users):
        if not shard.owns(user):
            continue
        sim.schedule_at(read_at + 0.1 * j, fetch_from, user, home[user])
        if model_name == "replicated_failover":
            base = servers.index(home[user])
            for f in range(1, n_servers):
                fallback = servers[(base + f) % n_servers]
                sim.schedule_at(read_at + 0.1 * j + 5.0 * f,
                                fetch_from, user, fallback)


def _federation_collect(
    shard: Shard, n_messages: int, n_users: int
) -> Dict[str, Any]:
    users_complete = 0
    messages_read = 0
    for user, mids in shard.state["user_msgs"].items():
        if not shard.owns(user):
            continue
        messages_read += len(mids)
        if len(mids) >= n_messages:
            users_complete += 1
    posts_stored = sum(
        len(log) for server, log in shard.state["server_log"].items()
        if shard.owns(server)
    )
    return {
        "users_complete": users_complete,
        "messages_read": messages_read,
        "posts_stored": posts_stored,
        "fetches": shard.state["fetches"]["count"],
    }


def federation_workload(
    model_name: str,
    n_servers: int = 5,
    n_users: int = 20,
    n_messages: int = 8,
    failed_servers: int = 1,
    fail_at: float = 30.0,
    read_at: float = 40.0,
    horizon: float = 100.0,
) -> ShardWorkload:
    """E4 as a shard workload: post, replicate, fail, then read.

    ``single_home`` pulls history across hubs at read time (dead hubs
    never answer), ``replicated`` pushes every post everywhere, and
    ``replicated_failover`` additionally walks users to the next live
    hub — the §3.2 availability ladder, exactly as in
    :func:`repro.analysis.experiments.run_federation_availability`.
    """
    node_ids = tuple(
        [f"srv{i}" for i in range(n_servers)]
        + [f"u{i}" for i in range(n_users)]
    )
    return ShardWorkload(
        name=f"e4_shard_{model_name}",
        node_ids=node_ids,
        build=lambda shard: _federation_build(
            shard, model_name, n_servers, n_users, n_messages,
            failed_servers, fail_at, read_at,
        ),
        collect=lambda shard: _federation_collect(
            shard, n_messages, n_users
        ),
        latency_factory=lambda streams: ConstantLatency(0.02),
        horizon=horizon,
    )


def _federation_shard_point(
    model_name: str,
    seed: int,
    shards: int,
    n_servers: int,
    n_users: int,
    n_messages: int,
    failed_servers: int,
) -> Dict[str, object]:
    """One E4 shard grid point: one federation model, K shards."""
    coordinator = ShardedSimulator(
        federation_workload(
            model_name=model_name,
            n_servers=n_servers,
            n_users=n_users,
            n_messages=n_messages,
            failed_servers=failed_servers,
        ),
        shards=shards,
        seed=seed,
    )
    results = coordinator.run()
    users_complete = sum(r["users_complete"] for r in results)
    return {
        "model": model_name,
        "shards": shards,
        "servers": n_servers,
        "failed": failed_servers,
        "users_complete": users_complete,
        "messages_read": sum(r["messages_read"] for r in results),
        "posts_stored": sum(r["posts_stored"] for r in results),
        "read_availability": users_complete / n_users,
        "messages_crossed": coordinator.router.messages_crossed,
        "sync_rounds": coordinator.sync_rounds,
    }


def run_federation_availability_shard(
    seed: int = 1,
    shards: int = 2,
    n_servers: int = 5,
    n_users: int = 20,
    n_messages: int = 8,
    failed_servers: int = 1,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E4 on the shard engine: one row per federation model.

    Workload aggregates (``users_complete``, ``messages_read``,
    ``posts_stored``, ``read_availability``) are equal for every
    ``shards`` value; ``messages_crossed``/``sync_rounds`` describe the
    engine itself and do vary with K.
    """
    runner = runner or SweepRunner()
    configs = [
        {
            "model_name": model_name,
            "seed": seed,
            "shards": shards,
            "n_servers": n_servers,
            "n_users": n_users,
            "n_messages": n_messages,
            "failed_servers": failed_servers,
        }
        for model_name in ("single_home", "replicated", "replicated_failover")
    ]
    return runner.run(
        "E4_federation_availability_shard", _federation_shard_point, configs
    )


# ---------------------------------------------------------------------------
# E5 — ping-mesh RTT under churn, send-based
# ---------------------------------------------------------------------------

def _mesh_ids(n_nodes: int) -> List[str]:
    return [f"p{i}" for i in range(n_nodes)]


def _mesh_latency(streams: RngStreams, n_nodes: int) -> PlanetLatency:
    # Coordinates come from per-node streams, so every shard (and the
    # single-process reference) places every node identically — the
    # pre-placement that makes PlanetLatency pairwise-deterministic.
    model = PlanetLatency(streams)
    for node_id in _mesh_ids(n_nodes):
        rng = streams.stream(f"shard.place.{node_id}")
        model.place(Node(node_id), rng.random(), rng.random())
    return model


def _ping_mesh_build(
    shard: Shard,
    n_nodes: int,
    degree: int,
    n_rounds: int,
    churn: bool,
) -> None:
    ids = _mesh_ids(n_nodes)
    network, sim = shard.network, shard.sim
    rtts: List[float] = []
    sent = {"count": 0}
    shard.state["rtts"] = rtts
    shard.state["sent"] = sent

    def on_ping(node: Node, payload: Any, sender_id: str) -> None:
        network.send(node.node_id, sender_id, "pong", payload)

    def on_pong(node: Node, payload: Any, sender_id: str) -> None:
        rtts.append(sim.now - payload["sent"])

    for node_id in ids:
        node = network.add_node(Node(node_id, node_class="personal_computer"))
        node.register_handler("ping", on_ping)
        node.register_handler("pong", on_pong)

    # Deterministic small-world-ish neighbor set: ring plus one chord.
    def neighbors(i: int) -> List[str]:
        hops = [1, n_nodes - 1] + ([degree] if degree > 1 else [])
        seen: List[str] = []
        for hop in hops:
            peer = ids[(i + hop) % n_nodes]
            if peer != ids[i] and peer not in seen:
                seen.append(peer)
        return seen

    def ping(src: str, dst: str) -> None:
        sent["count"] += 1
        network.send(src, dst, "ping", {"sent": sim.now})

    for i, node_id in enumerate(ids):
        if not shard.owns(node_id):
            continue
        for round_no in range(n_rounds):
            for j, peer in enumerate(neighbors(i)):
                at = 1.0 + 7.0 * round_no + 0.013 * i + 0.003 * j
                sim.schedule_at(at, ping, node_id, peer)
        if churn:
            process = ChurnProcess(
                sim, shard.streams, network.node(node_id),
                ChurnProfile(mean_uptime=60.0, mean_downtime=15.0,
                             name="mesh"),
            )
            process.start()
            shard.churn[node_id] = process


def _ping_mesh_collect(shard: Shard) -> Dict[str, Any]:
    return {
        "pings_sent": shard.state["sent"]["count"],
        "rtts": sorted(shard.state["rtts"]),
    }


def ping_mesh_workload(
    n_nodes: int = 16,
    degree: int = 3,
    n_rounds: int = 4,
    churn: bool = True,
    horizon: float = 60.0,
) -> ShardWorkload:
    """E5-class workload: RTT probing over a ring-plus-chord mesh.

    Placed :class:`~repro.net.latency.PlanetLatency` gives
    geographically-consistent RTTs; per-node churn (when enabled)
    drops probes to offline peers, thinning the histogram exactly as
    the paper's always-on-vs-churning comparison expects.
    """
    return ShardWorkload(
        name="e5_shard_ping_mesh",
        node_ids=tuple(_mesh_ids(n_nodes)),
        build=lambda shard: _ping_mesh_build(
            shard, n_nodes, degree, n_rounds, churn
        ),
        collect=_ping_mesh_collect,
        latency_factory=lambda streams: _mesh_latency(streams, n_nodes),
        horizon=horizon,
    )


def _ping_mesh_point(
    seed: int,
    shards: int,
    n_nodes: int,
    degree: int,
    n_rounds: int,
    churn: bool,
    engine: str = "shard",
) -> Dict[str, object]:
    """One E5 shard grid point (``engine="single"`` is the equivalence
    target the property suite compares against)."""
    if engine == "single":
        from repro.sim.shard import run_single_process

        merged = run_single_process(
            ping_mesh_workload(n_nodes, degree, n_rounds, churn), seed
        )
        results = [merged]
        crossed = 0
        rounds = 0
    else:
        coordinator = ShardedSimulator(
            ping_mesh_workload(n_nodes, degree, n_rounds, churn),
            shards=shards,
            seed=seed,
        )
        results = coordinator.run()
        crossed = coordinator.router.messages_crossed
        rounds = coordinator.sync_rounds
    rtts = sorted(rtt for r in results for rtt in r["rtts"])
    return {
        "nodes": n_nodes,
        "shards": shards,
        "churn": churn,
        "pings_sent": sum(r["pings_sent"] for r in results),
        "pongs_received": len(rtts),
        "rtt_p50_ms": round(1000 * _percentile(rtts, 50), 3),
        "rtt_p95_ms": round(1000 * _percentile(rtts, 95), 3),
        "messages_crossed": crossed,
        "sync_rounds": rounds,
    }


def run_social_tradeoff_shard(
    seed: int = 3,
    shards: int = 2,
    mesh_sizes: Sequence[int] = (12, 24),
    degree: int = 3,
    n_rounds: int = 4,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E5 on the shard engine: RTT/loss rows per mesh size, with and
    without churn (the always-on half is the centralized baseline)."""
    runner = runner or SweepRunner()
    configs = [
        {
            "seed": seed,
            "shards": shards,
            "n_nodes": n_nodes,
            "degree": degree,
            "n_rounds": n_rounds,
            "churn": churn,
        }
        for n_nodes in mesh_sizes
        for churn in (False, True)
    ]
    return runner.run("E5_social_tradeoff_shard", _ping_mesh_point, configs)


# ---------------------------------------------------------------------------
# E6-class registration smoke + chaos
# ---------------------------------------------------------------------------

def _registration_build(
    shard: Shard, n_clients: int, retry_every: float, horizon: float
) -> None:
    clients = [f"client{i}" for i in range(n_clients)]
    network, sim = shard.network, shard.sim
    certified: Dict[str, bool] = {c: False for c in clients}
    attempts = {"count": 0}
    shard.state["certified"] = certified
    shard.state["attempts"] = attempts

    def on_register(node: Node, payload: Any, sender_id: str) -> None:
        network.send(node.node_id, sender_id, "cert", {})

    def on_cert(node: Node, payload: Any, sender_id: str) -> None:
        certified[node.node_id] = True

    ca = network.add_node(Node("ca"))
    ca.register_handler("register", on_register)
    for client in clients:
        node = network.add_node(Node(client, node_class="personal_computer"))
        node.register_handler("cert", on_cert)

    def attempt(client: str) -> None:
        if certified[client]:
            return
        attempts["count"] += 1
        network.send(client, "ca", "register", {})

    for i, client in enumerate(clients):
        if not shard.owns(client):
            continue
        at = 1.0 + float(i)
        while at < horizon:
            sim.schedule_at(at, attempt, client)
            at += retry_every


def _registration_collect(shard: Shard) -> Dict[str, Any]:
    certified = sum(
        1 for client, done in shard.state["certified"].items()
        if done and shard.owns(client)
    )
    return {
        "certified": certified,
        "attempts": shard.state["attempts"]["count"],
    }


def registration_workload(
    n_clients: int = 6,
    retry_every: float = 10.0,
    horizon: float = 100.0,
) -> ShardWorkload:
    """E6-class smoke: clients register with a CA, retrying until
    certified.  Node names (``client0`` … / ``ca``) match the
    ``registration-partition`` fault preset, so the same plan drives
    the chaos golden."""
    node_ids = tuple(
        ["ca"] + [f"client{i}" for i in range(n_clients)]
    )
    return ShardWorkload(
        name="e6_shard_registration",
        node_ids=node_ids,
        build=lambda shard: _registration_build(
            shard, n_clients, retry_every, horizon
        ),
        collect=_registration_collect,
        latency_factory=lambda streams: ConstantLatency(0.05),
        horizon=horizon,
    )


def _registration_shard_point(
    seed: int,
    shards: int,
    n_clients: int,
    preset: str = "",
) -> Dict[str, object]:
    """One registration smoke point, optionally under a fault preset."""
    plan = preset_plan(preset) if preset else None
    coordinator = ShardedSimulator(
        registration_workload(n_clients=n_clients),
        shards=shards,
        seed=seed,
        plan=plan,
    )
    results = coordinator.run()
    return {
        "clients": n_clients,
        "shards": shards,
        "preset": preset or "none",
        "certified": sum(r["certified"] for r in results),
        "attempts": sum(r["attempts"] for r in results),
        "messages_crossed": coordinator.router.messages_crossed,
        "sync_rounds": coordinator.sync_rounds,
    }


def run_registration_shard_smoke(
    seed: int = 1,
    shards: int = 2,
    n_clients: int = 6,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E6-class smoke on the shard engine: clean run and the
    ``registration-partition`` preset side by side.  Every client
    certifies in both rows — the partitioned client just needs more
    attempts (retries ride out the partition window)."""
    runner = runner or SweepRunner()
    configs = [
        {
            "seed": seed,
            "shards": shards,
            "n_clients": n_clients,
            "preset": preset,
        }
        for preset in ("", "registration-partition")
    ]
    return runner.run(
        "E6_registration_shard_smoke", _registration_shard_point, configs
    )


def run_shard_chaos(
    preset: str = "registration-partition",
    seed: int = 1,
    shards: int = 2,
    n_clients: int = 6,
) -> Dict[str, object]:
    """Chaos run with a barrier-time conservation sweep.

    Arms ``preset`` on every shard and, at every synchronization
    barrier, checks message conservation over the combined cross-shard
    envelope accounting: ``sent == delivered + dropped + in_flight``
    (router-carried envelopes count as in flight).
    """
    checks = {"count": 0, "violations": 0}
    coordinator = ShardedSimulator(
        registration_workload(n_clients=n_clients),
        shards=shards,
        seed=seed,
        plan=preset_plan(preset),
    )

    def on_sync(round_no: int, barrier_time: float) -> None:
        flow = coordinator.live_flow()
        assert flow is not None  # on_sync only fires mid-run
        checks["count"] += 1
        if flow["sent"] != (
            flow["delivered"] + flow["dropped"] + flow["in_flight"]
        ):
            checks["violations"] += 1

    results = coordinator.run(on_sync=on_sync)
    flow = coordinator.flow
    return {
        "preset": preset,
        "shards": shards,
        "certified": sum(r["certified"] for r in results),
        "attempts": sum(r["attempts"] for r in results),
        "sent": flow["sent"],
        "delivered": flow["delivered"],
        "dropped": flow["dropped"],
        "in_flight": flow["in_flight"],
        "conservation_checks": checks["count"],
        "conservation_violations": checks["violations"],
        "messages_crossed": coordinator.router.messages_crossed,
        "sync_rounds": coordinator.sync_rounds,
    }
