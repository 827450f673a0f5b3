"""The Kademlia protocol over the simulated network.

Implements the four RPCs (PING, FIND_NODE, FIND_VALUE, STORE) and the
iterative lookup with ``alpha``-way parallelism.  This is the routing
substrate the paper's surveyed systems lean on: IPFS-style content lookup,
ZeroNet/Freedom.js peer discovery (§3.4), and the storage systems' provider
discovery (§3.3).

Liveness maintenance is lookup-driven: peers that time out during lookups
are evicted from the routing table, which is what gives Kademlia its churn
resilience (measured in the E9-adjacent DHT tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.dht.nodeid import _check_id, key_for, node_id_for
from repro.dht.routing import Contact, RoutingTable
from repro.errors import (
    DHTError,
    LookupFailedError,
    NetworkError,
    RemoteError,
    RpcTimeoutError,
)
from repro.net.node import Node
from repro.net.transport import Network
from repro.sim.engine import AllOf

__all__ = ["DhtConfig", "KademliaNode", "build_overlay"]


@dataclass(frozen=True)
class DhtConfig:
    """Protocol constants (Kademlia paper defaults, scaled for simulation)."""

    k: int = 20
    alpha: int = 3
    rpc_timeout: float = 2.0
    value_ttl: float = 3600.0
    republish_interval: float = 1800.0
    message_bytes: int = 256


@dataclass
class _StoredValue:
    value: Any
    expires_at: float


class KademliaNode:
    """One DHT participant bound to a network :class:`Node`."""

    def __init__(self, network: Network, node: Node, config: Optional[DhtConfig] = None):
        self.network = network
        self.node = node
        self.config = config or DhtConfig()
        self.dht_id = node_id_for(node.node_id)
        self.table = RoutingTable(self.dht_id, k=self.config.k)
        self._store: Dict[int, _StoredValue] = {}
        self._own_published: Dict[str, Any] = {}
        self._republishing = False
        node.register_handler("dht.ping", self._on_ping)
        node.register_handler("dht.find_node", self._on_find_node)
        node.register_handler("dht.find_value", self._on_find_value)
        node.register_handler("dht.store", self._on_store)

    # -- server side -------------------------------------------------------

    def _observe_sender(self, sender: str) -> None:
        if sender != self.node.node_id:
            self.table.observe(Contact(sender, node_id_for(sender)))

    def _on_ping(self, node: Node, payload: Any, sender: str) -> Dict[str, Any]:
        self._observe_sender(sender)
        return {"dht_id": self.dht_id}

    def _on_find_node(self, node: Node, payload: Any, sender: str) -> List[Tuple[str, int]]:
        self._observe_sender(sender)
        target = payload["target"]
        return [(c.name, c.dht_id) for c in self.table.closest(target, self.config.k)]

    def _on_find_value(self, node: Node, payload: Any, sender: str) -> Dict[str, Any]:
        self._observe_sender(sender)
        key_id = payload["key"]
        entry = self._store.get(key_id)
        if entry is not None and entry.expires_at > self.network.sim.now:
            return {"found": True, "value": entry.value}
        contacts = self._on_find_node(node, {"target": key_id}, sender)
        return {"found": False, "contacts": contacts}

    def _on_store(self, node: Node, payload: Any, sender: str) -> bool:
        self._observe_sender(sender)
        key_id = payload["key"]
        ttl = payload.get("ttl", self.config.value_ttl)
        if ttl <= 0:
            raise DHTError(f"store ttl must be positive: {ttl}")
        self._store[key_id] = _StoredValue(
            value=payload["value"],
            expires_at=self.network.sim.now + ttl,
        )
        return True

    def stored_keys(self) -> List[int]:
        """Unexpired keys currently held by this node."""
        now = self.network.sim.now
        return [k for k, v in self._store.items() if v.expires_at > now]

    # -- client side --------------------------------------------------------

    def bootstrap(self, seed_name: str) -> Generator:
        """Join the overlay via a known seed node (yieldable process)."""
        if seed_name == self.node.node_id:
            raise DHTError("cannot bootstrap from self")
        self.table.observe(Contact(seed_name, node_id_for(seed_name)))
        closest = yield from self.lookup(self.dht_id)
        return closest

    def _query_one(self, contact: Contact, target_id: int, find_value: bool):
        """Query one peer; evict it from the table on failure."""
        method = "dht.find_value" if find_value else "dht.find_node"
        payload = {"key": target_id} if find_value else {"target": target_id}
        try:
            result = yield from self.network.rpc(
                self.node.node_id,
                contact.name,
                method,
                payload,
                size_bytes=self.config.message_bytes,
                response_bytes=self.config.message_bytes,
                timeout=self.config.rpc_timeout,
            )
        except (RpcTimeoutError, RemoteError, NetworkError):
            self.table.evict(contact.name)
            return None
        return result

    def lookup(self, target_id: int) -> Generator:
        """Iterative FIND_NODE: returns the k closest live contacts found."""
        result = yield from self._iterative(target_id, find_value=False)
        return result[0]

    def get(self, key: str) -> Generator:
        """Iterative FIND_VALUE for an application key string.

        Checks local storage first (the querier may be a replica holder),
        then walks the overlay.  Raises :class:`LookupFailedError` if no
        replica is reachable.
        """
        key_id = key_for(key)
        local = self._store.get(key_id)
        if local is not None and local.expires_at > self.network.sim.now:
            return local.value
        _, value, found = yield from self._iterative(key_id, find_value=True)
        if not found:
            raise LookupFailedError(f"no live replica of key {key!r} found")
        return value

    def put(self, key: str, value: Any, ttl: Optional[float] = None) -> Generator:
        """Store ``value`` on the k closest nodes to ``key``.

        Returns the number of replicas acknowledged.  The publisher
        republishes periodically if :meth:`start_republishing` was called.
        """
        key_id = key_for(key)
        closest = yield from self.lookup(key_id)
        if not closest:
            # Lone node: store locally so a later joiner can fetch it.
            closest = [Contact(self.node.node_id, self.dht_id)]
        acked = 0
        payload = {
            "key": key_id,
            "value": value,
            "ttl": ttl if ttl is not None else self.config.value_ttl,
        }
        for contact in closest:
            if contact.name == self.node.node_id:
                self._on_store(self.node, payload, self.node.node_id)
                acked += 1
                continue
            try:
                ok = yield from self.network.rpc(
                    self.node.node_id,
                    contact.name,
                    "dht.store",
                    payload,
                    size_bytes=self.config.message_bytes,
                    timeout=self.config.rpc_timeout,
                )
                if ok:
                    acked += 1
            except (RpcTimeoutError, RemoteError, NetworkError):
                self.table.evict(contact.name)
        self._own_published[key] = value
        return acked

    def _iterative(self, target_id: int, find_value: bool) -> Generator:
        """The shared iterative-lookup core.

        Returns ``(closest_contacts, value, found)``.  The target is
        validated here once; every shortlisted contact's id was validated
        when the routing table observed it, so ranking uses raw XOR.
        """
        _check_id(target_id)
        shortlist: Dict[str, Contact] = {
            c.name: c for c in self.table.closest(target_id, self.config.k)
        }
        queried: set = set()
        failed: set = set()

        while True:
            candidates = sorted(
                (
                    c for c in shortlist.values()
                    if c.name not in queried and c.name not in failed
                ),
                key=lambda c: c.dht_id ^ target_id,
            )[: self.config.alpha]
            if not candidates:
                break
            processes = [
                self.network.sim.spawn(
                    self._query_one(c, target_id, find_value),
                    name=f"dht-query:{c.name}",
                )
                for c in candidates
            ]
            results = yield AllOf(processes)
            for contact, result in zip(candidates, results):
                if result is None:
                    failed.add(contact.name)
                    shortlist.pop(contact.name, None)
                    continue
                queried.add(contact.name)
                if find_value and isinstance(result, dict):
                    if result.get("found"):
                        return ([], result["value"], True)
                    raw = result.get("contacts", [])
                else:
                    raw = result
                for name, dht_id in raw:
                    if name == self.node.node_id or name in failed:
                        continue
                    if name not in shortlist:
                        peer = Contact(name, dht_id)
                        self.table.observe(peer)  # validates dht_id
                        shortlist[name] = peer
            # Termination: the k closest in the shortlist have all been
            # queried (no unqueried candidate remains among them).
            best = sorted(
                shortlist.values(), key=lambda c: c.dht_id ^ target_id
            )[: self.config.k]
            if all(c.name in queried for c in best):
                break

        closest = sorted(
            (shortlist[name] for name in queried if name in shortlist),
            key=lambda c: c.dht_id ^ target_id,
        )[: self.config.k]
        return (closest, None, False)

    # -- maintenance ------------------------------------------------------------

    def refresh_buckets(self, rng) -> Generator:
        """One refresh pass: look up a random id in each occupied bucket
        range (the Kademlia anti-staleness rule), evicting dead contacts
        as a side effect of the lookups."""
        from repro.dht.nodeid import ID_BITS

        occupied = [
            i for i, size in enumerate(self.table.bucket_sizes()) if size > 0
        ]
        for index in occupied:
            # A random id whose distance's top bit is `index`.
            low = 1 << index
            span = low  # ids in [low, 2*low)
            distance = low + rng.randrange(span)
            target = self.dht_id ^ distance
            if target >= (1 << ID_BITS):
                continue
            yield from self.lookup(target)
        return len(occupied)

    def start_refreshing(self, rng, interval: float = 600.0) -> None:
        """Run periodic bucket refreshes until :meth:`stop_refreshing`."""
        if getattr(self, "_refreshing", False):
            return
        self._refreshing = True

        def loop():
            while self._refreshing:
                yield interval
                if not self._refreshing:
                    return
                if not self.node.online:
                    continue
                yield from self.refresh_buckets(rng)

        self.network.sim.spawn(loop(), name=f"dht-refresh:{self.node.node_id}")

    def stop_refreshing(self) -> None:
        self._refreshing = False

    def start_republishing(self) -> None:
        """Begin periodic republication of this node's own keys."""
        if self._republishing:
            return
        self._republishing = True
        self.network.sim.spawn(
            self._republish_loop(), name=f"dht-republish:{self.node.node_id}"
        )

    def stop_republishing(self) -> None:
        self._republishing = False

    def _republish_loop(self) -> Generator:
        while self._republishing:
            yield self.config.republish_interval
            if not self._republishing:
                return
            if not self.node.online:
                continue
            for key, value in list(self._own_published.items()):
                try:
                    yield from self.put(key, value)
                except DHTError:
                    continue

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KademliaNode({self.node.node_id!r},"
            f" contacts={len(self.table)}, keys={len(self._store)})"
        )


def build_overlay(
    network: Network,
    names: List[str],
    config: Optional[DhtConfig] = None,
    node_class: str = "datacenter",
) -> Dict[str, KademliaNode]:
    """Create nodes for ``names``, join them all via the first as seed, and
    run the simulator until the joins complete.  Convenience for tests and
    experiments; returns the overlay keyed by node name."""
    if not names:
        raise DHTError("need at least one node name")
    overlay: Dict[str, KademliaNode] = {}
    for name in names:
        node = (
            network.node(name) if network.has_node(name)
            else network.create_node(name, node_class=node_class)
        )
        overlay[name] = KademliaNode(network, node, config)
    seed = names[0]

    def join_all():
        for name in names[1:]:
            yield from overlay[name].bootstrap(seed)
        return True

    network.sim.run_process(join_all(), name="dht-join")
    return overlay
