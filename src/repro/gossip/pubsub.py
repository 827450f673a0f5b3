"""Flooding publish/subscribe over a peer graph.

The real-time dissemination layer federated social applications use
(OStatus "real-time exchange of messages between nodes", §3.2): a message
published at one node floods along topology edges with duplicate
suppression, reaching every connected, online node.

Coverage under failures is exactly the "connectedness" property the paper
asks of group communication systems, and is what E4/E5 measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.crypto.hashing import hash_obj
from repro.errors import GroupCommError
from repro.net.transport import Network

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    import networkx as nx

__all__ = ["PubSubMessage", "PubSubNode", "build_pubsub_overlay"]


@dataclass(frozen=True)
class PubSubMessage:
    """A flooded message: topic, payload, origin, and a unique id."""

    msg_id: str
    topic: str
    payload: Any
    origin: str


class PubSubNode:
    """One participant in the flooding overlay."""

    def __init__(self, network: Network, node_id: str, neighbors: List[str]):
        self.network = network
        self.node = network.node(node_id)
        self.neighbors = [n for n in neighbors if n != node_id]
        self._seen: Set[str] = set()
        self._subscriptions: Dict[str, List[Callable[[PubSubMessage], None]]] = {}
        self.delivered: List[PubSubMessage] = []
        self.forwarded = 0
        self.node.register_handler("pubsub.msg", self._on_message)

    def subscribe(self, topic: str, callback: Optional[Callable[[PubSubMessage], None]] = None) -> None:
        """Deliver future messages on ``topic`` to ``callback`` (and always
        to the :attr:`delivered` log)."""
        self._subscriptions.setdefault(topic, [])
        if callback is not None:
            self._subscriptions[topic].append(callback)

    def subscribed_topics(self) -> List[str]:
        return sorted(self._subscriptions)

    def publish(self, topic: str, payload: Any, size_bytes: int = 512) -> PubSubMessage:
        """Publish locally and flood to neighbours."""
        if not self.node.online:
            raise GroupCommError(
                f"node {self.node.node_id!r} is offline and cannot publish"
            )
        msg = PubSubMessage(
            msg_id=hash_obj(
                {
                    "topic": topic,
                    "payload": payload,
                    "origin": self.node.node_id,
                    "seq": len(self._seen) + len(self.delivered),
                    "t": self.network.sim.now,
                }
            ),
            topic=topic,
            payload=payload,
            origin=self.node.node_id,
        )
        self._seen.add(msg.msg_id)
        self._deliver(msg)
        self._forward(msg, exclude=None, size_bytes=size_bytes)
        return msg

    def _on_message(self, node, payload: Any, sender: str) -> None:
        msg: PubSubMessage = payload["msg"]
        if msg.msg_id in self._seen:
            return
        self._seen.add(msg.msg_id)
        self._deliver(msg)
        self._forward(msg, exclude=sender, size_bytes=payload["size"])

    def _deliver(self, msg: PubSubMessage) -> None:
        if msg.topic in self._subscriptions:
            self.delivered.append(msg)
            for callback in self._subscriptions[msg.topic]:
                callback(msg)

    def _forward(self, msg: PubSubMessage, exclude: Optional[str], size_bytes: int) -> None:
        for neighbor in self.neighbors:
            if neighbor == exclude:
                continue
            self.forwarded += 1
            self.network.send(
                self.node.node_id,
                neighbor,
                "pubsub.msg",
                {"msg": msg, "size": size_bytes},
                size_bytes=size_bytes,
            )

    def received_payloads(self, topic: str) -> List[Any]:
        return [m.payload for m in self.delivered if m.topic == topic]


def build_pubsub_overlay(
    network: Network, graph: nx.Graph, node_class: str = "datacenter"
) -> Dict[str, PubSubNode]:
    """Create network nodes for every graph vertex and wire a
    :class:`PubSubNode` per vertex with graph edges as gossip links."""
    overlay: Dict[str, PubSubNode] = {}
    for name in graph.nodes:
        if not network.has_node(name):
            network.create_node(name, node_class=node_class)
    for name in graph.nodes:
        overlay[name] = PubSubNode(network, name, list(graph.neighbors(name)))
    return overlay
