"""Trust-gated partial federation: the middle of the §3.2 spectrum.

:class:`SingleHomeFederation` and :class:`ReplicatedFederation` model the
two extremes of the paper's availability-vs-control asymmetry: push-once
with no repair, and full replication everywhere.  Real federations
(Matrix, ActivityPub) sit between.  :class:`PartialFederation` models
that middle ground:

* **Per-peer trust levels and federation policies.**  Each server runs a
  :class:`FederationHub` holding a :class:`FederationPeer` record per
  remote server: a trust level in [0, 1], a :class:`FederationPolicy`
  (``full`` / ``filtered`` / ``none``), and an active flag (deactivated
  peers — defederation — exchange nothing).  ``full`` shares every
  entry; ``filtered`` shares public entries with anyone but private
  entries only with peers at or above the federation's
  ``trust_threshold``; ``none`` shares nothing.
* **Propagation via the existing substrate.**  A post is stored on the
  author's home hub, eagerly pushed (fire-and-forget transport sends, in
  sorted peer order) to every peer the policy admits, and repaired by a
  per-hub anti-entropy gossip loop that reconciles policy-filtered
  digests over RPC — the same mechanism as
  :class:`~repro.gossip.antientropy.AntiEntropyNode`, made trust-aware.
* **Pluggable conflict resolution.**  Replicated *state* registers
  (room topic et al.) are mutable, so divergent replicas appear after
  partitions.  Merges fast-forward along recorded ``prev`` stamps; a
  non-fast-forward merge is a conflict handed to the federation's
  :class:`ConflictStrategy`: :class:`LastWriterWins` (Lamport stamp
  order), :class:`TrustWeighted` (shared writer reputation, then stamp),
  or :class:`ManualQueue` (keep the current value, park the conflict for
  an operator; :meth:`PartialFederation.resolve_manual_queues` applies a
  deterministic resolution).  The automatic strategies are total orders
  over versions, so replicas provably converge once gossip quiesces —
  the invariant the chaos harness checks (see
  :func:`repro.faults.scenarios.run_chaos_partial`).

Observability: federation decisions (shares, withholdings, rejections)
and conflict resolutions count into the ambient metrics and emit
``federation_conflict`` trace events, all zero-cost when observation is
disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.errors import (
    GroupCommError,
    NetworkError,
    RemoteError,
    RpcTimeoutError,
)
from repro.gossip.antientropy import Stamp, Versioned
from repro.groupcomm.federated import FederationBase
from repro.groupcomm.messages import Message
from repro.net.node import Node
from repro.net.transport import Network
from repro.sim.rng import RngStreams

__all__ = [
    "ConflictRecord",
    "ConflictStrategy",
    "FederationHub",
    "FederationPeer",
    "FederationPolicy",
    "LastWriterWins",
    "ManualQueue",
    "PartialFederation",
    "PartialReplicaStore",
    "TrustWeighted",
    "make_strategy",
]

_SHARE_NONE = "none"
_SHARE_ALL = "all"
_SHARE_PUBLIC = "public"


class FederationPolicy:
    """How much a hub federates with one peer (per-peer setting)."""

    FULL = "full"          # share and accept everything
    FILTERED = "filtered"  # public entries always; private only if trusted
    NONE = "none"          # no exchange (but the peer stays registered)

    ALL = (FULL, FILTERED, NONE)


@dataclass
class FederationPeer:
    """One hub's view of one remote server."""

    peer_id: str
    name: str
    trust_level: float = 0.5
    policy: str = FederationPolicy.FULL
    active: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.trust_level <= 1.0:
            raise GroupCommError(
                f"trust level must be in [0, 1], got {self.trust_level}"
            )
        if self.policy not in FederationPolicy.ALL:
            raise GroupCommError(
                f"unknown federation policy {self.policy!r}; expected one"
                f" of {FederationPolicy.ALL}"
            )


@dataclass(frozen=True)
class ConflictRecord:
    """A divergent-replica pair parked for operator review."""

    key: str
    current: Versioned
    incoming: Versioned
    at: float


class ConflictStrategy:
    """Resolves two concurrent versions of one replicated register.

    ``resolve`` must be a pure function of its arguments: every hub that
    sees the same version pair must pick the same winner, or replicas
    cannot converge.  Returning ``None`` defers to an operator (the
    manual queue).
    """

    name = "abstract"

    def resolve(
        self,
        key: str,
        current: Versioned,
        incoming: Versioned,
        reputation: Callable[[str], float],
    ) -> Optional[Versioned]:
        raise NotImplementedError


class LastWriterWins(ConflictStrategy):
    """Highest Lamport stamp wins (counter, writer, value hash)."""

    name = "lww"

    def resolve(
        self,
        key: str,
        current: Versioned,
        incoming: Versioned,
        reputation: Callable[[str], float],
    ) -> Optional[Versioned]:
        return incoming if incoming.stamp > current.stamp else current


class TrustWeighted(ConflictStrategy):
    """Most-reputable writer wins; Lamport stamp breaks reputation ties.

    Reputation comes from the federation-wide table
    (:meth:`PartialFederation.set_reputation`) — shared by construction,
    so every hub resolves the same pair identically and replicas
    converge.  Per-peer ``trust_level`` values gate *propagation* and
    may differ per hub; they are deliberately not used here.
    """

    name = "trust_weighted"

    def resolve(
        self,
        key: str,
        current: Versioned,
        incoming: Versioned,
        reputation: Callable[[str], float],
    ) -> Optional[Versioned]:
        def rank(item: Versioned) -> Tuple[float, int, str, str]:
            return (reputation(item.writer),) + item.stamp

        return incoming if rank(incoming) > rank(current) else current


class ManualQueue(ConflictStrategy):
    """Never auto-resolve: keep the current value, park the conflict.

    Divergence persists until an operator applies
    :meth:`PartialFederation.resolve_manual_queues`, whose default
    chooser is deterministic — so replicas still converge once the
    operator acts on every hub.
    """

    name = "manual"

    def resolve(
        self,
        key: str,
        current: Versioned,
        incoming: Versioned,
        reputation: Callable[[str], float],
    ) -> Optional[Versioned]:
        return None


_STRATEGIES: Dict[str, Callable[[], ConflictStrategy]] = {
    "lww": LastWriterWins,
    "trust_weighted": TrustWeighted,
    "manual": ManualQueue,
}


def make_strategy(name: str) -> ConflictStrategy:
    """Instantiate a conflict strategy by registry name."""
    factory = _STRATEGIES.get(name)
    if factory is None:
        raise GroupCommError(
            f"unknown conflict strategy {name!r}; available:"
            f" {', '.join(sorted(_STRATEGIES))}"
        )
    return factory()


class PartialReplicaStore:
    """Key -> versioned register with causal fast-forward and pluggable
    conflict resolution.

    Every write records the stamp it replaced in ``value['prev']``; a
    merge whose incoming ``prev`` equals the current stamp is a causal
    fast-forward (adopted without consulting the strategy), and the
    mirror case is stale (ignored).  Anything else is a genuine
    divergence handed to the :class:`ConflictStrategy`.

    The store keeps two stamp views, key -> stamp: one over every entry
    and one over the public entries (``value['public']`` set).  Every
    change goes through one setter that updates both, so a stamp is
    computed when its item enters the store and a hub serves a
    policy-filtered digest by copying one view.
    """

    def __init__(self) -> None:
        self._items: Dict[str, Versioned] = {}
        self._stamps: Dict[str, Stamp] = {}
        self._public_stamps: Dict[str, Stamp] = {}
        self._clock = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def keys(self) -> List[str]:
        return list(self._items)

    def get(self, key: str) -> Optional[Any]:
        item = self._items.get(key)
        return item.value if item is not None else None

    def item(self, key: str) -> Versioned:
        return self._items[key]

    def stamps(self) -> Mapping[str, Stamp]:
        """The live view over every entry (read-only: copy it before
        handing it out)."""
        return self._stamps

    def public_stamps(self) -> Mapping[str, Stamp]:
        """The live view over public entries (read-only, like
        :meth:`stamps`)."""
        return self._public_stamps

    def digest(self) -> Dict[str, Stamp]:
        return dict(self._stamps)

    def _set(self, key: str, item: Versioned) -> None:
        self._items[key] = item
        stamp = self._stamps[key] = item.stamp
        if isinstance(item.value, dict) and item.value.get("public", False):
            self._public_stamps[key] = stamp
        else:
            self._public_stamps.pop(key, None)

    def write(self, key: str, value: Dict[str, Any], writer: str) -> Versioned:
        """A local write: bumps the clock, records the replaced stamp."""
        current = self._stamps.get(key)
        value = dict(value)
        value["prev"] = list(current) if current is not None else None
        self._clock += 1
        item = Versioned(value, self._clock, writer)
        self._set(key, item)
        return item

    def adopt(self, key: str, item: Versioned) -> None:
        """Install ``item`` verbatim (conflict winner / fast-forward)."""
        self._clock = max(self._clock, item.counter)
        self._set(key, item)

    def merge(
        self,
        key: str,
        incoming: Versioned,
        strategy: ConflictStrategy,
        reputation: Callable[[str], float],
    ) -> str:
        """Merge one replicated item; returns the outcome kind.

        Outcomes: ``adopted`` (new key), ``duplicate`` (same stamp),
        ``fast_forward`` (causal descendant adopted), ``stale``
        (causal ancestor ignored), ``resolved_adopted`` /
        ``resolved_kept`` (strategy decided), ``queued`` (strategy
        deferred to the manual queue; current value kept).
        """
        self._clock = max(self._clock, incoming.counter)
        current = self._items.get(key)
        if current is None:
            self._set(key, incoming)
            return "adopted"
        if incoming.stamp == current.stamp:
            return "duplicate"
        if _prev_stamp(incoming) == current.stamp:
            self._set(key, incoming)
            return "fast_forward"
        if _prev_stamp(current) == incoming.stamp:
            return "stale"
        winner = strategy.resolve(key, current, incoming, reputation)
        if winner is None:
            return "queued"
        if winner.stamp == current.stamp:
            return "resolved_kept"
        self._set(key, winner)
        return "resolved_adopted"


def _prev_stamp(item: Versioned) -> Optional[Stamp]:
    prev = item.value.get("prev") if isinstance(item.value, dict) else None
    if prev is None:
        return None
    counter, writer, value_hash = prev
    return (int(counter), str(writer), str(value_hash))


class FederationHub:
    """One server's federation state: peers, replicas, conflict queue."""

    def __init__(self, federation: "PartialFederation", server_id: str):
        self.federation = federation
        self.server_id = server_id
        self.peers: Dict[str, FederationPeer] = {}
        self.store = PartialReplicaStore()
        self.conflict_queue: List[ConflictRecord] = []
        self._queued_stamps: Set[Tuple[str, Stamp]] = set()
        self.conflicts_detected = 0
        self.conflicts_resolved = 0
        self.rounds = 0
        self.items_transferred = 0
        # key -> (stored item, the Message read from it): a reader's
        # message is rebuilt, and its id hashed, only when the key's
        # stored item changes.
        self._messages: Dict[str, Tuple[Versioned, Message]] = {}

    # -- peer management --------------------------------------------------

    def register_peer(
        self,
        peer_id: str,
        name: Optional[str] = None,
        trust_level: float = 0.5,
        policy: str = FederationPolicy.FULL,
    ) -> FederationPeer:
        if peer_id == self.server_id:
            raise GroupCommError(
                f"hub {self.server_id!r} cannot register itself as a peer"
            )
        if peer_id in self.peers:
            raise GroupCommError(
                f"peer {peer_id!r} already registered on {self.server_id!r}"
            )
        peer = FederationPeer(
            peer_id=peer_id, name=name or peer_id,
            trust_level=trust_level, policy=policy,
        )
        self.peers[peer_id] = peer
        return peer

    def get_peer(self, peer_id: str) -> FederationPeer:
        peer = self.peers.get(peer_id)
        if peer is None:
            raise GroupCommError(
                f"no peer {peer_id!r} registered on {self.server_id!r}"
            )
        return peer

    def deactivate_peer(self, peer_id: str) -> bool:
        """Defederate: stop all exchange but keep the record.  Returns
        False when the peer was never registered."""
        peer = self.peers.get(peer_id)
        if peer is None:
            return False
        peer.active = False
        return True

    def reactivate_peer(self, peer_id: str) -> None:
        self.get_peer(peer_id).active = True

    def set_trust(self, peer_id: str, trust_level: float) -> None:
        if not 0.0 <= trust_level <= 1.0:
            raise GroupCommError(
                f"trust level must be in [0, 1], got {trust_level}"
            )
        self.get_peer(peer_id).trust_level = trust_level

    def set_policy(self, peer_id: str, policy: str) -> None:
        if policy not in FederationPolicy.ALL:
            raise GroupCommError(
                f"unknown federation policy {policy!r}; expected one of"
                f" {FederationPolicy.ALL}"
            )
        self.get_peer(peer_id).policy = policy

    def active_peers(self) -> List[FederationPeer]:
        """Active, federating peers in deterministic (sorted-id) order."""
        return [
            self.peers[peer_id]
            for peer_id in sorted(self.peers)
            if self.peers[peer_id].active
            and self.peers[peer_id].policy != FederationPolicy.NONE
        ]

    def federates_with(self, peer_id: str) -> bool:
        peer = self.peers.get(peer_id)
        return (
            peer is not None
            and peer.active
            and peer.policy != FederationPolicy.NONE
        )

    # -- policy gates ------------------------------------------------------

    def _share_scope(self, peer: FederationPeer) -> str:
        """Which entries this hub shares with ``peer``: ``"none"``,
        ``"all"`` or ``"public"`` — the one predicate behind both
        :meth:`shares_with` and :meth:`digest_view`."""
        if not peer.active or peer.policy == FederationPolicy.NONE:
            return _SHARE_NONE
        # FILTERED: public entries flow freely; private entries only to
        # peers trusted at or above the federation threshold.
        if (peer.policy == FederationPolicy.FULL
                or peer.trust_level >= self.federation.trust_threshold):
            return _SHARE_ALL
        return _SHARE_PUBLIC

    def shares_with(self, peer: FederationPeer, value: Dict[str, Any]) -> bool:
        """Would this hub send ``value`` to ``peer``?"""
        scope = self._share_scope(peer)
        if scope == _SHARE_PUBLIC:
            return bool(value.get("public", False))
        return scope == _SHARE_ALL

    def digest_view(self, peer: FederationPeer) -> Mapping[str, Stamp]:
        """Key -> stamp for every entry :meth:`shares_with` admits for
        ``peer``: one of the store's live views (read-only)."""
        scope = self._share_scope(peer)
        if scope == _SHARE_ALL:
            return self.store.stamps()
        if scope == _SHARE_PUBLIC:
            return self.store.public_stamps()
        return {}

    def message(self, key: str) -> Message:
        """The stored message under ``key``, rebuilt only when the
        stored item changed since the last read.  Its id is hashed from
        the stored content, never taken from the key, which a peer
        chose."""
        item = self.store.item(key)
        cached = self._messages.get(key)
        if cached is not None and cached[0] is item:
            return cached[1]
        raw = item.value
        message = Message(
            author=raw["author"], room=raw["room"], body=raw["body"],
            sent_at=raw["sent_at"], encrypted=raw["encrypted"],
            seq=raw["seq"],
        )
        self._messages[key] = (item, message)
        return message

    def accepts_from(self, sender: str, value: Dict[str, Any]) -> bool:
        """Would this hub adopt ``value`` arriving from ``sender``?
        The mirror of :meth:`shares_with`, applied on receive."""
        peer = self.peers.get(sender)
        if peer is None:
            return False
        return self.shares_with(peer, value)

    # -- merging -----------------------------------------------------------

    def merge(self, key: str, incoming: Versioned) -> str:
        federation = self.federation
        outcome = self.store.merge(
            key, incoming, federation.strategy, federation.reputation
        )
        if outcome in ("resolved_adopted", "resolved_kept", "queued"):
            self.conflicts_detected += 1
            federation._record_conflict(self.server_id, key, outcome)
        if outcome in ("resolved_adopted", "resolved_kept"):
            self.conflicts_resolved += 1
        elif outcome == "queued":
            mark = (key, incoming.stamp)
            if mark not in self._queued_stamps:
                self._queued_stamps.add(mark)
                self.conflict_queue.append(ConflictRecord(
                    key=key,
                    current=self.store.item(key),
                    incoming=incoming,
                    at=federation.network.sim.now,
                ))
        return outcome


class PartialFederation(FederationBase):
    """Trust-gated partial federation with pluggable conflict handling.

    Parameters
    ----------
    network / server_ids / streams:
        The simulation fabric; one :class:`FederationHub` per server.
    gossip_interval:
        Mean seconds between one hub's anti-entropy rounds.
    conflict_strategy:
        A :class:`ConflictStrategy` instance or registry name
        (``lww`` / ``trust_weighted`` / ``manual``).
    default_policy / default_trust:
        Applied to every hub pair when ``auto_peer`` (the default) wires
        the full peer mesh; tune per pair afterwards with
        :meth:`set_policy` / :meth:`set_trust`.
    trust_threshold:
        The ``filtered``-policy gate: private entries reach only peers
        whose trust level is at or above this value.
    """

    kind = "federated_partial"

    def __init__(
        self,
        network: Network,
        server_ids: List[str],
        streams: RngStreams,
        gossip_interval: float = 5.0,
        conflict_strategy: Any = "lww",
        default_policy: str = FederationPolicy.FULL,
        default_trust: float = 0.5,
        trust_threshold: float = 0.75,
        auto_peer: bool = True,
        rpc_timeout: float = 5.0,
        **kwargs: Any,
    ):
        super().__init__(network, server_ids, **kwargs)
        if gossip_interval <= 0:
            raise GroupCommError(
                f"gossip interval must be positive: {gossip_interval}"
            )
        if isinstance(conflict_strategy, str):
            conflict_strategy = make_strategy(conflict_strategy)
        self.strategy: ConflictStrategy = conflict_strategy
        self.gossip_interval = gossip_interval
        self.trust_threshold = trust_threshold
        self.rpc_timeout = rpc_timeout
        self.default_trust = default_trust
        self._reputations: Dict[str, float] = {}
        self.hubs: Dict[str, FederationHub] = {
            server_id: FederationHub(self, server_id)
            for server_id in self.server_ids
        }
        if auto_peer:
            for server_id in self.server_ids:
                for other in self.server_ids:
                    if other != server_id:
                        self.hubs[server_id].register_peer(
                            other, trust_level=default_trust,
                            policy=default_policy,
                        )
        self._running = False
        self._rngs = {
            server_id: streams.stream(f"groupcomm.partial.{server_id}")
            for server_id in self.server_ids
        }
        for server_id in self.server_ids:
            node = network.node(server_id)
            node.register_handler("pfed.post", self._make_post_handler(server_id))
            node.register_handler("pfed.fetch", self._make_fetch_handler(server_id))
            node.register_handler("pfed.state_set", self._make_state_set_handler(server_id))
            node.register_handler("pfed.state_get", self._make_state_get_handler(server_id))
            node.register_handler("pfed.push", self._make_push_handler(server_id))
            node.register_handler("pfed.digest", self._make_digest_handler(server_id))
            node.register_handler("pfed.pull", self._make_pull_handler(server_id))
            node.register_handler("pfed.push_items", self._make_push_items_handler(server_id))

    # -- configuration -----------------------------------------------------

    def hub(self, server_id: str) -> FederationHub:
        hub = self.hubs.get(server_id)
        if hub is None:
            raise GroupCommError(f"unknown server {server_id!r}")
        return hub

    def set_policy(self, server_id: str, peer_id: str, policy: str) -> None:
        """Set one hub's federation policy toward one peer."""
        self.hub(server_id).set_policy(peer_id, policy)

    def set_trust(self, server_id: str, peer_id: str, trust: float) -> None:
        """Set one hub's trust level for one peer (gates propagation)."""
        self.hub(server_id).set_trust(peer_id, trust)

    def deactivate_peer(self, server_id: str, peer_id: str) -> bool:
        return self.hub(server_id).deactivate_peer(peer_id)

    def set_reputation(self, server_id: str, reputation: float) -> None:
        """Set a server's federation-wide reputation (shared by every
        hub; the :class:`TrustWeighted` resolution input)."""
        if not 0.0 <= reputation <= 1.0:
            raise GroupCommError(
                f"reputation must be in [0, 1], got {reputation}"
            )
        self._reputations[server_id] = reputation

    def reputation(self, server_id: str) -> float:
        return self._reputations.get(server_id, self.default_trust)

    # -- handlers ----------------------------------------------------------

    def _make_post_handler(self, server_id: str) -> Callable:
        def handler(node: Node, payload: dict, sender: str) -> dict:
            user, room_id, body = payload["user"], payload["room"], payload["body"]
            encrypted = payload.get("encrypted", False)
            if self.home_of(user) != server_id:
                raise GroupCommError(f"{user!r} is not homed on {server_id!r}")
            room = self.room(room_id)
            room.require_member(user)
            hub = self.hubs[server_id]
            message = Message(
                author=user, room=room_id, body=body,
                sent_at=self.network.sim.now, encrypted=encrypted,
                seq=len(hub.store),
            )
            value = {
                "entry": "message",
                "author": message.author,
                "room": message.room,
                "body": message.body,
                "sent_at": message.sent_at,
                "encrypted": message.encrypted,
                "seq": message.seq,
                "public": room.public,
                "origin": server_id,
                "written_at": self.network.sim.now,
            }
            key = f"msg/{room_id}/{message.msg_id}"
            item = hub.store.write(key, value, server_id)
            self._eager_push(server_id, key, item)
            return {"msg_id": message.msg_id}

        return handler

    def _make_state_set_handler(self, server_id: str) -> Callable:
        def handler(node: Node, payload: dict, sender: str) -> dict:
            user, room_id = payload["user"], payload["room"]
            field_name, field_value = payload["field"], payload["value"]
            if self.home_of(user) != server_id:
                raise GroupCommError(f"{user!r} is not homed on {server_id!r}")
            room = self.room(room_id)
            room.require_member(user)
            hub = self.hubs[server_id]
            value = {
                "entry": "state",
                "room": room_id,
                "field": field_name,
                "value": field_value,
                "author": user,
                "public": room.public,
                "origin": server_id,
                "written_at": self.network.sim.now,
            }
            key = f"state/{room_id}/{field_name}"
            item = hub.store.write(key, value, server_id)
            self._eager_push(server_id, key, item)
            return {"stamp": list(item.stamp)}

        return handler

    def _make_state_get_handler(self, server_id: str) -> Callable:
        def handler(node: Node, payload: dict, sender: str) -> Any:
            user, room_id = payload["user"], payload["room"]
            field_name = payload["field"]
            self.room(room_id).require_member(user)
            value = self.hubs[server_id].store.get(
                f"state/{room_id}/{field_name}"
            )
            return None if value is None else value["value"]

        return handler

    def _make_fetch_handler(self, server_id: str) -> Callable:
        def handler(node: Node, payload: dict, sender: str) -> List[Message]:
            user, room_id = payload["user"], payload["room"]
            self.room(room_id).require_member(user)
            return self._room_messages(server_id, room_id)

        return handler

    def _make_push_handler(self, server_id: str) -> Callable:
        def handler(node: Node, payload: dict, sender: str) -> None:
            key, raw = payload["key"], payload["item"]
            hub = self.hubs[server_id]
            if not hub.accepts_from(sender, raw["value"]):
                self._count("fed.push_rejected")
                return
            hub.merge(key, _versioned_from_wire(raw))

        return handler

    def _make_digest_handler(self, server_id: str) -> Callable:
        def handler(node: Node, payload: dict, sender: str) -> Dict[str, Stamp]:
            # Only advertise what policy would let this hub share with
            # the requesting peer — a `none`/untrusted peer learns
            # nothing from digests (the metadata-leak gate).  The reply
            # is a copy, so the requester cannot reach the live view.
            hub = self.hubs[server_id]
            peer = hub.peers.get(sender)
            if peer is None:
                return {}
            return dict(hub.digest_view(peer))

        return handler

    def _make_pull_handler(self, server_id: str) -> Callable:
        def handler(node: Node, payload: dict, sender: str) -> Dict[str, dict]:
            hub = self.hubs[server_id]
            peer = hub.peers.get(sender)
            if peer is None or not hub.federates_with(sender):
                return {}
            out = {}
            for key in payload["keys"]:
                if key in hub.store:
                    item = hub.store.item(key)
                    if hub.shares_with(peer, item.value):
                        out[key] = _versioned_to_wire(item)
            return out

        return handler

    def _make_push_items_handler(self, server_id: str) -> Callable:
        def handler(node: Node, payload: dict, sender: str) -> int:
            hub = self.hubs[server_id]
            merged = 0
            for key in sorted(payload["items"]):
                raw = payload["items"][key]
                if not hub.accepts_from(sender, raw["value"]):
                    self._count("fed.push_rejected")
                    continue
                outcome = hub.merge(key, _versioned_from_wire(raw))
                if outcome in ("adopted", "fast_forward", "resolved_adopted"):
                    merged += 1
            return merged

        return handler

    # -- propagation -------------------------------------------------------

    def _eager_push(self, server_id: str, key: str, item: Versioned) -> None:
        """Push a fresh write to every policy-admitted peer, in sorted
        peer order (deterministic fan-out), fire-and-forget."""
        hub = self.hubs[server_id]
        wire = _versioned_to_wire(item)
        for peer in hub.active_peers():
            if hub.shares_with(peer, item.value):
                self._count("fed.push_shared")
                self.network.send(
                    server_id, peer.peer_id, "pfed.push",
                    {"key": key, "item": wire},
                )
            else:
                self._count("fed.push_withheld")

    def start_federation(self) -> None:
        """Begin every hub's anti-entropy reconciliation loop."""
        if self._running:
            return
        self._running = True
        for server_id in self.server_ids:
            self.network.sim.spawn(
                self._loop(server_id), name=f"pfed:{server_id}"
            )

    def stop_federation(self) -> None:
        self._running = False

    def _loop(self, server_id: str) -> Generator:
        rng = self._rngs[server_id]
        hub = self.hubs[server_id]
        interval = self.gossip_interval
        while self._running:
            yield rng.uniform(0.5 * interval, 1.5 * interval)
            if not self._running:
                return
            if not self.network.node(server_id).online:
                continue
            candidates = [peer.peer_id for peer in hub.active_peers()]
            if not candidates:
                continue
            peer_id = rng.choice(candidates)
            yield from self.reconcile_with(server_id, peer_id)

    def reconcile_with(self, server_id: str, peer_id: str) -> Generator:
        """One policy-filtered pull+push exchange (yieldable)."""
        hub = self.hubs[server_id]
        peer = hub.get_peer(peer_id)
        try:
            their_digest = yield from self.network.rpc(
                server_id, peer_id, "pfed.digest", {},
                timeout=self.rpc_timeout,
            )
        except (RpcTimeoutError, RemoteError, NetworkError):
            return False
        view = hub.digest_view(peer)
        if their_digest == view:
            # Equal digests: nothing to pull and nothing to push.
            hub.rounds += 1
            self._count("fed.gossip_rounds")
            return True
        stamps = hub.store.stamps()
        to_pull = [
            key for key, stamp in their_digest.items()
            if stamps.get(key) != tuple(stamp)
        ]
        # The view holds exactly the entries this peer may see.
        to_push = {
            key: _versioned_to_wire(hub.store.item(key))
            for key, stamp in view.items()
            if key not in their_digest or tuple(their_digest[key]) != stamp
        }
        try:
            if to_pull:
                items = yield from self.network.rpc(
                    server_id, peer_id, "pfed.pull", {"keys": sorted(to_pull)},
                    timeout=self.rpc_timeout,
                )
                for key in sorted(items):
                    raw = items[key]
                    if not hub.accepts_from(peer_id, raw["value"]):
                        self._count("fed.push_rejected")
                        continue
                    outcome = hub.merge(key, _versioned_from_wire(raw))
                    if outcome in ("adopted", "fast_forward",
                                   "resolved_adopted"):
                        hub.items_transferred += 1
            if to_push:
                merged = yield from self.network.rpc(
                    server_id, peer_id, "pfed.push_items",
                    {"items": to_push}, timeout=self.rpc_timeout,
                )
                hub.items_transferred += merged
        except (RpcTimeoutError, RemoteError, NetworkError):
            return False
        hub.rounds += 1
        self._count("fed.gossip_rounds")
        return True

    # -- client operations -------------------------------------------------

    def post(
        self, user: str, room_id: str, body: Any, encrypted: bool = False
    ) -> Generator:
        """Post via the user's home hub; the home stores, pushes, and
        gossips the message onward as policy allows."""
        home = self.home_of(user)
        try:
            answer = yield from self.network.rpc(
                user, home, "pfed.post",
                {"user": user, "room": room_id, "body": body,
                 "encrypted": encrypted},
            )
        except RemoteError as exc:
            raise exc.remote_exception
        return answer["msg_id"]

    def set_room_state(
        self, user: str, room_id: str, field: str, value: Any
    ) -> Generator:
        """Write a mutable room register (topic, rules, ...) — the entry
        class that diverges under partitions and exercises the
        federation's conflict strategy."""
        home = self.home_of(user)
        try:
            answer = yield from self.network.rpc(
                user, home, "pfed.state_set",
                {"user": user, "room": room_id, "field": field,
                 "value": value},
            )
        except RemoteError as exc:
            raise exc.remote_exception
        return tuple(answer["stamp"])

    def get_room_state(
        self, user: str, room_id: str, field: str
    ) -> Generator:
        home = self.home_of(user)
        try:
            value = yield from self.network.rpc(
                user, home, "pfed.state_get",
                {"user": user, "room": room_id, "field": field},
            )
        except RemoteError as exc:
            raise exc.remote_exception
        return value

    def fetch(self, user: str, room_id: str) -> Generator:
        """Read from the home hub, failing over — in deterministic
        sorted order — to servers the home actively federates with.

        With every target timing out the *last* timeout is re-raised;
        a ``none``-policy federation has no failover targets, so a dead
        home is a total outage (the single-home behaviour recovered)."""
        home = self.home_of(user)
        targets = [home] + [
            peer.peer_id for peer in self.hubs[home].active_peers()
        ]
        last_error: Optional[Exception] = None
        for target in targets:
            try:
                messages = yield from self.network.rpc(
                    user, target, "pfed.fetch",
                    {"user": user, "room": room_id},
                )
                return messages
            except RemoteError as exc:
                raise exc.remote_exception
            except RpcTimeoutError as exc:
                last_error = exc
                continue
        raise last_error if last_error else GroupCommError("no servers")

    # -- operator & audit surface -----------------------------------------

    def pending_conflicts(self, server_id: str) -> List[ConflictRecord]:
        return list(self.hub(server_id).conflict_queue)

    def resolve_manual_queues(
        self,
        chooser: Optional[
            Callable[[ConflictRecord], Versioned]
        ] = None,
    ) -> int:
        """Drain every hub's manual conflict queue.

        The default chooser is deterministic last-writer-wins over the
        parked pair, so every hub resolves the same divergence to the
        same winner and replicas converge; pass a custom ``chooser``
        to model a human moderator (it must be deterministic across
        hubs for convergence to hold).
        """
        resolved = 0
        for server_id in sorted(self.hubs):
            hub = self.hubs[server_id]
            queue, hub.conflict_queue = hub.conflict_queue, []
            for record in queue:
                # Resolve against the *live* store value: the recorded
                # current may have been superseded by later writes, and
                # adopting against a stale snapshot could roll them back.
                if record.key in hub.store:
                    live = ConflictRecord(
                        key=record.key,
                        current=hub.store.item(record.key),
                        incoming=record.incoming,
                        at=record.at,
                    )
                else:
                    live = record
                if live.current.stamp == live.incoming.stamp:
                    winner = live.current  # already settled by gossip
                else:
                    winner = (
                        chooser(live) if chooser is not None
                        else self._default_choice(live)
                    )
                if record.key not in hub.store or (
                    winner.stamp != hub.store.item(record.key).stamp
                ):
                    hub.store.adopt(record.key, winner)
                hub.conflicts_resolved += 1
                resolved += 1
                self._record_conflict(server_id, record.key, "manual_resolved")
        return resolved

    @staticmethod
    def _default_choice(record: ConflictRecord) -> Versioned:
        return (
            record.incoming
            if record.incoming.stamp > record.current.stamp
            else record.current
        )

    def _room_messages(self, server_id: str, room_id: str) -> List[Message]:
        hub = self.hubs[server_id]
        prefix = f"msg/{room_id}/"
        messages = [
            hub.message(key) for key in hub.store.keys()
            if key.startswith(prefix)
        ]
        return sorted(messages, key=lambda m: (m.sent_at, m.msg_id))

    def server_metadata_view(self, server_id: str) -> List[Dict[str, Any]]:
        """What one hub's operator observes: metadata of every message
        replica it holds, bodies unless end-to-end encrypted."""
        out = []
        store = self.hubs[server_id].store
        for key in sorted(store.keys()):
            if not key.startswith("msg/"):
                continue
            raw = store.get(key)
            entry: Dict[str, Any] = {
                "author": raw["author"],
                "room": raw["room"],
                "sent_at": raw["sent_at"],
            }
            if not raw["encrypted"]:
                entry["body"] = raw["body"]
            out.append(entry)
        return out

    def divergence(self, online_only: bool = False) -> Dict[str, int]:
        """Keys on which hubs that hold a replica disagree.

        Returns ``{key: distinct_value_count}`` for every key where at
        least two (optionally online) hubs hold different versions —
        zero entries means the federation has converged on everything
        it shares.  Missing replicas are not divergence: a ``filtered``
        peer legitimately never receives private entries.
        """
        out: Dict[str, int] = {}
        holders: Dict[str, Set[Stamp]] = {}
        for server_id in sorted(self.hubs):
            if online_only and not self.network.node(server_id).online:
                continue
            store = self.hubs[server_id].store
            for key in store.keys():
                holders.setdefault(key, set()).add(store.item(key).stamp)
        for key in sorted(holders):
            if len(holders[key]) > 1:
                out[key] = len(holders[key])
        return out

    # -- observability -----------------------------------------------------

    def _count(self, counter: str) -> None:
        metrics = self.network.sim.metrics
        if metrics is not None:
            metrics.inc(counter)

    def _record_conflict(self, server_id: str, key: str, outcome: str) -> None:
        self._count(f"fed.conflict_{outcome}")
        tracer = self.network.sim.tracer
        if tracer is not None:
            tracer.emit(
                "federation_conflict", t=self.network.sim.now,
                server=server_id, key=key, outcome=outcome,
                strategy=self.strategy.name,
            )


def _versioned_to_wire(item: Versioned) -> Dict[str, Any]:
    return {
        "value": item.value,
        "counter": item.counter,
        "writer": item.writer,
    }


def _versioned_from_wire(raw: Dict[str, Any]) -> Versioned:
    return Versioned(raw["value"], raw["counter"], raw["writer"])
