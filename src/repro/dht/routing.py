"""Kademlia routing table: 160 k-buckets with least-recently-seen eviction.

Buckets keep the oldest live contacts (Kademlia's anti-churn bias: nodes
that have been up longest are most likely to stay up), so a full bucket
only admits a new contact when a stale old one is explicitly evicted.

Ids are validated once, when a contact is admitted (:func:`bucket_index`
checks it); :meth:`RoutingTable.closest` validates its target once per
call and then ranks by raw XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dht.nodeid import ID_BITS, _check_id, bucket_index
from repro.errors import DHTError

__all__ = ["Contact", "RoutingTable"]


@dataclass(frozen=True)
class Contact:
    """A known peer: its network name and DHT id."""

    name: str
    dht_id: int


class RoutingTable:
    """Per-node routing state."""

    def __init__(self, own_id: int, k: int = 20):
        if k < 1:
            raise DHTError(f"bucket size k must be >= 1, got {k}")
        self.own_id = own_id
        self.k = k
        # bucket[i] maps name -> contact for contacts whose distance has
        # highest bit i, ordered oldest-first (Kademlia keeps long-lived
        # nodes); a dict makes refresh, evict and the head O(1).
        self._buckets: List[Dict[str, Contact]] = [{} for _ in range(ID_BITS)]
        self._by_name: Dict[str, Contact] = {}

    def __len__(self) -> int:
        return len(self._by_name)

    def contacts(self) -> List[Contact]:
        return list(self._by_name.values())

    def knows(self, name: str) -> bool:
        return name in self._by_name

    def observe(self, contact: Contact) -> Optional[Contact]:
        """Record fresh evidence that ``contact`` is alive.

        Returns the least-recently-seen occupant when the bucket is full
        (the caller should ping it and call :meth:`evict` if dead);
        returns None when the contact was admitted or refreshed.  A known
        name seen with a new id drops its old contact and is admitted
        afresh.
        """
        if contact.dht_id == self.own_id:
            return None  # never track self
        index = bucket_index(self.own_id, contact.dht_id)
        bucket = self._buckets[index]
        existing = self._by_name.get(contact.name)
        if existing is not None:
            if existing.dht_id == contact.dht_id:
                # Move to the tail: most recently seen.
                del bucket[contact.name]
                bucket[contact.name] = contact
                self._by_name[contact.name] = contact
                return None
            self.evict(contact.name)
        if len(bucket) < self.k:
            bucket[contact.name] = contact
            self._by_name[contact.name] = contact
            return None
        return next(iter(bucket.values()))  # full: candidate for liveness check

    def evict(self, name: str) -> bool:
        """Drop a dead contact; returns True if it was present."""
        contact = self._by_name.pop(name, None)
        if contact is None:
            return False
        index = bucket_index(self.own_id, contact.dht_id)
        del self._buckets[index][name]
        return True

    def closest(self, target_id: int, count: Optional[int] = None) -> List[Contact]:
        """The ``count`` known contacts closest to ``target_id`` by XOR."""
        _check_id(target_id)
        limit = count if count is not None else self.k
        return sorted(
            self._by_name.values(), key=lambda c: c.dht_id ^ target_id
        )[:limit]

    def bucket_sizes(self) -> List[int]:
        """Occupancy per bucket (diagnostics)."""
        return [len(b) for b in self._buckets]
