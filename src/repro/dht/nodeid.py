"""Kademlia node identifiers and the XOR metric."""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.hashing import sha256
from repro.errors import DHTError

__all__ = ["ID_BITS", "node_id_for", "key_for", "xor_distance", "bucket_index"]

ID_BITS = 160
_ID_MASK = (1 << ID_BITS) - 1


@lru_cache(maxsize=1 << 16)
def node_id_for(name: str) -> int:
    """Derive a 160-bit Kademlia id from a node name (SHA-256 truncated).

    Pure, so memoized: every incoming DHT RPC derives its sender's id.
    The cache is bounded so a long process naming many nodes cannot
    grow it without limit.
    """
    digest = sha256(f"dht-node:{name}".encode("utf-8"))
    return int.from_bytes(digest, "big") & _ID_MASK


def key_for(key: str) -> int:
    """Derive the 160-bit DHT key for an application-level key string."""
    digest = sha256(f"dht-key:{key}".encode("utf-8"))
    return int.from_bytes(digest, "big") & _ID_MASK


def xor_distance(a: int, b: int) -> int:
    """Kademlia's symmetric, unidirectional distance metric."""
    _check_id(a)
    _check_id(b)
    return a ^ b


def bucket_index(own_id: int, other_id: int) -> int:
    """Index of the k-bucket for ``other_id``: position of the highest
    differing bit (0 = closest possible non-equal, 159 = farthest half)."""
    distance = xor_distance(own_id, other_id)
    if distance == 0:
        raise DHTError("a node does not bucket itself")
    return distance.bit_length() - 1


def _check_id(value: int) -> None:
    if not isinstance(value, int) or not 0 <= value <= _ID_MASK:
        raise DHTError(f"not a valid {ID_BITS}-bit id: {value!r}")
