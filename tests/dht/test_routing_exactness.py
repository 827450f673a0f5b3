"""Exactness of the routing table and lookups against the list-based form.

The table keeps each k-bucket as an insertion-ordered dict and ranks by
raw XOR with the target validated once per call.  These tests hold it to
the straightforward list-based table ranked through ``xor_distance``
(copied below as the oracle), check that invalid ids are still refused,
and pin a seeded put/get run lookup by lookup.
"""

import hashlib
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import (
    ID_BITS,
    Contact,
    DhtConfig,
    KademliaNode,
    RoutingTable,
    bucket_index,
    build_overlay,
    xor_distance,
)
from repro.errors import DHTError
from repro.net import ConstantLatency, Network
from repro.sim import RngStreams, Simulator


class OracleTable:
    """List-based buckets, every comparison through ``xor_distance``."""

    def __init__(self, own_id: int, k: int = 20):
        self.own_id = own_id
        self.k = k
        self._buckets: List[List[Contact]] = [[] for _ in range(ID_BITS)]
        self._by_name: Dict[str, Contact] = {}

    def observe(self, contact: Contact) -> Optional[Contact]:
        if contact.dht_id == self.own_id:
            return None
        index = bucket_index(self.own_id, contact.dht_id)
        bucket = self._buckets[index]
        existing = self._by_name.get(contact.name)
        if existing is not None:
            bucket.remove(existing)
            bucket.append(contact)
            self._by_name[contact.name] = contact
            return None
        if len(bucket) < self.k:
            bucket.append(contact)
            self._by_name[contact.name] = contact
            return None
        return bucket[0]

    def evict(self, name: str) -> bool:
        contact = self._by_name.pop(name, None)
        if contact is None:
            return False
        index = bucket_index(self.own_id, contact.dht_id)
        self._buckets[index].remove(contact)
        return True

    def closest(self, target_id: int, count: Optional[int] = None) -> List[Contact]:
        limit = count if count is not None else self.k
        return sorted(
            self._by_name.values(),
            key=lambda c: xor_distance(c.dht_id, target_id),
        )[:limit]

    def contacts(self) -> List[Contact]:
        return list(self._by_name.values())

    def bucket_sizes(self) -> List[int]:
        return [len(b) for b in self._buckets]


# Ids drawn from a handful of values near the owner so buckets fill, ties
# (two names sharing an id) occur, and evictions are exercised.
_OWN_ID = 1 << 12
_ids = st.sampled_from([
    0, 1, 2, 3, 5, 8, 13, 1 << 12 | 1, 1 << 12 | 2, 1 << 13, 1 << 13 | 7,
    (1 << 159) + 3, (1 << 159) + 4, (1 << 160) - 1, _OWN_ID,
])
_names = st.sampled_from([f"p{i}" for i in range(12)])
_targets = st.one_of(_ids, st.integers(min_value=0, max_value=(1 << ID_BITS) - 1))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), _names),
        st.tuples(st.just("evict"), _names),
        st.tuples(st.just("closest"), _targets, st.integers(1, 14)),
    ),
    max_size=60,
)


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 4),
        name_ids=st.lists(_ids, min_size=12, max_size=12),
        ops=_ops,
    )
    def test_matches_list_based_table(self, k, name_ids, ops):
        # Each name keeps one id; different names may share one (ties).
        id_of = {f"p{i}": dht_id for i, dht_id in enumerate(name_ids)}
        table, oracle = RoutingTable(_OWN_ID, k=k), OracleTable(_OWN_ID, k=k)
        for op in ops:
            if op[0] == "observe":
                contact = Contact(op[1], id_of[op[1]])
                assert table.observe(contact) == oracle.observe(contact)
            elif op[0] == "evict":
                assert table.evict(op[1]) == oracle.evict(op[1])
            else:
                _, target, count = op
                assert table.closest(target, count) == oracle.closest(target, count)
                assert table.closest(target) == oracle.closest(target)
            assert table.contacts() == oracle.contacts()
            assert table.bucket_sizes() == oracle.bucket_sizes()
            assert len(table) == len(oracle.contacts())


class TestRekeyedName:
    def test_known_name_with_new_id_moves_buckets(self):
        table = RoutingTable(0)
        table.observe(Contact("a", 1 << 5))
        assert table.observe(Contact("a", 1 << 100)) is None
        assert table.contacts() == [Contact("a", 1 << 100)]
        sizes = table.bucket_sizes()
        assert sizes[5] == 0 and sizes[100] == 1
        assert table.evict("a")
        assert sum(table.bucket_sizes()) == 0

    def test_rekeyed_name_into_full_bucket_is_a_candidate(self):
        table = RoutingTable(0, k=1)
        table.observe(Contact("b", 1 << 100))
        table.observe(Contact("a", 1 << 5))
        # The new id's bucket is full: the old id is gone and the bucket's
        # oldest occupant is offered for a liveness check.
        assert table.observe(Contact("a", (1 << 100) + 1)) == Contact("b", 1 << 100)
        assert not table.knows("a")
        assert table.bucket_sizes()[5] == 0

    def test_invalid_new_id_leaves_old_contact(self):
        table = RoutingTable(0)
        table.observe(Contact("a", 1 << 5))
        with pytest.raises(DHTError):
            table.observe(Contact("a", 1 << ID_BITS))
        assert table.contacts() == [Contact("a", 1 << 5)]


@pytest.mark.parametrize("target", [-1, 1 << ID_BITS, "ab", 1.5, None])
class TestInvalidIds:
    def test_closest_rejects_target(self, target):
        table = RoutingTable(7)
        table.observe(Contact("x", 9))
        with pytest.raises(DHTError):
            table.closest(target)
        with pytest.raises(DHTError):
            RoutingTable(7).closest(target)  # even with no contacts

    def test_observe_rejects_contact_id(self, target):
        with pytest.raises(DHTError):
            RoutingTable(7).observe(Contact("x", target))

    def test_lookup_rejects_target(self, target):
        sim, network = _network(seed=5)
        overlay = build_overlay(network, ["a", "b", "c"], DhtConfig(k=4))

        def scenario():
            try:
                yield from overlay["a"].lookup(target)
            except DHTError:
                return "rejected"

        assert sim.run_process(scenario()) == "rejected"

    def test_reply_contact_with_invalid_id_rejected(self, target):
        sim, network = _network(seed=6)
        overlay = build_overlay(network, ["a", "b", "c"], DhtConfig(k=4))
        server = overlay["b"]

        def forged(node, payload, sender):
            return [("forged", target)]

        server.node.register_handler("dht.find_node", forged)
        overlay["a"].table.evict("c")

        def scenario():
            try:
                yield from overlay["a"].lookup(overlay["c"].dht_id)
            except DHTError:
                return "rejected"

        assert sim.run_process(scenario()) == "rejected"
        assert not overlay["a"].table.knows("forged")


def _network(seed):
    sim = Simulator()
    return sim, Network(sim, RngStreams(seed), latency=ConstantLatency(0.02))


class TestSeededPutGetPin:
    """64 nodes, 48 put/get pairs, eight nodes down for the second half.

    Every number below was recorded with the list-based table and
    ``xor_distance`` ranking; the digest covers each lookup's caller,
    target, kind, outcome and returned contact list in order.
    """

    def test_pin(self, monkeypatch):
        lookups = []
        original = KademliaNode._iterative

        def recording(self, target_id, find_value):
            closest, value, found = yield from original(self, target_id, find_value)
            lookups.append((
                self.node.node_id, target_id, find_value, found,
                [(c.name, c.dht_id) for c in closest],
            ))
            return closest, value, found

        monkeypatch.setattr(KademliaNode, "_iterative", recording)
        sim, network = _network(seed=64)
        names = [f"n{i:02d}" for i in range(64)]
        config = DhtConfig(k=8, alpha=3, rpc_timeout=1.0)
        overlay = build_overlay(network, names, config)
        outcomes = []

        def scenario():
            for i in range(48):
                if i == 24:
                    for name in names[40:48]:
                        network.node(name).set_online(False, sim.now)
                putter = names[(7 * i) % 40]
                getter = names[(13 * i + 5) % 40]
                acked = yield from overlay[putter].put(f"key-{i}", f"value-{i}")
                try:
                    value = yield from overlay[getter].get(f"key-{i}")
                except DHTError:
                    value = None
                outcomes.append((acked, value))

        sim.run_process(scenario())
        digest = hashlib.sha256(repr(lookups).encode("utf-8")).hexdigest()
        assert all(value == f"value-{i}" for i, (_, value) in enumerate(outcomes))
        assert sum(acked for acked, _ in outcomes) == PIN["acked"]
        assert len(lookups) == PIN["lookups"]
        assert sim.events_processed == PIN["events"]
        assert network.flow_snapshot() == PIN["flow"]
        assert digest == PIN["digest"]


PIN = {
    "acked": 381,
    "lookups": 152,
    "events": 9398,
    "flow": {"sent": 3203, "delivered": 3164, "dropped": 39, "in_flight": 0},
    "digest": "f3c93ebaf9fa5a1f44f96f06095d5f43a8dd4e9aa3aec1063cf992dc6773596f",
}
