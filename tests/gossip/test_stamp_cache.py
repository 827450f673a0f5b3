"""Content hashes are computed once per object and stay true.

``Versioned.stamp`` and ``Message.msg_id`` are cached on first read;
the replica stores read a stamp as its item enters them.  These tests
pin the contract:

* integrity — after full E4/E4P/E5 runs, every cached stamp and message
  id still equals a hash recomputed from scratch, so no code path
  mutates a stored value in place;
* budget — steady-state anti-entropy between converged replicas, a
  single-home push into an existing timeline and repeated reads of one
  room do not re-hash what they already hold, and a converged partial
  federation round does no per-key policy work;
* isolation — a served digest is a copy, so its receiver cannot reach
  the server's stamp view.
"""

import dataclasses
from collections import Counter

import pytest

import repro.crypto.hashing as hashing
import repro.groupcomm.messages as messages
from repro.analysis.experiments import (
    run_federation_availability,
    run_partial_federation_sweep,
    run_social_tradeoff,
)
from repro.faults import preset_plan, run_chaos
from repro.gossip import AntiEntropyNode, ReplicaStore, Versioned
from repro.groupcomm import SingleHomeFederation
from repro.groupcomm.messages import Message
from repro.groupcomm.partial import (
    FederationHub,
    FederationPolicy,
    PartialFederation,
    PartialReplicaStore,
)
from repro.net import ConstantLatency, Network
from repro.sim import RngStreams, Simulator

original_hash_obj = hashing.hash_obj


@pytest.fixture
def hash_calls(monkeypatch):
    """Count every ``hash_obj`` call, including the import-time binding
    in :mod:`repro.groupcomm.messages`."""
    calls = []

    def counting(obj):
        calls.append(obj)
        return original_hash_obj(obj)

    monkeypatch.setattr(hashing, "hash_obj", counting)
    monkeypatch.setattr(messages, "hash_obj", counting)
    return calls


@pytest.fixture
def live(monkeypatch):
    """Record every replica store and single-home federation built."""
    built = {"stores": [], "single_home": []}

    def recording(cls, bucket):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[bucket].append(self)

        monkeypatch.setattr(cls, "__init__", wrapper)

    recording(ReplicaStore, "stores")
    recording(PartialReplicaStore, "stores")
    recording(SingleHomeFederation, "single_home")
    return built


def assert_hashes_intact(built):
    cached = 0
    for store in built["stores"]:
        for key in store.keys():
            item = store.item(key)
            cached += "stamp" in vars(item)
            assert item.stamp == (
                item.counter, item.writer, original_hash_obj(item.value)
            ), key
    for federation in built["single_home"]:
        for timelines in federation._timelines.values():
            for timeline in timelines.values():
                for message in timeline:
                    cached += "msg_id" in vars(message)
                    fresh = dataclasses.replace(message)
                    assert message.msg_id == fresh.msg_id
    # The runs really exercised the cache: something was read before.
    assert cached > 0


class TestStampIntegrity:
    def test_e4_all_models(self, live):
        rows = run_federation_availability(seed=1)
        assert [row["model"] for row in rows] == [
            "single_home", "replicated", "replicated_failover",
        ]
        assert live["stores"] and live["single_home"]
        assert_hashes_intact(live)

    def test_e4p_sweep(self, live):
        run_partial_federation_sweep(seed=1)
        assert live["stores"]
        assert_hashes_intact(live)

    def test_e4p_chaos_hub_partition(self, live):
        report = run_chaos("E4P", preset_plan("hub-partition"), 7)
        assert report["invariants"]["violated"] == 0
        assert_hashes_intact(live)

    def test_e5(self, live):
        run_social_tradeoff(seed=1)
        assert live["stores"] and live["single_home"]
        assert_hashes_intact(live)


def make_network(seed=1):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    return sim, streams, network


class TestHashBudget:
    def test_converged_antientropy_round_hashes_nothing(self, hash_calls):
        sim, streams, network = make_network()
        a = AntiEntropyNode(network, network.create_node("a"), ["a", "b"], streams)
        b = AntiEntropyNode(network, network.create_node("b"), ["a", "b"], streams)
        for i in range(50):
            a.write(f"k{i}", {"n": i})
            b.write(f"j{i}", [i, "x"])
        sim.run_process(a.reconcile_with("b"))
        assert a.store.digest() == b.store.digest()
        assert len(a.store) == 100
        del hash_calls[:]
        assert sim.run_process(a.reconcile_with("b")) is True
        assert sim.run_process(b.reconcile_with("a")) is True
        assert hash_calls == []

    def test_converged_partial_hubs_round_hashes_nothing(self, hash_calls):
        sim, streams, network = make_network()
        fed = PartialFederation(network, ["ca", "hub1"], streams)
        fed.add_user("alice", "ca")
        fed.add_user("bob", "hub1")
        fed.create_room("town", ["alice", "bob"], public=True)
        for i in range(20):
            sim.run_process(fed.post("alice", "town", f"a{i}"))
            sim.run_process(fed.post("bob", "town", f"b{i}"))
        sim.run_process(fed.set_room_state("alice", "town", "topic", "hi"))
        sim.run(until=sim.now + 10.0)
        sim.run_process(fed.reconcile_with("ca", "hub1"))
        assert fed.divergence() == {}
        assert len(fed.hubs["ca"].store) == len(fed.hubs["hub1"].store) == 41
        del hash_calls[:]
        assert sim.run_process(fed.reconcile_with("ca", "hub1")) is True
        assert sim.run_process(fed.reconcile_with("hub1", "ca")) is True
        assert hash_calls == []

    def test_single_home_push_hashes_at_most_once(self, hash_calls):
        sim, _, network = make_network()
        fed = SingleHomeFederation(network, ["s0", "s1"])
        fed.add_user("alice", "s0")
        fed.add_user("bob", "s1")
        fed.create_room("room", ["alice", "bob"])
        for i in range(30):
            sim.run_process(fed.post("alice", "room", f"m{i}"))
        sim.run(until=sim.now + 1.0)
        assert len(fed._timelines["s1"]["room"]) == 30
        del hash_calls[:]
        message = Message(
            author="alice", room="room", body="late", sent_at=sim.now, seq=30,
        )
        network.send("s0", "s1", "fed.push", {"room": "room", "message": message})
        sim.run(until=sim.now + 1.0)
        assert len(fed._timelines["s1"]["room"]) == 31
        assert len(hash_calls) <= 1

    def test_replace_recomputes_the_stamp(self, hash_calls):
        item = Versioned({"n": 1}, 3, "w")
        assert item.stamp == (3, "w", original_hash_obj({"n": 1}))
        changed = dataclasses.replace(item, value={"n": 2})
        assert changed.stamp == (3, "w", original_hash_obj({"n": 2}))
        assert changed.stamp != item.stamp
        # Cached: a second read of either stamp does not hash again.
        count = len(hash_calls)
        assert item.stamp is item.stamp and changed.stamp is changed.stamp
        assert len(hash_calls) == count

    def test_cache_leaves_equality_and_repr_alone(self):
        item = Versioned("v", 1, "w")
        twin = Versioned("v", 1, "w")
        item.stamp
        assert item == twin
        assert repr(item) == repr(twin)
        message = Message(author="a", room="r", body="b", sent_at=1.0)
        message.msg_id
        assert message == Message(author="a", room="r", body="b", sent_at=1.0)


def converged_partial(policy=FederationPolicy.FULL, trust=0.5):
    """Two hubs holding the same public and private room histories."""
    sim, streams, network = make_network()
    fed = PartialFederation(
        network, ["ca", "hub1"], streams, default_policy=policy,
        default_trust=trust,
    )
    fed.add_user("alice", "ca")
    fed.add_user("bob", "hub1")
    fed.create_room("town", ["alice", "bob"], public=True)
    fed.create_room("den", ["alice", "bob"], public=False)
    for i in range(10):
        sim.run_process(fed.post("alice", "town", f"a{i}"))
        sim.run_process(fed.post("bob", "town", f"b{i}"))
        sim.run_process(fed.post("alice", "den", f"d{i}"))
    sim.run(until=sim.now + 10.0)
    sim.run_process(fed.reconcile_with("ca", "hub1"))
    return sim, network, fed


class TestReadAndRoundBudget:
    def test_three_fetches_hash_each_message_at_most_once(self, hash_calls):
        sim, _, fed = converged_partial()
        del hash_calls[:]
        for _ in range(3):
            messages = sim.run_process(fed.fetch("bob", "town"))
            assert len(messages) == 20
        per_object = Counter(repr(obj) for obj in hash_calls)
        assert len(hash_calls) <= 20
        assert max(per_object.values()) == 1

    @pytest.mark.parametrize("policy,trust", [
        (FederationPolicy.FULL, 0.5),
        (FederationPolicy.FILTERED, 0.5),   # public entries only
        (FederationPolicy.FILTERED, 0.9),   # trusted: everything
    ])
    def test_converged_round_makes_no_shares_with_calls(
        self, monkeypatch, policy, trust,
    ):
        sim, _, fed = converged_partial(policy, trust)
        calls = []
        shares_with = FederationHub.shares_with

        def counting(self, peer, value):
            calls.append(value)
            return shares_with(self, peer, value)

        monkeypatch.setattr(FederationHub, "shares_with", counting)
        rounds = fed.hubs["ca"].rounds
        assert sim.run_process(fed.reconcile_with("ca", "hub1")) is True
        assert sim.run_process(fed.reconcile_with("hub1", "ca")) is True
        assert fed.hubs["ca"].rounds == rounds + 1
        assert calls == []

    def test_rewritten_key_gets_a_new_message(self):
        sim, _, fed = converged_partial()
        key = next(
            k for k in fed.hubs["ca"].store.keys() if k.startswith("msg/town/")
        )
        before = sim.run_process(fed.fetch("alice", "town"))
        old = fed.hubs["ca"].store.item(key)
        value = dict(old.value, body="edited")
        fed.hubs["ca"].store.adopt(
            key, Versioned(value, old.counter + 1, old.writer),
        )
        after = sim.run_process(fed.fetch("alice", "town"))
        edited = [m for m in after if m.body == "edited"]
        assert len(edited) == 1
        assert edited[0].msg_id == dataclasses.replace(edited[0]).msg_id
        # The key still names the old content; the reader's id does not.
        old_id = key.rsplit("/", 1)[1]
        assert edited[0].msg_id != old_id
        ids_before = {m.msg_id for m in before}
        ids_after = {m.msg_id for m in after}
        assert ids_before - ids_after == {old_id}
        assert ids_after - ids_before == {edited[0].msg_id}


class TestDigestIsolation:
    def test_gossip_digest_is_a_copy(self):
        sim, streams, network = make_network()
        a = AntiEntropyNode(network, network.create_node("a"), ["a", "b"], streams)
        b = AntiEntropyNode(network, network.create_node("b"), ["a", "b"], streams)
        for i in range(5):
            b.write(f"k{i}", {"n": i})
        before = dict(b.store.stamps())
        served = sim.run_process(
            network.rpc("a", "b", "gossip.digest", {})
        )
        served["k0"] = (99, "z", "forged")
        served["extra"] = (1, "z", "x")
        del served["k1"]
        assert b.store.stamps() == before
        assert sim.run_process(
            network.rpc("a", "b", "gossip.digest", {})
        ) == before
        assert a.store.stamps() == {}

    def test_pfed_digest_is_a_copy(self):
        sim, network, fed = converged_partial(FederationPolicy.FILTERED)
        hub = fed.hubs["ca"]
        before_all = dict(hub.store.stamps())
        before_public = dict(hub.store.public_stamps())
        served = sim.run_process(
            network.rpc("hub1", "ca", "pfed.digest", {})
        )
        assert served == before_public
        key = next(iter(served))
        served[key] = (99, "z", "forged")
        served["extra"] = (1, "z", "x")
        served.clear()
        assert hub.store.stamps() == before_all
        assert hub.store.public_stamps() == before_public
        assert sim.run_process(
            network.rpc("hub1", "ca", "pfed.digest", {})
        ) == before_public
