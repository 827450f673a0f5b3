"""The stores' stamp views and the equal-digest skip are exact.

A replica store keeps key -> stamp views current as it changes, hubs
serve digests by copying a view, and a reconciliation round whose
received digest equals the local view for that peer ends without any
comparison.  These properties replay random histories of writes,
merges, adoptions, policy and trust changes, and gossip rounds, and
check after every step that:

* each view equals a comprehension over the store's items;
* each served digest equals, as a mapping, the digest built by the
  reference comprehension below, which applies the sharing rule to
  every stored item;
* whenever the skip fires, the reference comparison run on the same
  state finds nothing to pull and nothing to push.
"""

from hypothesis import given, settings, strategies as st

from repro.gossip import AntiEntropyNode, Versioned
from repro.groupcomm.partial import (
    FederationPolicy,
    PartialFederation,
    make_strategy,
)
from repro.net.transport import ConstantLatency, Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

HUBS = ("ca", "hub1", "hub2")
KEYS = ("k0", "k1", "k2", "k3", "k4")


# -- reference oracles: whole-store comprehensions, one item at a time --

def reference_shares_with(hub, peer, value):
    if not peer.active or peer.policy == FederationPolicy.NONE:
        return False
    if peer.policy == FederationPolicy.FULL:
        return True
    if value.get("public", False):
        return True
    return peer.trust_level >= hub.federation.trust_threshold


def reference_partial_digest(hub, sender):
    peer = hub.peers.get(sender)
    if peer is None or not hub.federates_with(sender):
        return {}
    return {
        key: item.stamp
        for key, item in (
            (key, hub.store.item(key)) for key in sorted(hub.store.keys())
        )
        if reference_shares_with(hub, peer, item.value)
    }


def stamps_of(store):
    return {key: store.item(key).stamp for key in store.keys()}


def reference_partial_compare(hub, peer, their_digest):
    mine = stamps_of(hub.store)
    to_pull = [
        key for key, stamp in their_digest.items()
        if key not in mine or tuple(stamp) != mine[key]
    ]
    to_push = {
        key: hub.store.item(key)
        for key, stamp in mine.items()
        if (key not in their_digest or tuple(their_digest[key]) != stamp)
        and reference_shares_with(hub, peer, hub.store.item(key).value)
    }
    return to_pull, to_push


def reference_gossip_compare(store, their_digest):
    mine = stamps_of(store)
    to_pull = [
        key for key, stamp in their_digest.items()
        if key not in mine or tuple(stamp) > mine[key]
    ]
    to_push = [
        key for key, stamp in mine.items()
        if key not in their_digest or stamp > tuple(their_digest[key])
    ]
    return to_pull, to_push


def make_network(seed=1):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    return sim, streams, network


# -- partial federation ----------------------------------------------------

hub_index = st.integers(0, len(HUBS) - 1)
key_index = st.integers(0, len(KEYS) - 1)

partial_step = st.one_of(
    st.tuples(st.just("write"), hub_index, key_index, st.booleans(),
              st.integers(0, 3)),
    st.tuples(st.just("merge"), hub_index, hub_index, key_index),
    st.tuples(st.just("adopt"), hub_index, hub_index, key_index),
    st.tuples(st.just("policy"), hub_index, hub_index,
              st.sampled_from(FederationPolicy.ALL)),
    st.tuples(st.just("trust"), hub_index, hub_index,
              st.sampled_from((0.0, 0.5, 0.75, 1.0))),
    st.tuples(st.just("active"), hub_index, hub_index, st.booleans()),
    st.tuples(st.just("round"), hub_index, hub_index),
    st.tuples(st.just("sweep"), hub_index),
)


def sweep(sim, reconcile):
    """One round over every ordered hub pair: histories converge, so the
    skip also fires on non-empty digests."""
    for a in HUBS:
        for b in HUBS:
            if a != b:
                sim.run_process(reconcile(a, b))


def apply_partial_step(fed, sim, step):
    kind, a = step[0], HUBS[step[1]]
    hub = fed.hubs[a]
    if kind == "sweep":
        sweep(sim, fed.reconcile_with)
        return
    if kind == "write":
        _, _, key, public, value = step
        hub.store.write(
            KEYS[key], {"entry": "state", "v": value, "public": public}, a,
        )
        return
    b = HUBS[step[2]]
    if a == b:
        return
    other = fed.hubs[b]
    if kind in ("merge", "adopt"):
        key = KEYS[step[3]]
        if key not in other.store:
            return
        source = other.store.item(key)
        if kind == "merge":
            hub.merge(key, Versioned(source.value, source.counter,
                                     source.writer))
        else:
            hub.store.adopt(key, source)
    elif kind == "policy":
        fed.set_policy(a, b, step[3])
    elif kind == "trust":
        fed.set_trust(a, b, step[3])
    elif kind == "active":
        if step[3]:
            hub.reactivate_peer(b)
        else:
            hub.deactivate_peer(b)
    elif kind == "round":
        sim.run_process(fed.reconcile_with(a, b))


def check_partial_views(fed, network):
    for a in HUBS:
        hub = fed.hubs[a]
        store = hub.store
        assert store.stamps() == stamps_of(store)
        assert store.public_stamps() == {
            key: stamp for key, stamp in stamps_of(store).items()
            if store.item(key).value.get("public")
        }
        for b in HUBS:
            if b == a:
                continue
            served = network.node(a).dispatch("pfed.digest", {}, b)
            assert served == reference_partial_digest(hub, b)
            # The skip condition, seen from b reconciling with a.
            their = fed.hubs[b]
            if served == their.digest_view(their.get_peer(a)):
                to_pull, to_push = reference_partial_compare(
                    their, their.get_peer(a), served,
                )
                assert to_pull == [] and to_push == {}
    # An unregistered sender learns nothing.
    assert network.node("ca").dispatch("pfed.digest", {}, "stranger") == {}


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(partial_step, min_size=5, max_size=40),
    strategy=st.sampled_from(("lww", "trust_weighted", "manual")),
    policy=st.sampled_from((FederationPolicy.FULL, FederationPolicy.FILTERED)),
    threshold=st.sampled_from((0.5, 0.75)),
)
def test_partial_views_match_reference_digests(
    steps, strategy, policy, threshold,
):
    sim, streams, network = make_network()
    fed = PartialFederation(
        network, list(HUBS), streams,
        conflict_strategy=make_strategy(strategy),
        default_policy=policy,
        trust_threshold=threshold,
    )
    check_partial_views(fed, network)
    for step in steps:
        apply_partial_step(fed, sim, step)
        check_partial_views(fed, network)


def test_partial_view_drops_a_key_that_turns_private():
    sim, streams, network = make_network()
    fed = PartialFederation(network, list(HUBS), streams)
    store = fed.hubs["ca"].store
    store.write("k", {"public": True}, "ca")
    assert list(store.public_stamps()) == ["k"]
    store.write("k", {"public": False}, "ca")
    assert dict(store.public_stamps()) == {}
    assert list(store.stamps()) == ["k"]


def test_skip_round_keeps_the_round_bookkeeping():
    sim, streams, network = make_network()
    fed = PartialFederation(network, ["ca", "hub1"], streams)
    hub = fed.hubs["ca"]
    assert sim.run_process(fed.reconcile_with("ca", "hub1")) is True
    assert hub.rounds == 1 and hub.items_transferred == 0
    fed.hubs["hub1"].store.write("k", {"public": True}, "hub1")
    assert sim.run_process(fed.reconcile_with("ca", "hub1")) is True
    assert hub.rounds == 2 and hub.items_transferred == 1
    assert sim.run_process(fed.reconcile_with("ca", "hub1")) is True
    assert hub.rounds == 3 and hub.items_transferred == 1


# -- full replication (AntiEntropyNode) ------------------------------------

gossip_step = st.one_of(
    st.tuples(st.just("write"), hub_index, key_index, st.integers(0, 3)),
    st.tuples(st.just("merge"), hub_index, hub_index, key_index,
              st.integers(0, 3)),
    st.tuples(st.just("round"), hub_index, hub_index),
    st.tuples(st.just("sweep"), hub_index),
)


def apply_gossip_step(nodes, sim, step):
    kind, a = step[0], HUBS[step[1]]
    node = nodes[a]
    if kind == "sweep":
        sweep(sim, lambda a, b: nodes[a].reconcile_with(b))
        return
    if kind == "write":
        node.write(KEYS[step[2]], {"v": step[3]})
        return
    b = HUBS[step[2]]
    if a == b:
        return
    if kind == "merge":
        # A replica of b's item, or a racing version with b's counter.
        key = KEYS[step[3]]
        if key in nodes[b].store:
            source = nodes[b].store.item(key)
            node.store.merge(key, Versioned(
                {"v": step[4]}, source.counter, b,
            ))
    elif kind == "round":
        sim.run_process(node.reconcile_with(b))


def check_gossip_views(nodes, network):
    for a, node in nodes.items():
        store = node.store
        assert store.stamps() == stamps_of(store)
        served = network.node(a).dispatch("gossip.digest", {}, "x")
        assert served == stamps_of(store)
        for b, other in nodes.items():
            if b != a and served == other.store.stamps():
                assert reference_gossip_compare(other.store, served) == (
                    [], [],
                )


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(gossip_step, min_size=5, max_size=40))
def test_gossip_views_match_reference_digests(steps):
    sim, streams, network = make_network()
    nodes = {
        name: AntiEntropyNode(
            network, network.create_node(name), list(HUBS), streams,
        )
        for name in HUBS
    }
    check_gossip_views(nodes, network)
    for step in steps:
        apply_gossip_step(nodes, sim, step)
        check_gossip_views(nodes, network)
