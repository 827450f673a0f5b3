"""Topology and social-graph builders.

Graphs are :mod:`networkx` graphs over node-id strings.  Protocol layers
use them two ways:

* as *connectivity* (who may talk to whom directly — e.g. socially-aware
  P2P only serves trusted neighbours);
* as *structure* for placement (which server a user homes to in a
  federation).

Every builder takes an explicit ``seed`` so topologies are reproducible.
networkx is imported inside the builders, so a run that only places
users (:func:`federation_homes`) never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import NetworkError
from repro.sim.rng import seeded_rng

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    import networkx as nx

__all__ = [
    "star",
    "isp_tree",
    "nodes_in_region",
    "random_graph",
    "small_world",
    "scale_free",
    "federation_homes",
    "ring_lattice",
]


def _ids(prefix: str, count: int) -> List[str]:
    if count <= 0:
        raise NetworkError(f"need a positive node count, got {count}")
    return [f"{prefix}{i}" for i in range(count)]


def star(center: str, leaves: Sequence[str]) -> nx.Graph:
    """A hub-and-spoke graph: the centralized-provider shape."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_node(center)
    for leaf in leaves:
        if leaf == center:
            raise NetworkError("center cannot also be a leaf")
        graph.add_edge(center, leaf)
    return graph


def isp_tree(
    n_isps: int,
    users_per_isp: int,
    isp_prefix: str = "isp",
    user_prefix: str = "user",
    regions: Optional[Sequence[str]] = None,
) -> nx.Graph:
    """The 1990s-Internet shape the paper calls semi-democratized (§2):
    hundreds of ISPs, each serving its own users, ISPs fully meshed.

    Every node carries an ``asn`` attribute (its ISP's index — users
    inherit their access ISP's AS) and, when ``regions`` is given, a
    ``region`` attribute: ISPs are assigned to regions round-robin and
    users sit in their ISP's region.  Censorship campaigns
    (:class:`repro.faults.Censor`) draw their border from these labels
    via :func:`nodes_in_region`.
    """
    import networkx as nx

    graph = nx.Graph()
    isps = _ids(isp_prefix, n_isps)
    for i, isp_a in enumerate(isps):
        for isp_b in isps[i + 1:]:
            graph.add_edge(isp_a, isp_b)
    if n_isps == 1:
        graph.add_node(isps[0])
    for i, isp in enumerate(isps):
        graph.nodes[isp]["asn"] = i
        if regions:
            graph.nodes[isp]["region"] = regions[i % len(regions)]
        for j in range(users_per_isp):
            user = f"{user_prefix}{i}_{j}"
            graph.add_edge(isp, user)
            graph.nodes[user]["asn"] = i
            if regions:
                graph.nodes[user]["region"] = graph.nodes[isp]["region"]
    return graph


def nodes_in_region(graph: nx.Graph, region: str) -> List[str]:
    """All node ids labelled with ``region``, sorted (a censor border).

    Raises if the graph carries no region labels at all — asking for a
    border on an unlabelled topology is a setup bug, not an empty set.
    """
    if not any("region" in data for _, data in graph.nodes(data=True)):
        raise NetworkError("graph has no region labels (see isp_tree)")
    return sorted(
        node for node, data in graph.nodes(data=True)
        if data.get("region") == region
    )


def random_graph(count: int, edge_prob: float, seed: int, prefix: str = "n") -> nx.Graph:
    """Erdős–Rényi over generated node ids."""
    import networkx as nx

    if not 0 <= edge_prob <= 1:
        raise NetworkError(f"edge_prob must be in [0,1]: {edge_prob}")
    ids = _ids(prefix, count)
    base = nx.gnp_random_graph(count, edge_prob, seed=seed)
    return nx.relabel_nodes(base, {i: ids[i] for i in range(count)})


def small_world(
    count: int, k: int = 6, rewire_prob: float = 0.1, seed: int = 0, prefix: str = "n"
) -> nx.Graph:
    """Watts–Strogatz small world — the standard social-graph stand-in
    used for the socially-aware P2P experiments (E5)."""
    import networkx as nx

    if k >= count:
        raise NetworkError(f"k={k} must be < count={count}")
    ids = _ids(prefix, count)
    base = nx.watts_strogatz_graph(count, k, rewire_prob, seed=seed)
    return nx.relabel_nodes(base, {i: ids[i] for i in range(count)})


def scale_free(count: int, m: int = 2, seed: int = 0, prefix: str = "n") -> nx.Graph:
    """Barabási–Albert preferential attachment — hub-heavy graphs that
    model follower-style social networks."""
    import networkx as nx

    if m >= count:
        raise NetworkError(f"m={m} must be < count={count}")
    ids = _ids(prefix, count)
    base = nx.barabasi_albert_graph(count, m, seed=seed)
    return nx.relabel_nodes(base, {i: ids[i] for i in range(count)})


def ring_lattice(count: int, k: int = 2, prefix: str = "n") -> nx.Graph:
    """Ring lattice (Watts–Strogatz with rewire probability 0)."""
    import networkx as nx

    ids = _ids(prefix, count)
    base = nx.watts_strogatz_graph(count, k, 0.0, seed=0)
    return nx.relabel_nodes(base, {i: ids[i] for i in range(count)})


def federation_homes(
    user_ids: Sequence[str], server_ids: Sequence[str], seed: int = 0
) -> Dict[str, str]:
    """Assign each user a home server, round-robin after a seeded shuffle.

    Round-robin keeps instances balanced; the shuffle decorrelates user
    index from server index so failure experiments aren't accidentally
    structured.  The shuffle draws from the named stream
    ``"topology.federation_homes"`` (see :func:`repro.sim.rng.seeded_rng`)
    so it is independent of every other consumer of the same root seed.
    """
    if not server_ids:
        raise NetworkError("need at least one server")
    shuffled = list(user_ids)
    seeded_rng(seed, "topology.federation_homes").shuffle(shuffled)
    return {
        user_id: server_ids[i % len(server_ids)]
        for i, user_id in enumerate(shuffled)
    }
