"""Visitor-seeded site distribution: the ZeroNet swarm (§3.4).

"Web applications are seeded and served by visitors": a peer that fetches
a site bundle verifies it (signature + file hashes) and then serves it to
later visitors for as long as it stays around.  :class:`SiteSwarm` wires
the fetch/serve/announce mechanics; :class:`VisitorProcess` drives Poisson
visitor arrivals with finite seeding lifetimes, which makes site
availability an explicit birth-death process — E8 sweeps its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.errors import RemoteError, RpcTimeoutError, WebAppError
from repro.net.node import NodeClass
from repro.net.transport import Network
from repro.sim.monitor import Monitor
from repro.sim.rng import RngStreams
from repro.webapps.site import SiteBundle
from repro.webapps.tracker import Tracker

__all__ = ["SiteSwarm", "VisitorProcess", "VisitorStats"]


class SiteSwarm:
    """Fetch-verify-seed mechanics for one network of peers."""

    def __init__(self, network: Network, tracker: Tracker):
        self.network = network
        self.tracker = tracker
        self.monitor = Monitor()
        # peer -> site address -> bundle
        self._seeding: Dict[str, Dict[str, SiteBundle]] = {}

    # -- peer management ------------------------------------------------------

    def register_peer(self, peer_id: str, node_class: str = NodeClass.PERSONAL_COMPUTER) -> None:
        if not self.network.has_node(peer_id):
            self.network.create_node(peer_id, node_class=node_class)
        if peer_id not in self._seeding:
            self._seeding[peer_id] = {}
            self.network.node(peer_id).register_handler(
                "site.fetch", self._make_fetch_handler(peer_id)
            )

    def _make_fetch_handler(self, peer_id: str):
        def handler(node, payload: dict, sender: str) -> SiteBundle:
            bundle = self._seeding[peer_id].get(payload["site"])
            if bundle is None:
                raise WebAppError(f"{peer_id!r} is not seeding {payload['site'][:12]}")
            return bundle

        return handler

    # -- seeding lifecycle --------------------------------------------------------

    def seed(self, peer_id: str, bundle: SiteBundle) -> Generator:
        """Verify a bundle, start seeding it and announce to the tracker."""
        self.register_peer(peer_id)
        if not bundle.verify():
            raise WebAppError("refusing to seed an unverifiable bundle")
        return (yield from self._seed_verified(peer_id, bundle))

    def _seed_verified(self, peer_id: str, bundle: SiteBundle) -> Generator:
        """:meth:`seed` for a registered peer and a bundle already verified
        (the one :meth:`visit` just returned)."""
        existing = self._seeding[peer_id].get(bundle.manifest.site_address)
        if existing is None or existing.manifest.version < bundle.manifest.version:
            self._seeding[peer_id][bundle.manifest.site_address] = bundle
        yield from self.tracker.announce(peer_id, bundle.manifest.site_address)
        self.monitor.counters.increment("seeds_started")
        return True

    def stop_seeding(self, peer_id: str, site: str) -> Generator:
        self._seeding.get(peer_id, {}).pop(site, None)
        try:
            yield from self.tracker.depart(peer_id, site)
        except (RpcTimeoutError, RemoteError):
            pass  # tracker may be down; the stale entry just lingers
        self.monitor.counters.increment("seeds_stopped")
        return True

    def seeders_of(self, site: str) -> List[str]:
        """Peers currently holding the site and online (ground truth)."""
        return sorted(
            peer
            for peer, sites in self._seeding.items()
            if site in sites and self.network.node(peer).online
        )

    # -- visiting ----------------------------------------------------------------------

    def visit(self, visitor_id: str, site: str) -> Generator:
        """Fetch a site: tracker lookup, then try seeders until one
        delivers a bundle that verifies.  Returns the verified bundle.

        Raises :class:`WebAppError` when the site is unreachable — a dead
        swarm is exactly how a hostless site "goes down".
        """
        self.register_peer(visitor_id)
        try:
            candidates = yield from self.tracker.get_peers(visitor_id, site)
        except (RpcTimeoutError, RemoteError) as exc:
            self.monitor.counters.increment("visits_failed_tracker")
            raise WebAppError("tracker unreachable") from exc
        tried = 0
        for peer in candidates:
            if peer == visitor_id:
                continue
            tried += 1
            try:
                bundle = yield from self.network.rpc(
                    visitor_id, peer, "site.fetch", {"site": site},
                    response_bytes=max(512, self._bundle_size_hint(peer, site)),
                    timeout=10.0,
                )
            except (RpcTimeoutError, RemoteError):
                continue
            if isinstance(bundle, SiteBundle) and bundle.verify():
                if bundle.manifest.site_address == site:
                    self.monitor.counters.increment("visits_ok")
                    return bundle
            self.monitor.counters.increment("bad_bundles_rejected")
        self.monitor.counters.increment("visits_failed_no_seeder")
        raise WebAppError(
            f"no live seeder for site {site[:12]} ({tried} peers tried)"
        )

    def _bundle_size_hint(self, peer: str, site: str) -> int:
        bundle = self._seeding.get(peer, {}).get(site)
        return bundle.size_bytes if bundle is not None else 512


@dataclass
class VisitorStats:
    """Outcome of a visitor-population run."""

    arrivals: int = 0
    successes: int = 0
    failures: int = 0

    @property
    def availability(self) -> float:
        return self.successes / self.arrivals if self.arrivals else 0.0


class VisitorProcess:
    """Poisson visitor arrivals with finite seed retention.

    Each visitor fetches the site; on success it seeds for an
    exponentially-distributed retention time, then departs.  The swarm
    self-sustains when ``arrival_rate x mean_seed_time > 1`` (an M/M/inf
    population), which is the crossover E8 demonstrates.
    """

    def __init__(
        self,
        swarm: SiteSwarm,
        site: str,
        streams: RngStreams,
        arrival_rate: float,
        mean_seed_time: float,
        visitor_prefix: str = "visitor",
    ):
        if arrival_rate <= 0 or mean_seed_time <= 0:
            raise WebAppError("arrival rate and seed time must be positive")
        self.swarm = swarm
        self.site = site
        self.arrival_rate = arrival_rate
        self.mean_seed_time = mean_seed_time
        self.visitor_prefix = visitor_prefix
        self.stats = VisitorStats()
        self._rng = streams.stream(f"visitors.{visitor_prefix}")
        self._running = False
        self._counter = 0

    def start(self) -> None:
        self._running = True
        self.swarm.network.sim.spawn(self._arrivals(), name="visitor-arrivals")

    def stop(self) -> None:
        self._running = False

    def _arrivals(self) -> Generator:
        while self._running:
            yield self._rng.expovariate(self.arrival_rate)
            if not self._running:
                return
            self._counter += 1
            visitor_id = f"{self.visitor_prefix}{self._counter}"
            self.swarm.network.sim.spawn(
                self._one_visit(visitor_id), name=f"visit:{visitor_id}"
            )

    def _one_visit(self, visitor_id: str) -> Generator:
        self.stats.arrivals += 1
        try:
            bundle = yield from self.swarm.visit(visitor_id, self.site)
        except WebAppError:
            self.stats.failures += 1
            return
        self.stats.successes += 1
        try:
            yield from self.swarm._seed_verified(visitor_id, bundle)
        except (RpcTimeoutError, RemoteError):
            # The tracker missed the announce.  The visit still succeeded
            # and the visitor keeps serving its copy until it leaves.
            self.swarm.monitor.counters.increment("seed_announces_failed")
        yield self._rng.expovariate(1.0 / self.mean_seed_time)
        yield from self.swarm.stop_seeding(visitor_id, self.site)
