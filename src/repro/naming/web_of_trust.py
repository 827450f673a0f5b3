"""A Web of Trust: decentralized endorsement-based naming.

The second classical PKI design §3.1 mentions, with its cited weakness —
Sybil attacks — implemented as a first-class operation.  Identities endorse
(name, public key) bindings; a verifier accepts a binding if enough
*distinct endorsement paths* lead from its trust anchors to endorsers of
the binding within a trust horizon.

A Sybil attacker manufactures identities that endorse a fraudulent
binding.  The attack succeeds exactly when the attacker gets at least one
edge from inside the honest region (a social-engineering event the model
parameterizes), because Sybil identities are free — the quantitative point
of the E6-adjacent WoT experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.keys import KeyPair, generate_keypair
from repro.errors import NamingError

__all__ = ["WebOfTrust", "SybilAttackResult"]


@dataclass(frozen=True)
class _Binding:
    name: str
    public_key: str


class WebOfTrust:
    """Endorsement graph over identities (public keys)."""

    kind = "web_of_trust"

    def __init__(self, trust_horizon: int = 3, endorsements_required: int = 2):
        if trust_horizon < 1:
            raise NamingError(f"trust horizon must be >= 1: {trust_horizon}")
        if endorsements_required < 1:
            raise NamingError(
                f"endorsements_required must be >= 1: {endorsements_required}"
            )
        self.trust_horizon = trust_horizon
        self.endorsements_required = endorsements_required
        import networkx as nx

        self._graph = nx.DiGraph()  # identity -> identity ("I vouch for you")
        self._endorsements: Dict[Tuple[str, str], Set[str]] = {}
        self._identities: Dict[str, KeyPair] = {}

    # -- identity and endorsement management ------------------------------------

    def create_identity(self, seed: str) -> KeyPair:
        pair = generate_keypair(f"wot:{seed}")
        self._identities[pair.public_key] = pair
        self._graph.add_node(pair.public_key)
        return pair

    def vouch(self, endorser: KeyPair, subject_public_key: str) -> None:
        """``endorser`` asserts that ``subject`` is a real, distinct person."""
        self._require_known(endorser.public_key)
        if subject_public_key not in self._graph:
            raise NamingError("cannot vouch for an unknown identity")
        if endorser.public_key == subject_public_key:
            raise NamingError("self-vouching is meaningless")
        self._graph.add_edge(endorser.public_key, subject_public_key)

    def endorse_binding(self, endorser: KeyPair, name: str, public_key: str) -> None:
        """``endorser`` signs the claim that ``name`` belongs to ``public_key``."""
        self._require_known(endorser.public_key)
        key = (name, public_key)
        self._endorsements.setdefault(key, set()).add(endorser.public_key)

    def _require_known(self, public_key: str) -> None:
        if public_key not in self._identities:
            raise NamingError(f"unknown identity {public_key[:12]}...")

    # -- verification --------------------------------------------------------------

    def reachable_from(self, anchors: List[str]) -> Set[str]:
        """Identities within ``trust_horizon`` hops of any anchor."""
        import networkx as nx

        reachable: Set[str] = set()
        for anchor in anchors:
            if anchor not in self._graph:
                continue
            lengths = nx.single_source_shortest_path_length(
                self._graph, anchor, cutoff=self.trust_horizon
            )
            reachable.update(lengths)
        return reachable

    def trusted_endorsers(
        self, anchors: List[str], name: str, public_key: str
    ) -> Set[str]:
        endorsers = self._endorsements.get((name, public_key), set())
        return endorsers & self.reachable_from(anchors)

    def accepts(self, anchors: List[str], name: str, public_key: str) -> bool:
        """Does a verifier with these anchors accept the binding?"""
        if not anchors:
            raise NamingError("a verifier needs at least one trust anchor")
        return (
            len(self.trusted_endorsers(anchors, name, public_key))
            >= self.endorsements_required
        )

    def resolve(self, anchors: List[str], name: str) -> Optional[str]:
        """The accepted public key for ``name`` from this verifier's view,
        or None.  Conflicting accepted bindings resolve to the one with the
        most trusted endorsers (ties: lexicographic, deterministic)."""
        candidates = [
            (len(self.trusted_endorsers(anchors, n, pk)), pk)
            for (n, pk) in self._endorsements
            if n == name and self.accepts(anchors, n, pk)
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda t: (-t[0], t[1]))
        return candidates[0][1]

    # -- the Sybil attack -------------------------------------------------------------

    def sybil_attack(
        self,
        name: str,
        sybil_count: int,
        infiltration_edges: int,
        honest_victims: List[str],
        seed: str = "sybil",
    ) -> "SybilAttackResult":
        """Manufacture ``sybil_count`` identities endorsing a fraudulent
        binding of ``name``, with ``infiltration_edges`` honest identities
        socially engineered into vouching for one Sybil each.

        Returns the attack apparatus; callers then test ``accepts`` from
        any verifier's anchors to see whether that verifier is fooled.
        """
        if sybil_count < 1:
            raise NamingError("need at least one Sybil identity")
        if infiltration_edges > len(honest_victims):
            raise NamingError("more infiltration edges than victims available")
        attacker = self.create_identity(f"{seed}:attacker")
        sybils = [
            self.create_identity(f"{seed}:{i}") for i in range(sybil_count)
        ]
        # Sybils vouch for each other in a dense ring (free to create).
        ring = [attacker] + sybils
        for i, identity in enumerate(ring):
            for offset in (1, 2):
                target = ring[(i + offset) % len(ring)]
                if identity.public_key != target.public_key:
                    self.vouch(identity, target.public_key)
        # Social engineering: some honest identities vouch for a Sybil.
        for i in range(infiltration_edges):
            victim_pk = honest_victims[i]
            victim_pair = self._identities[victim_pk]
            self.vouch(victim_pair, ring[i % len(ring)].public_key)
        # Every Sybil endorses the fraudulent binding.
        for identity in ring:
            self.endorse_binding(identity, name, attacker.public_key)
        return SybilAttackResult(
            attacker_public_key=attacker.public_key,
            sybil_public_keys=[s.public_key for s in sybils],
            fraudulent_name=name,
        )


@dataclass(frozen=True)
class SybilAttackResult:
    attacker_public_key: str
    sybil_public_keys: List[str]
    fraudulent_name: str
