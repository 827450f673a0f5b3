"""Proof-of-work: a real (small) hash puzzle plus an analytic mining race.

Two layers, matching how the blockchain simulator uses PoW:

* :class:`PowPuzzle` — an actual SHA-256 partial-preimage puzzle, ground
  nonce-by-nonce.  Used at low difficulty in tests and wherever a concrete,
  verifiable nonce is wanted (block headers carry one).
* :class:`MiningRace` — the standard analytic model: block discovery is a
  Poisson process with rate ``hashrate / difficulty``; the winner of each
  block is drawn proportionally to hashrate.  This lets the chain simulator
  model years of mining (and 51% attacks, the paper's §3.1 concern) without
  grinding real hashes.

Both agree on the statistics: the puzzle's expected attempts equal the
race's ``difficulty`` parameter when ``difficulty = 2**target_bits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import CryptoError
from repro.crypto.hashing import sha256_hex

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.sim.rng import RngStreams

__all__ = ["PowPuzzle", "MiningRace", "expected_block_time"]


@dataclass(frozen=True)
class PowPuzzle:
    """Find ``nonce`` with ``sha256(f"{data}:{nonce}")`` under the target.

    ``target_bits`` is the number of leading zero bits required; expected
    work is ``2**target_bits`` attempts.
    """

    data: str
    target_bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.target_bits <= 64:
            raise CryptoError(
                f"target_bits {self.target_bits} outside sane range [0, 64]"
            )

    @property
    def target(self) -> int:
        """Digests strictly below this value satisfy the puzzle."""
        return 1 << (256 - self.target_bits)

    def attempt_hash(self, nonce: int) -> int:
        return int(sha256_hex(f"{self.data}:{nonce}".encode("utf-8")), 16)

    def verify(self, nonce: int) -> bool:
        return self.attempt_hash(nonce) < self.target

    def solve(self, max_attempts: int = 1_000_000, start_nonce: int = 0) -> int:
        """Grind until a satisfying nonce is found.

        Raises :class:`CryptoError` if the budget is exhausted — callers at
        realistic difficulty should be using :class:`MiningRace` instead.
        """
        for nonce in range(start_nonce, start_nonce + max_attempts):
            if self.verify(nonce):
                return nonce
        raise CryptoError(
            f"no solution within {max_attempts} attempts at"
            f" {self.target_bits} bits; use MiningRace for high difficulty"
        )


def expected_block_time(total_hashrate: float, difficulty: float) -> float:
    """Expected seconds per block for a Poisson mining process."""
    if total_hashrate <= 0:
        raise CryptoError(f"hashrate must be positive: {total_hashrate}")
    if difficulty <= 0:
        raise CryptoError(f"difficulty must be positive: {difficulty}")
    return difficulty / total_hashrate


class MiningRace:
    """Samples (winner, time-to-block) for a set of miners.

    ``difficulty`` is expressed as expected hash attempts per block, so a
    miner with hashrate H (attempts/second) finds blocks at rate
    ``H / difficulty``.
    """

    def __init__(self, streams: RngStreams, stream_name: str = "pow.race"):
        self._rng = streams.stream(stream_name)

    def sample_block(
        self, hashrates: Dict[str, float], difficulty: float
    ) -> Tuple[str, float]:
        """Return ``(winner_id, seconds_until_block)``.

        The time is exponential with the aggregate rate; the winner is
        chosen proportionally to hashrate — the exact competition model
        used throughout the Bitcoin literature.
        """
        active = {m: h for m, h in hashrates.items() if h > 0}
        if not active:
            raise CryptoError("no miner has positive hashrate")
        if difficulty <= 0:
            raise CryptoError(f"difficulty must be positive: {difficulty}")
        total = sum(active.values())
        dt = self._rng.expovariate(total / difficulty)
        pick = self._rng.random() * total
        cumulative = 0.0
        winner: Optional[str] = None
        for miner_id in sorted(active):  # sorted => deterministic tie-walk
            cumulative += active[miner_id]
            if pick < cumulative:
                winner = miner_id
                break
        if winner is None:  # float edge: pick == total
            winner = max(sorted(active), key=lambda m: active[m])
        return winner, dt
