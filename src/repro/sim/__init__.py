"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator` — the event loop; spawn generator processes on it.
* :class:`Process`, :class:`Signal`, :class:`Timeout`, :class:`AllOf`,
  :class:`AnyOf`, :class:`Interrupt` — process combinators.
* :class:`RngStreams` — named deterministic randomness.
* :class:`DeviceCohort`, :class:`CohortEngine` — the vectorized batch
  engine for population-scale (10^5-10^6 device) experiments.
* :class:`ShardedSimulator`, :class:`ShardWorkload`,
  :func:`run_single_process` — the space-partitioned shard engine
  (conservative-lookahead synchronization; ``docs/SCALING.md``).
* :class:`Monitor`, :class:`Counter`, :class:`Sampler`,
  :class:`TimeWeightedGauge` — measurement.
"""

from typing import Any, Callable

from repro._lazy import lazy_exports
from repro.sim.engine import (
    AllOf,
    AnyOf,
    Interrupt,
    Process,
    Signal,
    Simulator,
    Timeout,
)
from repro.sim.monitor import Counter, Monitor, Sampler, TimeWeightedGauge, summarize
from repro.sim.rng import RngStreams, derive_seed, seeded_generator, seeded_rng

#: Loaded on first use: ``cohort`` imports numpy and ``shard`` the whole
#: transport package, which a plain event-loop run needs neither of.
_LAZY = {
    "CohortEngine": "repro.sim.cohort",
    "DeviceCohort": "repro.sim.cohort",
    "ShardedSimulator": "repro.sim.shard",
    "ShardWorkload": "repro.sim.shard",
    "run_single_process": "repro.sim.shard",
}
__getattr__: Callable[[str], Any] = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "Simulator",
    "CohortEngine",
    "DeviceCohort",
    "ShardedSimulator",
    "ShardWorkload",
    "run_single_process",
    "seeded_generator",
    "Process",
    "Signal",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "RngStreams",
    "derive_seed",
    "seeded_rng",
    "Counter",
    "Sampler",
    "Monitor",
    "TimeWeightedGauge",
    "summarize",
]
