"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator` — the event loop; spawn generator processes on it.
* :class:`Process`, :class:`Signal`, :class:`Timeout`, :class:`AllOf`,
  :class:`AnyOf`, :class:`Interrupt` — process combinators.
* :class:`RngStreams` — named deterministic randomness.
* :class:`DeviceCohort`, :class:`CohortEngine` — the vectorized batch
  engine for population-scale (10^5-10^6 device) experiments.
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

#: Loaded on first use: ``cohort`` imports numpy, which a plain
#: event-loop run does not need.
_LAZY = {
    "CohortEngine": "repro.sim.cohort",
    "DeviceCohort": "repro.sim.cohort",
}
__getattr__: Callable[[str], Any] = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "Simulator",
    "CohortEngine",
    "DeviceCohort",
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
