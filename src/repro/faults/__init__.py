"""Deterministic fault injection and invariant checking (the chaos layer).

``repro.faults`` turns the transport/churn fault knobs into a scripted,
reproducible subsystem:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan`s built from
  timed events (:class:`Partition`, :class:`Crash`, :class:`DropBurst`,
  :class:`LatencySpike`, :class:`Corrupt`, :class:`Censor`), JSON
  round-trippable.
* :mod:`repro.faults.injector` — :class:`FaultInjector` compiles a plan
  into simulator events driving ``Network``/``ChurnProcess`` hooks,
  seeded through named RNG streams so every run is bit-reproducible.
* :mod:`repro.faults.invariants` — :class:`InvariantHarness` sweeps
  registered predicates (message conservation, no double-resume,
  monotonic gauges, liveness deadlines, read-your-writes) and captures
  structured :class:`~repro.errors.InvariantViolation`\\ s.
* :mod:`repro.faults.presets` / :mod:`repro.faults.scenarios` — named
  plans and the experiment-shaped chaos workloads behind
  ``python -m repro chaos``.
"""

from typing import Any, Callable

from repro._lazy import lazy_exports
from repro.errors import FaultError, InvariantViolation
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    Invariant,
    InvariantContext,
    InvariantHarness,
    eventually,
    message_conservation,
    monotonic,
    no_double_resume,
    read_your_writes,
)
from repro.faults.plan import (
    Censor,
    Corrupt,
    Crash,
    DropBurst,
    FaultPlan,
    LatencySpike,
    Partition,
)
from repro.faults.presets import PRESETS, load_plan, preset_plan

#: Loaded on first use: the chaos catalogue imports every experiment
#: family it can fault (naming, storage, relays, topologies), which an
#: injector or a plan never needs.
_LAZY = {
    "SCENARIOS": "repro.faults.scenarios",
    "run_chaos": "repro.faults.scenarios",
}
__getattr__: Callable[[str], Any] = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "Censor",
    "Corrupt",
    "Crash",
    "DropBurst",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "Invariant",
    "InvariantContext",
    "InvariantHarness",
    "InvariantViolation",
    "LatencySpike",
    "PRESETS",
    "Partition",
    "SCENARIOS",
    "eventually",
    "load_plan",
    "message_conservation",
    "monotonic",
    "no_double_resume",
    "preset_plan",
    "read_your_writes",
    "run_chaos",
]
