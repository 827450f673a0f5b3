"""The benchmark's workloads.

Each workload module defines ``build(seed) -> World``.  ``build`` makes
every input from the seed and constructs the simulated world without
firing a single event; ``World.run()`` drives the simulation, checks the
workload's invariants and returns an :class:`Outcome`.  Workloads use
only feudalsim's public API.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Dict, List

NAMES = ("fed_steady", "fed_writes", "p2p_swarm")


@dataclass
class Outcome:
    """What one run of a workload produced.

    ``results`` are the experiment results compared with the references
    recorded at the seed commit.  ``work`` holds deterministic counts read
    from program state; they must repeat exactly between runs of one seed,
    traced or not, and keys named ``<layer>.<count>`` feed the per-layer
    metrics.  ``violations`` lists every invariant the run broke.
    """

    results: Dict[str, Any]
    work: Dict[str, int]
    violations: List[str] = field(default_factory=list)


def run_until_done(sim, process, step: float = 10.0,
                   limit: float = 1_000_000.0) -> None:
    """Advance ``sim`` in ``step``-second slices until ``process`` ends.

    ``Simulator.run_process`` advances in 1000 s slices, which would keep
    background gossip running long after the driving process finished.
    """
    while process.alive:
        if sim.now >= limit:
            raise RuntimeError(f"{process.name} still running at t={sim.now}")
        sim.run(until=sim.now + step)


def load(name: str):
    """Import and return the workload module called ``name``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return importlib.import_module(f"workloads.{name}")
