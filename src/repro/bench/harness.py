"""The timing harness: the only place in :mod:`repro.bench` that reads
the host clock.

Each benchmark body runs once untimed, to warm up, and then
``repetitions`` timed times, each against a fresh
:class:`~repro.obs.metrics.Metrics` registry.  The warm-up pays one-off
costs such as the first import of the body's driver module, which would
otherwise land in the first timed repetition.  Two things come out:

* **Wall clock** — best-of-N (and mean-of-N) seconds.  Best-of is the
  standard noise-resistant estimator for short deterministic workloads:
  the minimum is the run least disturbed by the host.
* **Work counters** — the counter section of the metrics snapshot.
  These are functions of the workload alone (events fired, messages
  delivered, cache hits), so they must be byte-identical across
  repetitions and across machines; the harness checks that on every run
  and marks the result non-deterministic when any repetition disagrees
  with the warm-up.
  Gauges and histograms are excluded — several (``sweep.wall_s``, task
  wall-time histograms) record host time by design.

Regression detection builds on the split: comparisons
(:mod:`repro.bench.compare`) require work counters to match *exactly*
while wall clock only has to stay inside a tolerance band, so a real
algorithmic regression (more events, more messages, lost cache hits) is
caught even on a noisy CI machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import BenchError
from repro.obs.metrics import Metrics

from repro.bench.registry import Benchmark, select_benchmarks

__all__ = [
    "DEFAULT_REPETITIONS",
    "BenchResult",
    "run_benchmark",
    "run_suite",
    "work_counters",
]

DEFAULT_REPETITIONS = 3


@dataclass
class BenchResult:
    """Outcome of one benchmark across all repetitions."""

    name: str
    suite: str
    repetitions: int
    best_s: float
    mean_s: float
    work: Dict[str, int] = field(default_factory=dict)
    deterministic: bool = True

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (the report schema's per-benchmark record)."""
        return {
            "name": self.name,
            "suite": self.suite,
            "repetitions": self.repetitions,
            "best_s": round(self.best_s, 6),
            "mean_s": round(self.mean_s, 6),
            "work": dict(sorted(self.work.items())),
            "deterministic": self.deterministic,
        }


def work_counters(metrics: Metrics) -> Dict[str, int]:
    """The deterministic work record of one body execution: the sorted
    counter snapshot (gauges/histograms carry host time; excluded)."""
    return dict(metrics.snapshot()["counters"])


def run_benchmark(
    bench: Benchmark, repetitions: int = DEFAULT_REPETITIONS
) -> BenchResult:
    """Execute one benchmark once untimed and then ``repetitions`` times
    timed; check the work counters repeat exactly."""
    if repetitions < 1:
        raise BenchError(f"repetitions must be >= 1, got {repetitions}")
    warm_up = Metrics()
    bench.fn(warm_up)
    work = work_counters(warm_up)
    timings: List[float] = []
    deterministic = True
    for _rep in range(repetitions):
        metrics = Metrics()
        start = time.perf_counter()
        bench.fn(metrics)
        timings.append(time.perf_counter() - start)
        if work_counters(metrics) != work:
            deterministic = False
    return BenchResult(
        name=bench.name,
        suite=bench.suite,
        repetitions=repetitions,
        best_s=min(timings),
        mean_s=sum(timings) / len(timings),
        work=work,
        deterministic=deterministic,
    )


def run_suite(
    suite: Optional[str] = None,
    repetitions: int = DEFAULT_REPETITIONS,
    name_filter: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run every selected benchmark, in name order.

    ``progress`` (when given) receives each benchmark's name just before
    it runs — the CLI uses it for live stderr feedback.
    """
    chosen = select_benchmarks(suite=suite, name_filter=name_filter)
    results: List[BenchResult] = []
    for bench in chosen:
        if progress is not None:
            progress(bench.name)
        results.append(run_benchmark(bench, repetitions=repetitions))
    return results
