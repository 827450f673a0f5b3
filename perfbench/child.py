"""One benchmark run in a fresh interpreter; prints one JSON line.

Usage: ``python3 child.py <workload> <seed> <trace 0|1> <spawned_at>``,
where ``spawned_at`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time counts interpreter start-up too.
``run.py`` starts it; the ``repro`` sources must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time


def calibrate(repeats: int = 9) -> float:
    """Median time of a fixed mix of interpreter, JSON and SHA-256 work:
    how fast this host runs Python right now."""
    def once() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(2_000):
            blob = json.dumps({"n": i, "tag": "x" * (i % 13)}, sort_keys=True)
            total += len(hashlib.sha256(blob.encode()).hexdigest()) + i * i % 7
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(repeats))


def main(workload: str, seed: int, traced: bool, spawned_at: float) -> dict:
    import workloads

    module = workloads.load(workload)
    imported_at = time.monotonic()
    tracer = metrics = None
    if traced:
        import spans
        from repro.obs import Metrics, observe

        tracer, metrics = spans.instrument(spans.Tracer()), Metrics()
        with observe(metrics=metrics):
            world = module.build(seed)
    else:
        world = module.build(seed)
    ready_at = time.monotonic()
    calibration = calibrate()
    if tracer is not None:
        tracer.start()
    run_at = time.monotonic()
    outcome = world.run()
    done_at = time.monotonic()
    calibration = (calibration + calibrate()) / 2
    record = {
        "calibration_s": calibration,
        "import_s": imported_at - spawned_at,
        "build_s": ready_at - imported_at,
        "setup_s": ready_at - spawned_at,
        "wall_s": done_at - run_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": outcome.results,
        "work": outcome.work,
        "violations": outcome.violations,
    }
    if tracer is not None:
        self_s = tracer.timer.flush()
        tracer.uninstall()
        record["self_s"] = self_s
        record["counts"] = spans.counts(tracer, metrics, outcome.work)
        record["rpc_methods"] = {
            method: [tracer.rpc_count[method], tracer.rpc_bytes[method]]
            for method in sorted(tracer.rpc_count)
        }
    return record


if __name__ == "__main__":
    name, seed, traced, spawned_at = sys.argv[1:5]
    print(json.dumps(main(name, int(seed), traced == "1", float(spawned_at)),
                     sort_keys=True))
