"""Registry and timing-harness behavior: selection, determinism checks."""

import pytest

from repro.bench.harness import run_benchmark, run_suite, work_counters
from repro.bench.registry import (
    SUITES,
    Benchmark,
    all_benchmarks,
    get_benchmark,
    register_benchmark,
    select_benchmarks,
)
from repro.errors import BenchError
from repro.obs import Metrics


def _bench(name, fn, suite="micro"):
    return Benchmark(name=name, suite=suite, description="test", fn=fn)


class TestRegistry:
    def test_registered_suites_are_populated(self):
        names = {b.name for b in all_benchmarks()}
        assert "micro.engine.schedule_fire_cancel" in names
        assert "macro.e4.federation_scaling" in names
        suites = {b.suite for b in all_benchmarks()}
        assert suites == set(SUITES)

    def test_selection_by_suite_and_filter(self):
        micro = select_benchmarks(suite="micro")
        assert micro and all(b.suite == "micro" for b in micro)
        rng = select_benchmarks(name_filter="rng")
        assert rng and all("rng" in b.name for b in rng)
        assert [b.name for b in micro] == sorted(b.name for b in micro)

    def test_unknown_suite_rejected(self):
        with pytest.raises(BenchError):
            select_benchmarks(suite="nano")
        with pytest.raises(BenchError):
            register_benchmark("x", "nano", "bad suite")

    def test_duplicate_name_rejected(self):
        existing = all_benchmarks()[0].name
        with pytest.raises(BenchError):
            register_benchmark(existing, "micro", "dup")(lambda metrics: None)

    def test_get_benchmark_unknown_raises(self):
        with pytest.raises(BenchError):
            get_benchmark("no.such.benchmark")


class TestHarness:
    def test_work_counters_exclude_gauges_and_histograms(self):
        metrics = Metrics()
        metrics.inc("bench.steps", 7)
        metrics.set_gauge("bench.wall_s", 1.23)
        metrics.observe("bench.latency", 0.5)
        assert work_counters(metrics) == {"bench.steps": 7}

    def test_deterministic_body_flagged_deterministic(self):
        def body(metrics):
            metrics.inc("bench.fixed", 42)

        result = run_benchmark(_bench("t.fixed", body), repetitions=3)
        assert result.deterministic is True
        assert result.work == {"bench.fixed": 42}
        assert result.repetitions == 3
        assert 0.0 <= result.best_s <= result.mean_s

    def test_nondeterministic_body_detected(self):
        calls = [0]

        def body(metrics):
            calls[0] += 1
            metrics.inc("bench.varies", calls[0])

        result = run_benchmark(_bench("t.varies", body), repetitions=2)
        assert result.deterministic is False

    def test_single_repetition_still_checked_against_warm_up(self):
        calls = [0]

        def body(metrics):
            calls[0] += 1
            metrics.inc("bench.varies", calls[0])

        result = run_benchmark(_bench("t.once", body), repetitions=1)
        assert calls[0] == 2
        assert result.deterministic is False

    def test_untimed_warm_up_runs_first(self):
        calls = [0]

        def body(metrics):
            calls[0] += 1
            metrics.inc("bench.varies", 1 if calls[0] == 1 else 2)

        result = run_benchmark(_bench("t.warm", body), repetitions=2)
        # Three calls, two timings; the warm-up's counters are the
        # reference, so timed calls that differ from it are flagged even
        # when they agree with each other.
        assert calls[0] == 3
        assert result.repetitions == 2
        assert result.work == {"bench.varies": 1}
        assert result.deterministic is False

    def test_zero_repetitions_rejected(self):
        with pytest.raises(BenchError):
            run_benchmark(_bench("t.zero", lambda metrics: None),
                          repetitions=0)

    def test_as_dict_sorts_work_and_rounds(self):
        def body(metrics):
            metrics.inc("z.last")
            metrics.inc("a.first")

        record = run_benchmark(_bench("t.sorted", body)).as_dict()
        assert list(record["work"]) == ["a.first", "z.last"]
        assert record["best_s"] == round(record["best_s"], 6)

    def test_registered_micro_bodies_repeat_identically(self):
        # The double-run acceptance property, at the harness level.
        bench = get_benchmark("micro.rng.stream_draw")
        first = run_benchmark(bench, repetitions=2)
        second = run_benchmark(bench, repetitions=2)
        assert first.deterministic and second.deterministic
        assert first.work == second.work

    def test_run_suite_reports_progress_in_name_order(self):
        seen = []
        results = run_suite(suite="micro", repetitions=1,
                            name_filter="transport",
                            progress=seen.append)
        assert seen == [r.name for r in results]
        assert seen == sorted(seen)
        assert all("transport" in name for name in seen)
