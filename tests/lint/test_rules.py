"""Positive and negative coverage for every lint rule."""

import textwrap

from repro.lint import lint_source


def rule_ids(source, path="pkg/repro/module.py"):
    return [f.rule_id for f in lint_source(textwrap.dedent(source), path=path)]


class TestDET001:
    def test_plain_import_flagged(self):
        assert "DET001" in rule_ids("import random\n")

    def test_aliased_and_from_imports_flagged(self):
        assert "DET001" in rule_ids("import random as rnd\n")
        assert "DET001" in rule_ids("from random import Random\n")

    def test_function_level_import_flagged(self):
        src = """
        def f(seed):
            import random as _random
            return _random.Random(seed)
        """
        assert "DET001" in rule_ids(src)

    def test_rng_module_exempt(self):
        assert rule_ids("import random\n", path="src/repro/sim/rng.py") == []

    def test_seeded_rng_usage_clean(self):
        src = """
        from repro.sim.rng import seeded_rng

        def f(seed):
            return seeded_rng(seed, "demo.f").random()
        """
        assert rule_ids(src) == []


class TestDET002:
    def test_wall_clock_call_in_sim_package(self):
        src = """
        import time

        def f():
            return time.time()
        """
        assert rule_ids(src, path="repro/sim/engine.py") == ["DET002"]

    def test_datetime_now_in_chain_package(self):
        src = """
        from datetime import datetime

        def f():
            return datetime.now()
        """
        assert rule_ids(src, path="repro/chain/mempool.py") == ["DET002"]

    def test_from_time_import_flagged(self):
        src = "from time import monotonic\n"
        assert rule_ids(src, path="repro/net/transport.py") == ["DET002"]

    def test_wall_clock_allowed_outside_simulated_packages(self):
        src = """
        import time

        def f():
            return time.perf_counter()
        """
        assert rule_ids(src, path="repro/analysis/runner.py") == []

    def test_simulated_time_attribute_clean(self):
        src = """
        def f(sim):
            return sim.now
        """
        assert rule_ids(src, path="repro/sim/engine.py") == []


class TestDET003:
    def test_np_random_call_flagged(self):
        src = """
        import numpy as np

        def f(n):
            return np.random.rand(n)
        """
        assert "DET003" in rule_ids(src)

    def test_numpy_random_seed_flagged(self):
        src = """
        import numpy

        def f():
            numpy.random.seed(0)
        """
        assert "DET003" in rule_ids(src)

    def test_from_numpy_random_import_flagged(self):
        assert "DET003" in rule_ids("from numpy.random import rand\n")

    def test_default_rng_not_global_state(self):
        # default_rng is explicitly seeded, so DET003 stays quiet; the
        # construction site itself is DET004's business.
        src = """
        import numpy as np

        def f(seed):
            return np.random.default_rng(seed).random()
        """
        assert "DET003" not in rule_ids(src)

    def test_no_numpy_no_findings(self):
        assert rule_ids("import math\n") == []


class TestDET004:
    def test_default_rng_attribute_chain_flagged(self):
        src = """
        import numpy as np

        def f(seed):
            return np.random.default_rng(seed)
        """
        assert rule_ids(src) == ["DET004"]

    def test_generator_via_random_alias_flagged(self):
        src = """
        import numpy.random as npr

        def f(seed):
            return npr.Generator(npr.PCG64(seed))
        """
        assert rule_ids(src) == ["DET004", "DET004"]

    def test_direct_ctor_import_call_flagged(self):
        src = """
        from numpy.random import default_rng

        def f(seed):
            return default_rng(seed)
        """
        assert rule_ids(src) == ["DET004"]

    def test_rng_module_exempt(self):
        src = """
        import numpy

        def seeded_generator(root_seed, name):
            return numpy.random.Generator(numpy.random.PCG64(root_seed))
        """
        assert rule_ids(src, path="src/repro/sim/rng.py") == []

    def test_seeded_generator_usage_clean(self):
        src = """
        from repro.sim.rng import seeded_generator

        def f(seed):
            return seeded_generator(seed, "demo.f").random(10)
        """
        assert rule_ids(src) == []

    def test_unrelated_default_rng_name_clean(self):
        # A local function that merely shares a ctor name is not numpy's.
        src = """
        def default_rng(seed):
            return seed

        def f(seed):
            return default_rng(seed)
        """
        assert rule_ids(src) == []


class TestPAR001:
    def test_lambda_to_runner_run(self):
        src = """
        def f(runner, configs):
            return runner.run("exp", lambda seed: seed, configs)
        """
        assert rule_ids(src) == ["PAR001"]

    def test_nested_function_to_submit(self):
        src = """
        def f(executor):
            def point(seed):
                return seed
            return executor.submit(point, 1)
        """
        assert rule_ids(src) == ["PAR001"]

    def test_lambda_valued_name_to_map(self):
        src = """
        transform = lambda x: x + 1

        def f(pool, items):
            return pool.map(transform, items)
        """
        assert rule_ids(src) == ["PAR001"]

    def test_top_level_function_clean(self):
        src = """
        def point(seed):
            return seed

        def f(runner, configs):
            return runner.run("exp", point, configs)
        """
        assert rule_ids(src) == []

    def test_sorted_key_lambda_not_flagged(self):
        src = """
        def f(items):
            return sorted(items, key=lambda x: x.name)
        """
        assert rule_ids(src) == []


class TestERR001:
    def test_swallowed_broad_except(self):
        src = """
        def f(fn):
            try:
                return fn()
            except Exception:
                return None
        """
        assert rule_ids(src) == ["ERR001"]

    def test_bare_except_flagged(self):
        src = """
        def f(fn):
            try:
                return fn()
            except:
                return None
        """
        assert rule_ids(src) == ["ERR001"]

    def test_reraise_allowed(self):
        src = """
        def f(fn):
            try:
                return fn()
            except Exception as exc:
                raise RuntimeError("wrapped") from exc
        """
        assert rule_ids(src) == []

    def test_narrow_handler_allowed(self):
        src = """
        def f(fn):
            try:
                return fn()
            except (ValueError, KeyError):
                return None
        """
        assert rule_ids(src) == []


class TestAPI001:
    def test_phantom_export_flagged(self):
        src = """
        __all__ = ["missing"]
        """
        assert rule_ids(src) == ["API001"]

    def test_unexported_public_def_flagged(self):
        src = """
        __all__ = ["f"]

        def f():
            return 1

        def g():
            return 2
        """
        assert rule_ids(src) == ["API001"]

    def test_private_defs_need_no_export(self):
        src = """
        __all__ = ["f"]

        def f():
            return 1

        def _helper():
            return 2
        """
        assert rule_ids(src) == []

    def test_module_without_all_exempt(self):
        src = """
        def anything():
            return 1
        """
        assert rule_ids(src) == []

    def test_conditional_definition_counts(self):
        src = """
        __all__ = ["f"]

        try:
            from fastlib import f
        except ImportError:
            def f():
                return 1
        """
        assert rule_ids(src) == []

    def test_lazy_table_keys_count_as_bound(self):
        src = """
        from repro._lazy import lazy_exports
        from pkg.light import f

        _LAZY = {"Heavy": "pkg.heavy", "load": "pkg.heavy"}
        __getattr__ = lazy_exports(__name__, _LAZY, globals())

        __all__ = ["f", "Heavy", "load"]
        """
        assert rule_ids(src) == []

    def test_inline_annotated_lazy_table_counts(self):
        src = """
        from typing import Any, Callable

        from repro._lazy import lazy_exports

        __getattr__: Callable[[str], Any] = lazy_exports(
            __name__, {"Heavy": "pkg.heavy"}, globals())

        __all__ = ["Heavy"]
        """
        assert rule_ids(src) == []

    def test_name_in_neither_bindings_nor_table_flagged(self):
        src = """
        from repro._lazy import lazy_exports

        _LAZY = {"Heavy": "pkg.heavy"}
        __getattr__ = lazy_exports(__name__, _LAZY, globals())

        __all__ = ["Heavy", "missing"]
        """
        findings = lint_source(textwrap.dedent(src), path="pkg/repro/module.py")
        assert [f.rule_id for f in findings] == ["API001"]
        assert "'missing'" in findings[0].message

    def test_table_key_missing_from_all_flagged(self):
        src = """
        from repro._lazy import lazy_exports

        _LAZY = {"Heavy": "pkg.heavy", "Forgotten": "pkg.heavy"}
        __getattr__ = lazy_exports(__name__, _LAZY, globals())

        __all__ = ["Heavy"]
        """
        findings = lint_source(textwrap.dedent(src), path="pkg/repro/module.py")
        assert [f.rule_id for f in findings] == ["API001"]
        assert "'Forgotten'" in findings[0].message
        assert findings[0].line == 4

    def test_dict_not_passed_to_lazy_exports_binds_nothing(self):
        src = """
        _TABLE = {"Heavy": "pkg.heavy"}

        __all__ = ["Heavy"]
        """
        assert rule_ids(src) == ["API001"]


class TestFLT001:
    def test_partition_assignment_flagged(self):
        src = """
        def sabotage(network):
            network._partition = {"a": 0, "b": 1}
        """
        assert rule_ids(src) == ["FLT001"]

    def test_loss_rate_mutation_flagged(self):
        src = """
        def degrade(network):
            network.loss_rate = 0.5
        """
        assert rule_ids(src) == ["FLT001"]

    def test_aug_and_annotated_assignments_flagged(self):
        assert "FLT001" in rule_ids("def f(n):\n    n.drop_prob += 0.1\n")
        assert "FLT001" in rule_ids(
            "def f(n):\n    n.loss_rate: float = 0.2\n"
        )

    def test_set_fault_surface_call_flagged(self):
        src = """
        def install(network, surface):
            network._set_fault_surface(surface)
        """
        assert rule_ids(src) == ["FLT001"]

    def test_faults_package_exempt(self):
        src = """
        def install(network, surface):
            network._set_fault_surface(surface)
        """
        assert rule_ids(src, path="src/repro/faults/injector.py") == []

    def test_transport_module_exempt(self):
        src = """
        class Network:
            def __init__(self):
                self._partition = None
                self.loss_rate = 0.0
        """
        assert rule_ids(src, path="src/repro/net/transport.py") == []

    def test_public_partition_api_clean(self):
        src = """
        def split(network):
            network.partition([["a"], ["b"]])
            network.heal()
        """
        assert rule_ids(src) == []

    def test_constructor_kwarg_clean(self):
        src = """
        def build(sim, streams, Network):
            return Network(sim, streams, loss_rate=0.02)
        """
        assert rule_ids(src) == []

    def test_censor_assignment_flagged(self):
        src = """
        def censor_by_hand(network, surface):
            network._censor = surface
        """
        assert rule_ids(src) == ["FLT001"]

    def test_set_censor_surface_call_flagged(self):
        src = """
        def install(network, surface):
            network._set_censor_surface(surface)
        """
        assert rule_ids(src) == ["FLT001"]

    def test_blocklist_in_place_mutation_flagged(self):
        for mutation in ("surface.blocklist.add('relay0')",
                         "surface.blocklist.discard('svc0')",
                         "surface.blocklist.update(ids)",
                         "surface.blocklist.clear()"):
            src = f"def poke(surface, ids):\n    {mutation}\n"
            assert rule_ids(src) == ["FLT001"], mutation

    def test_blocklist_reassignment_flagged(self):
        assert rule_ids(
            "def poke(surface):\n    surface.blocklist = set()\n"
        ) == ["FLT001"]

    def test_censor_mutation_exempt_inside_faults(self):
        src = """
        def reblock(surface, relay):
            surface.blocklist.add(relay)
        """
        assert rule_ids(src, path="src/repro/faults/injector.py") == []

    def test_unrelated_set_mutation_clean(self):
        src = """
        def track(state, relay):
            state.seen.add(relay)
            blocklist = set()
            blocklist.add(relay)
        """
        assert rule_ids(src) == []


BENCH_PATH = "src/repro/bench/micro.py"


class TestBEN001:
    def test_perf_counter_call_flagged(self):
        src = """
        import time

        def bench_x(metrics):
            start = time.perf_counter()
        """
        assert rule_ids(src, path=BENCH_PATH) == ["BEN001"]

    def test_wall_clock_import_flagged(self):
        assert rule_ids("from time import perf_counter\n",
                        path=BENCH_PATH) == ["BEN001"]
        assert rule_ids("from time import monotonic\n",
                        path=BENCH_PATH) == ["BEN001"]

    def test_datetime_now_flagged(self):
        src = """
        import datetime

        def bench_x(metrics):
            return datetime.datetime.now()
        """
        assert rule_ids(src, path=BENCH_PATH) == ["BEN001"]

    def test_bare_time_import_clean(self):
        # Importing the module alone is fine; only clock reads are not.
        assert rule_ids("import time\n", path=BENCH_PATH) == []

    def test_time_sleep_clean(self):
        # sleep does not *read* the clock into benchmark behaviour.
        src = """
        import time

        def bench_x(metrics):
            time.sleep(0)
        """
        assert rule_ids(src, path=BENCH_PATH) == []

    def test_harness_module_exempt(self):
        src = """
        import time

        def run_benchmark(bench):
            return time.perf_counter()
        """
        assert rule_ids(src, path="src/repro/bench/harness.py") == []

    def test_outside_bench_package_out_of_scope(self):
        src = """
        import time

        def elsewhere():
            return time.perf_counter()
        """
        assert rule_ids(src, path="src/repro/analysis/runner.py") == []

    def test_noqa_suppression(self):
        src = ("import time\n"
               "def bench_x(metrics):\n"
               "    t = time.perf_counter()  # repro: noqa[BEN001]\n")
        assert rule_ids(src, path=BENCH_PATH) == []


class TestSHD001:
    def test_outbox_assignment_flagged(self):
        src = """
        def smuggle(network):
            network._shard_outbox = []
        """
        assert rule_ids(src) == ["SHD001"]

    def test_assignment_map_and_transit_flagged(self):
        src = """
        def rewire(network, router):
            network._shard_assignment = {"a": 0}
            router._envelopes_in_transit = []
        """
        assert rule_ids(src) == ["SHD001", "SHD001"]

    def test_aug_and_annotated_assignments_flagged(self):
        assert "SHD001" in rule_ids("def f(n):\n    n._shard_seq += 1\n")
        assert "SHD001" in rule_ids(
            "def f(n):\n    n._shard_outbox: list = []\n"
        )

    def test_injection_call_flagged(self):
        src = """
        def shortcut(network, envelope):
            network._inject_envelope(envelope)
        """
        assert rule_ids(src) == ["SHD001"]

    def test_take_outbox_call_flagged(self):
        src = """
        def steal(network):
            return network._take_outbox()
        """
        assert rule_ids(src) == ["SHD001"]

    def test_shard_module_exempt(self):
        src = """
        class ShardNetwork:
            def __init__(self):
                self._shard_outbox = []

            def barrier(self, envelope):
                self._inject_envelope(envelope)
        """
        assert rule_ids(src, path="src/repro/sim/shard.py") == []

    def test_public_shard_api_clean(self):
        src = """
        def drive(coordinator, network, router):
            network.send("a", "b", "ping", {})
            router.collect([])
            router.drain()
            return coordinator.run()
        """
        assert rule_ids(src) == []

    def test_noqa_suppression(self):
        src = ("def f(n):\n"
               "    n._shard_outbox = []  # repro: noqa[SHD001]\n")
        assert rule_ids(src) == []
