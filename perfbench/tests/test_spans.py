import pytest

import spans
from spans import Resumptions, SelfTimer, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nested_spans_charge_each_stretch_to_the_innermost():
    clock = FakeClock()
    timer = SelfTimer(clock)
    clock.advance(1)
    timer.enter("net")
    clock.advance(2)
    timer.enter("crypto")
    clock.advance(3)
    timer.exit()
    clock.advance(4)
    timer.exit()
    clock.advance(5)
    assert timer.flush() == {"bench": 6, "net": 6, "crypto": 3}


def test_self_times_add_up_to_the_elapsed_time():
    clock = FakeClock()
    timer = SelfTimer(clock)
    for depth, layer in enumerate(("sim", "net", "gossip", "crypto")):
        timer.enter(layer)
        clock.advance(depth + 0.5)
    for _ in range(4):
        clock.advance(0.25)
        timer.exit()
    assert sum(timer.flush().values()) == pytest.approx(clock.now)


def test_reset_forgets_time_charged_before_the_run():
    clock = FakeClock()
    timer = SelfTimer(clock)
    clock.advance(7)
    timer.reset()
    clock.advance(2)
    assert timer.flush() == {"bench": 2}


def _steps(clock, costs):
    for cost in costs:
        clock.advance(cost)
        yield


def test_interleaved_generator_resumptions_are_separate_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    a = Resumptions(_steps(clock, [1, 10]), "gossip", tracer, "a")
    b = Resumptions(_steps(clock, [2, 20]), "dht", tracer, "b")
    next(a)
    next(b)
    clock.advance(100)  # the engine between resumptions
    next(a)
    next(b)
    for proxy in (a, b):
        with pytest.raises(StopIteration):
            next(proxy)
    assert tracer.timer.flush() == {"gossip": 11, "dht": 22, "bench": 100}


def test_yield_from_a_wrapped_generator_nests_and_returns_its_value():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.advance(3)
        yield "waiting"
        clock.advance(4)
        return "value"

    def outer():
        clock.advance(1)
        got = yield from Resumptions(inner(), "net", tracer, "inner")
        clock.advance(2)
        return got

    proxy = Resumptions(outer(), "groupcomm", tracer, "outer")
    assert next(proxy) == "waiting"
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    assert stop.value.value == "value"
    assert tracer.timer.flush() == {"groupcomm": 3, "net": 7, "bench": 0}


def test_an_exception_leaving_a_resumption_counts_as_a_raise():
    clock = FakeClock()
    tracer = Tracer(clock)

    def failing():
        yield
        raise KeyError("gone")

    proxy = Resumptions(failing(), "dht", tracer, "dht.get")
    next(proxy)
    with pytest.raises(KeyError):
        next(proxy)
    assert tracer.raises["dht.get"] == 1
    assert tracer.timer.current == "bench"


def test_calls_within_a_layer_open_no_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(1)

    traced_leaf = tracer.wrap(leaf, "dht", "leaf")

    def entry():
        clock.advance(2)
        traced_leaf()

    tracer.wrap(entry, "dht", "entry")()
    assert tracer.calls == {"entry": 1, "leaf": 1}
    assert tracer.timer.flush() == {"dht": 3, "bench": 0}


def test_hash_calls_count_only_calls_from_outside_crypto():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap_hash(lambda data: data.upper(), "inner")
    outer = tracer.wrap_hash(lambda data: inner(data), "outer")
    for data in ("a", "b", "a"):
        outer(data)
    assert tracer.hash_calls == 3
    assert tracer.distinct_hash_inputs == 2
    assert tracer.calls == {"outer": 3, "inner": 3}


def test_every_ratio_has_its_stated_base():
    assert spans.RATIOS == {
        "sim.cancel_ratio": ("sim.events_cancelled", "sim.events_scheduled"),
        "net.rpc_fail_ratio": ("net.rpcs_failed", "net.rpcs_sent"),
        "crypto.distinct_ratio": ("crypto.distinct_inputs", "crypto.hash_calls"),
        "gossip.useful_ratio": ("gossip.items_transferred", "gossip.digest_keys"),
        "groupcomm.op_fail_ratio": ("groupcomm.ops_failed", "groupcomm.ops"),
        "dht.rpcs_per_lookup": ("dht.lookup_rpcs", "dht.lookups"),
        "dht.get_ok_ratio": ("dht.gets_ok", "dht.gets"),
        "webapps.visit_ok_ratio": ("webapps.visits_ok", "webapps.visits"),
    }
    counts = {name: 10 * (i + 1) for i, name in enumerate(sorted(
        {n for pair in spans.RATIOS.values() for n in pair}
        | {name for name, _ in spans.COUNT_METRICS}))}
    metrics = spans.count_metrics(counts)
    for name, (numerator, denominator) in spans.RATIOS.items():
        assert metrics[name] == counts[numerator] / counts[denominator]
    assert {name for name, _ in spans.COUNT_METRICS} == set(metrics)


def test_a_ratio_with_nothing_attempted_is_zero():
    assert spans.ratio(0, 0) == 0.0
    assert spans.ratio(3, 4) == 0.75


def test_layer_of_maps_modules_to_layers():
    assert spans.layer_of("repro.sim.engine") == "sim"
    assert spans.layer_of("repro.sim.rng") == "other"
    assert spans.layer_of("repro.net.transport") == "net"
    assert spans.layer_of("repro.groupcomm.partial") == "groupcomm"
    assert spans.layer_of("repro.groupcomm.messages") == "other"
    assert spans.layer_of("repro.faults.injector") == "faults"
    assert spans.layer_of("workloads.fed_writes") == "bench"
    assert spans.layer_of(None) == "bench"
