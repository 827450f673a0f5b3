"""Per-layer self time and work counts for a traced run.

The program is measured as it stands: :func:`instrument` patches spans
around each layer's public entry points from outside, after the workload
has imported them.  A span is opened

* around every call of a public function or method of a layer module;
* around every engine callback, labelled by the callback's module;
* around every handler a node registers, labelled by the handler's module;
* around every *resumption* of a generator entry point or spawned process,
  because protocol code runs as generators the engine drives, so one call
  is many separate stretches of work.

Spans nest with the Python call stack, so a :class:`SelfTimer` charges
each stretch of host time to the innermost open span: a layer's self time
is its spans' duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer; a module belongs to the first prefix it matches.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim"),
    ("repro.net", "net"),
    ("repro.crypto.hashing", "crypto"),
    ("repro.gossip.antientropy", "gossip"),
    ("repro.groupcomm.federated", "groupcomm"),
    ("repro.groupcomm.partial", "groupcomm"),
    ("repro.faults", "faults"),
    ("repro.dht", "dht"),
    ("repro.webapps", "webapps"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS))
#: The benchmark's own code, and host time outside every span.
BENCH = "bench"
#: feudalsim modules outside the measured layers (rng, obs, core, ...).
OTHER = "other"

#: Hash functions counted as ``crypto.hash_calls`` when called from
#: outside the crypto layer (their nested calls are one hash).
HASH_FUNCTIONS = ("sha256", "sha256_hex", "hash_obj", "hash_int")
#: RPC methods whose response is a digest, per layer that serves it.
DIGEST_METHODS = {"gossip.digest": "gossip", "pfed.digest": "groupcomm"}
#: Client operations counted as ``groupcomm.ops``.
GROUPCOMM_OPS = ("post", "fetch", "set_room_state", "get_room_state")
#: RPC methods a Kademlia lookup walks with.
LOOKUP_METHODS = ("dht.find_node", "dht.find_value")
#: Private entry points wrapped for a count: the DHT's iterative walk.
EXTRA_ENTRY_POINTS = (("repro.dht.kademlia", "KademliaNode", "_iterative"),)


def layer_of(module: Optional[str]) -> str:
    """The layer code in ``module`` belongs to."""
    module = module or ""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER if module.startswith("repro.") else BENCH


class SelfTimer:
    """Charges every stretch of host time to the innermost open span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 base: str = BENCH):
        self._clock = clock
        self._stack: List[str] = [base]
        self._mark = clock()
        self.self_s: Dict[str, float] = defaultdict(float)

    def enter(self, layer: str) -> None:
        now = self._clock()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        self._stack.append(layer)

    def exit(self) -> None:
        now = self._clock()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    @property
    def current(self) -> str:
        return self._stack[-1]

    def reset(self) -> None:
        """Forget the time charged so far and start measuring now."""
        self.self_s.clear()
        self._mark = self._clock()

    def flush(self) -> Dict[str, float]:
        """Charge the time since the last boundary and return self times."""
        now = self._clock()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        return dict(self.self_s)


class Resumptions:
    """Stands in for a generator and records a span per resumption.

    ``yield from`` and :class:`repro.sim.engine.Process` drive it exactly
    like the generator it wraps (``send``/``throw``/``close``, return value
    carried by ``StopIteration``).
    """

    def __init__(self, generator: Any, layer: str, tracer: "Tracer",
                 key: str):
        self._generator = generator
        self._layer = layer
        self._tracer = tracer
        self._key = key
        self.__name__ = getattr(generator, "__name__", "generator")

    def __iter__(self) -> "Resumptions":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        return self._resume(self._generator.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._resume(self._generator.throw, *exc)

    def close(self) -> None:
        self._generator.close()

    def _resume(self, step: Callable, *args: Any) -> Any:
        timer = self._tracer.timer
        crossing = timer.current != self._layer
        if crossing:
            timer.enter(self._layer)
        try:
            return step(*args)
        except StopIteration:
            raise
        except BaseException:
            self._tracer.raises[self._key] += 1
            raise
        finally:
            if crossing:
                timer.exit()


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.timer = SelfTimer(clock)
        self.calls: Counter = Counter()
        self.raises: Counter = Counter()
        self.hash_calls = 0
        self._digests: set = set()
        self.digest_keys: Counter = Counter()
        self.rpc_count: Counter = Counter()
        self.rpc_bytes: Counter = Counter()
        self._installed: List[Tuple[Any, str, Any]] = []

    def start(self) -> None:
        """Forget what set-up recorded: the run is measured from here."""
        self.timer.reset()
        for table in (self.calls, self.raises, self.digest_keys,
                      self.rpc_count, self.rpc_bytes):
            table.clear()
        self.hash_calls = 0
        self._digests.clear()

    # -- span wrappers -----------------------------------------------------

    def wrap(self, fn: Callable, layer: str, key: str) -> Callable:
        """A span around every call of ``fn``; generator functions get a
        span per resumption instead."""
        timer, calls, raises = self.timer, self.calls, self.raises
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[key] += 1
                return Resumptions(fn(*args, **kwargs), layer, self, key)
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[key] += 1
                # A call within the layer changes no self time: skip the
                # span and its two clock reads.
                crossing = timer.current != layer
                if crossing:
                    timer.enter(layer)
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    raises[key] += 1
                    raise
                finally:
                    if crossing:
                        timer.exit()
        return functools.wraps(fn)(wrapper)

    def wrap_hash(self, fn: Callable, key: str) -> Callable:
        """Like :meth:`wrap`, also counting calls from outside the crypto
        layer and the distinct digests they produced."""
        timer, calls, digests = self.timer, self.calls, self._digests

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            outer = timer.current != "crypto"
            if not outer:
                return fn(*args, **kwargs)
            timer.enter("crypto")
            try:
                result = fn(*args, **kwargs)
            finally:
                timer.exit()
            self.hash_calls += 1
            digests.add((fn.__name__, result))
            return result
        return functools.wraps(fn)(wrapper)

    def callback(self, callback: Callable) -> Callable:
        """A span around an engine callback, labelled by its module."""
        layer = layer_of(_module_of(callback))
        timer = self.timer

        def traced(*args: Any) -> Any:
            if timer.current == layer:
                return callback(*args)
            timer.enter(layer)
            try:
                return callback(*args)
            finally:
                timer.exit()
        return traced

    def handler(self, method: str, handler: Callable) -> Callable:
        """A span around a node's RPC/message handler; a handler that
        returns a generator gets a span per resumption."""
        layer = layer_of(_module_of(handler))
        key = f"handler:{method}"
        digest_layer = DIGEST_METHODS.get(method)
        timer = self.timer

        def traced(node: Any, payload: Any, sender: str) -> Any:
            timer.enter(layer)
            try:
                result = handler(node, payload, sender)
            finally:
                timer.exit()
            if digest_layer is not None:
                self.digest_keys[digest_layer] += len(result)
            if hasattr(result, "send") and hasattr(result, "throw"):
                return Resumptions(result, layer, self, key)
            return result
        return traced

    @property
    def distinct_hash_inputs(self) -> int:
        return len(self._digests)

    # -- installation --------------------------------------------------

    def patch(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name`` to ``value``, remembering the original."""
        self._installed.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)


def _module_of(fn: Any) -> Optional[str]:
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__module__", None)


def _layer_modules() -> List[Any]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and layer_of(name) in LAYERS]


def instrument(tracer: Tracer) -> Tracer:
    """Patch spans onto every layer module imported so far.

    Call after the workload has imported what it uses and before it
    builds its world; :meth:`Tracer.uninstall` undoes it.
    """
    from repro.net.node import Node
    from repro.net.transport import Network
    from repro.sim.engine import Simulator

    special = {
        (Simulator, "schedule"), (Simulator, "spawn"),
        (Node, "register_handler"), (Network, "rpc"),
    }
    replaced: Dict[int, Callable] = {}
    for module in _layer_modules():
        layer = layer_of(module.__name__)
        for name, obj in list(vars(module).items()):
            defined_here = getattr(obj, "__module__", None) == module.__name__
            if name.startswith("_") or not defined_here:
                continue
            key = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                if layer == "crypto" and name in HASH_FUNCTIONS:
                    wrapped = tracer.wrap_hash(obj, key)
                else:
                    wrapped = tracer.wrap(obj, layer, key)
                tracer.patch(module, name, wrapped)
                replaced[id(obj)] = wrapped
            elif inspect.isclass(obj):
                _wrap_class(tracer, obj, layer, key, special)
    for module_name, cls_name, name in EXTRA_ENTRY_POINTS:
        module = sys.modules.get(module_name)
        if module is not None:
            cls = getattr(module, cls_name)
            tracer.patch(cls, name, tracer.wrap(
                cls.__dict__[name], layer_of(module_name),
                f"{module_name}.{cls_name}.{name}"))
    _rebind_imported_names(tracer, replaced)

    schedule = tracer.wrap(Simulator.schedule, "sim",
                           "repro.sim.engine.Simulator.schedule")
    spawn = tracer.wrap(Simulator.spawn, "sim",
                        "repro.sim.engine.Simulator.spawn")
    register = tracer.wrap(Node.register_handler, "net",
                           "repro.net.node.Node.register_handler")
    rpc = Network.rpc
    rpc_signature = inspect.signature(rpc)
    traced_rpc = tracer.wrap(rpc, "net", "repro.net.transport.Network.rpc")

    def traced_schedule(sim: Any, delay: float, callback: Callable,
                        *args: Any) -> Any:
        return schedule(sim, delay, tracer.callback(callback), *args)

    def traced_spawn(sim: Any, generator: Any, name: str = "") -> Any:
        if not isinstance(generator, Resumptions):
            frame = getattr(generator, "gi_frame", None)
            module = frame.f_globals.get("__name__") if frame else None
            generator = Resumptions(generator, layer_of(module), tracer,
                                    f"process:{module}")
        return spawn(sim, generator, name)

    def traced_register(node: Any, method: str, handler: Callable) -> None:
        register(node, method, tracer.handler(method, handler))

    def rpc_counting(*args: Any, **kwargs: Any) -> Any:
        bound = rpc_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        method = bound.arguments["method"]
        tracer.rpc_count[method] += 1
        tracer.rpc_bytes[method] += (bound.arguments["size_bytes"]
                                     + bound.arguments["response_bytes"])
        return traced_rpc(*args, **kwargs)

    tracer.patch(Simulator, "schedule", traced_schedule)
    tracer.patch(Simulator, "spawn", traced_spawn)
    tracer.patch(Node, "register_handler", traced_register)
    tracer.patch(Network, "rpc", functools.wraps(rpc)(rpc_counting))
    return tracer


def _wrap_class(tracer: Tracer, cls: type, layer: str, prefix: str,
                special: set) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") or (cls, name) in special:
            continue
        key = f"{prefix}.{name}"
        if isinstance(attr, property) and attr.fget is not None:
            tracer.patch(cls, name, property(
                tracer.wrap(attr.fget, layer, key), attr.fset, attr.fdel,
                attr.__doc__))
        elif isinstance(attr, (staticmethod, classmethod)):
            tracer.patch(cls, name, type(attr)(
                tracer.wrap(attr.__func__, layer, key)))
        elif inspect.isfunction(attr):
            tracer.patch(cls, name, tracer.wrap(attr, layer, key))


def _rebind_imported_names(tracer: Tracer, replaced: Dict[int, Callable]) -> None:
    """Point ``from module import fn`` bindings elsewhere at the wrappers."""
    for module in [m for m in list(sys.modules.values()) if m is not None]:
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None and wrapped is not value:
                tracer.patch(module, name, wrapped)


# -- per-layer metrics ---------------------------------------------------

#: Every named ratio and its base: name -> (numerator, denominator).
RATIOS: Dict[str, Tuple[str, str]] = {
    "sim.cancel_ratio": ("sim.events_cancelled", "sim.events_scheduled"),
    "net.rpc_fail_ratio": ("net.rpcs_failed", "net.rpcs_sent"),
    "crypto.distinct_ratio": ("crypto.distinct_inputs", "crypto.hash_calls"),
    "gossip.useful_ratio": ("gossip.items_transferred", "gossip.digest_keys"),
    "groupcomm.op_fail_ratio": ("groupcomm.ops_failed", "groupcomm.ops"),
    "dht.rpcs_per_lookup": ("dht.lookup_rpcs", "dht.lookups"),
    "dht.get_ok_ratio": ("dht.gets_ok", "dht.gets"),
    "webapps.visit_ok_ratio": ("webapps.visits_ok", "webapps.visits"),
}


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def counts(tracer: Tracer, metrics: Any, work: Dict[str, int]) -> Dict[str, int]:
    """Every count a per-layer metric is built from, by name.

    Sources: the ambient :class:`repro.obs.Metrics` registry (engine and
    transport counters), the tracer's wrappers, and the program state the
    workload read back (``work``).
    """
    counter = metrics.counter

    def groupcomm_ops(table: Counter) -> int:
        return sum(n for key, n in table.items()
                   if key.rsplit(".", 1)[-1] in GROUPCOMM_OPS
                   and layer_of(key.rsplit(".", 2)[0]) == "groupcomm")

    get = "repro.dht.kademlia.KademliaNode.get"
    visit = "repro.webapps.swarm.SiteSwarm.visit"
    return {
        "sim.events_fired": counter("sim.events_fired"),
        "sim.events_scheduled": counter("sim.events_scheduled"),
        "sim.events_cancelled": counter("sim.events_cancelled"),
        "net.messages_sent": counter("net.messages_sent"),
        "net.bytes_sent": counter("net.bytes_sent"),
        "net.rpcs_sent": counter("net.rpcs_sent"),
        "net.rpcs_failed": (counter("net.rpcs_timeout")
                            + counter("net.rpcs_remote_error")),
        "crypto.hash_calls": tracer.hash_calls,
        "crypto.distinct_inputs": tracer.distinct_hash_inputs,
        "gossip.rounds": work.get("gossip.rounds", 0),
        "gossip.digest_keys": tracer.digest_keys["gossip"],
        "gossip.items_transferred": work.get("gossip.items_transferred", 0),
        "groupcomm.ops": groupcomm_ops(tracer.calls),
        "groupcomm.ops_failed": groupcomm_ops(tracer.raises),
        "groupcomm.digest_keys": tracer.digest_keys["groupcomm"],
        "groupcomm.conflicts": work.get("groupcomm.conflicts", 0),
        "faults.events_applied": work.get("faults.events_applied", 0),
        "faults.messages_dropped": work.get("faults.messages_dropped", 0),
        "dht.lookups": tracer.calls["repro.dht.kademlia.KademliaNode._iterative"],
        "dht.lookup_rpcs": sum(tracer.rpc_count[m] for m in LOOKUP_METHODS),
        "dht.gets": tracer.calls[get],
        "dht.gets_ok": tracer.calls[get] - tracer.raises[get],
        "webapps.visits": tracer.calls[visit],
        "webapps.visits_ok": tracer.calls[visit] - tracer.raises[visit],
    }


#: Per-layer metrics built from counts: name -> (count or ratio, unit).
COUNT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.events_fired", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.cancel_ratio", "ratio"),
    ("net.messages_sent", "count"),
    ("net.bytes_sent", "bytes"),
    ("net.rpcs_sent", "count"),
    ("net.rpc_fail_ratio", "ratio"),
    ("crypto.hash_calls", "count"),
    ("crypto.distinct_ratio", "ratio"),
    ("gossip.rounds", "count"),
    ("gossip.digest_keys", "count"),
    ("gossip.items_transferred", "count"),
    ("gossip.useful_ratio", "ratio"),
    ("groupcomm.ops", "count"),
    ("groupcomm.op_fail_ratio", "ratio"),
    ("groupcomm.digest_keys", "count"),
    ("groupcomm.conflicts", "count"),
    ("faults.events_applied", "count"),
    ("faults.messages_dropped", "count"),
    ("dht.lookups", "count"),
    ("dht.rpcs_per_lookup", "ratio"),
    ("dht.get_ok_ratio", "ratio"),
    ("webapps.visits", "count"),
    ("webapps.visit_ok_ratio", "ratio"),
)


def count_metrics(run_counts: Dict[str, int]) -> Dict[str, float]:
    """The named count and ratio metrics of one traced run."""
    out: Dict[str, float] = {}
    for name, _unit in COUNT_METRICS:
        if name in RATIOS:
            numerator, denominator = RATIOS[name]
            out[name] = ratio(run_counts[numerator], run_counts[denominator])
        else:
            out[name] = run_counts[name]
    return out
