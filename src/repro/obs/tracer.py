"""Deterministic event tracing: one JSONL record per span/event.

A :class:`Tracer` is an append-only buffer of flat dict records.  Every
record carries the schema version, a monotonically increasing ``seq``
(total order over the whole run), and a ``kind`` naming the event; all
other fields are emitter-specific JSON scalars.

Determinism contract: emitters may only record simulated quantities —
``Simulator.now``, sequence numbers, names, byte counts.  Wall-clock
reads, ``id()`` values, and unsorted dict iteration are forbidden, so
two runs of the same seeded experiment produce byte-identical traces.

Record shape (see :mod:`repro.obs.reporters` for the validator)::

    {"schema": 1, "seq": 0, "kind": "process_spawned",
     "t": 0.0, "name": "client"}

Well-known kinds (open set; consumers must ignore unknown kinds):

==================== =====================================================
kind                 emitted by
==================== =====================================================
``event_scheduled``  :meth:`Simulator.schedule`
``event_fired``      the :meth:`Simulator.run` loop
``event_cancelled``  event cancellation (at cancel time, drained or not)
``process_spawned``  :meth:`Simulator.spawn`
``process_finished`` a process generator returning / being interrupted
``queue_depth``      periodic queue-depth samples from the run loop
``msg_send``         :meth:`Network.send` / request legs of ``rpc``
``msg_deliver``      successful delivery at the destination
``msg_drop``         loss / offline / partition drops (``reason`` field)
``rpc``              one completed RPC attempt (latency, outcome, retry)
``sweep_task``       one sweep grid point (wall time, cache status)
``fault_injected``   :class:`repro.faults.FaultInjector` opening a fault
                     (partition/crash/window start)
``fault_healed``     the matching heal/restart/window end
``censor_detected``  the censor's DPI detecting a relay (``relay``)
``censor_reblocked`` a detected relay joining the blocklist
``invariant_checked`` one :class:`repro.faults.InvariantHarness` sweep
                     (``checked``/``violated`` counts)
``invariant_violated`` a single invariant failure (``name``, ``message``)
==================== =====================================================
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["RESERVED_FIELDS", "TRACE_SCHEMA_VERSION", "Tracer"]

TRACE_SCHEMA_VERSION = 1

#: Field names the tracer itself owns; emitters may not override them.
RESERVED_FIELDS = frozenset({"schema", "seq", "kind"})


class Tracer:
    """Append-only deterministic trace buffer.

    Parameters
    ----------
    capacity:
        Optional hard cap on retained records.  Past it, new records are
        counted (``dropped``) but not stored — a safety valve for very
        long runs; ``None`` (default) retains everything.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._seq = 0
        self._events: List[Dict[str, Any]] = []

    # -- emitting --------------------------------------------------------

    def emit(self, kind: str, /, **fields: Any) -> None:
        """Record one event.  ``fields`` must be JSON scalars and may
        not use the reserved names ``schema``/``seq``/``kind``."""
        if not RESERVED_FIELDS.isdisjoint(fields):
            clash = sorted(RESERVED_FIELDS.intersection(fields))
            raise ValueError(f"reserved trace field(s): {', '.join(clash)}")
        seq = self._seq
        self._seq += 1
        if self.capacity is not None and len(self._events) >= self.capacity:
            self.dropped += 1
            return
        record: Dict[str, Any] = {
            "schema": TRACE_SCHEMA_VERSION, "seq": seq, "kind": kind,
        }
        record.update(fields)
        self._events.append(record)

    # -- reading ---------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The retained records, in emission order (a copy)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self._events)
        return sum(1 for e in self._events if e["kind"] == kind)

    def iter_kind(self, kind: str) -> Iterator[Dict[str, Any]]:
        for event in self._events:
            if event["kind"] == kind:
                yield event

    def by_kind(self) -> Dict[str, int]:
        """Event counts per kind, sorted by kind name."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    # -- serialization ---------------------------------------------------

    def to_jsonl(self) -> str:
        """One compact JSON object per line (trailing newline included
        when non-empty)."""
        if not self._events:
            return ""
        lines = [
            json.dumps(event, separators=(",", ":")) for event in self._events
        ]
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> int:
        """Write the trace to ``path``; returns the record count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer(events={len(self._events)}, dropped={self.dropped})"
