"""``python -m repro chaos``: run an experiment scenario under a fault plan.

Usage::

    python -m repro chaos E4 --plan server-kill --seed 7
    python -m repro chaos E6 --plan registration-partition --format json
    python -m repro chaos E9 --plan plans/flap.json --out chaos.jsonl
    python -m repro chaos --list                   # presets and scenarios

Exit codes mirror ``repro lint``: 0 all invariants held, 1 at least one
invariant violated, 2 usage error.  The run executes under full
observation, so ``--out`` writes the same JSONL trace schema ``repro
trace`` produces (including the ``fault_injected`` / ``fault_healed`` /
``invariant_checked`` / ``invariant_violated`` kinds), and identical
(experiment, plan, seed) invocations write byte-identical traces.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

from repro.errors import FaultError
from repro.faults.presets import PRESETS, load_plan
from repro.obs.metrics import Metrics
from repro.obs.runtime import observe
from repro.obs.tracer import Tracer

__all__ = [
    "CHAOS_SCHEMA_VERSION",
    "add_chaos_arguments",
    "render_chaos_human",
    "render_chaos_json",
    "run_chaos_command",
    "validate_chaos_report",
]

CHAOS_SCHEMA_VERSION = 1

#: Keys every chaos JSON report must carry (the machine interface CI
#: consumes; ``validate_chaos_report`` checks them).
_REQUIRED_KEYS = (
    "schema", "experiment", "plan", "seed", "result", "flow", "faults",
    "invariants", "violations", "trace", "metrics",
)


def add_chaos_arguments(parser) -> None:
    """Attach the chaos options to an ``argparse`` (sub)parser."""
    parser.add_argument(
        "name", nargs="?", default=None,
        help="experiment id with a chaos scenario, e.g. E4",
    )
    parser.add_argument(
        "--plan", default="quiet", metavar="PRESET|FILE",
        help="fault plan: a preset name or a .json plan file"
             " (default: quiet)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="root seed for all RNG streams (default: 1)",
    )
    parser.add_argument(
        "--interval", type=float, default=5.0, metavar="S",
        help="invariant sweep interval in simulated seconds (default: 5)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSONL trace here (default: no trace file)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_presets",
        help="print scenarios and presets, then exit",
    )


def _listing() -> str:
    from repro.faults.scenarios import SCENARIOS

    lines = [f"scenarios: {' '.join(sorted(SCENARIOS))}", "presets:"]
    for name in sorted(PRESETS):
        plan = PRESETS[name]()
        kinds = ", ".join(e.kind for e in plan) or "no events"
        lines.append(f"  {name:<32} {kinds}")
    return "\n".join(lines)


def render_chaos_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=1, sort_keys=True)


def render_chaos_human(report: Dict[str, Any]) -> str:
    lines = [
        f"chaos {report['experiment']}  plan={report['plan']}"
        f"  seed={report['seed']}  horizon={report['horizon']:g}s",
    ]
    for key, value in sorted(report["result"].items()):
        lines.append(f"  {key:<24} {value}")
    flow = report["flow"]
    lines.append(
        f"  flow: sent={flow['sent']} delivered={flow['delivered']}"
        f" dropped={flow['dropped']} in_flight={flow['in_flight']}"
    )
    faults = report["faults"]
    lines.append(
        f"  faults: injected={faults['injected']} healed={faults['healed']}"
    )
    inv = report["invariants"]
    lines.append(
        f"  invariants: {inv['registered']} registered,"
        f" {inv['checks_run']} checks, {inv['violated']} violated"
    )
    for violation in report["violations"]:
        lines.append(
            f"  VIOLATED {violation['name']} at t={violation['at']:g}:"
            f" {violation['message']}"
        )
    return "\n".join(lines)


def validate_chaos_report(doc: Any) -> List[str]:
    """Schema-check a parsed chaos JSON report; returns error strings."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"report must be an object, got {type(doc).__name__}"]
    for key in _REQUIRED_KEYS:
        if key not in doc:
            errors.append(f"missing key {key!r}")
    if doc.get("schema") != CHAOS_SCHEMA_VERSION:
        errors.append(
            f"schema is {doc.get('schema')!r},"
            f" expected {CHAOS_SCHEMA_VERSION}"
        )
    if "violations" in doc and not isinstance(doc["violations"], list):
        errors.append("violations must be a list")
    return errors


def run_chaos_command(args) -> int:
    """Execute the chaos command from parsed arguments."""
    # The scenario catalogue imports every experiment family; building
    # the ``repro`` argument parser must not pay for it.
    from repro.faults.scenarios import SCENARIOS, run_chaos

    if args.list_presets:
        print(_listing())
        return 0
    if args.name is None:
        print("chaos: an experiment id (or --list) is required",
              file=sys.stderr)
        return 2
    name = args.name.upper()
    if name not in SCENARIOS:
        print(f"chaos: no scenario for {args.name!r}; available:"
              f" {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"chaos: --interval must be positive, got {args.interval}",
              file=sys.stderr)
        return 2
    try:
        plan = load_plan(args.plan)
    except FaultError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer()
    metrics = Metrics()
    try:
        with observe(tracer=tracer, metrics=metrics):
            outcome = run_chaos(name, plan, args.seed,
                                interval=args.interval)
    except FaultError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2

    written: Optional[int] = None
    if args.out is not None:
        written = tracer.write_jsonl(args.out)

    report: Dict[str, Any] = {"schema": CHAOS_SCHEMA_VERSION}
    report.update(outcome)
    report["trace"] = {"events": len(tracer), "by_kind": tracer.by_kind()}
    report["metrics"] = {"counters": metrics.snapshot()["counters"]}

    if args.format == "json":
        print(render_chaos_json(report))
    else:
        print(render_chaos_human(report))
        if written is not None:
            print(f"trace written: {args.out} ({written} record(s))")
    return 1 if report["violations"] else 0
