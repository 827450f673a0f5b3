"""feudalsim benchmark runner.

    python3 perfbench/run.py --workload fed_steady --seed 1 --seconds 30 --trace 0

Runs one workload again and again, each run in a fresh interpreter, for
``--seconds`` seconds (after one warm-up run that compiles and caches the
sources).  Every run is checked: its invariants, its results against the
references recorded at the seed commit, and its work counts against the
other runs of the same seed.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it first times untraced runs, then
traces runs span by span and reports the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import stats  # noqa: E402
from child import calibrate  # noqa: E402
from workloads import NAMES  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
#: Fewest measured runs, whatever ``--seconds`` says.
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
#: Share of ``--seconds`` a traced invocation spends on untraced runs.
UNTRACED_SHARE = 0.35
#: Runs stop starting this long after ``--seconds``, or once as many runs
#: failed as should have passed; one run that takes longer than
#: ``RUN_TIMEOUT_S`` is killed.
SLACK_S = 45.0
RUN_TIMEOUT_S = 60.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Times are reported at the speed of a host on which the calibration loop
#: takes this long, so that a shared host's drifting speed, measured
#: around every run, does not read as a change in the program.
REFERENCE_CALIBRATION_S = 0.010


def host_fingerprint() -> Dict[str, Any]:
    """What a cross-host difference is told apart by: CPU count, Python,
    platform, and the time of the fixed calibration loop."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_s": calibrate(15),
    }


def at_reference_speed(runs: List[dict], key: str) -> float:
    """Median over ``runs`` of ``key`` scaled to a host on which the
    calibration loop takes ``REFERENCE_CALIBRATION_S``: each run is scaled
    by the calibration measured around that run."""
    return statistics.median(
        r[key] * REFERENCE_CALIBRATION_S / r["calibration_s"] for r in runs)


def run_child(workload: str, seed: int, traced: bool) -> Tuple[Optional[dict], str]:
    """One run in a fresh interpreter: ``(record, "")`` or ``(None, why)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             "1" if traced else "0", repr(spawned_at)],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"killed after {RUN_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no JSON record on standard output"


class Checker:
    """Judges each run: invariants, reference results, repeatable work."""

    def __init__(self, reference: Optional[dict]):
        self.reference = reference
        self.results = reference
        self.work: Optional[dict] = None
        self.counts: Optional[dict] = None

    def problems(self, record: dict) -> List[str]:
        out = [f"invariant: {v}" for v in record["violations"]]
        if self.results is None:
            self.results = record["results"]
        elif record["results"] != self.results:
            against = "the seed-commit reference" if self.reference else "run 1"
            out.append(f"results differ from {against}: {record['results']}")
        if self.work is None:
            self.work = record["work"]
        elif record["work"] != self.work:
            out.append(f"work counts drifted: {record['work']} != {self.work}")
        if "counts" in record:
            if self.counts is None:
                self.counts = record["counts"]
            elif record["counts"] != self.counts:
                out.append("per-layer counts drifted between traced runs")
        return out


def load_reference(path: Path, workload: str, seed: int) -> Optional[dict]:
    with open(path) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no feudalsim sources at {SRC}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    reference = load_reference(REFERENCES, args.workload, args.seed)
    print("reference: " + ("results recorded at the seed commit" if reference
                           else "none for this seed; invariants and "
                                "run-to-run checks only"))
    checker = Checker(reference)
    untraced: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0

    def one_run(label: str, trace_it: bool) -> Optional[dict]:
        nonlocal attempted, failed
        attempted += 1
        record, why = run_child(args.workload, args.seed, trace_it)
        problems = [why] if record is None else checker.problems(record)
        if record is not None:
            print(f"run {attempted} ({label}): wall {record['wall_s']:.4f} s,"
                  f" setup {record['setup_s']:.4f} s,"
                  f" rss {record['peak_rss_mb']:.1f} MB,"
                  f" calibration {record['calibration_s']:.5f} s")
        for problem in problems:
            print(f"run {attempted} FAILED: {problem}")
        if problems:
            failed += 1
            return None
        return record

    one_run("warm-up", False)
    start = time.monotonic()

    def more(runs: List[dict], least: int, until_s: float) -> bool:
        elapsed = time.monotonic() - start
        if elapsed < until_s:
            return True
        return (len(runs) < least and failed < least
                and elapsed < args.seconds + SLACK_S)

    untraced_s = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    while more(untraced, MIN_TRACED_RUNS if args.trace else MIN_RUNS,
               untraced_s):
        record = one_run("untraced", False)
        if record is not None:
            untraced.append(record)
    while args.trace and more(traced, MIN_TRACED_RUNS, args.seconds):
        record = one_run("traced", True)
        if record is not None:
            traced.append(record)

    metrics: Dict[str, Dict[str, Any]] = {}
    if untraced and (traced or not args.trace):
        print()
        print("on this host:")
        for name, unit in END_TO_END + (("calibration_s", "s"),):
            values = [r[name] for r in untraced]
            print(f"  {name:<13} {unit:<3} {stats.describe(values)}")
        print(f"at reference speed (calibration {REFERENCE_CALIBRATION_S} s):")
        for name, unit in END_TO_END:
            value = (at_reference_speed(untraced, name) if unit == "s"
                     else statistics.median(r[name] for r in untraced))
            print(f"  {name:<13} {unit:<3} {value:.4f}")
            if not args.trace:
                metrics[name] = {"value": value, "unit": unit}
        if args.trace:
            metrics = per_layer(untraced, traced, failed, attempted)
    print(f"error_rate   {failed} failed of {attempted} runs attempted")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if metrics else 1


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric a traced invocation reports."""
    units = {"setup.import_s": "s", "setup.build_s": "s"}
    units.update({f"{layer}.self_s": "s" for layer in spans.LAYERS})
    units.update(spans.COUNT_METRICS)
    units["trace.overhead_ratio"] = "ratio"
    units["error_rate"] = "ratio"
    return units


def per_layer(untraced: List[dict], traced: List[dict], failed: int,
              attempted: int) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from the traced runs, printed as a table."""
    layers = sorted({layer for r in traced for layer in r["self_s"]})
    for r in traced:
        r.update({f"{layer}.self_s": r["self_s"].get(layer, 0.0)
                  for layer in layers})
    self_s = {layer: at_reference_speed(traced, f"{layer}.self_s")
              for layer in layers}
    total = sum(self_s.values())
    print(f"\ntraced time {total:.4f} s at reference speed"
          " (median self time per layer):")
    for layer in sorted(self_s, key=self_s.get, reverse=True):
        share = 100 * self_s[layer] / total
        print(f"  {layer:<10} {self_s[layer]:9.4f} s {share:6.2f}%")

    counts = traced[0]["counts"]
    values: Dict[str, float] = {
        "setup.import_s": at_reference_speed(untraced, "import_s"),
        "setup.build_s": at_reference_speed(untraced, "build_s"),
        "trace.overhead_ratio": (at_reference_speed(traced, "wall_s")
                                 / at_reference_speed(untraced, "wall_s")),
        "error_rate": spans.ratio(failed, attempted),
    }
    values.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in spans.LAYERS})
    values.update(spans.count_metrics(counts))
    bases = {name: f"{counts[num]} / {counts[den]}"
             for name, (num, den) in spans.RATIOS.items()}
    bases["trace.overhead_ratio"] = "traced wall_s / untraced wall_s"
    bases["error_rate"] = f"{failed} failed / {attempted} runs"

    units = per_layer_units()
    print("\nper-layer metrics:")
    for name in sorted(units):
        base = f"  ({bases[name]})" if name in bases else ""
        print(f"  {name:<26} {values[name]:>14.6g} {units[name]:<6}{base}")
    for title, column in (("count", 0), ("declared bytes", 1)):
        top = sorted(traced[0]["rpc_methods"].items(),
                     key=lambda item: (-item[1][column], item[0]))[:5]
        print(f"top RPC methods by {title}: "
              + ", ".join(f"{method} {row[column]}" for method, row in top))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
