"""Record the reference results the benchmark checks each run against.

    python3 perfbench/record_references.py --seeds 0-63

Runs every workload once per seed (untraced, in a fresh interpreter) and
stores its experiment results in ``references.json``, keeping entries for
other seeds.  Record only at a commit whose results are known to be right:
a later change that alters any of them fails the benchmark's check.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range such as 0-63")
    args = parser.parse_args()
    try:
        with open(run.REFERENCES) as handle:
            references = json.load(handle)
    except FileNotFoundError:
        references = {}
    for name in run.NAMES:
        for seed in args.seeds:
            record, why = run.run_child(name, seed, traced=False)
            if record is None or record["violations"]:
                print(f"{name} seed {seed}: not recorded:"
                      f" {why or record['violations']}", file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = record["results"]
            print(f"{name} seed {seed}: {record['results']}", flush=True)
    for name in references:
        references[name] = dict(sorted(references[name].items(),
                                       key=lambda item: int(item[0])))
    with open(run.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=False)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
