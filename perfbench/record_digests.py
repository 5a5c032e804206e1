"""Record the output digests that benchmark runs are checked against.

Run from the repository root::

    python3 perfbench/record_digests.py              # seeds 0..19
    python3 perfbench/record_digests.py --seeds 0-39 --workload moe-step

Each seeded workload gets one digest per seed; ``paper-figures`` takes
no seeded input and gets one digest for every seed.  A benchmark run
whose seed has no recorded digest gets the seed-independent checks
only.  Re-record only when a change is meant to alter simulated
outputs, and say so in the change: the simulator's results are
otherwise expected to stay bit-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

for name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[name]
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-19"))
    parser.add_argument("--workload", choices=sorted(worker.WORKLOADS))
    args = parser.parse_args(argv)

    table = json.loads(worker.DIGESTS.read_text())
    names = [args.workload] if args.workload else sorted(worker.WORKLOADS)
    for name in names:
        workload = worker.WORKLOADS[name]
        seeds = args.seeds if workload.seeded else [0]
        for seed in seeds:
            record = worker.measure(workload, workload.build(seed), None)
            if record["failures"]:
                print(f"{name} seed {seed}: checks failed, not recorded:",
                      *record["failures"], sep="\n  ", file=sys.stderr)
                return 1
            key = str(seed) if workload.seeded else worker.ANY_SEED
            table.setdefault(name, {})[key] = record["digest"]
            print(f"{name} {key} {record['digest']}", flush=True)
        worker.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
