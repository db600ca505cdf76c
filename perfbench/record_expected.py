"""Record the outputs this commit produces into ``perfbench/expected.json``.

Run from the repository root when a change alters fitted outputs on
purpose (and say why in the change)::

    python3 perfbench/record_expected.py [--size full|tiny] [--verify-seeds 3]

``--verify-seeds N`` re-presents each fit workload under seeds 1..N and fails
if any output differs from seed 0's, since the benchmark relies on
outputs that do not depend on claim order or identifiers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "tiny"), action="append")
    parser.add_argument("--verify-seeds", type=int, default=0)
    args = parser.parse_args(argv)
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    status = 0
    for size in args.size or ("full", "tiny"):
        table = expected.setdefault(size, {})
        for workload in workloads.RECORDED:
            table[workload] = workloads.record_expected(workload, size, seed=0)
            print(f"{size} {workload}: {table[workload]}", flush=True)
            for seed in range(1, args.verify_seeds + 1):
                again = workloads.record_expected(workload, size, seed=seed)
                if again != table[workload]:
                    print(f"  seed {seed} differs: {again}", flush=True)
                    status = 1
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
