"""Write bench/reference.json: per-entry digests of every workload's first
PASSES passes at seed 0.

    python3 bench/make_reference.py

Run from the repository root, only when a change to dcbox is meant to
change its result documents. Refuses to write if any entry fails its
theorem check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
PASSES = 6


def main() -> int:
    sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH)]
    import workloads

    reference = {}
    for name in workloads.NAMES:
        workload = workloads.make(name)
        workload.setup(0, workloads.out_dir(name, 0, False))
        reference[name] = []
        for _ in range(PASSES):
            attempted, problems, digests, _ = workload.run_pass(in_process=True).verdicts()
            failed = [line for found in problems for line in found]
            if failed:
                print(f"{name}: {failed[:5]}", file=sys.stderr)
                return 1
            reference[name].append(digests)
        print(f"{name}: {PASSES} passes of {attempted} entries")
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
