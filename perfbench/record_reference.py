"""Record ``reference.json``: what the program produces for every entry of
each workload's input pool. The committed file was recorded before any
optimisation of telegraphctl; re-recording it on a later commit would hide
the very changes the benchmark's correctness checks exist to catch.

Usage: python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import NullTracer  # noqa: E402
from workloads import POOL_SEED, WORKLOADS  # noqa: E402


def main() -> None:
    out = {"pool_seed": POOL_SEED, "workloads": {}}
    for name, cls in WORKLOADS.items():
        wl = cls()
        entries = []
        for j in range(wl.pool_size):
            outcome = wl.op(j, NullTracer())
            if outcome.problems:
                raise SystemExit(f"{name} pool entry {j}: {outcome.problems}")
            # The ensemble summary must not fail on any mix of pool entries,
            # so each entry must satisfy it on its own.
            wl.summarize([outcome])
            entries.append(outcome.record)
        out["workloads"][name] = entries
        print(f"{name}: {len(entries)} entries", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
